"""gammalab: exterior-square gamma factors of cuspidal representations of
GL_n over a finite field, computed by three independent routes, together
with the level-zero local factors L, epsilon, gamma as rational functions
in X = q^(-s)."""

import os
# the package makes no threaded BLAS call: numpy, imported below, need start no pool
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .ffield import FieldCtx, build_field
from .charkit import (
    AddChar,
    CFun,
    MultChar,
    fourier,
    gauss_sum,
    is_regular,
    kloosterman,
    regular_exponents,
    regular_orbit_reps,
    restriction_is_trivial,
)
from .cuspchar import CuspidalRep, verify_irreducible
from .bessel import (
    BesselTable,
    bessel_build,
    bessel_closed_form_gl3,
    bessel_closed_form_gl4,
    export_bessel_csv,
)
from .exjs import (
    GammaResult,
    WhittakerFun,
    canonical_pair,
    dual_js,
    gamma_closed,
    gamma_ratio,
    gamma_torus,
    homdim_check,
    js,
    s0_s1_decomposition,
    shalika_action,
    shalika_detect,
    shalika_psi,
    shalika_witness,
)
from .levelzero import (
    LevelZeroCtx,
    RatQS,
    l_factor,
    lifted_dual_js,
    lifted_js,
    local_L_eps,
    local_gamma,
    modified_fe_check,
    shalika_functional_value,
)

__all__ = [
    "FieldCtx", "build_field",
    "AddChar", "MultChar", "CFun", "fourier", "gauss_sum", "kloosterman",
    "is_regular", "restriction_is_trivial", "regular_exponents",
    "regular_orbit_reps",
    "CuspidalRep", "verify_irreducible",
    "BesselTable", "bessel_build", "bessel_closed_form_gl3",
    "bessel_closed_form_gl4", "export_bessel_csv",
    "WhittakerFun", "GammaResult", "js", "dual_js", "canonical_pair",
    "gamma_ratio", "gamma_torus", "gamma_closed", "s0_s1_decomposition",
    "shalika_action", "shalika_psi", "shalika_detect", "shalika_witness",
    "homdim_check",
    "RatQS", "LevelZeroCtx", "l_factor", "lifted_js", "lifted_dual_js",
    "local_gamma", "local_L_eps", "modified_fe_check",
    "shalika_functional_value",
]
