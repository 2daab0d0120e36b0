#!/usr/bin/env python3
"""Level-zero local factors as rational functions in X = q^(-s).

When theta restricts trivially to the half-level subfield, the cuspidal
representation carries a Shalika vector: the plain functional equation
breaks, the lifted Jacquet-Shalika values pick up L-factor corrections, the
local L-function acquires a pole, and a modified functional equation with a
rational gamma takes over.
"""

import cmath

from gammalab import (
    AddChar,
    CuspidalRep,
    LevelZeroCtx,
    RatQS,
    bessel_build,
    build_field,
    l_factor,
    lifted_dual_js,
    lifted_js,
    local_L_eps,
    local_gamma,
    shalika_detect,
    shalika_functional_value,
    shalika_witness,
)
from gammalab.exjs import broken_equation_witness, canonical_pair
from gammalab.levelzero import modified_fe_scans

f = build_field(3, 1, 2)

# k = 2 has trivial restriction to F_3^x: a Shalika vector exists.
table = bessel_build(CuspidalRep(f, 2), AddChar(f))
(flag, report), = shalika_detect([table])
print(f"theta = gen^2 over F_9: Shalika vector present = {flag}, "
      f"witness js(W, 1) = {report['witness_js']:.6f}")

# The witness breaks the plain functional equation: js = 1 but dual = 0.
a, b = broken_equation_witness(table)
print(f"broken equation: js = {a:.3f}, dual_js = {b:.3f}")

# Level-zero factors for three central-character units c.
for c in (1.0, 1j, cmath.exp(2j * cmath.pi / 5)):
    ctx = LevelZeroCtx(table, c)
    L, eps = local_L_eps(ctx)
    gam = local_gamma(ctx)
    print(f"\nc = {c:.4f}")
    print(f"  L     = {L}")
    print(f"  eps   = {eps}")
    print(f"  gamma = {gam.simplified()}")
    assert L.equals(l_factor(c, 1))
    # the lifted sums satisfy gamma * lifted_js = lifted_dual_js exactly
    w0, phi0 = canonical_pair(table)
    assert lifted_dual_js(ctx, w0, phi0).equals(gam * lifted_js(ctx, w0, phi0))
    # the twisted Shalika period of the witness is 1 at every admissible s
    assert abs(shalika_functional_value(ctx, shalika_witness(table)) - 1) < 1e-9

# The modified functional equation covers every pair with one rational gamma.
gamma_t, resid, pairs = modified_fe_scans([table])[0]
print(f"\nmodified functional equation: gamma~ = {gamma_t.simplified()}")
print(f"max coefficientwise residual over {pairs} exhaustive pairs: {resid:.2e}")

# Without a Shalika vector everything collapses to constants: L = 1 and
# gamma equals the finite-field gamma factor.
table_free = bessel_build(CuspidalRep(f, 1), AddChar(f))
ctx = LevelZeroCtx(table_free, 1.0)
L, eps = local_L_eps(ctx)
gam = local_gamma(ctx)
print(f"\ntheta = gen^1 (no Shalika vector): L = {L}, gamma = {gam}")
assert L.equals(RatQS.one()) and gam.is_constant()
