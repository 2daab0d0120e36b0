"""Acceptance suite: one test per criterion, one PASS line printed each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and residuals.
"""

import cmath
import random

import pytest

from gammalab.bessel import (
    bessel_build,
    bessel_closed_form_gl3,
    bessel_closed_form_gl4,
)
from gammalab.charkit import (
    AddChar,
    CFun,
    MultChar,
    gauss_sum,
    regular_exponents,
    restriction_is_trivial,
)
from gammalab.cuspchar import CuspidalRep, verify_irreducible
from gammalab.ffield import build_field
from gammalab import exjs
from gammalab import matgrp as mg
from gammalab.levelzero import (
    LevelZeroCtx,
    RatQS,
    l_factor,
    l_factor_from_shalika_functionals,
    lifted_dual_js,
    lifted_js,
    local_L_eps,
    local_gamma,
    modified_fe_check,
)

GRID = [(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3),
        (2, 1, 4), (3, 1, 4), (2, 1, 5)]

_TABLES = {}


def table_for(p, e, n, k, inverse=False):
    key = (p, e, n, k % (p ** (e * n) - 1), inverse)
    if key not in _TABLES:
        f = build_field(p, e, n)
        _TABLES[key] = bessel_build(CuspidalRep(f, k), AddChar(f, inverse))
    return _TABLES[key]


def no_shalika_exponents(f, n):
    ks = regular_exponents(f, n)
    if n % 2:
        return ks
    return [k for k in ks if not restriction_is_trivial(MultChar(f, n, k), n // 2)]


def _report(num, name, detail):
    print(f"ACCEPTANCE {num:>2} PASS  {name}: {detail}")


# -- criteria 1-3 share the route computations --------------------------------

_route_cache = {}


def routes_for_grid():
    if _route_cache:
        return _route_cache
    for (p, e, n) in GRID:
        f = build_field(p, e, n)
        for k in no_shalika_exponents(f, n):
            table = table_for(p, e, n, k)
            ratio = exjs.gamma_ratio(table, trials=100)
            torus = exjs.gamma_torus(table)
            closed = exjs.gamma_closed(table) if n in (2, 3, 4) else None
            _route_cache[(p, e, n, k)] = (ratio, torus, closed)
    return _route_cache


def test_criterion_01_triple_route_agreement():
    worst = 0.0
    count = 0
    for (p, e, n, k), (ratio, torus, closed) in routes_for_grid().items():
        delta = abs(ratio.value - torus.value)
        if closed is not None:
            delta = max(delta, abs(ratio.value - closed.value))
        worst = max(worst, delta)
        count += 1
        assert delta < 1e-7, f"(q={p ** e}, n={n}, k={k}): route delta {delta}"
    _report(1, "triple-route gamma agreement",
            f"{count} representations, max route delta {worst:.2e}")


def test_criterion_02_unitarity_and_duality():
    worst_unit = 0.0
    worst_dual = 0.0
    for (p, e, n, k), (ratio, _t, _c) in routes_for_grid().items():
        worst_unit = max(worst_unit, abs(abs(ratio.value) - 1))
        assert abs(abs(ratio.value) - 1) < 1e-8
        tilde = table_for(p, e, n, -k, inverse=True)
        gdual = exjs.gamma_torus(tilde).value
        prod = ratio.value * gdual
        worst_dual = max(worst_dual, abs(prod - 1))
        assert abs(prod - 1) < 1e-8, f"(q={p ** e}, n={n}, k={k})"
    _report(2, "unitarity and duality",
            f"max ||gamma|-1| = {worst_unit:.2e}, "
            f"max |gamma*gamma_dual - 1| = {worst_dual:.2e}")


def test_criterion_03_functional_equation_constancy():
    worst = 0.0
    pairs_min = None
    for (p, e, n, k), (ratio, _t, _c) in routes_for_grid().items():
        resid = ratio.diagnostics["max_residual"]
        npairs = ratio.diagnostics["pairs_checked"]
        worst = max(worst, resid)
        pairs_min = npairs if pairs_min is None else min(pairs_min, npairs)
        assert resid < 1e-8
        assert npairs >= 100 or (n == 2 and p ** e <= 3)
        if n == 2 and p ** e <= 3:
            # exhaustive sweep promised at this size
            assert npairs == mg.gl_order(p ** e, n) * (p ** e) ** (n // 2)
    _report(3, "functional-equation constancy",
            f"max residual {worst:.2e}, min pairs per rep {pairs_min}")


def test_criterion_04_shalika_equivalences():
    checked = 0
    # exhaustive search at n = 2 for every q <= 5
    for (p, e) in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = build_field(p, e, 2)
        for k in regular_exponents(f, 2):
            table = table_for(p, e, 2, k)
            (flag, report), = exjs.shalika_detect([table])
            assert flag == restriction_is_trivial(table.rep.theta, 1)
            if flag:
                a, b = exjs.broken_equation_witness(table)
                assert abs(a - 1) < 1e-9 and abs(b) < 1e-9
            checked += 1
    # witness + sampled-zero check at n = 4, q <= 3
    for (p, e) in ((2, 1), (3, 1)):
        f = build_field(p, e, 4)
        for k in regular_exponents(f, 4):
            table = table_for(p, e, 4, k)
            (flag, report), = exjs.shalika_detect([table], samples=1000)
            if flag:
                assert abs(report["witness_js"] - 1) < 1e-8
                a, b = exjs.broken_equation_witness(table)
                assert abs(a - 1) < 1e-8 and abs(b) < 1e-8
            else:
                assert report["max_js_one"] < 1e-8
            checked += 1
    _report(4, "Shalika equivalences",
            f"{checked} representations, criterion matches the js(.,1) search")


def test_criterion_05_bessel_certification():
    worst3 = 0.0
    # GL_3 printed formula, exhaustive over q <= 3, all scalars, all regular k
    for (p, e) in ((2, 1), (3, 1)):
        f = build_field(p, e, 3)
        psi = AddChar(f)
        for k in regular_exponents(f, 3):
            table = table_for(p, e, 3, k)
            for l1 in f.subfield_units(1):
                for l2 in f.subfield_units(1):
                    printed = bessel_closed_form_gl3(table.rep, psi, l1, l2)
                    worst3 = max(worst3,
                                 abs(printed - table.value((1, 2), (l1, l2))))
    assert worst3 < 1e-8
    # GL_4 w6 cell: q = 2 exhaustive in (mu, nu) over all regular k
    worst4 = 0.0
    f = build_field(2, 1, 4)
    psi = AddChar(f)
    for k in regular_exponents(f, 4):
        table = table_for(2, 1, 4, k)
        for mu in f.subfield_units(1):
            for nu in f.subfield_units(1):
                tw6 = mg.antidiag_elem(f, (2, 2), (mu, nu))
                printed = bessel_closed_form_gl4(table.rep, psi, mu, nu)
                worst4 = max(worst4, abs(printed - table.eval(tw6)))
    # q = 3: at least 50 sampled (theta, mu, nu) points
    f = build_field(3, 1, 4)
    psi = AddChar(f)
    rng = random.Random(exjs.DEFAULT_SEED)
    ks = regular_exponents(f, 4)
    sampled = 0
    while sampled < 50:
        k = rng.choice(ks)
        table = table_for(3, 1, 4, k)
        mu = rng.choice(f.subfield_units(1))
        nu = rng.choice(f.subfield_units(1))
        tw6 = mg.antidiag_elem(f, (2, 2), (mu, nu))
        printed = bessel_closed_form_gl4(table.rep, psi, mu, nu)
        worst4 = max(worst4, abs(printed - table.eval(tw6)))
        sampled += 1
    assert worst4 < 1e-8
    # support theorem and bi-equivariance, 10^4 random evaluations per rep
    worst_eq = 0.0
    for (p, e, n) in ((2, 1, 3), (3, 1, 3), (2, 1, 4), (3, 1, 4)):
        f = build_field(p, e, n)
        ks = regular_exponents(f, n)
        table = table_for(p, e, n, ks[0])
        psi = table.psi
        rng = random.Random(exjs.DEFAULT_SEED + n)
        for _ in range(10000):
            g = mg.random_invertible(f, n, rng)
            u1 = mg.random_unipotent(f, n, rng)
            u2 = mg.random_unipotent(f, n, rng)
            val = table.eval(g)
            lhs = table.eval(mg.mat_chain(f, u1, g, u2))
            rhs = (psi(mg.superdiag_sum(f, u1)) * psi(mg.superdiag_sum(f, u2))
                   * val)
            worst_eq = max(worst_eq, abs(lhs - rhs))
            dec = mg.bruhat(f, g)
            if mg.parse_antidiag(mg.mat_mul(f, dec.w, dec.d)) is None:
                assert val == 0
    assert worst_eq < 1e-9
    _report(5, "Bessel certification",
            f"GL3 residual {worst3:.2e}, GL4 residual {worst4:.2e}, "
            f"equivariance residual {worst_eq:.2e} over 4x10^4 evaluations")


def test_criterion_06_character_oracle():
    worst = 0.0
    count = 0
    for (p, e, n) in GRID:
        f = build_field(p, e, n)
        if mg.gl_order(f.q, n) > 10 ** 7:
            continue
        for k in regular_exponents(f, n):
            (report,) = verify_irreducible([CuspidalRep(f, k)], samples=12)
            worst = max(worst, abs(report["inner_product"] - 1))
            assert abs(report["inner_product"] - 1) < 1e-6
            assert report["degree"].real == pytest.approx(
                CuspidalRep(f, k).dimension(), abs=1e-6)
            count += 1
    _report(6, "character oracle",
            f"{count} representations, max |<chi,chi>-1| = {worst:.2e}")


C_VALUES = (1.0, 1j, cmath.exp(2j * cmath.pi / 5))


def test_criterion_07_level_zero_theorems():
    worst = 0.0
    count = 0
    rng = random.Random(exjs.DEFAULT_SEED)
    for (p, e, n) in ((2, 1, 2), (3, 1, 2), (2, 1, 4), (3, 1, 4)):
        f = build_field(p, e, n)
        m = n // 2
        for k in regular_exponents(f, n):
            table = table_for(p, e, n, k)
            shal = restriction_is_trivial(table.rep.theta, m)
            (flag, _), = exjs.shalika_detect([table], samples=40)
            assert flag == shal
            pairs = [exjs.canonical_pair(table)]
            for _ in range(2):
                h = mg.random_invertible(f, n, rng)
                w = exjs.WhittakerFun.translate(table, h)
                pt = CFun(f, m).point_at(rng.randrange(f.q ** m))
                pairs.append((w, CFun.delta(f, m, pt)))
            pairs.append((pairs[1][0], CFun.constant(f, m, 1.0)))
            for c in C_VALUES:
                ctx = LevelZeroCtx(table, c)
                gam = local_gamma(ctx)
                L, eps = local_L_eps(ctx)
                # gamma constant iff no Shalika vector; explicit L and eps
                assert gam.is_constant() == (not shal)
                if shal:
                    assert L.equals(l_factor(c, m), 1e-9)
                    expect_eps = (RatQS.const(f.q ** (-m / 2.0) / c)
                                  * RatQS.x_power(-m))
                    assert eps.equals(expect_eps, 1e-9)
                else:
                    assert L.equals(RatQS.one())
                # pole iff Shalika (jo2018 reconciliation included)
                assert (not L.equals(RatQS.one())) == shal
                assert l_factor_from_shalika_functionals(ctx).equals(L, 1e-8)
                # the lifted sums satisfy the level-zero functional equation
                # as exact RatQS identities, and are constants without a
                # Shalika vector
                for w, phi in pairs:
                    lj = lifted_js(ctx, w, phi)
                    ld = lifted_dual_js(ctx, w, phi)
                    resid = ld.residual(gam * lj)
                    worst = max(worst, resid)
                    assert resid < 1e-8
                    if not shal:
                        assert lj.is_constant() and ld.is_constant()
                count += 1
    _report(7, "level-zero theorems",
            f"{count} (theta, c) cases, max lifted-identity residual {worst:.2e}")


def test_criterion_08_modified_functional_equation():
    worst = 0.0
    count = 0
    for (p, e) in ((2, 1), (3, 1)):
        f = build_field(p, e, 2)
        for k in regular_exponents(f, 2):
            table = table_for(p, e, 2, k)
            gamma_t, resid = modified_fe_check(table)
            worst = max(worst, resid)
            assert resid < 1e-9
            count += 1
    f = build_field(2, 1, 4)
    for k in regular_exponents(f, 4):
        table = table_for(2, 1, 4, k)
        gamma_t, resid = modified_fe_check(table, trials=100)
        worst = max(worst, resid)
        assert resid < 1e-8
        count += 1
    _report(8, "modified functional equation",
            f"{count} representations, max coefficient residual {worst:.2e}")


def test_criterion_09_appendix_bounds():
    values = set()
    count = 0
    for (p, e, n) in ((2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3), (3, 1, 3),
                      (2, 1, 4)):
        f = build_field(p, e, n)
        for k in regular_exponents(f, n):
            (val,) = exjs.homdim_check([CuspidalRep(f, k)])
            assert val in (0, 1)
            values.add(val)
            count += 1
    _report(9, "appendix multiplicity bounds",
            f"{count} representations, values observed {sorted(values)}")


def test_criterion_10_exponential_sum_lemmas():
    worst = 0.0
    rng = random.Random(exjs.DEFAULT_SEED)
    for (p, e) in ((2, 1), (3, 1), (2, 2), (5, 1)):
        for n in (2, 3, 4):
            f = build_field(p, e, n)
            units_top = f.subfield_units(n)
            units_base = f.subfield_units(1)
            norms = {xi: f.norm(xi, n, 1) for xi in units_top}
            for _ in range(100):
                tab = {(xi, lam): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for xi in units_top for lam in units_base}
                lhs = 0j
                for lam in units_base:
                    lam2 = f.mul(lam, lam)
                    for xi in units_top:
                        if norms[xi] == lam2:
                            lhs += tab[(xi, lam)]
                rhs = 0j
                for xi in units_top:
                    xi2 = f.mul(xi, xi)
                    nx = norms[xi]
                    rhs += 0.5 * (tab[(xi2, nx)] + tab[(xi2, f.neg(nx))])
                worst = max(worst, abs(lhs - rhs))
                assert abs(lhs - rhs) < 1e-9
    worst_gauss = 0.0
    for (p, e) in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        f = build_field(p, e, 1)
        psi = AddChar(f)
        for k in range(1, f.q - 1):
            g = gauss_sum(MultChar(f, 1, k), psi)
            worst_gauss = max(worst_gauss, abs(abs(g) - f.q ** 0.5))
            assert abs(abs(g) - f.q ** 0.5) < 1e-8
    _report(10, "exponential-sum lemmas",
            f"square-sum residual {worst:.2e}, "
            f"Gauss modulus residual {worst_gauss:.2e}")
