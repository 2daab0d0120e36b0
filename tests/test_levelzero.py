import cmath
import functools
import json
import random
from collections import OrderedDict

import numpy as np
import pytest

from gammalab.bessel import BesselTable, bessel_build, bessel_tables
from gammalab.charkit import AddChar, CFun, regular_exponents, regular_orbit_reps
from gammalab.cuspchar import CuspidalRep
from gammalab.errors import NonConstantRatio, PreconditionViolated
from gammalab.ffield import build_field
from gammalab import exjs, levelzero
from gammalab import matgrp as mg
from poolref import canonical_pool, canonical_profiles
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
    modified_fe_scans,
    shalika_functional_value,
)

C_VALUES = [1.0, 1j, cmath.exp(2j * cmath.pi / 5)]


def make_table(p, e, n, k):
    f = build_field(p, e, n)
    return bessel_build(CuspidalRep(f, k), AddChar(f))


def test_ratqs_basics():
    x = RatQS.x_power(1)
    one = RatQS.one()
    f = (one - x) / (one + x)
    g = (one + x) / (one - x)
    assert (f * g).equals(one)
    assert f.inverse().equals(g)
    # Laurent shifts
    lx = RatQS.x_power(-2) * (one + x)
    assert abs(lx.evaluate(2.0) - (1 + 2) / 4) < 1e-12
    # reduction is idempotent
    h = RatQS([1, -2, 1], [1, -1])  # (1-X)^2 / (1-X)
    assert h.simplified().equals(RatQS([1, -1]))
    assert h.simplified().simplified().equals(h.simplified())
    # addition / subtraction round trip
    s = f + g
    assert (s - g).equals(f)


@pytest.mark.parametrize("num, den", [([np.nan], [1.0]), ([1.0, np.inf], [1.0]),
                                      ([1.0], [1.0, complex(0, np.nan)])])
def test_ratqs_refuses_non_finite_coefficients(num, den):
    with pytest.raises(PreconditionViolated, match="not finite"):
        RatQS(num, den)


def test_ratqs_equality_matches_evaluation():
    rng = random.Random(1)
    for _ in range(20):
        num = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
        den = [1.0] + [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2)]
        shift = rng.randrange(-2, 3)
        a = RatQS(num, den, shift)
        b = RatQS([2 * c for c in num], [2 * c for c in den], shift)
        assert a.equals(b)
        c = RatQS(num, den, shift + 1)
        # equality verdict agrees with evaluation on unit-circle points
        pts = [cmath.exp(2j * cmath.pi * rng.random()) for _ in range(5)]
        same = all(abs(a.evaluate(x) - c.evaluate(x)) < 1e-9 for x in pts)
        assert a.equals(c) == same


def test_ratqs_serialization_roundtrip():
    a = RatQS([1.0, 2.0 + 1j], [1.0, 0, -0.5j], -3)
    blob = json.dumps(a.to_json_dict())
    b = RatQS.from_json_dict(json.loads(blob))
    assert a.equals(b)


def test_l_factor():
    assert l_factor(0, 2).equals(RatQS.one())
    lf = l_factor(1.0, 1)
    assert lf.equals(RatQS([1.0], [1.0, -1.0]))
    # product over the m-th roots of c of (1 - alpha X)^{-1} = 1/(1 - c X^m)
    for c in (1.0, 1j):
        for m in (1, 2, 3):
            prod = RatQS.one()
            base = cmath.exp(1j * cmath.phase(complex(c)) / m)
            for j in range(m):
                alpha = base * cmath.exp(2j * cmath.pi * j / m)
                prod = prod * RatQS([1.0], [1.0, -alpha])
            assert prod.equals(l_factor(c, m), 1e-9)


def test_lifted_js_constant_without_shalika():
    # odd n: always constants; even n without a Shalika vector: constants
    for (p, n, k) in ((2, 3, 1), (3, 2, 1)):
        table = make_table(p, 1, n, k)
        ctx = LevelZeroCtx(table, 1j)
        rng = random.Random(2)
        for _ in range(5):
            h = mg.random_invertible(table.ctx, n, rng)
            w = exjs.WhittakerFun.translate(table, h)
            m = n // 2
            phi = CFun(table.ctx, m,
                       [complex(rng.uniform(-1, 1)) for _ in range(table.ctx.q ** m)])
            a = lifted_js(ctx, w, phi)
            b = lifted_dual_js(ctx, w, phi)
            assert a.is_constant() and b.is_constant()
            assert abs(a.constant_value() - exjs.js(table, w, phi)) < 1e-10
            assert abs(b.constant_value() - exjs.dual_js(table, w, phi)) < 1e-10


def test_lifted_js_shalika_case_gives_l_factor():
    # canonical Shalika situation: q=3, n=2, k=2; witness W with js(W,1) = 1
    table = make_table(3, 1, 2, 2)
    w = exjs.shalika_witness(table)
    f = table.ctx
    one = CFun.constant(f, 1, 1.0)
    assert abs(exjs.js(table, w, one) - 1) < 1e-10
    for c in C_VALUES:
        ctx = LevelZeroCtx(table, c)
        lifted = lifted_js(ctx, w, one)
        # js(W, 1) + c X L(s, omega) = L(s, omega) when js(W, phi=1) = 1
        assert lifted.equals(l_factor(c, 1), 1e-8)
        dual = lifted_dual_js(ctx, w, one)
        # q^{m/2} q^{-m} X^{-m} c^{-1} L(m(1-s), omega^{-1})
        q = f.q
        expect = (RatQS.const(q ** 0.5 * q ** -1 / c) * RatQS.x_power(-1)
                  * (RatQS.one() - RatQS.const(q ** -1 / c)
                     * RatQS.x_power(-1)).inverse())
        assert dual.equals(expect, 1e-8)


@pytest.mark.parametrize("c", C_VALUES)
def test_local_gamma_no_shalika(c):
    table = make_table(3, 1, 2, 1)
    ctx = LevelZeroCtx(table, c)
    L, eps = local_L_eps(ctx)
    gam = local_gamma(ctx)
    assert L.equals(RatQS.one())
    assert gam.is_constant() and eps.is_constant()
    assert abs(gam.constant_value() - exjs.gamma_closed(table).value) < 1e-8
    assert abs(eps.constant_value() - gam.constant_value()) < 1e-10


@pytest.mark.parametrize("c", C_VALUES)
def test_local_gamma_shalika(c):
    table = make_table(3, 1, 2, 2)
    q = table.ctx.q
    ctx = LevelZeroCtx(table, c)
    L, eps = local_L_eps(ctx)
    assert L.equals(l_factor(c, 1))
    assert eps.equals(RatQS.const(q ** -0.5 / c) * RatQS.x_power(-1))
    gam = local_gamma(ctx)
    assert not gam.is_constant()
    # explicit reduced form for c = 1: 3^{-1/2} X^{-1} (1-X) / (1 - 3^{-1} X^{-1})
    if c == 1.0:
        expect = (RatQS.const(q ** -0.5) * RatQS.x_power(-1)
                  * RatQS([1.0, -1.0])
                  / (RatQS.one() - RatQS.const(1 / q) * RatQS.x_power(-1)))
        assert gam.equals(expect, 1e-9)


def test_pole_iff_shalika():
    # L has a pole (nontrivial denominator) exactly when a Shalika vector exists
    for (p, n) in ((3, 2), (2, 4)):
        f = build_field(p, 1, n)
        from gammalab.charkit import regular_orbit_reps
        for k in regular_orbit_reps(f, n):
            table = make_table(p, 1, n, k)
            ctx = LevelZeroCtx(table, 1.0)
            L, _ = local_L_eps(ctx)
            (flag, _), = exjs.shalika_detect([table], samples=50)
            assert (not L.equals(RatQS.one())) == flag


def test_gamma_of_contragredient_product():
    # constants multiply to 1 across the duality in the no-Shalika case
    f = build_field(3, 1, 2)
    t1 = make_table(3, 1, 2, 1)
    rep2 = CuspidalRep(f, -1)
    t2 = bessel_build(rep2, AddChar(f, True))
    g1 = local_gamma(LevelZeroCtx(t1, 1.0)).constant_value()
    g2 = local_gamma(LevelZeroCtx(t2, 1.0)).constant_value()
    assert abs(g1 * g2 - 1) < 1e-9


def test_modified_fe_no_shalika_reduces_to_constant():
    table = make_table(3, 1, 2, 1)
    gamma_t, worst = modified_fe_check(table)
    assert worst < 1e-9
    assert gamma_t.is_constant()
    assert abs(gamma_t.constant_value() - exjs.gamma_ratio(table).value) < 1e-8


def test_modified_fe_shalika_matches_local_gamma_at_c1():
    table = make_table(3, 1, 2, 2)
    gamma_t, worst = modified_fe_check(table)
    assert worst < 1e-9
    gam = local_gamma(LevelZeroCtx(table, 1.0))
    # c = 1 means the s-shift vanishes: gamma~ equals the local gamma
    assert gamma_t.equals(gam, 1e-8)


def pointwise_canonical_ratio(lz):
    """lifted dual_js / lifted js on the canonical pair (W0, phi0 = delta at
    x0) of one table at lz.c in RatQS arithmetic, its three sums read off
    the canonical profile of the canonical pool alone: js(W0, phi0) =
    a[x0], dual_js(W0, phi0) = b[x0] and js(W0, 1) = sum_x a[x] (0 for odd
    n), with phi0(0) = [x0 = 0] and phi0^(0) = q^(-m/2).  The reference
    for the block arrays of `levelzero._canonical_ratios`."""
    (a,), (b,) = canonical_profiles([lz.table])
    at = exjs._canonical_point(lz.table.ctx, lz.n)
    j1 = 0j if lz.n % 2 else complex(a.sum())
    return (lz.lift(b[at], lz.q ** (-lz.m / 2.0), j1, dual=True)
            / lz.lift(a[at], float(at == 0), j1))


def _per_pair_residual(table, trials=100, seed=exjs.DEFAULT_SEED):
    """The modified-FE residual pair by pair in RatQS arithmetic: the
    reference for the batched rows of modified_fe_scans."""
    lz = LevelZeroCtx(table, 1.0)
    gamma_t = pointwise_canonical_ratio(lz)
    phat_0 = lz.q ** (-lz.m / 2.0)
    (js_arr,), (dual_arr,) = exjs._pool_profiles(
        [table], exjs._fe_pool(table.ctx, table.n, seed, trials))
    worst = 0.0
    for js_vec, dual_vec in zip(js_arr, dual_arr):
        j1 = sum(js_vec)
        for i, (a, b) in enumerate(zip(js_vec, dual_vec)):
            lhs = lz.lift(b, phat_0, j1, dual=True)
            rhs = lz.lift(a, float(i == 0), j1)
            worst = max(worst, lhs.residual(gamma_t * rhs))
    return worst


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (2, 4)])
def test_modified_fe_batched_rows_match_per_pair_reference(p, n):
    # exhaustive at n = 2, sampled (100 translates) at (2, 4); numerical
    # zero pairs (every coefficient <= ZERO_COEFF) count as 0 = 0
    f = build_field(p, 1, n)
    for k in regular_orbit_reps(f, n):
        table = make_table(p, 1, n, k)
        gamma_t, worst, checked = modified_fe_scans([table])[0]
        translates = exjs._fe_translates(f, n, exjs.DEFAULT_SEED, 100)
        assert checked == len(translates) * p ** (n // 2)
        assert modified_fe_check(table) == (gamma_t, worst)
        assert worst <= 1e-13
        assert _per_pair_residual(table) <= 1e-13


@pytest.mark.parametrize("p,n,k", [(5, 2, 4), (3, 4, 1)])
def test_modified_fe_detects_a_perturbed_gamma(p, n, k, monkeypatch):
    # a gamma~ off by a relative 1e-6 fails the 1e-8 bound, with and
    # without a Shalika vector (q5n2 theta = 4 has one, q3n4 theta = 1 not)
    table = make_table(p, 1, n, k)
    block = levelzero._canonical_ratios
    monkeypatch.setattr(levelzero, "_canonical_ratios",
                        lambda *args: [g * RatQS.const(1 + 1e-6) for g in block(*args)])
    with pytest.raises(NonConstantRatio):
        modified_fe_check(table)


@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (5, 1, 2), (7, 1, 2), (2, 2, 2),
                                   (3, 2, 2), (2, 1, 4), (3, 1, 4), (2, 1, 3),
                                   (2, 1, 5)])
@pytest.mark.parametrize("inverse", [False, True])
def test_block_gamma_tilde_matches_pointwise_ratio(p, e, n, inverse):
    # the block arrays give each table's canonical-pair ratio at c = 1 bit
    # for bit, zeros' signs included: every Shalika table's, the constant of
    # every table without a Shalika vector, and the constant b0 / a0 of odd
    # n; at the other units c they are within 1e-15 of the RatQS arithmetic
    f = build_field(p, e, n)
    tables = bessel_tables(f, n, regular_exponents(f, n), AddChar(f, inverse))
    profiles = exjs.block_profiles(tables)
    for c in (1.0, 1j, -1.0, cmath.exp(0.7j)):
        block = levelzero._canonical_ratios(tables, profiles.js0, profiles.dual0, c)
        assert len(block) == len(tables)
        for table, gamma_t in zip(tables, block):
            ref = pointwise_canonical_ratio(LevelZeroCtx(table, c))
            assert gamma_t.is_constant() != exjs.has_shalika_vector(table)
            assert gamma_t.residual(ref) <= 1e-15
            if c == 1:
                assert gamma_t.x_shift == ref.x_shift
                assert gamma_t.num.tobytes() == ref.num.tobytes()
                assert gamma_t.den.tobytes() == ref.den.tobytes()


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (2, 4), (3, 4)])
def test_coefficient_block_matches_per_table_products(p, n):
    # the batched coefficient rows against each table's np.convolve
    # products, aligned on the block's lowest shift
    tables = shalika_tables(p, n)
    terms = levelzero._level_zero_terms(p, n // 2, 1 + 0j)
    gammas = levelzero._canonical_ratios(tables, *canonical_profiles(tables), 1.0)
    block = levelzero._coefficient_block(terms, gammas)
    d, j = terms.dual_corr, terms.js_corr
    low = min(0, d.x_shift, *(g.x_shift + s for g in gammas for s in (0, j.x_shift)))
    for t, g in enumerate(gammas):
        ref = np.zeros_like(block[:, t])
        for row, (shift, *factors) in zip(ref, [(0, d.den, g.den, j.den),
                                                (d.x_shift, d.num, g.den, j.den),
                                                (g.x_shift, g.num, j.den, d.den),
                                                (g.x_shift + j.x_shift, g.num, j.num, d.den)]):
            poly = functools.reduce(np.convolve, factors)
            row[shift - low:shift - low + len(poly)] = poly
        assert np.abs(block[:, t] - ref).max() <= 1e-15 * np.abs(ref).max()


def shalika_tables(p, n, inverse=False):
    """The Bessel tables of every regular theta with a Shalika vector."""
    f = build_field(p, 1, n)
    tables = bessel_tables(f, n, regular_orbit_reps(f, n), AddChar(f, inverse))
    return [t for t in tables if exjs.has_shalika_vector(t)]


def assert_ratqs_close(x, y, tol=1e-13):
    assert x.x_shift == y.x_shift
    assert x.num.shape == y.num.shape and x.den.shape == y.den.shape
    assert np.abs(x.num - y.num).max(initial=0.0) <= tol
    assert np.abs(x.den - y.den).max() <= tol


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2), (7, 2), (2, 4), (3, 4)])
@pytest.mark.parametrize("inverse", [False, True])
def test_modified_fe_block_matches_per_pair_reference(p, n, inverse):
    # one block of every Shalika theta against the per-pair RatQS residual
    # and the canonical ratio of each table alone, and against blocks of one
    tables = shalika_tables(p, n, inverse)
    assert tables
    block = modified_fe_scans(tables)
    assert len(block) == len(tables)
    for table, (gamma_t, worst, checked) in zip(tables, block):
        assert_ratqs_close(gamma_t, pointwise_canonical_ratio(LevelZeroCtx(table, 1.0)))
        assert abs(worst - _per_pair_residual(table)) <= 1e-13
        one_gamma, one_worst, one_checked = modified_fe_scans([table])[0]
        assert_ratqs_close(gamma_t, one_gamma)
        assert abs(worst - one_worst) <= 1e-13 and checked == one_checked > 0


@pytest.mark.parametrize("p,n", [(5, 2), (7, 2), (3, 4)])
def test_modified_fe_block_refuses_one_perturbed_table(p, n):
    # one table moved by up to 1e-6 on every key the canonical pair does not
    # read: its gamma~ stays, so only the pairs of the pool can see it.  The
    # shifts are random: at n = 2 one constant shift of those keys leaves
    # every pair's equation intact
    tables = shalika_tables(p, n)
    modified_fe_scans(tables)
    f = tables[0].ctx
    at = len(tables) // 2
    values = tables[at].values.copy()
    off = np.ones(len(values), dtype=bool)
    off[canonical_pool(f, n).key] = False
    rng = np.random.default_rng(7)
    values[off] += 1e-6 * np.exp(2j * np.pi * rng.random(off.sum()))
    block = list(tables)
    block[at] = BesselTable(tables[at].rep, tables[at].psi, values)
    with pytest.raises(NonConstantRatio, match=f"at theta = {tables[at].rep.exponent}$"):
        modified_fe_scans(block)


def test_modified_fe_block_refuses_mixed_tables():
    # q5n2: theta = 4 has a Shalika vector, theta = 1 has none
    with_vector, without = make_table(5, 1, 2, 4), make_table(5, 1, 2, 1)
    assert exjs.has_shalika_vector(with_vector) and not exjs.has_shalika_vector(without)
    with pytest.raises(PreconditionViolated):
        modified_fe_scans([with_vector, without])
    assert modified_fe_scans([]) == []


def test_level_zero_terms_built_once_per_q_m_c(monkeypatch):
    # LevelZeroCtx shares the cached rational functions of its (q, m, c)
    calls = []
    build = levelzero.l_factor
    monkeypatch.setattr(levelzero, "l_factor", lambda c, m: calls.append((c, m)) or build(c, m))
    levelzero._level_zero_terms.cache_clear()
    table = make_table(5, 1, 2, 4)
    first = LevelZeroCtx(table, 1j)
    again = LevelZeroCtx(make_table(5, 1, 2, 8), 1j)
    assert calls == [(1j, 1)]
    assert first.terms is again.terms and first.js_corr is again.js_corr
    assert local_gamma(first) is first.terms.gamma
    assert LevelZeroCtx(table, 1.0).terms is not first.terms and len(calls) == 2
    with pytest.raises(ValueError):
        first.terms.L.num[0] = 2.0  # shared read-only


@pytest.mark.parametrize("p,n,first,second", [(3, 2, (2, 1), (6, 5)),
                                               (2, 4, (3, 1), (6, 7))])
def test_second_representation_reads_shared_rows(p, n, first, second,
                                                 monkeypatch):
    # (Shalika exponent, non-Shalika exponent): once one of each kind has
    # run, the translate rows, pools and the witness's compiled rows (its
    # W(sigma) included) are cached for every representation at (q, n), so
    # a second of each kind decomposes nothing
    def run(shalika, plain):
        lz = LevelZeroCtx(shalika, 1.0)
        local_gamma(lz)
        l_factor_from_shalika_functionals(lz)
        exjs.gamma_ratio(plain)

    shalika, plain, shalika2, plain2 = [make_table(p, 1, n, k) for k in first + second]
    calls, batched = [], []
    reduce, batch = mg.bruhat_reduce, mg.batch_bruhat
    monkeypatch.setattr(mg, "bruhat_reduce",
                        lambda ctx, g: calls.append(g) or reduce(ctx, g))
    monkeypatch.setattr(mg, "batch_bruhat",
                        lambda ctx, g: batched.append(len(g)) or batch(ctx, g))
    # empty row and pool caches, so the first of each kind decomposes its
    # rows through the batched kernel: the counter is live
    monkeypatch.setattr(exjs, "_ROWS", OrderedDict())
    exjs._cached_pool.cache_clear()
    exjs._witness_rows.cache_clear()
    run(shalika, plain)
    exjs.shalika_detect([shalika])
    assert sum(batched) > 0
    calls.clear()
    batched.clear()
    run(shalika2, plain2)
    assert calls == [] and batched == []
    (flag, _), = exjs.shalika_detect([shalika2])
    assert flag and batched == []
    assert calls == []


def test_shalika_functional_linearity_and_values():
    table = make_table(3, 1, 2, 2)
    ctx = LevelZeroCtx(table, 1.0)
    w = exjs.shalika_witness(table)
    assert abs(shalika_functional_value(ctx, w) - 1) < 1e-10
    # linearity
    w2 = exjs.WhittakerFun(table, [(2.0, h) for _, h in w.terms])
    zero_free = make_table(3, 1, 2, 1)
    ctx_free = LevelZeroCtx(zero_free, 1.0)
    w0, _ = exjs.canonical_pair(zero_free)
    assert abs(shalika_functional_value(ctx_free, w0)) < 1e-10


def test_l_factor_from_shalika_functionals():
    for c in C_VALUES:
        t_shal = make_table(3, 1, 2, 2)
        ctx = LevelZeroCtx(t_shal, c)
        assert l_factor_from_shalika_functionals(ctx).equals(l_factor(c, 1), 1e-8)
        t_free = make_table(3, 1, 2, 1)
        ctx = LevelZeroCtx(t_free, c)
        assert l_factor_from_shalika_functionals(ctx).equals(RatQS.one())


def test_l_denominator_divides_cyclotomic_factor():
    # the computed L denominator divides 1 - c X^m as a polynomial identity
    import numpy as np
    for (p, n, k) in ((3, 2, 1), (3, 2, 2), (2, 4, 1), (2, 4, 3)):
        table = make_table(p, 1, n, k)
        m = n // 2
        for c in C_VALUES:
            L, _ = local_L_eps(LevelZeroCtx(table, c))
            den = L.den
            target = np.zeros(m + 1, dtype=complex)
            target[0] = 1.0
            target[m] = -c
            _, rem = np.polydiv(target[::-1], den[::-1])
            assert np.allclose(rem, 0, atol=1e-9)


def test_levelzero_preconditions():
    table = make_table(3, 1, 2, 1)
    with pytest.raises(PreconditionViolated):
        LevelZeroCtx(table, 2.0)
    t_odd = make_table(2, 1, 3, 1)
    with pytest.raises(PreconditionViolated):
        modified_fe_check(t_odd)


@pytest.mark.parametrize("c", [complex("nan"), complex(float("nan"), 1.0),
                               complex("inf"), complex(0.0, float("-inf"))])
def test_non_finite_c_refused(c):
    # NaN compares false with every bound: the context refuses c off the
    # unit circle, and l_factor refuses it as a non-finite RatQS coefficient
    table = make_table(3, 1, 2, 2)
    with pytest.raises(PreconditionViolated):
        LevelZeroCtx(table, c)
    with pytest.raises(PreconditionViolated):
        l_factor(c, 1)
    assert l_factor(0.0, 1).equals(RatQS.one())
