import itertools
import random

import pytest

import numpy as np

from gammalab.bessel import (BesselTable, bessel_build, bessel_tables, support_keys,
                             support_signature)
from gammalab.charkit import (AddChar, CFun, fourier, gauss_sum, kloosterman,
                              regular_exponents, regular_orbit_reps,
                              restriction_is_trivial)
from gammalab.cuspchar import CuspidalRep
from gammalab.errors import (DimensionMismatch, NonConstantRatio,
                             PreconditionViolated, ShalikaVectorPresent,
                             UnsupportedN)
from gammalab.ffield import build_field
from gammalab import bessel, exjs, levelzero
from gammalab import matgrp as mg
from poolref import canonical_pool, separate_profiles


def make_table(p, e, n, k, inverse=False):
    f = build_field(p, e, n)
    rep = CuspidalRep(f, k)
    psi = AddChar(f, inverse)
    return bessel_build(rep, psi)


def no_shalika_reps(f, n):
    from gammalab.charkit import MultChar, restriction_is_trivial
    if n % 2:
        return regular_orbit_reps(f, n)
    return [k for k in regular_orbit_reps(f, n)
            if not restriction_is_trivial(MultChar(f, n, k), n // 2)]


def test_canonical_pair_is_one():
    for (p, n, k) in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1), (2, 5, 1)):
        table = make_table(p, 1, n, k)
        w0, phi0 = exjs.canonical_pair(table)
        assert abs(exjs.js(table, w0, phi0) - 1) < 1e-9


def test_even_dual_canonical_value():
    # phi(x) = psi(-x_1) makes the dual sum equal q^(m/2)
    for (p, n, k) in ((3, 2, 1), (2, 4, 1)):
        table = make_table(p, 1, n, k)
        f, m = table.ctx, table.n // 2
        w0, _ = exjs.canonical_pair(table)
        vals = []
        probe = CFun(f, m)
        for i in range(probe.size):
            pt = probe.point_at(i)
            vals.append(table.psi(f.neg(pt[0])))
        phi = CFun(f, m, vals)
        assert abs(exjs.dual_js(table, w0, phi) - f.q ** (m / 2)) < 1e-8


@pytest.mark.parametrize("p,n", [(3, 2), (2, 3), (2, 4)])
def test_js_profiles_match_pointwise(p, n):
    # js / dual_js read the compiled rows of a WhittakerFun's translates:
    # one-term, right-translated, two scaled copies of one translate and
    # (even n) the psi-scaled Shalika witness, against the pointwise sums
    table = make_table(p, 1, n, 1)
    f, m = table.ctx, n // 2
    rng = random.Random(2)
    hs = [mg.random_invertible(f, n, rng) for _ in range(3)]
    ws = [exjs.WhittakerFun.translate(table, h) for h in hs]
    ws.append(exjs.WhittakerFun(table, [(0.5, hs[0]), (2j, hs[1])])
              .right_translated(hs[2]))
    ws.append(exjs.WhittakerFun(table, [(1.5, hs[0]), (-0.25j, hs[0])]))
    if n % 2 == 0:
        ws.append(exjs.shalika_witness(table))
    probe = CFun(f, m)
    for w in ws:
        js_vec, dual_vec = exjs.js_profiles(table, w)
        for i in range(probe.size):
            phi = CFun.delta(f, m, probe.point_at(i))
            assert abs(js_vec[i] - exjs.js(table, w, phi)) < 1e-10
            assert abs(dual_vec[i] - exjs.dual_js(table, w, phi)) < 1e-10
        # a bare callable takes the pointwise path for any phi
        phi = CFun(f, m, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(probe.size)])
        assert abs(exjs.js(table, w, phi) - exjs.js(table, lambda g: w(g), phi)) < 1e-10
        assert abs(exjs.dual_js(table, w, phi)
                   - exjs.dual_js(table, lambda g: w(g), phi)) < 1e-10


def test_sums_refuse_phi_of_the_wrong_dimension():
    table = make_table(3, 1, 2, 1)
    w, _ = exjs.canonical_pair(table)
    phi = CFun.constant(table.ctx, 2, 1.0)
    for total in (exjs.js, exjs.dual_js):
        for fun in (w, lambda g: w(g)):
            with pytest.raises(DimensionMismatch):
                total(table, fun, phi)


@pytest.mark.parametrize("p,n,trials", [(2, 2, 100), (3, 2, 100), (3, 3, 4)])
def test_pool_profiles_match_js_profiles_and_pointwise(p, n, trials):
    # exhaustive at n = 2 (every translate in GL_2), sampled at (3, 3)
    table = make_table(p, 1, n, 1)
    f, m = table.ctx, n // 2
    translates = exjs._fe_translates(f, n, exjs.DEFAULT_SEED, trials)
    assert len(translates) == (mg.gl_order(p, n) if n == 2 else trials)
    pool = exjs._compile_pool(f, n, translates)
    (js_arr,), (dual_arr,) = exjs._pool_profiles([table], pool)
    probe = CFun(f, m)
    assert js_arr.shape == dual_arr.shape == (len(translates), probe.size)
    for h, js_vec, dual_vec in zip(translates, js_arr, dual_arr):
        w = exjs.WhittakerFun.translate(table, h)
        ref_js, ref_dual = exjs.js_profiles(table, w)
        for i in range(probe.size):
            phi = CFun.delta(f, m, probe.point_at(i))
            assert abs(js_vec[i] - ref_js[i]) < 1e-10
            assert abs(dual_vec[i] - ref_dual[i]) < 1e-10
            assert abs(js_vec[i] - exjs.js(table, w, phi)) < 1e-10
            assert abs(dual_vec[i] - exjs.dual_js(table, w, phi)) < 1e-10


def pointwise_pool(ctx, n, translates):
    """The stacked rows (key, arg, cell) of a pool, one `support_signature`
    of g h per sum-frame term g and translate h: the rows feeding js, then
    those feeding dual_js; test oracle of the batched `_compile_pool`."""
    keys = {k: i for i, k in enumerate(support_keys(ctx, n))}
    elems = ctx.subfield_elements(1)
    size = ctx.q ** (n // 2)
    dual_base = len(translates) * size
    js_rows, dual_rows = [], []
    for t, h in enumerate(translates):
        for g, i_js, i_dual in exjs._sum_frame(ctx, n):
            sig = support_signature(ctx, mg.mat_mul(ctx, g, h))
            if sig is not None:
                key, arg = keys[sig[0]], elems.index(sig[1])
                if i_js is not None:
                    js_rows.append((key, arg, t * size + i_js))
                if i_dual is not None:
                    dual_rows.append((key, arg, dual_base + t * size + i_dual))
    return js_rows + dual_rows


@pytest.mark.parametrize("p,e,n", [(5, 1, 2), (2, 2, 3), (3, 1, 4), (2, 1, 4),
                                   (3, 1, 3)])
def test_pool_matches_pointwise_signatures(p, e, n):
    f = build_field(p, e, n)
    translates = exjs._fe_translates(f, n, exjs.DEFAULT_SEED, 100)
    pool = exjs._compile_pool(f, n, translates)
    assert (pool.translates, pool.size) == (len(translates), f.q ** (n // 2))
    got = list(zip(*(x.tolist() for x in (pool.key, pool.arg, pool.cell))))
    assert got == pointwise_pool(f, n, translates)


#: the acceptance cells (p, e, n) of the batched per-cell certificate
BATCH_CELLS = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 2), (2, 1, 4), (3, 1, 4),
               (2, 1, 5)]


def no_shalika_exponents(f, n):
    """Every regular exponent without a Shalika vector."""
    from gammalab.charkit import MultChar
    return [k for k in regular_exponents(f, n)
            if n % 2 or not restriction_is_trivial(MultChar(f, n, k), n // 2)]


@pytest.mark.parametrize("p,e,n", BATCH_CELLS)
def test_batched_certificate_matches_js_profiles(p, e, n):
    # gamma and the residual of every theta of a block against the
    # pointwise `js_profiles` of the canonical pair and of each pool
    # translate W = B(. h); the support signatures of g h, which do not
    # depend on theta, are computed once per cell
    f = build_field(p, e, n)
    translates = exjs._fe_translates(f, n, exjs.DEFAULT_SEED, 100)
    sigs = {(g, t): support_signature(f, mg.mat_mul(f, g, h))
            for t, h in enumerate(translates) for g, *_ in exjs._sum_frame(f, n)}
    ks = no_shalika_exponents(f, n)
    for inverse in (False, True):
        tables = bessel_tables(f, n, ks, AddChar(f, inverse))
        gammas, worst, checked = exjs.functional_equation_scans(tables)
        assert checked == len(translates) * f.q ** (n // 2)
        for table, gamma, resid in zip(tables, gammas, worst):
            w0, phi0 = exjs.canonical_pair(table)
            ref_js, ref_dual = exjs.js_profiles(table, w0)
            assert abs(np.dot(ref_js, phi0.values) - 1) < 1e-13
            ref_gamma = np.dot(ref_dual, phi0.values)
            assert abs(gamma - ref_gamma) < 1e-13
            ref_resid = 0.0
            for t in range(len(translates)):
                def w(g, t=t):
                    sig = sigs[(g, t)]
                    return 0j if sig is None else table.psi(sig[1]) * table.entries[sig[0]]
                a, b = exjs.js_profiles(table, w)
                ref_resid = max(ref_resid, np.abs(b - ref_gamma * a).max())
            assert abs(resid - ref_resid) < 1e-13
            ratio = exjs.gamma_ratio(table)
            assert abs(ratio.value - gamma) < 1e-13
            assert abs(ratio.diagnostics["max_residual"] - resid) < 1e-13


def distinct_members(f, n, translates):
    """(kept, member): the index of the first translate of each distinct row
    set, and for each translate the position of its row set in kept."""
    rows = [(key, np.where(key >= 0, arg, -1))
            for key, arg in exjs._translate_rows(f, n, translates)]
    kept, member = [], []
    for key, arg in rows:
        same = [j for j in kept
                if np.array_equal(rows[j][0], key) and np.array_equal(rows[j][1], arg)]
        assert len(same) <= 1
        if not same:
            kept.append(len(member))
        member.append(kept.index(same[0]) if same else len(kept) - 1)
    return kept, member


@pytest.mark.parametrize("passes", [1, 7])
@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("p,e,n", [(5, 1, 2), (2, 2, 3)])
def test_block_results_do_not_depend_on_pass_values(p, e, n, inverse, passes,
                                                    monkeypatch):
    # `gather_sums` adds every sum's terms in row order, so the Bessel
    # tables and the pool profiles of a block come out the same whatever
    # the pass size (with 3 tables: 1, 2 and 2,730 rows per pass)
    f = build_field(p, e, n)
    ks = regular_exponents(f, n)[:3]

    def read():
        tables = bessel_tables(f, n, ks, AddChar(f, inverse))
        return np.stack([t.values for t in tables]), exjs.block_profiles(tables)

    want_values, want = read()
    monkeypatch.setattr(bessel, "PASS_VALUES", passes)
    got_values, got = read()
    assert np.array_equal(got_values, want_values)
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("p,e,n", BATCH_CELLS)
def test_block_profiles_match_two_call_oracle(p, e, n, inverse):
    # one pass over the pool gives the canonical pair and the test pairs of
    # a block of tables with and without a Shalika vector, bit for bit as
    # the canonical pool and a compile of every test translate read apart
    f = build_field(p, e, n)
    tables = bessel_tables(f, n, regular_exponents(f, n), AddChar(f, inverse))
    got, want = exjs.block_profiles(tables), separate_profiles(tables)
    _, member = distinct_members(f, n, exjs._fe_translates(f, n, exjs.DEFAULT_SEED, 100))
    assert np.array_equal(got.js0, want.js0) and np.array_equal(got.dual0, want.dual0)
    assert np.array_equal(got.js[:, member], want.js)
    assert np.array_equal(got.dual[:, member], want.dual)
    assert got.pairs == want.pairs
    # a table's rows do not depend on the block it is read in
    part = slice(1, None, 2)
    alone = exjs.block_profiles(tables[part])
    for x, y in zip(got.rows(part), alone):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("p,e,n", BATCH_CELLS + [(3, 1, 2), (2, 2, 2)])
def test_distinct_pool_stands_for_every_translate(p, e, n, inverse):
    # the shared pool compiles the canonical translate sigma^-1 and then one
    # test translate per distinct row set; the full compile of every
    # translate is the reference
    f = build_field(p, e, n)
    size = f.q ** (n // 2)
    translates = exjs._fe_translates(f, n, exjs.DEFAULT_SEED, 100)
    kept, member = distinct_members(f, n, translates)
    pool = exjs._fe_pool(f, n, exjs.DEFAULT_SEED, 100)
    sig_inv = mg.mat_inv(f, mg.sigma_perm(n))
    ref = exjs._compile_pool(f, n, [sig_inv] + [translates[j] for j in kept])
    assert (pool.translates, pool.size, pool.pairs) == (len(kept) + 1, size,
                                                        len(translates) * size)
    for name in ("key", "arg", "cell"):
        assert np.array_equal(getattr(pool, name), getattr(ref, name))
    full = exjs._compile_pool(f, n, translates)
    canonical = canonical_pool(f, n)
    assert set(full.key.tolist()) | set(canonical.key.tolist()) == set(pool.key.tolist())
    psi = AddChar(f, inverse)
    tables = bessel_tables(f, n, regular_exponents(f, n), psi)
    want, got = exjs._pool_profiles(tables, full), exjs._pool_profiles(tables, pool)
    for a, b, c in zip(want, got, exjs._pool_profiles(tables, canonical)):
        assert np.array_equal(a, b[:, 1:][:, member])
        assert np.array_equal(c, b[:, :1])
    # every certificate counts the pairs of every translate
    count = mg.gl_order(f.q, n) if exjs._exhaustive(f.q, n) else 100
    plain = [t for t in tables if not exjs.has_shalika_vector(t)]
    assert exjs.gamma_ratios(plain)[2] == count * size
    if n % 2 == 0:
        shalika = [t for t in tables if exjs.has_shalika_vector(t)]
        for block in (plain, shalika):
            assert [c for _, _, c in levelzero.modified_fe_scans(block)] == \
                [count * size] * len(block)


@pytest.mark.parametrize("p,e,n", BATCH_CELLS)
def test_batched_certificate_refuses_one_perturbed_table(p, e, n):
    # one theta's table moved by 1e-6 on every key the canonical pair does
    # not read: JS(W0, phi0) stays 1, so only the constancy check can see it
    f = build_field(p, e, n)
    tables = bessel_tables(f, n, no_shalika_exponents(f, n), AddChar(f))
    exjs.functional_equation_scans(tables)
    at = len(tables) // 2
    values = tables[at].values.copy()
    off = np.ones(len(values), dtype=bool)
    off[canonical_pool(f, n).key] = False
    values[off] += 1e-6
    block = list(tables)
    block[at] = BesselTable(tables[at].rep, tables[at].psi, values)
    with pytest.raises(NonConstantRatio, match=f"at theta = {tables[at].rep.exponent}$"):
        exjs.functional_equation_scans(block)


def test_block_refuses_tables_of_two_characters():
    # a block shares one psi: its gathers read the first table's psi-values
    tables = [make_table(3, 1, 3, 1), make_table(3, 1, 3, 2, inverse=True)]
    with pytest.raises(PreconditionViolated):
        exjs.gamma_ratios(tables)


def test_block_of_both_flags_is_one_character_at_p2():
    # at p = 2, psi^-1 = psi: a block of a psi table and a psi^-1 table
    # shares one character, and its gammas are those of the psi block
    mixed = [make_table(2, 1, 3, 1), make_table(2, 1, 3, 3, inverse=True)]
    plain = [make_table(2, 1, 3, 1), make_table(2, 1, 3, 3)]
    for route in (exjs.gamma_tori, exjs.gamma_closed_forms):
        assert route(mixed).tobytes() == route(plain).tobytes()
    assert np.array_equal(exjs.gamma_ratios(mixed)[0], exjs.gamma_ratios(plain)[0])


def pointwise_gamma_torus(table):
    """gamma_torus with every torus element t decomposed at B(t^-1) through
    `BesselTable.eval`; test oracle of the cached `_torus_terms`."""
    ctx = table.ctx
    n, m, odd = table.n, table.n // 2, table.n % 2 == 1
    q = ctx.q
    total = 0j
    for comp in mg.compositions(m):
        weight = q ** (-sum(2 * (mi * (mi - 1) // 2) for mi in comp))
        for lams in itertools.product(ctx.subfield_units(1), repeat=len(comp)):
            t = mg.antidiag_elem(ctx, comp, lams, block_scale=2, tail_one=odd)
            val = table.eval(mg.mat_inv(ctx, t))
            if not odd and comp[-1] == 1:
                val *= table.psi(lams[-1])
            total += weight * val
    exp2 = 2 * (m * (m - 1) // 2)
    return (q ** (m / 2.0 + exp2) if odd else q ** (-m / 2.0 + exp2)) * total


@pytest.mark.parametrize("p,e,n", [(5, 1, 2), (2, 2, 3), (3, 1, 4), (2, 1, 5)])
def test_torus_terms_keep_gamma_bit_identical(p, e, n):
    f = build_field(p, e, n)
    for k in no_shalika_reps(f, n)[:3]:
        table = make_table(p, e, n, k)
        assert exjs.gamma_torus(table).value == pointwise_gamma_torus(table)


@pytest.mark.parametrize("p,e,n", [(5, 1, 2), (7, 1, 2), (2, 2, 3), (2, 3, 3),
                                   (3, 1, 3), (3, 1, 4), (2, 1, 5), (2, 1, 6)])
def test_torus_keys_are_the_signatures_of_t_inverse(p, e, n):
    # each torus term's closed-form key is the support key of t^-1 through
    # the full decomposition, whose psi-argument is 0
    f = build_field(p, e, n)
    m, odd = n // 2, n % 2 == 1
    key, extra, weight, _ = exjs._torus_terms(f, n, AddChar(f))
    sigs = [support_signature(f, mg.mat_inv(f, mg.antidiag_elem(
                f, comp, lams, block_scale=2, tail_one=odd)))
            for comp in mg.compositions(m)
            for lams in itertools.product(f.subfield_units(1), repeat=len(comp))]
    assert len(key) == len(extra) == len(weight) == len(sigs)
    keys = support_keys(f, n)
    assert [(keys[i], 0) for i in key.tolist()] == sigs


def test_sampled_certificate_refuses_zero_trials():
    table = make_table(3, 1, 3, 1)
    with pytest.raises(PreconditionViolated):
        exjs.gamma_ratio(table, trials=0)
    assert exjs.gamma_ratio(table, trials=1).diagnostics["pairs_checked"] == 3


def _random_even_shalika(f, m, rng):
    g = mg.random_invertible(f, m, rng)
    elems = f.subfield_elements(1)
    x = tuple(tuple(rng.choice(elems) for _ in range(m)) for _ in range(m))
    return mg.from_blocks([[g, x], [mg.zero(m), g]])


def _random_odd_shalika(f, m, rng):
    g = mg.random_invertible(f, m, rng)
    elems = f.subfield_elements(1)
    x = tuple(tuple(rng.choice(elems) for _ in range(m)) for _ in range(m))
    y = tuple(rng.choice(elems) for _ in range(m))
    z = tuple(rng.choice(elems) for _ in range(m))
    rows = [list(r) for r in mg.identity(2 * m + 1)]
    for i in range(m):
        for j in range(m):
            rows[i][j] = g[i][j]
            rows[i][m + j] = x[i][j]
            rows[m + i][m + j] = g[i][j]
        rows[i][2 * m] = y[i]
        rows[2 * m][m + i] = z[i]
    return tuple(tuple(r) for r in rows)


def test_even_equivariance_with_psi_factor():
    table = make_table(3, 1, 2, 1)
    f, m = table.ctx, 1
    rng = random.Random(6)
    for _ in range(30):
        s = _random_even_shalika(f, m, rng)
        h = mg.random_invertible(f, 2, rng)
        w = exjs.WhittakerFun.translate(table, h)
        phi = CFun(f, m, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(f.q)])
        lhs_js = exjs.js(table, w.right_translated(s), exjs.shalika_action(table, s, phi))
        lhs_dual = exjs.dual_js(table, w.right_translated(s),
                                exjs.shalika_action(table, s, phi))
        factor = exjs.shalika_psi(table, s)
        assert abs(lhs_js - factor * exjs.js(table, w, phi)) < 1e-9
        assert abs(lhs_dual - factor * exjs.dual_js(table, w, phi)) < 1e-9


def test_even_action_ignores_x():
    table = make_table(3, 1, 2, 1)
    f = table.ctx
    phi = CFun(f, 1, [1.0, 2.0, 3.0])
    g = ((2,),)
    s1 = mg.from_blocks([[g, ((0,),)], [mg.zero(1), g]])
    s2 = mg.from_blocks([[g, ((1,),)], [mg.zero(1), g]])
    a1 = exjs.shalika_action(table, s1, phi)
    a2 = exjs.shalika_action(table, s2, phi)
    assert list(a1.values) == list(a2.values)
    for i in range(phi.size):
        y = phi.point_at(i)
        assert abs(a1(y) - phi(mg.vec_mat(f, y, g))) < 1e-12


@pytest.mark.parametrize("p,n,k", [(2, 5, 1), (3, 3, 1), (3, 3, 2)])
def test_odd_equivariance_no_factor(p, n, k):
    table = make_table(p, 1, n, k)
    f, m = table.ctx, n // 2
    rng = random.Random(8)
    for _ in range(10):
        s = _random_odd_shalika(f, m, rng)
        h = mg.random_invertible(f, n, rng)
        w = exjs.WhittakerFun.translate(table, h)
        phi = CFun(f, m, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(f.q ** m)])
        lhs = exjs.js(table, w.right_translated(s), exjs.shalika_action(table, s, phi))
        assert abs(lhs - exjs.js(table, w, phi)) < 1e-9
        lhs_d = exjs.dual_js(table, w.right_translated(s),
                             exjs.shalika_action(table, s, phi))
        assert abs(lhs_d - exjs.dual_js(table, w, phi)) < 1e-9


def test_odd_shalika_generators():
    table = make_table(3, 1, 3, 1)
    f, m = table.ctx, 1
    phi = CFun(f, m, [1.0, 2.0, 3.0])
    # lower generator shifts
    s = mg.odd_lower(m, (1,))
    moved = exjs.shalika_action(table, s, phi)
    for i in range(phi.size):
        pt = phi.point_at(i)
        assert abs(moved(pt) - phi((f.add(pt[0], 1),))) < 1e-12
    # unipotent generator scales by psi(-tr z0)
    s = mg.odd_u(m, ((2,),))
    scaled = exjs.shalika_action(table, s, phi)
    factor = table.psi(f.neg(2))
    for i in range(phi.size):
        assert abs(scaled.values[i] - factor * phi.values[i]) < 1e-12
    # identity acts trivially
    ident = exjs.shalika_action(table, mg.identity(3), phi)
    assert list(ident.values) == list(phi.values)


def test_definition_and_double_duality():
    for (p, n, k) in ((3, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1), (3, 4, 1)):
        table = make_table(p, 1, n, k)
        f, m = table.ctx, n // 2
        tilde = make_table(p, 1, n, -k, inverse=True)
        wn = mg.antidiag_elem(f, (1,) * n, (1,) * n)
        flip = exjs.double_dual_flip(f, n)
        rng = random.Random(3)
        for _ in range(5):
            h = mg.random_invertible(f, n, rng)
            w = exjs.WhittakerFun.translate(table, h)
            phi = CFun(f, m, [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                              for _ in range(f.q ** m)])
            # the direct dual formula agrees with the dual's definition
            assert abs(exjs.definitional_dual(table, tilde, w, phi)
                       - exjs.dual_js(table, w, phi)) < 1e-9
            # dualizing twice returns js(W, phi)
            phat = fourier(phi, table.psi)

            def w_contra(g):
                arg = mg.mat_mul(f, g, flip)
                return w(mg.mat_mul(f, wn, mg.transpose(mg.mat_inv(f, arg))))

            assert abs(exjs.dual_js(tilde, w_contra, phat)
                       - exjs.js(table, w, phi)) < 1e-9


def test_gamma_routes_gl2_q3():
    table = make_table(3, 1, 2, 1)
    r1 = exjs.gamma_ratio(table)
    r2 = exjs.gamma_torus(table)
    r3 = exjs.gamma_closed(table)
    # independent hand value: q^{-1/2} * (psi(1) - psi(2)) = i
    assert abs(r3.value - 1j) < 1e-10
    assert abs(r1.value - r2.value) < 1e-8
    assert abs(r1.value - r3.value) < 1e-8
    assert abs(abs(r1.value) - 1) < 1e-9
    assert r1.diagnostics["max_residual"] < 1e-8


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 1, 4)])
def test_gamma_routes_agree(p, e, n):
    f = build_field(p, e, n)
    for k in no_shalika_reps(f, n):
        table = make_table(p, e, n, k)
        vals = [exjs.gamma_ratio(table, trials=40).value,
                exjs.gamma_torus(table).value]
        if n in (2, 3, 4):
            vals.append(exjs.gamma_closed(table).value)
        for v in vals[1:]:
            assert abs(v - vals[0]) < 1e-7
        assert abs(abs(vals[0]) - 1) < 1e-8


def test_gamma_duality_product():
    for (p, n) in ((3, 2), (2, 3), (2, 4)):
        f = build_field(p, 1, n)
        for k in no_shalika_reps(f, n)[:3]:
            t1 = make_table(p, 1, n, k)
            t2 = make_table(p, 1, n, -k, inverse=True)
            g1 = exjs.gamma_torus(t1).value
            g2 = exjs.gamma_torus(t2).value
            assert abs(g1 * g2 - 1) < 1e-8


def test_gamma_galois_orbit_invariance():
    f = build_field(3, 1, 2)
    m = f.q ** 2 - 1
    for k in no_shalika_reps(f, 2):
        g1 = exjs.gamma_torus(make_table(3, 1, 2, k)).value
        g2 = exjs.gamma_torus(make_table(3, 1, 2, (k * f.q) % m)).value
        assert abs(g1 - g2) < 1e-10


def test_torus_collapses_to_gl2_closed_form():
    table = make_table(5, 1, 2, 1)
    f = table.ctx
    direct = f.q ** -0.5 * sum(
        table.eval(mg.mat_inv(f, mg.antidiag_elem(f, (1,), (lam,), block_scale=2)))
        * table.psi(lam)
        for lam in f.subfield_units(1))
    assert abs(exjs.gamma_torus(table).value - direct) < 1e-10
    assert abs(exjs.gamma_closed(table).value - direct) < 1e-8


def test_torus_gl3_first_display():
    # gamma = q^{1/2} sum_a B(antidiag(a I_2, I_1)^{-1})
    table = make_table(2, 1, 3, 1)
    f = table.ctx
    direct = f.q ** 0.5 * sum(
        table.eval(mg.mat_inv(f, mg.antidiag_elem(f, (1,), (a,), block_scale=2,
                                                  tail_one=True)))
        for a in f.subfield_units(1))
    assert abs(exjs.gamma_torus(table).value - direct) < 1e-10


def test_shalika_detect_and_broken_equation():
    # q=3, n=2: k=2 has trivial restriction to F_3^x, k=1 does not
    t_shal = make_table(3, 1, 2, 2)
    (flag, report), = exjs.shalika_detect([t_shal])
    assert flag and abs(report["witness_js"] - 1) < 1e-9
    a, b = exjs.broken_equation_witness(t_shal)
    assert abs(a - 1) < 1e-9 and abs(b) < 1e-9
    with pytest.raises(ShalikaVectorPresent):
        exjs.gamma_ratio(t_shal)
    with pytest.raises(ShalikaVectorPresent):
        exjs.gamma_torus(t_shal)

    t_free = make_table(3, 1, 2, 1)
    (flag, report), = exjs.shalika_detect([t_free])
    assert not flag and report["max_js_one"] < 1e-9


def test_s0_s1_decomposition_gl2():
    table = make_table(3, 1, 2, 1)
    s0, s1, gamma = exjs.s0_s1_decomposition(table)
    assert abs(s0) < 1e-12
    assert abs(s1 - 1) < 1e-9
    assert abs(gamma - exjs.gamma_torus(table).value) < 1e-9


def test_s0_s1_decomposition_gl4():
    f = build_field(2, 1, 4)
    for k in no_shalika_reps(f, 4):
        table = make_table(2, 1, 4, k)
        s0, s1, gamma = exjs.s0_s1_decomposition(table)
        if not table.rep.central_char.is_trivial():
            assert abs(s0) < 1e-9
        assert abs(gamma - exjs.gamma_torus(table).value) < 1e-8


def pointwise_homdim(rep):
    """|H|^-1 sum_{h in H} chi(h) over the appendix subgroup H, one
    `rep.character` (pointwise `mg.class_type`) per h, and the class data of
    every h: test oracle of `homdim_check` and its cached class histogram."""
    ctx, n = rep.ctx, rep.n
    m = n // 2
    gl = mg.all_gl(ctx, m)
    zero = mg.zero(m)
    if n % 2 == 0:
        e_last = tuple(1 if j == m - 1 else 0 for j in range(m))
        mira = [g for g in gl if g[m - 1] == e_last] if m > 1 else [mg.identity(1)]
        group = [mg.from_blocks([[g1, zero], [zero, g2]]) for g1 in gl for g2 in mira]
    else:
        tail = [mg.zero(1, m), mg.zero(1, m), mg.identity(1)]
        group = [mg.from_blocks([[g1, zero, tuple((x,) for x in u)],
                                 [zero, g2, mg.zero(m, 1)], tail])
                 for g1 in gl for g2 in gl
                 for u in itertools.product(ctx.subfield_elements(1), repeat=m)]
    total = 0j
    for h in group:
        total += rep.character(h)
    types = [mg.class_type(ctx, h) for h in group]
    return total / len(group), [(ct.d, ct.k, ct.alpha) if ct.primary else None
                                for ct in types]


#: every cell where `verify` runs the appendix check (|GL_n| <= 25,000)
HOMDIM_CELLS = [(2, 1, 3), (3, 1, 3), (2, 1, 4)] + [
    (p, e, 2) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1))]


@pytest.mark.parametrize("p,e,n", HOMDIM_CELLS)
def test_homdim_check_matches_pointwise_loop(p, e, n):
    # the class histogram of H equals the pointwise typing of every h, and
    # each representation's dimension the rounded pointwise average
    f = build_field(p, e, n)
    classes, counts = exjs._subgroup_classes(f, n)
    for k in regular_exponents(f, n):
        rep = CuspidalRep(f, k)
        value, data = pointwise_homdim(rep)
        assert dict(zip(classes, counts.tolist())) == {
            c: data.count(c) for c in classes} and set(data) <= set(classes)
        assert abs(value - round(value.real)) < exjs.HOMDIM_TOL
        assert exjs.homdim_check([rep]) == [round(value.real)]


def test_homdim_bounds():
    for (p, e, n) in ((2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3)):
        f = build_field(p, e, n)
        for k in regular_orbit_reps(f, n):
            (val,) = exjs.homdim_check([CuspidalRep(f, k)])
            assert val in (0, 1)


def test_gamma_closed_preconditions():
    # n = 2 with trivial central character is the Shalika case
    with pytest.raises(PreconditionViolated):
        exjs.gamma_closed(make_table(3, 1, 2, 2))
    # n = 4 with theta trivial on the quadratic subfield (3 | k at q = 2)
    with pytest.raises(PreconditionViolated):
        exjs.gamma_closed(make_table(2, 1, 4, 3))


def printed_gamma_closed(table):
    """The printed closed forms at n = 3, 4, summed one xi in F_{q^n}^x at a
    time; test oracle of the cached terms of `gamma_closed`."""
    ctx, rep, psi = table.ctx, table.rep, table.psi
    n, q = table.n, ctx.q
    if n == 3:
        total = 0j
        for xi in ctx.subfield_units(3):
            xi2 = ctx.mul(xi, xi)
            arg = ctx.neg(ctx.mul(ctx.trace(xi2, 3, 1),
                                  ctx.inv(ctx.norm(xi, 3, 1))))
            total += psi(arg) * rep.theta(xi2)
        return q ** -1.5 * total
    t0 = q * q - 1 if rep.central_char.is_trivial() else 0
    s_plus = s_minus = 0j
    for xi in ctx.subfield_units(4):
        xi2 = ctx.mul(xi, xi)
        base = ctx.trace(ctx.inv(xi2), 4, 1)
        wing = ctx.mul(ctx.trace(xi2, 4, 1), ctx.inv(ctx.norm(xi, 4, 1)))
        tv = rep.theta(xi2)
        s_plus += tv * kloosterman(1, ctx.add(base, wing), psi)
        s_minus += tv * kloosterman(1, ctx.sub(base, wing), psi)
    return (t0 / q ** 2
            - 0.5 * q ** -3 * gauss_sum(rep.central_char, psi) * (s_plus + s_minus))


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3),
                                   (2, 1, 4), (3, 1, 4)])
def test_gamma_closed_matches_printed_sums(p, e, n):
    f = build_field(p, e, n)
    for k in regular_exponents(f, n):
        rep = CuspidalRep(f, k)
        for inverse in (False, True):
            table = bessel_build(rep, AddChar(f, inverse))
            if n == 4 and restriction_is_trivial(rep.theta, 2):
                with pytest.raises(PreconditionViolated):
                    exjs.gamma_closed(table)
                continue
            assert abs(exjs.gamma_closed(table).value
                       - printed_gamma_closed(table)) < 1e-13


def looped_gamma_closed(table):
    """gamma_closed one table at a time: `gauss_sum` of the central
    character and, at n = 3, 4, the sum over the cached `_closed_terms` one
    xi at a time; test oracle of the block gathers of `gamma_closed_forms`."""
    ctx, rep, psi = table.ctx, table.rep, table.psi
    n, q = table.n, ctx.q
    g_sum = gauss_sum(rep.central_char, psi)
    if n == 2:
        return q ** -0.5 * g_sum
    dlogs, weights = exjs._closed_terms(ctx, psi)
    total = 0j
    for j, w in zip(dlogs.tolist(), weights.tolist()):
        total += w * rep.theta(ctx.gen_power(j))  # xi^2 = gen^j at level n
    if n == 3:
        return q ** -1.5 * total
    t0 = q * q - 1 if rep.central_char.is_trivial() else 0
    return t0 / q ** 2 - 0.5 * q ** -3 * g_sum * total


@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (5, 1, 2), (2, 2, 3), (3, 1, 4),
                                   (2, 1, 5), (2, 3, 3), (2, 2, 4)])
@pytest.mark.parametrize("inverse", [False, True])
def test_block_routes_match_per_table_sums(p, e, n, inverse):
    # every table of the cell without a Shalika vector in one block, against
    # the pointwise torus sum and the looped closed form of each table
    f = build_field(p, e, n)
    tables = bessel_tables(f, n, no_shalika_reps(f, n), AddChar(f, inverse))
    tori = exjs.gamma_tori(tables)
    assert tori.shape == (len(tables),)
    for table, gamma in zip(tables, tori.tolist()):
        assert gamma == pointwise_gamma_torus(table)
    if n > 4:
        with pytest.raises(UnsupportedN):
            exjs.gamma_closed_forms(tables)
        return
    closed = exjs.gamma_closed_forms(tables)
    for table, gamma in zip(tables, closed.tolist()):
        assert abs(gamma - looped_gamma_closed(table)) < 1e-13
    # a block of one is the single-table route
    assert exjs.gamma_torus(tables[-1]).value == tori[-1]
    assert exjs.gamma_closed(tables[-1]).value == closed[-1]


def test_block_routes_refuse_a_shalika_table_and_mixed_blocks():
    f = build_field(3, 1, 2)
    tables = bessel_tables(f, 2, regular_orbit_reps(f, 2), AddChar(f))
    assert any(exjs.has_shalika_vector(t) for t in tables)
    with pytest.raises(ShalikaVectorPresent):
        exjs.gamma_tori(tables)
    with pytest.raises(PreconditionViolated):
        exjs.gamma_closed_forms(tables)
    mixed = [make_table(3, 1, 3, 1), make_table(3, 1, 3, 2, inverse=True)]
    for route in (exjs.gamma_tori, exjs.gamma_closed_forms):
        with pytest.raises(PreconditionViolated):
            route(mixed)
        with pytest.raises(PreconditionViolated):
            route([])


#: cells of the block checks: mixed Shalika and plain blocks at even n
BLOCK_CHECK_CELLS = [(3, 1, 2), (5, 1, 2), (2, 2, 3), (3, 1, 4), (2, 1, 4), (2, 3, 3)]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("p,e,n", BLOCK_CHECK_CELLS)
def test_block_checks_equal_their_one_element_blocks(p, e, n, inverse):
    # the Shalika search reads its gathers bit for bit, the character checks
    # `character_sums` within 1e-15, on a whole theta-block and on blocks of one
    from gammalab.cuspchar import verify_irreducible
    f = build_field(p, e, n)
    ks = regular_orbit_reps(f, n)
    reps = [CuspidalRep(f, k) for k in ks]
    if not inverse:
        whole = verify_irreducible(reps)
        for rep, report in zip(reps, whole):
            (single,) = verify_irreducible([rep])
            assert single.keys() == report.keys()
            for key, value in report.items():
                assert abs(single[key] - value) <= 1e-15, key
        assert exjs.homdim_check(reps) == [exjs.homdim_check([rep])[0] for rep in reps]
    if n % 2 == 0:
        tables = bessel_tables(f, n, ks, AddChar(f, inverse))
        whole = exjs.shalika_detect(tables, samples=200)
        assert {flag for flag, _ in whole} == {False, True}
        assert whole == [exjs.shalika_detect([t], samples=200)[0] for t in tables]


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (5, 1, 2), (3, 1, 4), (2, 1, 4)])
def test_shalika_detect_matches_the_pointwise_witness_and_pool(p, e, n, inverse):
    # the witness's JS(W, 1) and W(sigma) from its compiled rows against
    # `js` and the pointwise `WhittakerFun` call, and the zero search's
    # per-translate sums against the pool's full js profiles
    f = build_field(p, e, n)
    tables = bessel_tables(f, n, regular_orbit_reps(f, n), AddChar(f, inverse))
    one = CFun.constant(f, n // 2, 1.0)
    pool = exjs._fe_pool(f, n, exjs.DEFAULT_SEED, 50)
    for table, (flag, report) in zip(tables, exjs.shalika_detect(tables, samples=50)):
        if flag:
            w = exjs.shalika_witness(table)
            assert abs(report["witness_js"] - exjs.js(table, w, one)) < 1e-12
            assert abs(report["witness_at_sigma"] - w(mg.sigma_perm(n))) < 1e-12
        else:
            (a,), _ = exjs._pool_profiles([table], pool)
            assert abs(report["max_js_one"] - np.abs(a.sum(axis=1)).max()) < 1e-13
