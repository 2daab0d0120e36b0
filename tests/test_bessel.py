import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammalab.bessel import (
    MAX_CLASS_TYPINGS,
    bessel_build,
    bessel_closed_form_gl3,
    bessel_closed_forms,
    bessel_closed_form_gl4,
    bessel_tables,
    export_bessel_csv,
    require_profile_size,
    support_keys,
    support_signature,
    support_signatures,
)
from gammalab.charkit import AddChar, regular_exponents, regular_orbit_reps
from gammalab.cuspchar import CuspidalRep
from gammalab.errors import OracleFailed, PreconditionViolated, Singular
from gammalab.ffield import build_field
from gammalab import matgrp as mg
from polyref import poly_eval


def table_for(p, e, n, k, inverse=False):
    f = build_field(p, e, n)
    rep = CuspidalRep(f, k)
    psi = AddChar(f, inverse)
    return bessel_build(rep, psi)


@pytest.mark.parametrize("p,e,n", [(2, 1, 6), (2, 2, 4), (3, 1, 4), (5, 1, 4),
                                   (3, 1, 5), (2, 1, 7)])
def test_profile_size_counts_the_typings_of_every_support_key(p, e, n):
    # the up-front count against |N_n| typings for each key of support_keys:
    # (2, 6) at 2^20 and (4, 4) at 786,432 are allowed, (5, 4), (3, 5) and
    # (2, 7) refused
    f = build_field(p, e, n)
    typings = len(support_keys(f, n)) * f.q ** (n * (n - 1) // 2)
    if typings <= MAX_CLASS_TYPINGS:
        require_profile_size(f.q, n)
    else:
        with pytest.raises(PreconditionViolated, match=f" {typings} class typings"):
            require_profile_size(f.q, n)


@pytest.mark.parametrize("q", [-7, -4, -2, -1, 0, 1, 2, 3, 4, 5, 2 ** 61 - 1, 2 ** 85,
                               2 ** 86 + 1, 3 ** 200])
def test_profile_size_decides_on_the_exact_count(q):
    # formed or bounded by bit lengths, the refusal is exactly
    # typings > MAX_CLASS_TYPINGS, at either sign of a formed count (the CLI
    # refuses q < 2 before it sizes a cell, so no count past 2^256 is negative)
    for n in range(1, 9):
        typings = q ** (n * (n - 1) // 2) * (q - 1) * q ** (n - 1)
        if typings <= MAX_CLASS_TYPINGS:
            require_profile_size(q, n)
        else:
            with pytest.raises(PreconditionViolated, match="class typings, over the limit"):
                require_profile_size(q, n)


def test_identity_normalization():
    for (p, n, k) in ((2, 2, 1), (3, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1)):
        t = table_for(p, 1, n, k)
        assert abs(t.value((n,), (1,)) - 1) < 1e-10


def test_gl2_independent_averaging():
    # recompute one entry through the classical GL_2 character table
    f = build_field(3, 1, 2)
    q = f.q
    psi = AddChar(f)
    for k in regular_exponents(f, 2):
        rep = CuspidalRep(f, k)
        table = bessel_build(rep, psi)
        th = rep.theta
        psi_inv = psi.inverted()

        def chi_table(g):
            cp = mg.charpoly(f, g)
            roots = [x for x in f.subfield_units(1) if poly_eval(f, cp, x) == 0]
            if len(roots) == 2:
                return 0j
            if len(roots) == 1:
                lam = roots[0]
                return (q - 1) * th(lam) if g == ((lam, 0), (0, lam)) else -th(lam)
            alpha = next(x for x in f.subfield_units(2) if poly_eval(f, cp, x) == 0)
            return -(th(alpha) + th(f.pow(alpha, q)))

        for l1 in f.subfield_units(1):
            for l2 in f.subfield_units(1):
                t = mg.antidiag_elem(f, (1, 1), (l1, l2))
                expect = sum(chi_table(mg.mat_mul(f, t, u)) * psi_inv(s)
                             for u, s in [(u, mg.superdiag_sum(f, u))
                                          for u in mg.all_unipotent(f, 2)]) / q
                assert abs(table.value((1, 1), (l1, l2)) - expect) < 1e-9


def test_eval_on_unipotent_and_support():
    t = table_for(3, 1, 2, 1)
    f = t.ctx
    psi = t.psi
    for x in f.subfield_elements(1):
        u = ((1, x), (0, 1))
        assert abs(t.eval(u) - psi(x)) < 1e-10
    # non-antidiagonal Bruhat cell evaluates to zero
    g = ((1, 0), (1, 1))  # lower unipotent: monomial part is the identity? no:
    # bruhat of [[1,0],[1,1]] has w = antidiagonal permutation, d = diag(1,-1)
    # which is antidiag-scalar only if the two scalars agree
    dec = mg.bruhat(f, g)
    parsed = mg.parse_antidiag(mg.mat_mul(f, dec.w, dec.d))
    val = t.eval(g)
    if parsed is None:
        assert val == 0


def test_support_theorem_random_and_biequivariance():
    rng = random.Random(17)
    for (p, n, k) in ((3, 2, 1), (2, 3, 1), (3, 3, 1), (2, 4, 1)):
        table = table_for(p, 1, n, k)
        f = table.ctx
        psi = table.psi
        for _ in range(300):
            g = mg.random_invertible(f, n, rng)
            u1 = mg.random_unipotent(f, n, rng)
            u2 = mg.random_unipotent(f, n, rng)
            lhs = table.eval(mg.mat_chain(f, u1, g, u2))
            rhs = (psi(mg.superdiag_sum(f, u1)) * psi(mg.superdiag_sum(f, u2))
                   * table.eval(g))
            assert abs(lhs - rhs) < 1e-9
            dec = mg.bruhat(f, g)
            if mg.parse_antidiag(mg.mat_mul(f, dec.w, dec.d)) is None:
                assert table.eval(g) == 0


def test_inverse_is_conjugate():
    for (p, n, k) in ((3, 2, 1), (2, 3, 1), (2, 4, 1)):
        table = table_for(p, 1, n, k)
        f = table.ctx
        rng = random.Random(23)
        for _ in range(200):
            g = mg.random_invertible(f, n, rng)
            assert abs(table.eval(mg.mat_inv(f, g))
                       - table.eval(g).conjugate()) < 1e-9


def test_contragredient_conjugate_table():
    for (p, n, k) in ((3, 2, 1), (2, 3, 1), (3, 3, 2), (2, 4, 1)):
        f = build_field(p, 1, n)
        rep = CuspidalRep(f, k)
        psi = AddChar(f)
        t1 = bessel_build(rep, psi)
        t2 = bessel_build(rep.contragredient(), psi.inverted())
        for key in t1.entries:
            assert abs(t1.entries[key].conjugate() - t2.entries[key]) < 1e-9


@pytest.mark.parametrize("p", [2, 3])
def test_gl3_closed_form_exhaustive(p):
    f = build_field(p, 1, 3)
    psi = AddChar(f)
    for k in regular_orbit_reps(f, 3):
        rep = CuspidalRep(f, k)
        table = bessel_build(rep, psi)
        for l1 in f.subfield_units(1):
            for l2 in f.subfield_units(1):
                printed = bessel_closed_form_gl3(rep, psi, l1, l2)
                assert abs(table.value((1, 2), (l1, l2)) - printed) < 1e-8


def test_gl4_closed_form_q2_exhaustive():
    f = build_field(2, 1, 4)
    psi = AddChar(f)
    for k in regular_orbit_reps(f, 4):
        rep = CuspidalRep(f, k)
        table = bessel_build(rep, psi)
        t = mg.from_blocks([[mg.zero(2), mg.identity(2)],
                            [mg.identity(2), mg.zero(2)]])
        # t*w6 for mu = nu = 1 is antidiag(I_2, I_2)
        printed = bessel_closed_form_gl4(rep, psi, 1, 1)
        assert abs(table.eval(t) - printed) < 1e-8


def test_gl4_closed_form_q3_sampled():
    f = build_field(3, 1, 4)
    psi = AddChar(f)
    units = f.subfield_units(1)
    for k in (1, 2):
        rep = CuspidalRep(f, k)
        table = bessel_build(rep, psi)
        for mu in units:
            for nu in units:
                tw6 = mg.antidiag_elem(f, (2, 2), (mu, nu))
                printed = bessel_closed_form_gl4(rep, psi, mu, nu)
                assert abs(table.eval(tw6) - printed) < 1e-8


def pointwise_closed_form(rep, psi, a, b):
    """B(antidiag(a I_1, b I_{n-1})) as the norm-fibre sum of
    `bessel_closed_forms`, one xi of F_{q^n}^x at a time: test oracle at
    every n."""
    ctx, n = rep.ctx, rep.n
    sign = (-1) ** (n - 1)
    target = ctx.mul(ctx.pow(ctx.neg(1), n - 1), ctx.mul(a, ctx.pow(b, n - 1)))
    inv_b = ctx.inv(b)
    total = 0j
    for xi in ctx.subfield_units(n):
        if ctx.norm(xi, n, 1) == target:
            arg = ctx.neg(ctx.mul(inv_b, ctx.trace(xi, n, 1)))
            total += psi(arg) * rep.theta(xi)
    return total / (sign * ctx.q ** (n - 1))


def pointwise_closed_form_gl4(rep, psi, mu, nu):
    """B(diag(mu I_2, nu I_2) w6), the Deriziotis-Gotsis sum, one xi of
    F_{q^4}^x and one beta of F_q^x at a time: test oracle."""
    ctx = rep.ctx
    q = ctx.q
    det_t = ctx.mul(ctx.mul(mu, mu), ctx.mul(nu, nu))
    mu_nu = ctx.mul(mu, nu)
    mu_nu2 = ctx.mul(mu_nu, nu)
    total = 0j
    for xi in ctx.subfield_units(4):
        if ctx.norm(xi, 4, 1) != det_t:
            continue
        a3 = ctx.neg(ctx.trace(xi, 4, 1))
        a1 = ctx.neg(ctx.mul(ctx.trace(ctx.inv(xi), 4, 1), det_t))
        numer = ctx.add(a1, ctx.mul(a3, mu_nu))
        inner = 0j
        if (ctx.in_subfield(xi, 2) and not ctx.in_subfield(xi, 1)
                and mu_nu == ctx.neg(ctx.norm(xi, 2, 1))):
            inner += -q
        for beta in ctx.subfield_units(1):
            arg = ctx.add(ctx.neg(beta), ctx.mul(numer, ctx.inv(ctx.mul(beta, mu_nu2))))
            inner += psi(arg)
        total += (-inner / q ** 4) * rep.theta(xi)
    return total


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (5, 1, 2), (3, 2, 2),
                                   (2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 3), (7, 1, 3),
                                   (2, 1, 4), (3, 1, 4), (2, 2, 4), (2, 1, 5), (2, 1, 6)])
@pytest.mark.parametrize("inverse", [False, True])
def test_closed_forms_match_pointwise_sums(p, e, n, inverse):
    # the block of (1, n - 1) forms: its b = 1 rows equal the per-element
    # sums exactly (up to the sign of a zero) and every other row,
    # omega(b) row(a / b, 1), is within 1e-13; the GL_3 name reads its
    # entry of a block of one, and at n = 4 the GL_4 w6 form of every theta
    # equals its per-element sums bit for bit
    f = build_field(p, e, n)
    psi = AddChar(f, inverse)
    ks = regular_orbit_reps(f, n)[:12]
    pairs = list(itertools.product(f.subfield_units(1), repeat=2))
    ref = np.array([[pointwise_closed_form(CuspidalRep(f, k), psi, a, b) for k in ks]
                    for a, b in pairs])
    block = bessel_closed_forms(f, n, ks, psi)
    assert block.shape == ref.shape and np.abs(block - ref).max() < 1e-13
    ones = [i for i, (_, b) in enumerate(pairs) if b == 1]
    assert (block[ones] == ref[ones]).all()
    if n == 3:
        rep = CuspidalRep(f, ks[-1])
        one = [bessel_closed_form_gl3(rep, psi, a, b) for a, b in pairs]
        assert np.array(one).tobytes() == block[:, -1].tobytes()
    if n == 4:
        reps = [CuspidalRep(f, k) for k in ks]
        w6 = np.array([[bessel_closed_form_gl4(rep, psi, a, b) for rep in reps]
                       for a, b in pairs])
        ref_w6 = np.array([[pointwise_closed_form_gl4(rep, psi, a, b) for rep in reps]
                           for a, b in pairs])
        assert w6.shape == ref_w6.shape and w6.tobytes() == ref_w6.tobytes()


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (5, 1, 2), (3, 2, 2), (2, 1, 3),
                                   (3, 1, 3), (2, 1, 4), (3, 1, 4), (2, 1, 5)])
def test_closed_forms_match_the_tables(p, e, n):
    # every regular theta under both psi: the (1, n - 1) run of the tables
    f = build_field(p, e, n)
    ks = regular_exponents(f, n)
    start = support_keys(f, n).index(((1, n - 1), (1, 1)))
    for inverse in (False, True):
        psi = AddChar(f, inverse)
        for lo in range(0, len(ks), 64):
            block = ks[lo:lo + 64]
            printed = bessel_closed_forms(f, n, block, psi)
            run = np.stack([t.values[start:start + len(printed)]
                            for t in bessel_tables(f, n, block, psi)], axis=1)
            assert np.abs(printed - run).max() < 1e-13


def test_closed_forms_refuse_another_n():
    f = build_field(3, 1, 2)
    with pytest.raises(PreconditionViolated):
        bessel_closed_forms(f, 3, [1], AddChar(f))
    with pytest.raises(PreconditionViolated):
        bessel_closed_form_gl4(CuspidalRep(f, 1), AddChar(f), 1, 1)


def test_tables_refuse_a_nan_normalization(monkeypatch):
    # a NaN character column makes that table's B(I) NaN: the normalization
    # check must refuse it and name its theta, not let it through as "not
    # over the bound"
    from gammalab import bessel
    f = build_field(5, 1, 2)
    ks = regular_orbit_reps(f, 2)
    matrix = bessel.character_matrix

    def poisoned(ctx, n, classes, exponents):
        chi = matrix(ctx, n, classes, exponents).copy()
        chi[:, 1] = np.nan
        return chi
    monkeypatch.setattr(bessel, "character_matrix", poisoned)
    with pytest.raises(OracleFailed, match=rf"B\(I\) = \(?nan.* at theta = {ks[1]}\)$"):
        bessel_tables(f, 2, ks, AddChar(f))


def test_csv_export(tmp_path):
    table = table_for(3, 1, 2, 1)
    path = tmp_path / "bessel.csv"
    export_bessel_csv(table, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# schema gammalab/1")
    assert text[1] == "composition,scalars,re,im"
    assert len(text) == 2 + len(table.entries)
    # deterministic output
    path2 = tmp_path / "bessel2.csv"
    export_bessel_csv(table, path2)
    assert path.read_text() == path2.read_text()


def reference_signature(ctx, g):
    """support_signature through the full decomposition: both unipotents
    inverted and w d multiplied out; test oracle."""
    dec = mg.bruhat(ctx, g)
    parsed = mg.parse_antidiag(mg.mat_mul(ctx, dec.w, dec.d))
    if parsed is None:
        return None
    return parsed, ctx.add(mg.superdiag_sum(ctx, dec.u1),
                           mg.superdiag_sum(ctx, dec.u2))


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 4), (5, 1, 2), (2, 2, 3)])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_support_signature_matches_bruhat_reference(p, e, n, data):
    # half the draws are u1 t u2 with t on the support, so both the parsed
    # and the off-support branches are exercised
    f = build_field(p, e, n)
    elems = f.subfield_elements(1)
    g = tuple(tuple(data.draw(st.sampled_from(elems)) for _ in range(n))
              for _ in range(n))
    if data.draw(st.booleans()):
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        comp = data.draw(st.sampled_from(mg.compositions(n)))
        lams = [data.draw(st.sampled_from(f.subfield_units(1))) for _ in comp]
        g = mg.mat_chain(f, mg.random_unipotent(f, n, rng),
                         mg.antidiag_elem(f, comp, lams),
                         mg.random_unipotent(f, n, rng))
        assert support_signature(f, g) is not None
    if not mg.is_invertible(f, g):
        with pytest.raises(Singular):
            support_signature(f, g)
        return
    assert support_signature(f, g) == reference_signature(f, g)


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 4), (5, 1, 2), (2, 2, 3)])
@settings(max_examples=50, deadline=None, database=None)
@given(data=st.data())
def test_batched_support_signatures_match_pointwise(p, e, n, data):
    # a stack of invertible matrices, half of them u1 t u2 on the support
    f = build_field(p, e, n)
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    mats = []
    for _ in range(data.draw(st.integers(1, 8))):
        if data.draw(st.booleans()):
            comp = data.draw(st.sampled_from(mg.compositions(n)))
            lams = [data.draw(st.sampled_from(f.subfield_units(1))) for _ in comp]
            mats.append(mg.mat_chain(f, mg.random_unipotent(f, n, rng),
                                     mg.antidiag_elem(f, comp, lams),
                                     mg.random_unipotent(f, n, rng)))
        else:
            mats.append(mg.random_invertible(f, n, rng))
    key, s = support_signatures(f, f.base.codes(mats))
    keys = support_keys(f, n)
    for g, k, code in zip(mats, key.tolist(), s.tolist()):
        sig = support_signature(f, g)
        assert (k == -1) == (sig is None)
        if sig is not None:
            assert (keys[k], f.subfield_elements(1)[code]) == sig
