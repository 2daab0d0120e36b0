import itertools
import random
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gammalab.bessel import (_support_profile, _unipotents, bessel_build, bessel_tables,
                             support_keys)
from gammalab.charkit import AddChar, regular_exponents
from gammalab.cuspchar import CuspidalRep
from gammalab.errors import DimensionMismatch, Singular
from gammalab.ffield import _ptrim, build_field
from gammalab import matgrp as mg
from polyref import poly_eval, poly_gcd, poly_pow_x


def naive_charpoly(ctx, a):
    """det(tI - A) by Laplace expansion over F_q[t]; test oracle."""
    n = len(a)
    entries = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                entries[i][j] = [ctx.neg(a[i][j]), 1]
            else:
                entries[i][j] = [ctx.neg(a[i][j])] if a[i][j] else []

    def padd(x, y):
        out = [0] * max(len(x), len(y))
        for i, c in enumerate(x):
            out[i] = c
        for i, c in enumerate(y):
            out[i] = ctx.add(out[i], c)
        while out and out[-1] == 0:
            out.pop()
        return out

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = []
        r = rows[0]
        for idx, c in enumerate(cols):
            minor = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = mg.poly_mul(ctx, entries[r][c], minor)
            if idx % 2:
                term = [ctx.neg(x) for x in term]
            total = padd(total, term)
        return total

    return det(list(range(n)), list(range(n)))


def test_matrix_basics():
    f = build_field(3, 1, 2)
    g = ((1, 2), (0, 1))
    h = mg.mat_inv(f, g)
    assert mg.mat_mul(f, g, h) == mg.identity(2)
    with pytest.raises(Singular):
        mg.mat_inv(f, ((1, 2), (2, 1)))  # det = 1-4 = 0 mod 3


@pytest.mark.parametrize("p,e,m", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 3)])
def test_mat_inv_exhaustive(p, e, m):
    # a two-sided inverse of every matrix of GL_2(F_q), q <= 5, and GL_3(F_2)
    f = build_field(p, e, m)
    for g in mg.all_gl(f, m):
        h = mg.mat_inv(f, g)
        assert mg.mat_mul(f, h, g) == mg.mat_mul(f, g, h) == mg.identity(m)


def test_mat_inv_refuses_every_singular_matrix():
    f = build_field(3, 1, 2)
    elems = f.subfield_elements(1)
    invertible = set(mg.all_gl(f, 2))
    singular = [g for g in itertools.product(itertools.product(elems, repeat=2), repeat=2)
                if g not in invertible]
    assert len(singular) == 81 - 48
    for g in singular:
        with pytest.raises(Singular):
            mg.mat_inv(f, g)
        assert mg.rank(f, g) < 2


def test_canonical_coset_constant_on_gl3_f2_cosets():
    f = build_field(2, 1, 3)
    uni = mg.all_unipotent(f, 3)
    for g in mg.all_gl(f, 3):
        c = mg.canonical_unipotent_coset(f, g)
        assert all(mg.canonical_unipotent_coset(f, mg.mat_mul(f, u, g)) == c for u in uni)


def test_bruhat_identity_and_antidiag():
    f = build_field(2, 1, 2)
    dec = mg.bruhat(f, mg.identity(2))
    assert dec == (mg.identity(2), mg.identity(2), mg.identity(2), mg.identity(2))
    w = ((0, 1), (1, 0))
    dec = mg.bruhat(f, w)
    assert mg.mat_mul(f, dec.w, dec.d) == w and dec.d == mg.identity(2)


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3)])
def test_bruhat_roundtrip_exhaustive(p, m):
    f = build_field(p, 1, max(m, 2))
    for g in mg.all_gl(f, m):
        dec = mg.bruhat(f, g)
        assert mg.mat_chain(f, dec.u1, dec.w, dec.d, dec.u2) == g
        # u1, u2 upper unipotent
        for u in (dec.u1, dec.u2):
            for i in range(m):
                assert u[i][i] == 1
                for j in range(i):
                    assert u[i][j] == 0


def test_bruhat_uniqueness_exhaustive():
    # (w, d) agrees with a brute-force search over all u1, u2
    f = build_field(3, 1, 2)
    uni = mg.all_unipotent(f, 2)
    for g in mg.all_gl(f, 2):
        dec = mg.bruhat(f, g)
        monomials = set()
        for u1 in uni:
            iu1 = mg.mat_inv(f, u1)
            left = mg.mat_mul(f, iu1, g)
            for u2 in uni:
                cand = mg.mat_mul(f, left, mg.mat_inv(f, u2))
                nonzero = sum(1 for row in cand for x in row if x)
                if nonzero == 2:
                    monomials.add(cand)
        assert monomials == {mg.mat_mul(f, dec.w, dec.d)}


def test_coset_reps_counts():
    f3 = build_field(3, 1, 2)
    f2 = build_field(2, 1, 2)
    assert len(mg.unipotent_coset_reps(f3, 1)) == 2
    assert len(mg.unipotent_coset_reps(f2, 2)) == 3  # 6 / 2
    assert len(mg.unipotent_coset_reps(f3, 2)) == 16  # 48 / 3
    assert len(mg.lower_nilpotent_reps(f2, 3)) == 8   # q^3
    # canonical map is constant on cosets and injective across them
    uni = mg.all_unipotent(f3, 2)
    seen = {}
    for g in mg.all_gl(f3, 2):
        c = mg.canonical_unipotent_coset(f3, g)
        coset = frozenset(mg.mat_mul(f3, u, g) for u in uni)
        if c in seen:
            assert seen[c] == coset
        else:
            seen[c] = coset
        assert c in coset
    assert len(seen) == 16


def test_sigma_perm():
    assert mg.sigma_perm(2) == mg.identity(2)
    s4 = mg.sigma_perm(4)
    # columns 1,2,3,4 -> rows 1,3,2,4 (the 2<->3 swap)
    assert s4 == mg.perm_matrix([0, 2, 1, 3])
    s5 = mg.sigma_perm(5)
    assert s5[4][4] == 1
    assert s5 == mg.perm_matrix([0, 2, 1, 3, 4])


def test_antidiag_elem_and_parse():
    f = build_field(3, 1, 4)
    lam = 2
    # a single block is the block itself: antidiag(lam I_2) = lam I_2
    m1 = mg.antidiag_elem(f, (1,), (lam,), block_scale=2)
    assert m1 == ((lam, 0), (0, lam))
    m2 = mg.antidiag_elem(f, (1, 1), (1, 2), block_scale=2)
    assert len(m2) == 4 and m2[0][2] == 1 and m2[2][0] == 2
    m3 = mg.antidiag_elem(f, (1,), (2,), block_scale=2, tail_one=True)
    assert m3 == ((0, 2, 0), (0, 0, 2), (1, 0, 0))
    for m in (m1, m2, m3):
        parsed = mg.parse_antidiag(m)
        assert parsed is not None
    assert mg.parse_antidiag(m2) == ((2, 2), (1, 2))
    assert mg.parse_antidiag(mg.identity(3)) == ((3,), (1,))
    assert mg.parse_antidiag(((0, 1, 0), (1, 0, 0), (0, 0, 1))) is None


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_charpoly_matches_naive_exhaustive(p, n):
    f = build_field(p, 1, max(n, 2))
    elems = f.subfield_elements(1)
    rows = list(itertools.product(elems, repeat=n))
    rng = random.Random(3)
    mats = [tuple(rng.choice(rows) for _ in range(n)) for _ in range(200)]
    for a in mats:
        assert mg.charpoly(f, a) == naive_charpoly(f, a)


def test_charpoly_random_larger():
    rng = random.Random(5)
    for (p, n) in ((2, 4), (2, 5), (3, 4)):
        f = build_field(p, 1, n)
        for _ in range(25):
            a = mg.random_invertible(f, n, rng)
            assert mg.charpoly(f, a) == naive_charpoly(f, a)


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_charpoly_matches_determinant_random(p, data):
    # det(xI - A) by cofactor expansion against the Hessenberg and the
    # batched Berkowitz charpoly, singular matrices included
    f = build_field(p, 1, 2)
    n = data.draw(st.integers(1, 3))
    a = tuple(tuple(data.draw(st.sampled_from(f.subfield_elements(1)))
                    for _ in range(n)) for _ in range(n))
    expect = naive_charpoly(f, a)
    assert mg.charpoly(f, a) == expect
    assert f.base.elems[mg.batch_charpoly(f, f.base.codes([a]))[0]].tolist() == expect


def _as_mat(ctx, codes):
    return tuple(map(tuple, ctx.base.elems[codes].tolist()))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1)])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_batched_kernels_match_pointwise(p, e, data):
    # a stack of random matrices, on a drawn flag each with its first row
    # repeated in its last, so the ranks cover singular inputs
    f = build_field(p, e, 2)
    elems = f.subfield_elements(1)
    n = data.draw(st.integers(1, 4))
    row = st.tuples(*[st.sampled_from(elems)] * n)
    mats = data.draw(st.lists(st.tuples(*[row] * n), min_size=1, max_size=6))
    if n > 1 and data.draw(st.booleans()):
        mats = [m[:-1] + m[:1] for m in mats]
    a = f.base.codes(mats)
    prod = mg.batch_mat_mul(f, a, a[::-1])
    polys = mg.batch_charpoly(f, a)
    ranks = mg.batch_rank(f, a)
    for i, g in enumerate(mats):
        assert _as_mat(f, prod[i]) == mg.mat_mul(f, g, mats[-1 - i])
        assert f.base.elems[polys[i]].tolist() == mg.charpoly(f, g)
        assert ranks[i] == mg.rank(f, g)
    full = [i for i, g in enumerate(mats) if mg.is_invertible(f, g)]
    if full:
        monomial, lacc, racc, pivots = mg.batch_bruhat(f, a[full])
        assert (pivots == n).all()
        for j, i in enumerate(full):
            ref = [tuple(map(tuple, x)) for x in mg.bruhat_reduce(f, mats[i])]
            assert [_as_mat(f, x[j]) for x in (monomial, lacc, racc)] == ref


def test_class_type_examples():
    f = build_field(2, 1, 4)
    n = 4
    ct = mg.class_type(f, mg.identity(n))
    assert ct.primary and ct.d == 1 and ct.c == n and ct.alpha == 1 and ct.k == n
    # regular unipotent: single Jordan block
    ru = tuple(tuple(1 if j in (i, i + 1) else 0 for j in range(n)) for i in range(n))
    ct = mg.class_type(f, ru)
    assert ct.primary and ct.d == 1 and ct.c == n and ct.k == 1
    # companion matrix of an irreducible quartic has d = n, c = 1, k = 1
    # x^4 + x + 1 is irreducible over F_2
    comp = ((0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))
    ct = mg.class_type(f, comp)
    assert ct.primary and ct.d == 4 and ct.c == 1 and ct.k == 1
    assert poly_eval(f, mg.charpoly(f, comp), ct.alpha) == 0
    # two distinct eigenvalues in the base field: not primary
    f3 = build_field(3, 1, 2)
    ct = mg.class_type(f3, ((1, 0), (0, 2)))
    assert not ct.primary


def test_class_type_conjugation_invariant():
    f = build_field(3, 1, 3)
    rng = random.Random(9)
    for _ in range(50):
        g = mg.random_invertible(f, 3, rng)
        h = mg.random_invertible(f, 3, rng)
        conj = mg.mat_chain(f, h, g, mg.mat_inv(f, h))
        assert mg.class_type(f, g) == mg.class_type(f, conj)


def reference_factor(ctx, c):
    """(d, mult, alpha, f) when the monic polynomial c = f^mult with f
    irreducible of degree d and alpha its root of least dlog, else None, by
    factoring: the first d with gcd(c, x^(q^d) - x) nontrivial, the f^mult
    check and a root search over F_{q^d}; test oracle of
    `mg.primary_charpolys`."""
    c = list(c)
    n = len(c) - 1
    for d in range(1, n + 1):
        diff = list(poly_pow_x(ctx, ctx.q ** d, c)) + [0, 0]
        diff[1] = ctx.sub(diff[1], 1)
        f = poly_gcd(ctx, c, _ptrim(diff))
        if len(f) > 1:
            break
    if len(f) - 1 != d or n % d:
        return None
    power = [1]
    for _ in range(n // d):
        power = mg.poly_mul(ctx, power, f)
    if power != c:
        return None
    alpha = min((xi for xi in ctx.subfield_units(d) if poly_eval(ctx, f, xi) == 0),
                key=ctx.dlog)
    return d, n // d, alpha, tuple(f)


def reference_class_type(ctx, g):
    """class_type without the per-cell table or the mult = 1 shortcut:
    an invertibility elimination, then the factorisation of the charpoly
    (`reference_factor`) and the kernel rank of f(g) on every call; test
    oracle."""
    n = len(g)
    if not mg.is_invertible(ctx, g):
        raise Singular("class_type of a singular matrix")
    primary = reference_factor(ctx, mg.charpoly(ctx, g))
    if primary is None:
        return mg.ClassType(False, None, None, None, None)
    d, _, alpha, f = primary
    fg = mg.zero(n)
    acc = mg.identity(n)
    for coef in f:
        fg = tuple(tuple(ctx.add(x, y) for x, y in zip(r1, r2))
                   for r1, r2 in zip(fg, mg.scalar_mul(ctx, coef, acc)))
        acc = mg.mat_mul(ctx, acc, g)
    kdim = n - mg.rank(ctx, fg)
    assert kdim % d == 0
    return mg.ClassType(True, d, n // d, alpha, kdim // d)


def kernel_class_data(ctx, mats, classes=None):
    """The class data (d, k, alpha), or None, of each matrix of a list typed
    as one stack by the batched kernel `mg.class_ids`, against a fresh class
    map unless one is given."""
    classes = {} if classes is None else classes
    ids = mg.class_ids(ctx, ctx.base.codes(np.array(mats)), classes)
    names = list(classes)
    return [names[i] for i in ids.tolist()]


def class_data(ct):
    return (ct.d, ct.k, ct.alpha) if ct.primary else None


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2),
                                   (3, 1, 3), (2, 2, 2), (5, 1, 2), (2, 2, 3)])
def test_primary_charpolys_match_reference_on_every_polynomial(p, e, n):
    # every monic degree-n polynomial with a nonzero constant term: the
    # table holds exactly the primary ones, with the factoriser's entry
    f = build_field(p, e, n)
    table = mg.primary_charpolys(f, n)
    elems = f.subfield_elements(1)
    polys = [(c0, *rest, 1) for c0 in f.subfield_units(1)
             for rest in itertools.product(elems, repeat=n - 1)]
    found = {c: reference_factor(f, c) for c in polys}
    assert {c: v for c, v in found.items() if v is not None} == dict(table)
    # entries in order of d, with every d | n present
    ds = [d for d, _, _, _ in table.values()]
    assert ds == sorted(ds) and set(ds) == {d for d in range(1, n + 1) if n % d == 0}


def profile_charpolys(ctx, n):
    """The distinct characteristic polynomials of every t*u of the support
    profile, as tuples of field elements."""
    F = ctx.base
    unip = _unipotents(ctx, n)[0]
    digits = ctx.q ** np.arange(n)
    codes = set()
    for key in support_keys(ctx, n):
        t = F.codes(mg.antidiag_elem(ctx, *key))
        polys = mg.batch_charpoly(ctx, mg.batch_mat_mul(ctx, t, unip))
        codes.update(np.unique(polys[:, :n] @ digits).tolist())
    return [(*F.elems[code // digits % ctx.q].tolist(), 1) for code in sorted(codes)]


@pytest.mark.parametrize("p,e,n", [(2, 3, 3), (2, 2, 4)])
def test_primary_charpolys_match_reference_on_profile_charpolys(p, e, n):
    f = build_field(p, e, n)
    table = mg.primary_charpolys(f, n)
    polys = profile_charpolys(f, n)
    kinds = [table.get(c) for c in polys]
    assert kinds == [reference_factor(f, c) for c in polys]
    assert None in kinds and {k[:2] for k in kinds if k} == {
        (d, n // d) for d in range(1, n + 1) if n % d == 0}


def test_class_type_refuses_another_size():
    f = build_field(3, 1, 3)
    with pytest.raises(DimensionMismatch):
        mg.class_type(f, mg.identity(2))
    with pytest.raises(DimensionMismatch):
        mg.class_ids(f, f.base.codes([mg.identity(2)]), {})


def test_class_ids_extend_the_callers_map_in_first_seen_order():
    # the support profile's t*u at (3, 3), typed in one stack and in two
    # parts against one map: the same data, ids 0, 1, ... with None first,
    # and the second part keeps the ids the first one gave; a map that
    # already holds classes keeps their ids
    f = build_field(3, 1, 3)
    mats = [mg.mat_mul(f, mg.antidiag_elem(f, *key), u) for key in support_keys(f, 3)
            for u in mg.all_unipotent(f, 3)]
    whole = {}
    data = kernel_class_data(f, mats, whole)
    parts = {}
    split = len(mats) // 3
    first = kernel_class_data(f, mats[:split], parts)
    before = dict(parts)
    assert first + kernel_class_data(f, mats[split:], parts) == data
    assert parts.items() >= before.items() and set(parts) == set(whole)
    for classes in (whole, parts):
        assert list(classes)[0] is None
        assert list(classes.values()) == list(range(len(classes)))
    seeded = {(1, 3, 1): 0}
    assert kernel_class_data(f, mats, seeded) == data
    assert seeded[(1, 3, 1)] == 0 and seeded[None] == 1


def profile_histogram(ctx, n):
    """The sparse rows of `_support_profile` as a Counter over
    (support key, class data, superdiagonal sum)."""
    prof = _support_profile(ctx, n)
    classes = prof.classes
    assert classes[0] is None and len(set(classes)) == len(classes)
    cells = list(zip(prof.key.tolist(), prof.cls.tolist(), prof.s.tolist()))
    assert cells == sorted(set(cells)) and (prof.count > 0).all()
    keys, elems = support_keys(ctx, n), ctx.subfield_elements(1)
    return Counter({(keys[i], classes[c], elems[s]): count
                    for (i, c, s), count in zip(cells, prof.count.tolist())})


def rows_histogram(profile):
    """The same Counter from per-typing rows {key: ((data, s), ...)}."""
    return Counter((key, data, s) for key, rows in profile.items() for data, s in rows)


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3)])
def test_support_profile_types_match_reference_exhaustive(p, n):
    # every t*u of the support profile, typed by the reference through the
    # generic product: checks the memo, the mult = 1 shortcut and the
    # row-scaling t*u of _support_profile at once
    f = build_field(p, 1, n)
    reference = {}
    kinds = set()
    mats, expect = [], []
    for key in support_keys(f, n):
        t = mg.antidiag_elem(f, *key)
        rows = []
        for u in mg.all_unipotent(f, n):
            ct = reference_class_type(f, mg.mat_mul(f, t, u))
            assert mg.class_type(f, mg.mat_mul(f, t, u)) == ct
            rows.append((class_data(ct), mg.superdiag_sum(f, u)))
            kinds.add((ct.primary, ct.c, ct.k))
            mats.append(mg.mat_mul(f, t, u))
            expect.append(class_data(ct))
        reference[key] = rows
    # the batched kernel, on every t*u of the cell as one stack
    assert kernel_class_data(f, mats) == expect
    assert profile_histogram(f, n) == rows_histogram(reference)
    # non-primary classes, and mult > 1 with both a full and a partial kernel
    assert (False, None, None) in kinds
    assert any(c > 1 and k == c for _, c, k in kinds if c)
    assert any(c > 1 and k < c for _, c, k in kinds if c)


@lru_cache(maxsize=None)
def pointwise_profile(ctx, n):
    """The support profile typed one t*u at a time by `mg.class_type`, as
    rows (class data, superdiagonal sum) per key; test oracle of the
    batched `_support_profile`."""
    out = {}
    for key in support_keys(ctx, n):
        t = mg.antidiag_elem(ctx, *key)
        rows = []
        for u in mg.all_unipotent(ctx, n):
            ct = mg.class_type(ctx, mg.mat_mul(ctx, t, u))
            rows.append(((ct.d, ct.k, ct.alpha) if ct.primary else None,
                         mg.superdiag_sum(ctx, u)))
        out[key] = tuple(rows)
    return out


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (2, 1, 4), (3, 1, 3), (2, 2, 3),
                                   (5, 1, 2), (3, 1, 4), (2, 1, 5)])
def test_support_profile_matches_pointwise(p, e, n):
    f = build_field(p, e, n)
    assert profile_histogram(f, n) == rows_histogram(pointwise_profile(f, n))


def rowwise_bessel(rep, psi):
    """Every Bessel entry by the averaging formula summed over the rows of
    `pointwise_profile`, equal rows taken once with their count; test
    oracle of `bessel_tables`' product of class sums with the character
    matrix."""
    ctx, n = rep.ctx, rep.n
    psi_inv = psi.inverted()
    norm = 1.0 / ctx.q ** (n * (n - 1) // 2)
    out = dict.fromkeys(support_keys(ctx, n), 0j)
    for (key, data, s), count in profile_counts(ctx, n).items():
        if data is not None:
            out[key] += count * rep.char_of_class(data) * psi_inv(s)
    return {key: total * norm for key, total in out.items()}


@lru_cache(maxsize=None)
def profile_counts(ctx, n):
    return rows_histogram(pointwise_profile(ctx, n))


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (2, 2, 3), (3, 1, 3), (5, 1, 2),
                                   (2, 1, 4), (3, 1, 4), (2, 1, 5)])
def test_bessel_tables_match_rowwise_profile_sum(p, e, n):
    # every regular theta of the cell in one `bessel_tables` call, and each
    # one alone through `bessel_build`
    f = build_field(p, e, n)
    keys = support_keys(f, n)
    ks = regular_exponents(f, n)
    for inverse in (False, True):
        psi = AddChar(f, inverse)
        tables = bessel_tables(f, n, ks, psi)
        assert [t.rep.exponent for t in tables] == ks
        for k, table in zip(ks, tables):
            expect = rowwise_bessel(table.rep, psi)
            assert list(table.entries) == list(keys)
            assert table.values.tolist() == list(table.entries.values())
            assert max(abs(table.entries[key] - expect[key]) for key in keys) < 1e-13
            alone = bessel_build(CuspidalRep(f, k), psi)
            assert np.abs(alone.values - table.values).max() < 1e-13


@pytest.mark.parametrize("p,e,n", [(2, 1, 4), (3, 1, 3), (5, 1, 2), (2, 2, 3)])
@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_class_type_matches_reference_random(p, e, n, data):
    f = build_field(p, e, n)
    elems = f.subfield_elements(1)
    g = tuple(tuple(data.draw(st.sampled_from(elems)) for _ in range(n))
              for _ in range(n))
    if not mg.is_invertible(f, g):
        with pytest.raises(Singular):
            mg.class_type(f, g)
        with pytest.raises(Singular):  # the kernel refuses the whole stack
            kernel_class_data(f, [mg.identity(n), g])
        return
    ct = reference_class_type(f, g)
    assert mg.class_type(f, g) == ct
    assert kernel_class_data(f, [g]) == [class_data(ct)]


def _binom2(x):
    return x * (x - 1) // 2


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_orbit_size_lemma(p, m):
    # N-orbit of the coset N wd and the constrained-X count both equal
    # q^(C(m,2) - sum C(m_i,2))
    f = build_field(p, 1, 2)
    q = f.q
    units = f.subfield_units(1)
    for comp in mg.compositions(m):
        for lams in itertools.product(units, repeat=len(comp)):
            wd = mg.antidiag_elem(f, comp, lams)
            expect = q ** (_binom2(m) - sum(_binom2(mi) for mi in comp))
            orbit = {mg.canonical_unipotent_coset(f, mg.mat_mul(f, wd, u))
                     for u in mg.all_unipotent(f, m)}
            assert len(orbit) == expect
            # permutation of wd as a function on column indices
            tau = [next(i for i in range(m) if wd[i][j]) for j in range(m)]
            tau_inv = [0] * m
            for j, i in enumerate(tau):
                tau_inv[i] = j
            count = 0
            for x in mg.lower_nilpotent_reps(f, m):
                ok = all(x[i][j] == 0
                         for i in range(m) for j in range(i)
                         if tau_inv[j] < tau_inv[i])
                count += ok
            assert count == expect


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_support_lemma_shape(p, m):
    # sigma * u(X) * diag(g, g) * sigma^{-1} = antidiag(...) * v with v upper
    # unipotent with zero superdiagonal, for admissible (g = wdu, X)
    f = build_field(p, 1, 2)
    units = f.subfield_units(1)
    sig = mg.sigma_perm(2 * m)
    sig_inv = mg.mat_inv(f, sig)
    for comp in mg.compositions(m):
        for lams in itertools.product(units, repeat=len(comp)):
            wd = mg.antidiag_elem(f, comp, lams)
            tau = [next(i for i in range(m) if wd[i][j]) for j in range(m)]
            tau_inv = [0] * m
            for j, i in enumerate(tau):
                tau_inv[i] = j
            target = mg.antidiag_elem(f, comp, lams, block_scale=2)
            for u in mg.all_unipotent(f, m):
                g = mg.mat_mul(f, wd, u)
                for x in mg.lower_nilpotent_reps(f, m):
                    if not all(x[i][j] == 0
                               for i in range(m) for j in range(i)
                               if tau_inv[j] < tau_inv[i]):
                        continue
                    z = mg.mat_chain(f, sig, mg.shalika_u(m, x),
                                     mg.shalika_diag(g), sig_inv)
                    v = mg.mat_mul(f, mg.mat_inv(f, target), z)
                    for i in range(2 * m):
                        assert v[i][i] == 1
                        for j in range(i):
                            assert v[i][j] == 0
                        if i + 1 < 2 * m:
                            assert v[i][i + 1] == 0


def test_gl_order():
    assert mg.gl_order(2, 2) == 6
    assert mg.gl_order(3, 2) == 48
    assert mg.gl_order(2, 3) == 168
    assert mg.gl_order(2, 4) == 20160
    assert len(mg.all_gl(build_field(3, 1, 2), 2)) == 48


@settings(max_examples=150, deadline=None, database=None)
@given(data=st.data())
def test_charpoly_matches_determinant_over_every_small_base_field(data):
    # det(xI - A) by cofactor expansion against the Hessenberg and the
    # batched Berkowitz charpoly over prime and non-prime q, n up to 4
    p, e = data.draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                                      (3, 2)]))
    f = build_field(p, e, 1)
    n = data.draw(st.integers(1, 4))
    elems = st.sampled_from(f.subfield_elements(1))
    mats = data.draw(st.lists(st.tuples(*[st.tuples(*[elems] * n)] * n),
                              min_size=1, max_size=4))
    polys = f.base.elems[mg.batch_charpoly(f, f.base.codes(mats))].tolist()
    for a, batched in zip(mats, polys):
        expect = naive_charpoly(f, a)
        assert mg.charpoly(f, a) == expect
        assert batched == expect
