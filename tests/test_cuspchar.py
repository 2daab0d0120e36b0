import itertools
import random

import numpy as np
import pytest

from gammalab.charkit import regular_exponents, regular_orbit_reps
from gammalab.bessel import _support_profile
from gammalab.cuspchar import (
    CuspidalRep,
    centralizer_order,
    character_matrix,
    partitions,
    primary_class_inventory,
    verify_irreducible,
)
from gammalab.errors import NotRegular, OracleFailed
from gammalab.ffield import build_field
from gammalab import matgrp as mg
from polyref import poly_eval


def test_constructor_rejects_non_regular():
    f = build_field(3, 1, 2)
    with pytest.raises(NotRegular):
        CuspidalRep(f, 0)
    with pytest.raises(NotRegular):
        CuspidalRep(f, 4)  # fixed by Frobenius mod 8


def test_central_char_is_restriction():
    f = build_field(3, 1, 2)
    rep = CuspidalRep(f, 1)
    for a in f.subfield_units(1):
        assert abs(rep.central_char(a) - rep.theta(a)) < 1e-12


def test_partitions_and_centralizers():
    assert partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    # centralizer of a regular semisimple element of GL_1(F_t): t - 1
    assert centralizer_order((1,), 9) == 8
    # central element of GL_2(F_t): the whole group
    assert centralizer_order((1, 1), 3) == mg.gl_order(3, 2)
    # single Jordan block of size 2: units of F_t[u]/(u^2)
    assert centralizer_order((2,), 3) == 3 * 2


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_class_inventory_matches_brute_force(p, n):
    # group the invertible matrices by primary data and compare counts
    f = build_field(p, 1, n)
    counts = {}
    total_primary = 0
    for g in mg.all_gl(f, n):
        ct = mg.class_type(f, g)
        if ct.primary:
            # identify alpha up to Galois orbit by its minimal conjugate
            orbit = set()
            acc = ct.alpha
            for _ in range(ct.d):
                orbit.add(acc)
                acc = f.pow(acc, f.q)
            key = (ct.d, min(orbit, key=f.dlog), ct.k)
            counts[key] = counts.get(key, 0) + 1
            total_primary += 1
    inv = {}
    for d, alpha, k, size, _lam in primary_class_inventory(f, n):
        key = (d, alpha, k)
        inv[key] = inv.get(key, 0) + size
    assert inv == counts
    assert sum(inv.values()) == total_primary


def test_degree_and_identity_value():
    f = build_field(2, 1, 4)
    rep = CuspidalRep(f, 1)
    assert rep.dimension() == 1 * 3 * 7
    assert abs(rep.character(mg.identity(4)) - 21) < 1e-9
    f2 = build_field(2, 1, 2)
    rep2 = CuspidalRep(f2, 1)
    assert abs(rep2.character(mg.identity(2)) - 1) < 1e-12


def test_gl2_classical_table():
    # independent eigenvalue-based evaluation of the GL_2 cuspidal character
    f = build_field(3, 1, 2)
    q = f.q
    for k in regular_exponents(f, 2):
        rep = CuspidalRep(f, k)
        th = rep.theta
        for g in mg.all_gl(f, 2):
            cp = mg.charpoly(f, g)  # t^2 + c1 t + c0
            roots = [x for x in f.subfield_units(1) if poly_eval(f, cp, x) == 0]
            if len(roots) == 2:
                expect = 0j
            elif len(roots) == 1:
                lam = roots[0]
                if g == ((lam, 0), (0, lam)):
                    expect = (q - 1) * th(lam)
                else:
                    expect = -th(lam)
            else:
                alpha = next(x for x in f.subfield_units(2)
                             if poly_eval(f, cp, x) == 0)
                expect = -(th(alpha) + th(f.pow(alpha, q)))
            assert abs(rep.character(g) - expect) < 1e-9


def pointwise_inner_product(rep):
    """<chi, chi> over GL_n(F_q), summed one primary class at a time with
    `char_of_class` and the class sizes (the character vanishes elsewhere):
    the pointwise reference of `verify_irreducible`'s norm."""
    total = 0.0
    for d, alpha, k, size, _lam in primary_class_inventory(rep.ctx, rep.n):
        v = rep.char_of_class((d, k, alpha))
        total += size * (v.real * v.real + v.imag * v.imag)
    return total / mg.gl_order(rep.q, rep.n)


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 1, 3)])
def test_inner_product_exhaustive_vs_class_sum(p, e, n):
    f = build_field(p, e, n)
    for k in regular_orbit_reps(f, n):
        rep = CuspidalRep(f, k)
        brute = sum(abs(rep.character(g)) ** 2 for g in mg.all_gl(f, n))
        brute /= mg.gl_order(f.q, n)
        (report,) = verify_irreducible([rep])
        for fast in (pointwise_inner_product(rep), report["inner_product"]):
            assert abs(brute - fast) < 1e-8
            assert abs(fast - 1.0) < 1e-8


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (5, 1, 2), (2, 1, 3),
                                   (3, 1, 3), (2, 1, 4), (2, 2, 2)])
def test_verify_irreducible(p, e, n):
    f = build_field(p, e, n)
    for k in regular_orbit_reps(f, n):
        (report,) = verify_irreducible([CuspidalRep(f, k)])
        assert report["ok"]


def test_galois_orbit_gives_same_character():
    for (p, n) in ((3, 2), (2, 3), (2, 4), (3, 3)):
        f = build_field(p, 1, n)
        m = f.q ** n - 1
        rng = random.Random(4)
        for k in regular_orbit_reps(f, n):
            rep1 = CuspidalRep(f, k)
            rep2 = CuspidalRep(f, (k * f.q) % m)
            for _ in range(25):
                g = mg.random_invertible(f, n, rng)
                assert abs(rep1.character(g) - rep2.character(g)) < 1e-9


def test_contragredient_character():
    f = build_field(3, 1, 2)
    for k in regular_exponents(f, 2):
        rep = CuspidalRep(f, k)
        dual = rep.contragredient()
        for g in mg.all_gl(f, 2):
            assert abs(dual.character(g) - rep.character(mg.mat_inv(f, g))) < 1e-9


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3)])
def test_cuspidality_vanishing_on_parabolic_radical(p, n):
    # sum of chi over the unipotent radical of any proper standard parabolic
    # vanishes at the identity coset
    f = build_field(p, 1, n)
    elems = f.subfield_elements(1)
    for k in regular_orbit_reps(f, n):
        rep = CuspidalRep(f, k)
        for split in range(1, n):
            # radical of the (split, n - split) parabolic
            positions = [(i, j) for i in range(split) for j in range(split, n)]
            total = 0j
            for vals in itertools.product(elems, repeat=len(positions)):
                rows = [list(r) for r in mg.identity(n)]
                for (i, j), v in zip(positions, vals):
                    rows[i][j] = v
                total += rep.character(tuple(tuple(r) for r in rows))
            assert abs(total) < 1e-9


#: the acceptance cells (p, e, n) of the batched per-cell tables
BATCH_CELLS = [(2, 1, 3), (3, 1, 3), (2, 2, 3), (5, 1, 2), (2, 1, 4), (3, 1, 4),
               (2, 1, 5)]


@pytest.mark.parametrize("p,e,n", BATCH_CELLS)
def test_character_matrix_matches_char_of_class(p, e, n):
    # every regular theta on every class of the support profile, the
    # non-primary class 0 included, in one matrix
    f = build_field(p, e, n)
    classes = _support_profile(f, n).classes
    ks = regular_exponents(f, n)
    chi = character_matrix(f, n, classes, ks)
    assert chi.shape == (len(classes), len(ks))
    for j, k in enumerate(ks):
        rep = CuspidalRep(f, k)
        ref = [rep.char_of_class(data) for data in classes]
        assert max(abs(x - y) for x, y in zip(chi[:, j], ref)) < 1e-13


#: the acceptance cells of the batched tables and of the acceptance suite
ORACLE_CELLS = sorted(set(BATCH_CELLS) | {(2, 1, 2), (3, 1, 2)})


@pytest.mark.parametrize("p,e,n", ORACLE_CELLS)
def test_oracle_norm_matches_the_pointwise_class_sum(p, e, n):
    # the norm the oracle reads from `character_matrix`, for a block of
    # every regular theta, against `char_of_class` one class at a time
    f = build_field(p, e, n)
    reps = [CuspidalRep(f, k) for k in regular_exponents(f, n)]
    for rep, report in zip(reps, verify_irreducible(reps)):
        assert abs(report["inner_product"] - pointwise_inner_product(rep)) < 1e-12
        assert report["degree"] == pytest.approx(rep.dimension(), abs=1e-9)


@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (2, 1, 3)])
def test_oracle_refuses_a_bent_character_kernel(p, e, n, monkeypatch):
    # one live coefficient of the kernel scaled by 1 + 1e-3: the oracle must
    # see it, and name the first theta it fails at
    from gammalab import cuspchar
    conjugates = cuspchar._class_conjugates

    def bent(ctx, n, classes):
        coef, dlogs, live = conjugates(ctx, n, classes)
        coef = coef.copy()
        coef[np.flatnonzero(coef)[0]] *= 1 + 1e-3
        return coef, dlogs, live
    f = build_field(p, e, n)
    reps = [CuspidalRep(f, k) for k in regular_orbit_reps(f, n)]
    monkeypatch.setattr(cuspchar, "_class_conjugates", bent)
    with pytest.raises(OracleFailed) as err:
        verify_irreducible(reps)
    assert f"theta = {reps[0].exponent})" in str(err.value)
