import random

import numpy as np
import pytest

from gammalab import charkit
from gammalab.charkit import (
    AddChar,
    CFun,
    MultChar,
    fourier,
    gauss_sum,
    is_regular,
    kloosterman,
    regular_exponents,
    regular_orbit,
    regular_orbit_reps,
    restriction_is_trivial,
)
from gammalab.errors import NotInSubfield, NotRegular
from gammalab.ffield import build_field


def test_addchar_is_additive_and_nontrivial():
    for (p, e) in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = build_field(p, e, 2)
        psi = AddChar(f)
        elems = f.subfield_elements(1)
        assert any(abs(psi(x) - 1) > 1e-12 for x in elems)
        for a in elems:
            for b in elems:
                assert abs(psi(f.add(a, b)) - psi(a) * psi(b)) < 1e-12
        # orthogonality
        assert abs(sum(psi(x) for x in elems)) < 1e-10


def test_addchar_is_a_value():
    # two constructions of one (field, sign) are equal and hash alike; psi^-1
    # is another character at odd p and the same one at p = 2, where a set,
    # like a cache key, holds one of the two
    for p, e in ((2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)):
        f = build_field(p, e, 2)
        for inverse in (False, True):
            a, b = AddChar(f, inverse), AddChar(f, inverse)
            assert a is not b and a == b and hash(a) == hash(b)
        psi, inv = AddChar(f), AddChar(f, True)
        assert (psi == inv) is (p == 2) and (psi != inv) is (p != 2)
        assert len({psi, inv}) == (1 if p == 2 else 2)
        assert psi.inverted() == inv and inv.inverted() == psi
    # equal values over two fields are two characters
    assert AddChar(build_field(3, 1, 2)) != AddChar(build_field(3, 1, 3))


def _fields_of_order_at_most(bound):
    """(p, e, n) of every ambient field F_{p^(e n)} of order <= bound."""
    out = []
    for p in range(2, bound + 1):
        if any(p % r == 0 for r in range(2, p)):
            continue
        d = 1
        while p ** d <= bound:
            out += [(p, e, d // e) for e in range(1, d + 1) if d % e == 0]
            d += 1
    return out


def test_addchar_values_match_the_trace_formula():
    # psi(x) = zeta_p^(+-Tr(x)) at every code of every base field inside
    # every ambient field of order <= 256, with Tr(x) = sum_i x^(p^i) taken
    # pointwise, bit for bit; psi of an element outside F_q is refused
    for p, e, n in _fields_of_order_at_most(256):
        f = build_field(p, e, n)
        zeta = np.exp(2j * np.pi * np.arange(p) / p)
        elems = f.subfield_elements(1)
        traces = []
        for x in elems:
            t = 0
            for i in range(e):
                t = f.add(t, f.pow(x, p ** i))
            traces.append(f.lift_prime(t))
        for inverse, sign in ((False, 1), (True, -1)):
            psi = AddChar(f, inverse)
            expected = zeta[[sign * t % p for t in traces]]
            assert psi.values.tobytes() == expected.tobytes(), (p, e, n, inverse)
            assert all(psi(x) == v for x, v in zip(elems, expected.tolist()))
        outside = next((x for x in range(f.order) if not f.in_subfield(x, 1)), None)
        if outside is not None:
            with pytest.raises(NotInSubfield):
                psi(outside)


def test_multchar_is_multiplicative():
    f = build_field(3, 1, 2)
    for k in range(8):
        th = MultChar(f, 2, k)
        for a in range(1, f.order):
            for b in (1, f.gen, f.gen_power(5)):
                assert abs(th(f.mul(a, b)) - th(a) * th(b)) < 1e-12
    # nontrivial characters sum to zero over the units
    for k in range(1, 8):
        th = MultChar(f, 2, k)
        assert abs(sum(th(x) for x in range(1, f.order))) < 1e-10


def test_is_regular_small_cases():
    f = build_field(2, 1, 2)
    assert is_regular(MultChar(f, 2, 1), 2)
    assert not is_regular(MultChar(f, 2, 0), 2)
    f = build_field(3, 1, 2)
    assert not is_regular(MultChar(f, 2, 4), 2)  # 4*3 = 12 = 4 mod 8


def test_regular_count_divisible_by_n():
    for (p, e, n) in ((2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3), (2, 1, 4), (2, 2, 2)):
        f = build_field(p, e, n)
        ks = regular_exponents(f, n)
        assert len(ks) % n == 0
        m = f.q ** n - 1
        # orbits partition into size exactly n
        seen = set()
        for k in ks:
            if k in seen:
                continue
            orbit = {(k * pow(f.q, i, m)) % m for i in range(n)}
            assert len(orbit) == n
            assert orbit <= set(ks)
            seen |= orbit
        assert seen == set(ks)


def test_restriction_is_trivial():
    f = build_field(3, 1, 2)
    assert restriction_is_trivial(MultChar(f, 2, 4), 1)   # 2 | 4
    assert not restriction_is_trivial(MultChar(f, 2, 1), 1)
    assert restriction_is_trivial(MultChar(f, 2, f.q - 1), 1)


def test_gauss_sum_trivial_char():
    for q_spec in ((2, 1), (3, 1), (5, 1)):
        f = build_field(q_spec[0], q_spec[1], 2)
        psi = AddChar(f)
        assert abs(gauss_sum(MultChar(f, 1, 0), psi) + 1) < 1e-10


def test_gauss_sum_quadratic_q3():
    # two-term sum: psi(1) - psi(2) = i*sqrt(3)
    f = build_field(3, 1, 2)
    g = gauss_sum(MultChar(f, 1, 1), AddChar(f))
    assert abs(g - complex(0, 3 ** 0.5)) < 1e-10


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
def test_gauss_sum_modulus_sqrt_q(p, e):
    f = build_field(p, e, 1)
    psi = AddChar(f)
    q = f.q
    for k in range(1, q - 1):
        g = gauss_sum(MultChar(f, 1, k), psi)
        assert abs(abs(g) - q ** 0.5) < 1e-8


def pointwise_gauss_sum(chi, psi):
    """G_psi(chi) = sum_a chi(a^-1) psi(a), one a at a time: test oracle."""
    ctx = chi.ctx
    return complex(sum(chi(ctx.inv(a)) * psi(a) for a in ctx.subfield_units(1)))


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4), (5, 2), (17, 1), (3, 3), (2, 5)])
@pytest.mark.parametrize("inverse", [False, True])
def test_gauss_sum_matches_pointwise_sum(p, e, inverse):
    # one `character_sums` of the cached terms equals the loop bit for bit,
    # for every character of F_q^x
    f = build_field(p, e, 1)
    psi = AddChar(f, inverse)
    for k in range(f.q - 1):
        chi = MultChar(f, 1, k)
        assert (np.array(gauss_sum(chi, psi)).tobytes()
                == np.array(pointwise_gauss_sum(chi, psi)).tobytes())


def test_kloosterman_degenerate_and_symmetry():
    for (p, e) in ((3, 1), (5, 1), (2, 2)):
        f = build_field(p, e, 2)
        psi = AddChar(f)
        assert abs(kloosterman(1, 0, psi) + 1) < 1e-10
        assert abs(kloosterman(0, 0, psi) - (f.q - 1)) < 1e-10
        for a in f.subfield_units(1):
            for b in f.subfield_units(1):
                assert abs(kloosterman(a, b, psi) - kloosterman(b, a, psi)) < 1e-9


def test_fourier_delta_and_constant():
    f = build_field(3, 1, 2)
    psi = AddChar(f)
    for m in (1, 2):
        d0 = CFun.delta(f, m, (0,) * m)
        hat = fourier(d0, psi)
        assert np.allclose(hat.values, f.q ** (-m / 2.0))
        one = CFun.constant(f, m, 1.0)
        hat1 = fourier(one, psi)
        expect = np.zeros(f.q ** m, dtype=complex)
        expect[0] = f.q ** (m / 2.0)
        assert np.allclose(hat1.values, expect, atol=1e-10)


def test_fourier_inversion():
    rng = random.Random(7)
    for (p, e, m) in ((3, 1, 1), (3, 1, 2), (2, 2, 1), (5, 1, 1)):
        f = build_field(p, e, 2)
        psi = AddChar(f)
        vals = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(f.q ** m)]
        phi = CFun(f, m, vals)
        back = fourier(fourier(phi, psi), psi.inverted())
        assert np.allclose(back.values, phi.values, atol=1e-10)
        # double transform with the same character flips the argument
        twice = fourier(fourier(phi, psi), psi)
        for idx in range(phi.size):
            pt = phi.point_at(idx)
            neg = tuple(f.neg(x) for x in pt)
            assert abs(twice(pt) - phi(neg)) < 1e-10


def pointwise_pairing_matrix(f, m, inverse):
    """K[x, y] = psi(<x, y>) point pair by point pair, in field arithmetic."""
    psi = AddChar(f, inverse)
    pts = CFun(f, m).points()
    K = np.empty((len(pts), len(pts)), dtype=complex)
    for i, x in enumerate(pts):
        for j in range(i, len(pts)):
            s = 0
            for xc, yc in zip(x, pts[j]):
                s = f.add(s, f.mul(xc, yc))
            K[i, j] = K[j, i] = psi(s)
    return K


@pytest.mark.parametrize("p,e,m", [(3, 1, 1), (5, 1, 1), (2, 2, 2), (3, 1, 2),
                                   (2, 1, 3), (7, 1, 2), (2, 3, 2), (2, 6, 1)])
@pytest.mark.parametrize("inverse", [False, True])
def test_pairing_matrix_matches_pointwise_pairs(p, e, m, inverse):
    # the one-gather pairing matrix equals the pair-by-pair loop bit for bit
    f = build_field(p, e, 2)
    K = charkit._pairing_matrix(f, m, AddChar(f, inverse))
    ref = pointwise_pairing_matrix(f, m, inverse)
    assert K.shape == ref.shape and K.tobytes() == ref.tobytes()


def _square_sum_sides(f, n, J):
    units_top = f.subfield_units(n)
    units_base = f.subfield_units(1)
    squares = {}
    lhs = 0j
    for lam in units_base:
        lam2 = f.mul(lam, lam)
        for xi in units_top:
            if f.norm(xi, n, 1) == lam2:
                lhs += J(xi, lam)
    rhs = 0j
    for xi in units_top:
        nx = f.norm(xi, n, 1)
        xi2 = f.mul(xi, xi)
        rhs += 0.5 * (J(xi2, nx) + J(xi2, f.neg(nx)))
    return lhs, rhs


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
                                   (3, 1, 4), (2, 2, 2), (2, 2, 3), (2, 2, 4),
                                   (5, 1, 2), (5, 1, 3), (5, 1, 4)])
def test_square_sum_identity_exhaustive_basis(p, e, n):
    # the identity is linear in J, so it holds for every J iff the two sides
    # assign equal weight to each pair (xi, lam); compare the weight maps
    # exhaustively
    f = build_field(p, e, n)
    units_top = f.subfield_units(n)
    units_base = f.subfield_units(1)
    lhs_weight = {}
    for lam in units_base:
        lam2 = f.mul(lam, lam)
        for xi in units_top:
            if f.norm(xi, n, 1) == lam2:
                lhs_weight[(xi, lam)] = lhs_weight.get((xi, lam), 0.0) + 1.0
    rhs_weight = {}
    for xi in units_top:
        nx = f.norm(xi, n, 1)
        xi2 = f.mul(xi, xi)
        for lam in (nx, f.neg(nx)):
            key = (xi2, lam)
            rhs_weight[key] = rhs_weight.get(key, 0.0) + 0.5
    for key in set(lhs_weight) | set(rhs_weight):
        assert abs(lhs_weight.get(key, 0.0) - rhs_weight.get(key, 0.0)) < 1e-12


def test_square_sum_identity_random_tables():
    rng = random.Random(11)
    for (p, e, n) in ((3, 1, 2), (3, 1, 3), (5, 1, 2)):
        f = build_field(p, e, n)
        units_top = f.subfield_units(n)
        units_base = f.subfield_units(1)
        for _ in range(5):
            table = {(xi, lam): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for xi in units_top for lam in units_base}
            lhs, rhs = _square_sum_sides(f, n, lambda xi, lam: table[(xi, lam)])
            assert abs(lhs - rhs) < 1e-10


def test_square_sum_identity_odd_one_term():
    for (p, e, n) in ((3, 1, 3), (5, 1, 3), (2, 1, 3)):
        f = build_field(p, e, n)
        rng = random.Random(5)
        table = {}
        def J(xi, lam):
            key = (xi, lam)
            if key not in table:
                table[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            return table[key]
        lhs, _ = _square_sum_sides(f, n, J)
        one_term = sum(J(f.mul(xi, xi), f.norm(xi, n, 1)) for xi in f.subfield_units(n))
        assert abs(lhs - one_term) < 1e-9


def looped_orbit_reps(ctx, n):
    """The least exponent of each Galois orbit of regular characters, one
    exponent and one Python set at a time; test oracle of the per-cell
    orbit table."""
    m = ctx.q ** n - 1
    seen, reps = set(), []
    for k in regular_exponents(ctx, n):
        if k in seen:
            continue
        seen |= {(k * pow(ctx.q, i, m)) % m for i in range(n)}
        reps.append(k)
    return reps


@pytest.mark.parametrize("p,e,n", [(2, 1, 1), (2, 1, 2), (2, 1, 4), (2, 1, 6), (3, 1, 2),
                                   (3, 1, 3), (3, 1, 4), (2, 2, 2), (2, 2, 3), (2, 2, 4),
                                   (5, 1, 2), (7, 1, 3)])
def test_regular_orbit_table_matches_loops(p, e, n):
    f = build_field(p, e, n)
    assert regular_orbit_reps(f, n) == looped_orbit_reps(f, n)
    regular = regular_exponents(f, n)
    for k in regular:
        assert regular_orbit(f, n, k) == MultChar(f, n, k).galois_orbit()
        assert regular_orbit(f, n, k + f.q ** n - 1) == regular_orbit(f, n, k)
    non_regular = set(range(f.q ** n - 1)) - set(regular)
    for k in non_regular:
        with pytest.raises(NotRegular):
            regular_orbit(f, n, k)
