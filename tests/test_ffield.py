import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from gammalab.errors import DivideByZero, NotInSubfield, NotPrime, TooLarge, ZeroHasNoLog
from gammalab.ffield import FieldCtx, build_field


def test_build_rejects_bad_input():
    with pytest.raises(NotPrime):
        build_field(4, 1, 2)
    with pytest.raises(TooLarge):
        build_field(2, 1, 25)


@pytest.mark.parametrize("p, e, n", [(2, 20000, 1), (2 ** 61 - 1, 1, 2)])
def test_order_cap_refused_without_forming_the_order(p, e, n):
    # 2^20000 has 6,021 digits, more than an int prints by default: the cap
    # is decided by bit length and the order named by its exponent, before
    # p is trial-divided (up to sqrt(2^61 - 1) that would not end)
    t0 = time.perf_counter()
    with pytest.raises(TooLarge, match=rf"{p}\^{e * n} exceeds cap"):
        build_field(p, e, n)
    assert time.perf_counter() - t0 < 1.0


def test_small_field_orders():
    f = build_field(2, 1, 2)
    assert f.order == 4 and f.q == 2
    # generator order q^n - 1
    seen = {f.gen_power(j) for j in range(3)}
    assert len(seen) == 3

    f = build_field(3, 1, 4)
    assert f.order == 81
    assert len({f.gen_power(j) for j in range(80)}) == 80


def test_subfield_lattice_f64():
    f = build_field(2, 1, 6)
    sizes = {d: len(f.subfield_elements(d)) for d in (1, 2, 3, 6)}
    assert sizes == {1: 2, 2: 4, 3: 8, 6: 64}
    # closure under add/mul
    for d in (1, 2, 3, 6):
        elems = set(f.subfield_elements(d))
        for a in elems:
            for b in elems:
                assert f.add(a, b) in elems
                assert f.mul(a, b) in elems


@pytest.mark.parametrize("p,e,n", [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 1, 4)])
def test_field_axioms_exhaustive(p, e, n):
    f = build_field(p, e, n)
    elems = range(f.order)
    one = 1
    for a in elems:
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == one
            assert f.gen_power(f.dlog(a)) == a
    # char-2 doubling
    if p == 2:
        for a in elems:
            assert f.add(a, a) == 0
    # associativity / distributivity spot checks over all triples of a small set
    sample = list(elems)[: min(f.order, 8)]
    for a in sample:
        for b in sample:
            assert f.mul(a, b) == f.mul(b, a)
            for c in sample:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_frobenius_fixes_base_field():
    f = build_field(3, 1, 4)
    for a in f.subfield_elements(1):
        assert f.frobenius(a) == a
    # frobenius is the q-power map
    for a in range(f.order):
        assert f.frobenius(a) == f.pow(a, f.q)


def test_norm_trace_properties():
    f = build_field(3, 1, 4)
    # norm of the generator generates the base field
    ng = f.norm(f.gen, 4, 1)
    assert f.subfield_dlog(ng, 1) % 1 == 0
    order = 1
    acc = ng
    while acc != 1:
        acc = f.mul(acc, ng)
        order += 1
    assert order == f.q - 1
    # trace of 1 counts the degree
    for d1, d2 in ((4, 2), (4, 1), (2, 1)):
        t = f.trace(1, d1, d2)
        assert t == (d1 // d2) % f.p
    assert f.dlog(1) == 0
    # multiplicativity / additivity, exhaustive at this size
    for a in range(1, f.order):
        for b in (1, f.gen, f.gen_power(7), f.gen_power(33)):
            assert f.norm(f.mul(a, b), 4, 1) == f.mul(f.norm(a, 4, 1), f.norm(b, 4, 1))
            assert f.trace(f.add(a, b), 4, 1) == f.add(f.trace(a, 4, 1), f.trace(b, 4, 1))
    # norm and trace land in the target subfield
    for a in range(f.order):
        assert f.in_subfield(f.norm(a, 4, 2), 2)
        assert f.in_subfield(f.trace(a, 4, 2), 2)


def test_square_iff_norm_square():
    # xi is a square in F_{q^n}^x iff its norm is a square in F_q^x
    for (p, e, n) in ((3, 1, 2), (3, 1, 3), (5, 1, 2)):
        f = build_field(p, e, n)
        squares_top = {f.mul(a, a) for a in range(1, f.order)}
        squares_base = {f.mul(a, a) for a in f.subfield_units(1)}
        for a in range(1, f.order):
            assert (a in squares_top) == (f.norm(a, n, 1) in squares_base)


def test_errors():
    f = build_field(2, 1, 2)
    with pytest.raises(DivideByZero):
        f.inv(0)
    with pytest.raises(ZeroHasNoLog):
        f.dlog(0)
    with pytest.raises(NotInSubfield):
        f.norm(f.gen, 1, 1)  # gen is not in the base field


def test_embed_is_identity_on_indices():
    f = build_field(2, 1, 4)
    for a in f.subfield_elements(2):
        assert f.embed(a, 2, 4) == a


def test_modulus_deterministic():
    a = build_field.__wrapped__(3, 1, 2)
    b = build_field.__wrapped__(3, 1, 2)
    assert a.modulus == b.modulus and a.gen == b.gen


@pytest.mark.parametrize("p, e, n, modulus, gen", [
    (2, 1, 1, (1, 1), 1),
    (3, 1, 1, (1, 1), 2),
    (7, 1, 1, (2, 1), 5),
    (5, 1, 2, (2, 1, 1), 5),
    (2, 2, 3, (1, 1, 0, 0, 0, 0, 1), 2),
    (3, 1, 4, (2, 1, 0, 0, 1), 3),
    (2, 7, 2, (1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1), 2),
])
def test_modulus_pinned(p, e, n, modulus, gen):
    # every printed theta value is read from the dlog table of this modulus
    # and generator, so any change to their choice would move them all
    f = build_field(p, e, n)
    assert (f.modulus, f.gen) == (modulus, gen)


@pytest.mark.parametrize("p,e,n", [(2, 1, 3), (3, 1, 2), (2, 2, 3), (5, 1, 2),
                                   (3, 1, 4), (2, 2, 4), (7, 1, 2), (2, 6, 2),
                                   (2, 1, 13)])
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_tables_match_raw_arithmetic(p, e, n, data):
    # the log-table arithmetic and the base-field code tables against the
    # polynomial arithmetic of `BrutePoly`, up to orders 4,096 and 8,192
    f = build_field(p, e, n)
    ref = BrutePoly(f)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    assert f.add(a, b) == ref.add(a, b)
    assert f.mul(a, b) == ref.mul(a, b)
    base = f.base
    i, j = (data.draw(st.integers(0, f.q - 1)) for _ in range(2))
    x, y = (f.subfield_elements(1)[c] for c in (i, j))
    assert base.elems[base.add(i, j)] == ref.add(x, y)
    assert base.elems[base.mul(i, j)] == ref.mul(x, y)
    assert base.elems[base.neg(i)] == f.neg(x)
    if x:
        assert ref.mul(x, int(base.elems[base.inv(i)])) == 1
    else:
        assert base.inv(i) == 0


def test_field_build_memory_is_linear_in_the_order():
    # O(P) lists take about 0.1 MB at P = 1,024; P x P tables take tens of MB
    tracemalloc.start()
    try:
        FieldCtx(2, 5, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


#: every (p, e, n) with field order p^(e n) <= 64
SMALL_FIELDS = [(p, e, n) for p in range(2, 65) if all(p % d for d in range(2, p))
                for e in range(1, 7) for n in range(1, 7) if p ** (e * n) <= 64]


class BrutePoly:
    """The field of `ctx` as F_p[x] / (modulus) in plain integer
    arithmetic on coefficient lists: the test oracle of `FieldCtx`, which
    works through index digits and dlog tables."""

    def __init__(self, ctx):
        self.p, self.deg = ctx.p, ctx.deg
        self.f = list(ctx.modulus)  # ascending, monic

    def digits(self, a):
        return [a // self.p ** i % self.p for i in range(self.deg)]

    def index(self, coeffs):
        return sum(c * self.p ** i for i, c in enumerate(coeffs))

    def add(self, a, b):
        return self.index([(x + y) % self.p for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.index([-x % self.p for x in self.digits(a)])

    def mul(self, a, b):
        prod = [0] * (2 * self.deg - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for top in range(len(prod) - 1, self.deg - 1, -1):  # reduce mod f
            c = prod[top]
            for i, fi in enumerate(self.f):
                prod[top - self.deg + i] = (prod[top - self.deg + i] - c * fi) % self.p
        return self.index(prod[:self.deg])

    def pow(self, a, k):
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_arithmetic_matches_polynomials_mod_the_modulus(data):
    f = build_field(*data.draw(st.sampled_from(SMALL_FIELDS)))
    ref = BrutePoly(f)
    a, b = (data.draw(st.integers(0, f.order - 1)) for _ in range(2))
    assert f.add(a, b) == ref.add(a, b)
    assert f.neg(a) == ref.neg(a)
    assert f.sub(a, b) == ref.add(a, ref.neg(b))
    assert f.mul(a, b) == ref.mul(a, b)
    assert f.frobenius(a) == ref.pow(a, f.q)
    k = data.draw(st.integers(0, 2 * f.order))
    assert f.pow(a, k) == ref.pow(a, k)
    if a:
        inv = f.inv(a)
        assert ref.mul(a, inv) == 1
        # a^-k is the inverse of a^k
        assert ref.mul(f.pow(a, -k), ref.pow(a, k)) == 1
    else:
        with pytest.raises(DivideByZero):
            f.inv(a)
        with pytest.raises(DivideByZero):
            f.pow(a, -1 - k)
