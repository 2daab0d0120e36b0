"""Finite-field tower arithmetic.

One ambient field F_{p^(e*n)} is realized once; every subfield the rest of
the package needs (the base field F_q with q = p^e, and F_{q^d} for d | n)
lives inside it.  Elements are dense integer indices encoding coefficient
vectors over F_p in a fixed polynomial basis, so embedding between levels of
the tower is the identity on indices and there is never a coercion step.

The defining modulus f is the monic polynomial of degree D = e*n with the
smallest coefficient encoding in which x has order P - 1, P = p^D: x^(P-1) = 1
and x^((P-1)/r) != 1 for every prime r | P - 1.  That one order test is also
the irreducibility test: the units of F_p[x]/(f) number at most P - 1, with
equality only when it is a field, so f is primitive.  The generator is x mod f
and the log tables are its powers, so all derived data -- discrete logs,
character values -- are reproducible bit for bit.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .errors import DivideByZero, NotInSubfield, NotPrime, TooLarge, ZeroHasNoLog

ORDER_CAP = 2 ** 24


def _prime_factors(m: int) -> list:
    """The distinct prime factors of m, ascending ([] for m < 2), by trial
    division up to sqrt(m): the module's one primality test."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


# -- polynomial helpers over F_p (coefficient lists, ascending) --------------

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - c * fi) % p
        a = _ptrim(a)
    return a


def _ppow_x(exp: int, f, p):
    """x^exp mod f by square and multiply."""
    result = [1]
    base = _pmod([0, 1], f, p)
    while exp:
        if exp & 1:
            result = _pmod(_pmul(result, base, p), f, p)
        base = _pmod(_pmul(base, base, p), f, p)
        exp >>= 1
    return result


class FieldCtx:
    """A realized field F_{p^(e*n)} together with its subfield lattice.

    q = p^e is the base-field size; degrees d | n index the tower levels
    F_{q^d}.  `gen` generates the full multiplicative group; `dlog` is a
    precomputed table inverse to j -> gen^j, and every operation is a
    lookup in such tables of length O(order), with Zech logarithms for `add`.
    """

    def __init__(self, p: int, e: int, n: int):
        if e < 1 or n < 1:
            raise TooLarge("degrees must be >= 1")
        # p^(e*n) >= 2^(e*n*(bit_length(p) - 1)): no large power is formed or p trial-divided
        if e * n * (p.bit_length() - 1) >= ORDER_CAP.bit_length() or p ** (e * n) > ORDER_CAP:
            raise TooLarge(f"p^(e*n) = {p}^{e * n} exceeds cap {ORDER_CAP}")
        if _prime_factors(p) != [p]:
            raise NotPrime(f"p={p} is not prime")
        self.p = p
        self.e = e
        self.n = n
        self.deg = e * n
        self.order = p ** self.deg
        self.q = p ** e
        self.modulus = self._select_modulus()
        self._build_tables()

    # -- construction ---------------------------------------------------

    def _select_modulus(self):
        p, D, m = self.p, self.deg, self.order - 1
        cofactors = [m // r for r in _prime_factors(m)]
        for low in range(self.order):
            f = [low // p ** i % p for i in range(D)] + [1]
            if _ppow_x(m, f, p) == [1] and all(_ppow_x(k, f, p) != [1] for k in cofactors):
                return tuple(f)
        raise TooLarge("no primitive modulus found")  # pragma: no cover

    def _build_tables(self):
        p, P = self.p, self.order
        f = list(self.modulus)
        # index <-> coefficient vector: digits of the index base p, ascending
        digit = [p ** i for i in range(self.deg)]
        self._dlog = [-1] * P
        self._exp = [1] * (P - 1)
        acc = [1]  # gen^j = x^j mod f
        for j in range(P - 1):
            a = sum(map(int.__mul__, acc, digit))
            self._exp[j] = a
            self._dlog[a] = j
            acc = _pmod([0] + acc, f, p)
        # Zech logarithms: _zech[k] = dlog(1 + g^k), and -1 (= _dlog[0])
        # where 1 + g^k = 0.  Adding 1 moves only the constant digit.
        exp = np.array(self._exp)
        self._zech = np.array(self._dlog)[exp - exp % p + (exp + 1) % p].tolist()
        # two periods of g^j, so a sum of two logs indexes it unreduced
        self._exp *= 2
        # g = x mod f: index p for D >= 2, a primitive root for D = 1
        self.gen = self._exp[1]
        # -1 = g^_half: half the group order for odd p, g^0 = 1 = -1 in
        # characteristic 2
        self._half = (P - 1) // 2 if p != 2 else 0
        self._subfield_cache = {}

    @cached_property
    def base(self) -> "BaseCodes":
        """The base field F_q as codes with gather tables (`BaseCodes`), for
        the batched matrix kernels of `matgrp`; built on first use."""
        return BaseCodes(self)

    # -- public operations ------------------------------------------------

    # Every operation is a lookup in tables of length O(P).  A log
    # difference j - i in (-(P - 1), P - 1) indexes _zech from the end when
    # negative, which reduces it mod P - 1.

    def add(self, a: int, b: int) -> int:
        """g^i + g^j = g^(i + Z[j - i])."""
        if not a:
            return b
        if not b:
            return a
        i = self._dlog[a]
        z = self._zech[self._dlog[b] - i]
        return self._exp[i + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self._exp[self._dlog[a] + self._half] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self._exp[self._dlog[a] + self._dlog[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("0 has no inverse")
        m = self.order - 1
        return self._exp[(m - self._dlog[a]) % m]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise DivideByZero("0 has no inverse")
            return 0 if k else 1
        return self._exp[(self._dlog[a] * k) % (self.order - 1)]

    def frobenius(self, a: int) -> int:
        """a -> a^q, the generator of Gal over the base field."""
        return self.pow(a, self.q)

    def dlog(self, a: int) -> int:
        if a == 0:
            raise ZeroHasNoLog("dlog(0) undefined")
        return self._dlog[a]

    def gen_power(self, j: int) -> int:
        return self._exp[j % (self.order - 1)]

    # -- the subfield lattice ----------------------------------------------

    def in_subfield(self, a: int, d: int) -> bool:
        """Membership in F_{q^d}, recognized via a^(q^d) = a."""
        if a == 0:
            return True
        step = (self.order - 1) // (self.q ** d - 1)
        if (self.order - 1) % (self.q ** d - 1):
            return False
        return self._dlog[a] % step == 0

    def subfield_elements(self, d: int) -> tuple:
        """All elements of F_{q^d}, ascending by index (0 first)."""
        if d not in self._subfield_cache:
            if self.n % d:
                raise NotInSubfield(f"degree {d} does not divide {self.n}")
            step = (self.order - 1) // (self.q ** d - 1)
            elems = sorted(
                [0] + [self._exp[j] for j in range(0, self.order - 1, step)]
            )
            self._subfield_cache[d] = tuple(elems)
        return self._subfield_cache[d]

    def subfield_dlog(self, a: int, d: int) -> int:
        """Exponent j with g_d^j = a, for a in F_{q^d}^x, where g_d =
        gen^((order-1)/(q^d-1)) is the canonical generator of F_{q^d}^x."""
        if a == 0:
            raise ZeroHasNoLog("dlog(0) undefined")
        step = (self.order - 1) // (self.q ** d - 1)
        j = self._dlog[a]
        if j % step:
            raise NotInSubfield(f"element {a} not in subfield of degree {d}")
        return j // step

    def subfield_units(self, d: int) -> tuple:
        return tuple(x for x in self.subfield_elements(d) if x)

    def embed(self, a: int, d_from: int, d_to: int) -> int:
        """Inclusion F_{q^d_from} -> F_{q^d_to}; identity on indices."""
        if d_to % d_from:
            raise NotInSubfield(f"{d_from} does not divide {d_to}")
        if not self.in_subfield(a, d_from):
            raise NotInSubfield(f"element {a} not in subfield of degree {d_from}")
        return a

    def norm(self, xi: int, d_from: int, d_to: int) -> int:
        """N_{F_{q^d_from}/F_{q^d_to}}(xi), a product over Galois conjugates."""
        self._check_tower(xi, d_from, d_to)
        out = 1
        acc = xi
        for _ in range(d_from // d_to):
            out = self.mul(out, acc)
            acc = self.pow(acc, self.q ** d_to)
        return out

    def trace(self, xi: int, d_from: int, d_to: int) -> int:
        """Tr_{F_{q^d_from}/F_{q^d_to}}(xi), a sum over Galois conjugates."""
        self._check_tower(xi, d_from, d_to)
        out = 0
        acc = xi
        for _ in range(d_from // d_to):
            out = self.add(out, acc)
            acc = self.pow(acc, self.q ** d_to)
        return out

    def _check_tower(self, xi, d_from, d_to):
        if d_from % d_to or self.n % d_from:
            raise NotInSubfield(f"need d_to | d_from | n, got {d_to}, {d_from}, {self.n}")
        if not self.in_subfield(xi, d_from):
            raise NotInSubfield(f"element {xi} not in subfield of degree {d_from}")

    # -- misc ---------------------------------------------------------------

    def lift_prime(self, a: int) -> int:
        """Integer in [0, p) representing an element of the prime field."""
        if a >= self.p:
            raise NotInSubfield(f"element {a} not in the prime field")
        return a

    def __repr__(self):
        return f"FieldCtx(p={self.p}, e={self.e}, n={self.n})"


class BaseCodes:
    """The base field F_q as codes 0..q-1: code c is the c-th element of
    `subfield_elements(1)`, ascending by index, so 0 and 1 keep their codes
    (and for e = 1 every element is its own code).  Arrays of codes use the
    narrowest unsigned dtype holding q^2 - 1, so a * q + b indexes the flat
    q x q add and mul tables without widening; `inv` maps 0 to 0."""

    def __init__(self, ctx: FieldCtx):
        self.q = ctx.q
        elems = ctx.subfield_elements(1)
        self.elems = np.array(elems)
        self.dtype = np.min_scalar_type(self.q * self.q - 1)
        self.add_t = self.codes([ctx.add(a, b) for a in elems for b in elems])
        self.mul_t = self.codes([ctx.mul(a, b) for a in elems for b in elems])
        self.neg_t = self.codes([ctx.neg(a) for a in elems])
        self.inv_t = self.codes([ctx.inv(a) if a else 0 for a in elems])

    def codes(self, elements) -> np.ndarray:
        """The codes of an array of base-field element indices."""
        return np.searchsorted(self.elems, elements).astype(self.dtype)

    # np.take rather than fancy indexing: about 3x faster on these tables
    def add(self, a, b):
        return np.take(self.add_t, a * self.q + b)

    def mul(self, a, b):
        return np.take(self.mul_t, a * self.q + b)

    def neg(self, a):
        return np.take(self.neg_t, a)

    def inv(self, a):
        return np.take(self.inv_t, a)

    def sum(self, x):
        """The field sum over the last axis."""
        if x.shape[-1] == 0:
            return np.zeros(x.shape[:-1], dtype=self.dtype)
        out = x[..., 0]
        for j in range(1, x.shape[-1]):
            out = self.add(out, x[..., j])
        return out


@lru_cache(maxsize=64)
def build_field(p: int, e: int, n: int) -> FieldCtx:
    """Construct (and cache) the ambient field F_{p^(e*n)} with q = p^e."""
    return FieldCtx(p, e, n)
