"""Characters of the field tower, exponential sums, and the finite Fourier
transform.

Additive characters are trace-composed from the prime field; multiplicative
characters are indexed by an exponent against the canonical subfield
generator.  Values are complex doubles drawn from one precomputed
root-of-unity table per modulus, so repeated evaluation is a table lookup.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, NotInSubfield, NotRegular, ZeroHasNoLog
from .ffield import FieldCtx

@lru_cache(maxsize=64)
def _roots_of_unity(m: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(m) / m)


def character_sums(dlogs, weights, modulus: int, exponents) -> np.ndarray:
    """S[..., t] = sum_x weights[..., x] * zeta^(k_t * dlogs[..., x]), zeta a
    primitive modulus-th root of unity, for each exponent k_t of a block:
    the package's one root-of-unity contraction.  Its callers are
    `cuspchar.character_matrix`, `gauss_sum`, `bessel.bessel_closed_forms`,
    `exjs.gamma_closed_forms` and the multiplicative orthogonality and w6
    closed-form checks of `cli` verify.  One (... x terms x T) gather and one `einsum`, which
    adds each sum's terms in order and stays off BLAS."""
    k = np.asarray(exponents, dtype=np.int64) % modulus
    zeta = _roots_of_unity(modulus)[dlogs[..., None] * k % modulus]
    return np.einsum("...x,...xt->...t", weights, zeta)


class AddChar:
    """psi(x) = exp(2*pi*i * lift(Tr_{F_q/F_p}(x)) / p) on the base field F_q,
    or its inverse: a value, equal to another character exactly when both
    share a field and their values, so psi^-1 == psi at p = 2."""

    def __init__(self, ctx: FieldCtx, inverse: bool = False):
        self.ctx = ctx
        self.inverse = inverse
        p = ctx.p
        traces = []
        for x in ctx.subfield_elements(1):
            t = 0  # Tr(x) = sum_i x^(p^i)
            for i in range(ctx.e):
                t = ctx.add(t, ctx.pow(x, p ** i))
            traces.append(ctx.lift_prime(t))
        #: psi at every base-field code c, the c-th of `subfield_elements(1)`
        self.values = _roots_of_unity(p)[np.array(traces) * (-1 if inverse else 1) % p]
        self.values.flags.writeable = False

    def __call__(self, x: int) -> complex:
        code = _ordinals(self.ctx).get(x)
        if code is None:
            raise NotInSubfield(f"psi evaluated outside F_q (element {x})")
        return self.values[code]

    def __eq__(self, other) -> bool:
        # identity first: a block compares each table's character with one
        return other is self or (isinstance(other, AddChar) and self.ctx is other.ctx
                                 and self.values.tobytes() == other.values.tobytes())

    def __hash__(self) -> int:
        return hash((self.ctx, self.values.tobytes()))

    def inverted(self) -> "AddChar":
        return AddChar(self.ctx, not self.inverse)


class MultChar:
    """Character of F_{q^d}^x determined by its exponent against the
    canonical generator: theta(gen_d^j) = zeta_{q^d-1}^(k*j)."""

    def __init__(self, ctx: FieldCtx, level_deg: int, exponent: int):
        if ctx.n % level_deg:
            raise NotInSubfield(f"level degree {level_deg} does not divide {ctx.n}")
        self.ctx = ctx
        self.level_deg = level_deg
        self.modulus = ctx.q ** level_deg - 1
        self.exponent = exponent % self.modulus
        self._zeta = _roots_of_unity(self.modulus)

    def __call__(self, xi: int) -> complex:
        if xi == 0:
            raise ZeroHasNoLog("multiplicative character of 0")
        j = self.ctx.subfield_dlog(xi, self.level_deg)
        return self._zeta[(self.exponent * j) % self.modulus]

    def is_trivial(self) -> bool:
        return self.exponent == 0

    def inverse(self) -> "MultChar":
        return MultChar(self.ctx, self.level_deg, -self.exponent)

    def galois_orbit(self) -> tuple:
        q, m = self.ctx.q, self.modulus
        return tuple(sorted({(self.exponent * pow(q, i, m)) % m
                             for i in range(self.level_deg)}))


def is_regular(theta: MultChar, n: int) -> bool:
    """A character of F_{q^n}^x is regular when its Frobenius orbit has
    exactly n members."""
    if theta.level_deg != n:
        raise DimensionMismatch("regularity is tested at the top level")
    return len(theta.galois_orbit()) == n


def restriction_is_trivial(theta: MultChar, d: int) -> bool:
    """Whether theta restricted to F_{q^d}^x is the trivial character;
    equivalently (q^d - 1) | exponent."""
    if theta.level_deg % d:
        raise NotInSubfield(f"{d} does not divide level {theta.level_deg}")
    return theta.exponent % (theta.ctx.q ** d - 1) == 0


@lru_cache(maxsize=64)
def _regular_orbits(ctx: FieldCtx, n: int) -> tuple:
    """(reps, orbit): the least exponent of each Galois orbit of regular
    characters of F_{q^n}^x, ascending, and a read-only map from every
    regular exponent k mod q^n - 1 to its orbit {k q^i}, sorted.  One array
    pass over all k per (q, n): k is regular when k q^d != k for 0 < d < n,
    so that its n conjugates differ."""
    m = ctx.q ** n - 1
    k = np.arange(m, dtype=np.int64)
    powers = np.array([pow(ctx.q, i, m) for i in range(n)], dtype=np.int64)
    conj = k[:, None] * powers % m
    regular = (conj[:, 1:] != k[:, None]).all(axis=1)
    orbits = [tuple(sorted(row)) for row in conj[regular].tolist()]
    exponents = k[regular].tolist()
    reps = tuple(e for e, orbit in zip(exponents, orbits) if orbit[0] == e)
    return reps, MappingProxyType(dict(zip(exponents, orbits)))


def regular_exponents(ctx: FieldCtx, n: int) -> list:
    """All exponents k mod q^n - 1 of regular characters, ascending: the
    keys of the cell's orbit map (`_regular_orbits`)."""
    return list(_regular_orbits(ctx, n)[1])


def regular_orbit_reps(ctx: FieldCtx, n: int) -> list:
    """Least exponent of each Galois orbit of regular characters."""
    return list(_regular_orbits(ctx, n)[0])


def regular_orbit(ctx: FieldCtx, n: int, k: int) -> tuple:
    """The Galois orbit of the regular exponent k, sorted: `galois_orbit`
    read from the table of the cell (`_regular_orbits`)."""
    orbit = _regular_orbits(ctx, n)[1].get(k % (ctx.q ** n - 1))
    if orbit is None:
        raise NotRegular(f"exponent {k} is not regular for n={n}")
    return orbit


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _gauss_terms(ctx: FieldCtx, psi: AddChar) -> tuple:
    """The representation-independent terms (j, w) of the Gauss sums
    G_psi(chi) = sum_a chi(a^-1) psi(a), one per a in F_q^x: j the
    base-level dlog of a^-1 and w = psi(a)."""
    units = ctx.subfield_units(1)
    return _read_only(np.array([ctx.subfield_dlog(ctx.inv(a), 1) for a in units]),
                      np.array([psi(a) for a in units], dtype=complex))


def gauss_sum(chi: MultChar, psi: AddChar) -> complex:
    """G_psi(chi) = sum over a in F_q^x of chi(a^{-1}) psi(a): one
    `character_sums` of the cached terms `_gauss_terms`."""
    if chi.level_deg != 1:
        raise DimensionMismatch("gauss_sum takes a base-field character")
    terms = _gauss_terms(chi.ctx, psi)
    return complex(character_sums(*terms, chi.modulus, [chi.exponent])[0])


def kloosterman(a: int, b: int, psi: AddChar) -> complex:
    """K_psi(a, b) = sum over x in F_q^x of psi(a x) psi(b / x)."""
    ctx = psi.ctx
    total = 0j
    for x in ctx.subfield_units(1):
        total += psi(ctx.mul(a, x)) * psi(ctx.mul(b, ctx.inv(x)))
    return complex(total)


# -- functions on F_q^m and their Fourier transform --------------------------

class CFun:
    """A complex-valued function on F_q^m, stored as a flat numpy vector.

    Points are tuples of m base-field element indices; the flat position of
    a point uses the canonical ordering of F_q from the field context.
    """

    def __init__(self, ctx: FieldCtx, m: int, values=None):
        self.ctx = ctx
        self.m = m
        self.size = ctx.q ** m
        if values is None:
            self.values = np.zeros(self.size, dtype=complex)
        else:
            self.values = np.asarray(values, dtype=complex).reshape(self.size)

    @classmethod
    def delta(cls, ctx: FieldCtx, m: int, point) -> "CFun":
        f = cls(ctx, m)
        f.values[f.index_of(point)] = 1.0
        return f

    @classmethod
    def constant(cls, ctx: FieldCtx, m: int, value=1.0) -> "CFun":
        f = cls(ctx, m)
        f.values[:] = value
        return f

    def index_of(self, point) -> int:
        if len(point) != self.m:
            raise DimensionMismatch(f"point of length {len(point)}, domain F_q^{self.m}")
        ords = _ordinals(self.ctx)
        idx = 0
        for x in reversed(point):
            idx = idx * self.ctx.q + ords[x]
        return idx

    def point_at(self, idx: int):
        elems = self.ctx.subfield_elements(1)
        out = []
        for _ in range(self.m):
            out.append(elems[idx % self.ctx.q])
            idx //= self.ctx.q
        return tuple(out)

    def __call__(self, point) -> complex:
        return complex(self.values[self.index_of(point)])

    def at_zero(self) -> complex:
        return complex(self.values[0])

    def points(self):
        return [self.point_at(i) for i in range(self.size)]


@lru_cache(maxsize=64)
def _ordinals(ctx: FieldCtx):
    return {x: i for i, x in enumerate(ctx.subfield_elements(1))}


@lru_cache(maxsize=64)
def _pairing_matrix(ctx: FieldCtx, m: int, psi: AddChar) -> np.ndarray:
    """K[x, y] = psi(<x, y>) over all pairs of points of F_q^m, in one
    `BaseCodes` gather: the codes of point i are the base-q digits of i,
    in the order of `CFun.point_at`."""
    F, q = ctx.base, ctx.q
    P = (np.arange(q ** m)[:, None] // q ** np.arange(m) % q).astype(F.dtype)
    return psi.values[F.sum(F.mul(P[:, None], P[None]))]


def fourier(phi: CFun, psi: AddChar) -> CFun:
    """phi_hat(y) = q^(-m/2) * sum_x phi(x) psi(<x, y>)."""
    ctx, m = phi.ctx, phi.m
    if psi.ctx is not ctx:
        raise DimensionMismatch("character and function live over different fields")
    K = _pairing_matrix(ctx, m, psi)
    vals = (ctx.q ** (-m / 2.0)) * (K @ phi.values)
    return CFun(ctx, m, vals)
