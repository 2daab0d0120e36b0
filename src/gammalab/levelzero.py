"""Level-zero local factors as rational functions in X = q^(-s).

The p-adic side enters only through finite-sum identities: lifted
Jacquet-Shalika values are either constants or pick up an L-factor
correction governed by js(W, 1), and the local L, epsilon, gamma attached
to a cuspidal representation and a unit c = omega(uniformizer) are exact
elements of C(X).  RatQS is the value domain: a Laurent-capable rational
function with complex coefficients, compared by cross-multiplication.
"""

from __future__ import annotations

import cmath
from functools import reduce

import numpy as np

from .bessel import BesselTable
from .charkit import CFun, fourier, restriction_is_trivial
from .errors import NonConstantRatio, OracleFailed, PreconditionViolated
from . import exjs

#: the default bound of `RatQS.equals` (and so of ==) on `RatQS.residual`,
#: the largest coefficient gap of the cross-multiplied pair over its largest
#: coefficient
COEFF_TOL = 1e-9
#: the bound on ||c| - 1| for the unit c = omega(uniformizer)
UNIT_CIRCLE_TOL = 1e-9
#: theorem gamma against the lifted canonical-pair ratio in `local_gamma`
GAMMA_TOL = 1e-7
#: a twisted Shalika period of at most this size counts as vanishing
PERIOD_ZERO_TOL = 1e-9
#: `RatQS.simplified` cancels a denominator root r when |num(r)| is below
#: this times max(1, largest numerator coefficient)
ROOT_TOL = 1e-8
#: coefficients of at most this size count as zero: `_trim` drops them from
#: the ends of every RatQS polynomial, the printed form skips them, and a
#: modified-functional-equation pair whose rows have no larger one is 0 = 0
ZERO_COEFF = 1e-13


def _trim(arr):
    a = np.asarray(arr, dtype=complex).ravel()
    nz = np.nonzero(np.abs(a) > ZERO_COEFF)[0]
    if len(nz) == 0:
        return np.zeros(0, dtype=complex), 0
    lead = nz[0]
    return a[lead:nz[-1] + 1].copy(), int(lead)


class RatQS:
    """X^x_shift * num(X) / den(X) with num, den ordinary polynomials
    (ascending coefficients, nonzero constant terms after normalization)."""

    def __init__(self, num, den=(1.0,), x_shift: int = 0):
        n, a = _trim(num)
        d, b = _trim(den)
        if len(d) == 0:
            raise ZeroDivisionError("RatQS with zero denominator")
        if len(n) == 0:
            self.num = np.zeros(0, dtype=complex)
            self.den = np.ones(1, dtype=complex)
            self.x_shift = 0
            return
        scale = d[0]
        self.num = n / scale
        self.den = d / scale
        self.x_shift = x_shift + a - b

    # -- constructors ---------------------------------------------------

    @classmethod
    def const(cls, z) -> "RatQS":
        return cls([z])

    @classmethod
    def one(cls) -> "RatQS":
        return cls([1.0])

    @classmethod
    def zero(cls) -> "RatQS":
        return cls([])

    @classmethod
    def x_power(cls, k: int) -> "RatQS":
        return cls([1.0], [1.0], k)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return len(self.num) == 0

    def is_constant(self) -> bool:
        return self.is_zero() or (self.x_shift == 0 and len(self.num) == 1
                                  and len(self.den) == 1)

    def constant_value(self) -> complex:
        if self.is_zero():
            return 0j
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return complex(self.num[0] / self.den[0])

    # -- arithmetic ----------------------------------------------------------

    def _cross(self, other: "RatQS"):
        """The numerators of self and other over the common denominator,
        num * other.den and other.num * den, as the two rows of one zero
        array (at least one column) aligned on the lower X-shift s; returns
        (rows, s)."""
        s = min(self.x_shift, other.x_shift)
        p1 = np.convolve(self.num, other.den) if len(self.num) else self.num
        p2 = np.convolve(other.num, self.den) if len(other.num) else other.num
        o1, o2 = self.x_shift - s, other.x_shift - s
        rows = np.zeros((2, max(1, o1 + len(p1), o2 + len(p2))), dtype=complex)
        rows[0, o1:o1 + len(p1)] = p1
        rows[1, o2:o2 + len(p2)] = p2
        return rows, s

    def __add__(self, other: "RatQS") -> "RatQS":
        if self.is_zero():
            return RatQS(other.num, other.den, other.x_shift)
        if other.is_zero():
            return RatQS(self.num, self.den, self.x_shift)
        rows, s = self._cross(other)
        return RatQS(rows[0] + rows[1], np.convolve(self.den, other.den), s)

    def __neg__(self) -> "RatQS":
        return RatQS(-self.num, self.den, self.x_shift)

    def __sub__(self, other: "RatQS") -> "RatQS":
        return self + (-other)

    def __mul__(self, other: "RatQS") -> "RatQS":
        if self.is_zero() or other.is_zero():
            return RatQS.zero()
        return RatQS(np.convolve(self.num, other.num),
                     np.convolve(self.den, other.den),
                     self.x_shift + other.x_shift)

    def __truediv__(self, other: "RatQS") -> "RatQS":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        if self.is_zero():
            return RatQS.zero()
        return RatQS(np.convolve(self.num, other.den),
                     np.convolve(self.den, other.num),
                     self.x_shift - other.x_shift)

    def inverse(self) -> "RatQS":
        return RatQS.one() / self

    # -- comparison -------------------------------------------------------------

    def residual(self, other: "RatQS") -> float:
        """Max coefficient deviation of the cross-multiplied equality,
        normalized by the largest coefficient involved."""
        rows, _ = self._cross(other)
        scale = np.abs(rows).max()
        if scale == 0:
            return 0.0
        return float(np.abs(rows[0] - rows[1]).max() / scale)

    def equals(self, other: "RatQS", tol: float = COEFF_TOL) -> bool:
        return self.residual(other) <= tol

    def __eq__(self, other):
        return isinstance(other, RatQS) and self.equals(other)

    # -- evaluation and reduction ----------------------------------------------

    def evaluate(self, x: complex) -> complex:
        num = np.polyval(self.num[::-1], x) if len(self.num) else 0j
        den = np.polyval(self.den[::-1], x)
        return (x ** self.x_shift) * num / den

    def simplified(self) -> "RatQS":
        """Cancel shared num/den roots by deflation (display convenience;
        equality never relies on this)."""
        if self.is_zero():
            return RatQS.zero()

        def deflate(coeffs, r):
            desc = list(coeffs[::-1])
            out = [desc[0]]
            for c in desc[1:-1]:
                out.append(c + r * out[-1])
            return np.array(out[::-1], dtype=complex)

        num, den = self.num.copy(), self.den.copy()
        changed = True
        while changed and len(num) > 1 and len(den) > 1:
            changed = False
            for r in np.roots(den[::-1]):
                if abs(np.polyval(num[::-1], r)) < ROOT_TOL * max(1.0, np.abs(num).max()):
                    num = deflate(num, r)
                    den = deflate(den, r)
                    changed = True
                    break
        return RatQS(num, den, self.x_shift)

    # -- serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "num": [[float(c.real), float(c.imag)] for c in self.num],
            "den": [[float(c.real), float(c.imag)] for c in self.den],
            "x_shift": self.x_shift,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "RatQS":
        num = [complex(re, im) for re, im in data["num"]]
        den = [complex(re, im) for re, im in data["den"]]
        return cls(num, den, data["x_shift"])

    def __repr__(self):
        def fmt(arr):
            terms = []
            for i, c in enumerate(arr):
                if abs(c) <= ZERO_COEFF:
                    continue
                terms.append(f"({c:.6g})*X^{i}")
            return " + ".join(terms) if terms else "0"
        shift = f"X^{self.x_shift} * " if self.x_shift else ""
        return f"RatQS({shift}[{fmt(self.num)}] / [{fmt(self.den)}])"


def l_factor(c: complex, m: int) -> RatQS:
    """L(ms, omega) = 1 / (1 - c X^m); the empty factor 1 when c = 0
    (ramified twist)."""
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    if c == 0:
        return RatQS.one()
    den = np.zeros(m + 1, dtype=complex)
    den[0] = 1.0
    den[m] = -c
    return RatQS([1.0], den)


class LevelZeroCtx:
    """A cuspidal representation of the residue field together with the unit
    c = omega(uniformizer) parameterizing the compatible central characters
    of its level-zero lift, and the one correction formula (`lift`) that
    lifts its finite Jacquet-Shalika sums."""

    def __init__(self, table: BesselTable, c: complex = 1.0):
        if abs(abs(c) - 1.0) > UNIT_CIRCLE_TOL:
            raise PreconditionViolated("c must lie on the unit circle")
        self.table = table
        self.rep = table.rep
        self.c = complex(c)
        self.n = table.n
        self.m = m = self.n // 2
        self.q = q = table.ctx.q
        # the pair-independent factors of the js(W, 1) corrections; l_factor
        # refuses n < 2 (m = 0)
        self.js_corr = RatQS.x_power(m) * RatQS.const(self.c) * l_factor(self.c, m)
        # L(m(1-s), omega^{-1}) = 1 / (1 - c^{-1} q^{-m} X^{-m})
        self.dual_L = (RatQS.one()
                       - RatQS.const(q ** -m / self.c) * RatQS.x_power(-m)).inverse()
        self.dual_corr = RatQS.x_power(-m) * RatQS.const(q ** -m / self.c) * self.dual_L

    def has_shalika_vector(self) -> bool:
        return self.n % 2 == 0 and restriction_is_trivial(self.rep.theta, self.m)

    def lift(self, base: complex, at_zero: complex, j1: complex,
             dual: bool = False) -> RatQS:
        """The lifted value of the finite sum `base` = js(W, phi) (or
        dual_js(W, phi) if `dual`): base plus the L-factor correction weighted
        by at_zero = phi(0) (phi^(0) if `dual`) and j1 = js(W, 1).  For odd n
        there is no correction: callers pass j1 = 0 (`_js_one`)."""
        corr = self.dual_corr if dual else self.js_corr
        return RatQS.const(base) + corr * RatQS.const(at_zero * j1)


def _js_one(ctx: LevelZeroCtx, w) -> complex:
    """js(W, 1), the weight of the corrections: 0 for odd n, which has no
    Shalika period."""
    return 0j if ctx.n % 2 else shalika_functional_value(ctx, w)


def _lifted(ctx: LevelZeroCtx, w, phi: CFun, j1: complex,
            dual: bool = False) -> RatQS:
    table = ctx.table
    if dual:
        return ctx.lift(exjs.dual_js(table, w, phi),
                        fourier(phi, table.psi).at_zero(), j1, dual=True)
    return ctx.lift(exjs.js(table, w, phi), phi.at_zero(), j1)


def lifted_js(ctx: LevelZeroCtx, w, phi: CFun) -> RatQS:
    """The lifted Jacquet-Shalika value: a constant for odd n, and for even
    n the finite sum plus the L-factor correction weighted by js(W, 1)."""
    return _lifted(ctx, w, phi, _js_one(ctx, w))


def lifted_dual_js(ctx: LevelZeroCtx, w, phi: CFun) -> RatQS:
    return _lifted(ctx, w, phi, _js_one(ctx, w), dual=True)


def _canonical_ratio(ctx: LevelZeroCtx) -> RatQS:
    """lifted dual_js / lifted js on the canonical pair (W0, phi0 = delta at
    x0), all three sums read off one canonical profile
    (`exjs.canonical_profiles`): js(W0, phi0) = a[x0], dual_js(W0, phi0) =
    b[x0] and js(W0, 1) = sum_x a[x] (0 for odd n), with phi0(0) = [x0 = 0]
    and phi0^(0) = q^(-m/2)."""
    table = ctx.table
    (a,), (b,) = exjs.canonical_profiles([table])
    at = exjs._canonical_point(table.ctx, ctx.n)
    j1 = 0j if ctx.n % 2 else complex(a.sum())
    return (ctx.lift(b[at], ctx.q ** (-ctx.m / 2.0), j1, dual=True)
            / ctx.lift(a[at], float(at == 0), j1))


def local_L_eps(ctx: LevelZeroCtx):
    """(L, epsilon) of the level-zero lift: trivial L and a constant epsilon
    without a Shalika vector; otherwise L = 1/(1 - c X^m) and epsilon the
    Laurent monomial q^{-m/2} c^{-1} X^{-m}."""
    if not ctx.has_shalika_vector():
        gamma0 = exjs.gamma_torus(ctx.table).value
        return RatQS.one(), RatQS.const(gamma0)
    L = l_factor(ctx.c, ctx.m)
    eps = RatQS.const(ctx.q ** (-ctx.m / 2.0) / ctx.c) * RatQS.x_power(-ctx.m)
    return L, eps


def local_gamma(ctx: LevelZeroCtx, ratio: RatQS = None) -> RatQS:
    """gamma = epsilon * L(m(1-s), dual) / L(ms); cross-checked against the
    ratio of lifted sums on the canonical pair (`_canonical_ratio(ctx)`,
    computed here unless the caller passes it)."""
    L, eps = local_L_eps(ctx)
    dual_L = ctx.dual_L if ctx.has_shalika_vector() else RatQS.one()
    gamma = eps * dual_L / L
    if ratio is None:
        ratio = _canonical_ratio(ctx)
    if not gamma.equals(ratio, GAMMA_TOL):
        raise OracleFailed("local_gamma",
                           f"theorem value {gamma} vs lifted ratio {ratio}")
    return gamma


def _laurent_rows(terms) -> np.ndarray:
    """The Laurent polynomials X^shift * prod(factors), one per term (shift,
    *factors), as the rows of one zero array aligned on their lowest shift."""
    polys = [reduce(np.convolve, factors) for _, *factors in terms]
    low = min(term[0] for term in terms)
    offsets = [term[0] - low for term in terms]
    rows = np.zeros((len(terms), max(o + len(p) for o, p in zip(offsets, polys))),
                    dtype=complex)
    for row, o, p in zip(rows, offsets, polys):
        row[o:o + len(p)] = p
    return rows


def modified_fe_scan(table: BesselTable, trials: int = 100,
                     seed: int = exjs.DEFAULT_SEED):
    """The modified functional equation at the trivial-twist normalization
    c = 1: one rational function gamma~, the lifted canonical-pair ratio,
    covers every (W, phi) pair.  The pairs are (translate, delta_x) over the
    shared pool `exjs._fe_pool`, whose profiles give a = js(W, delta_x) and
    b = dual_js(W, delta_x); then j1 = js(W, 1) = sum_x a, delta_x(0) =
    [x = 0] and delta_x^(0) = q^(-m/2).

    With dual_corr = X^sd Nd/Dd, js_corr = X^sj Nj/Dj and gamma~ = X^sg Ng/Dg,
    the lifted sides lhs = b + p dual_corr (p = q^(-m/2) j1) and
    gamma~ (a + r js_corr) (r = [x = 0] j1) cross-multiply to the rows

        row0 = (b Dd + p X^sd Nd) Dg Dj,  row1 = X^sg Ng (a Dj + r X^sj Nj) Dd,

    linear in (b, p, a, r) with pair-independent coefficients, so one
    product gives the rows of every pair.  A pair's residual is
    max|row0 - row1| / max(|row0|, |row1|), and 0 (0 = 0) when no coefficient
    exceeds ZERO_COEFF.  Returns (gamma~, max residual, pairs checked)."""
    if table.n % 2:
        raise PreconditionViolated("modified functional equation is for even n")
    lz = LevelZeroCtx(table, 1.0)
    g = _canonical_ratio(lz)
    d, j = lz.dual_corr, lz.js_corr
    coef = _laurent_rows([(0, d.den, g.den, j.den),
                          (d.x_shift, d.num, g.den, j.den),
                          (g.x_shift, g.num, j.den, d.den),
                          (g.x_shift + j.x_shift, g.num, j.num, d.den)])
    width = coef.shape[1]
    block = np.zeros((4, 2 * width), dtype=complex)
    block[:2, :width] = coef[:2]
    block[2:, width:] = coef[2:]
    (a,), (b,) = exjs._pool_profiles([table],
                                     exjs._fe_pool(table.ctx, table.n, seed, trials))
    j1 = np.broadcast_to(a.sum(axis=1, keepdims=True), a.shape)
    at_zero = np.zeros(a.shape[1])
    at_zero[0] = 1.0
    scalars = np.stack([b, lz.q ** (-lz.m / 2.0) * j1, a, at_zero * j1], axis=-1)
    # einsum rather than @, as in exjs._delta_profiles: no BLAS buffers
    rows = np.einsum("pk,kl->pl", scalars.reshape(-1, 4), block)
    scale = np.abs(rows).max(axis=1)
    gap = np.abs(rows[:, :width] - rows[:, width:]).max(axis=1)
    live = scale > ZERO_COEFF
    worst = float((gap[live] / scale[live]).max(initial=0.0))
    if worst > exjs.FE_TOL:
        raise NonConstantRatio(f"modified functional equation residual {worst}")
    return g, worst, a.size


def modified_fe_check(table: BesselTable, trials: int = 100,
                      seed: int = exjs.DEFAULT_SEED):
    """(gamma~, max residual) of `modified_fe_scan`, for callers that need
    no pair count."""
    gamma_t, worst, _ = modified_fe_scan(table, trials, seed)
    return gamma_t, worst


def shalika_functional_value(ctx: LevelZeroCtx, w) -> complex:
    """The twisted Shalika period of the lifted Whittaker function: its
    common value at every admissible s is js(W, 1)."""
    if ctx.n % 2:
        raise PreconditionViolated("Shalika periods live at even n")
    one = CFun.constant(ctx.table.ctx, ctx.m, 1.0)
    return exjs.js(ctx.table, w, one)


def l_factor_from_shalika_functionals(ctx: LevelZeroCtx) -> RatQS:
    """Reconstruct L as the product of (1 - alpha X)^{-1} over the m-th
    roots alpha of c at which the twisted Shalika period is nonzero.
    Nonvanishing is decided by evaluating the period on the mirabolic-coset
    witness function."""
    if ctx.n % 2:
        return RatQS.one()
    witness = exjs.shalika_witness(ctx.table)
    if abs(shalika_functional_value(ctx, witness)) <= PERIOD_ZERO_TOL:
        return RatQS.one()
    base = cmath.exp(1j * cmath.phase(ctx.c) / ctx.m) * (abs(ctx.c) ** (1.0 / ctx.m))
    out = RatQS.one()
    for j in range(ctx.m):
        alpha = base * cmath.exp(2j * cmath.pi * j / ctx.m)
        out = out * RatQS([1.0], [1.0, -alpha])
    return out
