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
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .bessel import BesselTable
from .charkit import CFun, fourier
from .errors import (NonConstantRatio, OracleFailed, PreconditionViolated,
                     require_within, within)
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
#: `RatQS.simplified` cancels a denominator root r when |num(r)| is within
#: this times max(1, largest numerator coefficient)
ROOT_TOL = 1e-8
#: coefficients `within` this size count as zero, a NaN never: `_trim` drops
#: them from the ends of every RatQS polynomial, the printed form skips them,
#: and a modified-functional-equation pair whose rows are all zero is 0 = 0
ZERO_COEFF = 1e-13


def _trim(arr):
    a = np.asarray(arr, dtype=complex).ravel()
    if not np.isfinite(a).all():
        raise PreconditionViolated("a RatQS coefficient is not finite")
    nz = np.flatnonzero(~within(np.abs(a), ZERO_COEFF))
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
        return within(self.residual(other), tol)

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
                if within(abs(np.polyval(num[::-1], r)),
                          ROOT_TOL * max(1.0, np.abs(num).max())):
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
                if within(abs(c), ZERO_COEFF):
                    continue
                terms.append(f"({c:.6g})*X^{i}")
            return " + ".join(terms) if terms else "0"
        shift = f"X^{self.x_shift} * " if self.x_shift else ""
        return f"RatQS({shift}[{fmt(self.num)}] / [{fmt(self.den)}])"


def l_factor(c: complex, m: int) -> RatQS:
    """L(ms, omega) = 1 / (1 - c X^m); the empty factor 1 when c = 0
    (ramified twist).  A non-finite c is refused as a RatQS coefficient."""
    if m < 1:
        raise PreconditionViolated("m must be >= 1")
    if c == 0:
        return RatQS.one()
    den = np.zeros(m + 1, dtype=complex)
    den[0] = 1.0
    den[m] = -c
    return RatQS([1.0], den)


class _Terms(NamedTuple):
    """The representation-independent rational functions of a level-zero
    lift at (q, m, c)."""
    js_corr: RatQS
    dual_L: RatQS
    dual_corr: RatQS
    L: RatQS
    eps: RatQS
    gamma: RatQS


@lru_cache(maxsize=64)
def _level_zero_terms(q: int, m: int, c: complex) -> _Terms:
    """The pair-independent factors of the js(W, 1) corrections,
    js_corr = X^m c L(ms) and dual_corr = X^(-m) q^(-m) c^(-1) dual_L with
    dual_L = L(m(1-s), omega^{-1}) = 1 / (1 - c^{-1} q^{-m} X^{-m}), and the
    theorem's L = 1/(1 - c X^m), epsilon = q^{-m/2} c^{-1} X^{-m} and
    gamma = epsilon dual_L / L of a lift with a Shalika vector: built once
    per (q, m, c) and shared read-only.  `l_factor` refuses m < 1."""
    L = l_factor(c, m)
    js_corr = RatQS.x_power(m) * RatQS.const(c) * L
    dual_L = (RatQS.one() - RatQS.const(q ** -m / c) * RatQS.x_power(-m)).inverse()
    dual_corr = RatQS.x_power(-m) * RatQS.const(q ** -m / c) * dual_L
    eps = RatQS.const(q ** (-m / 2.0) / c) * RatQS.x_power(-m)
    terms = _Terms(js_corr, dual_L, dual_corr, L, eps, eps * dual_L / L)
    for f in terms:
        f.num.flags.writeable = f.den.flags.writeable = False
    return terms


class LevelZeroCtx:
    """A cuspidal representation of the residue field together with the unit
    c = omega(uniformizer) parameterizing the compatible central characters
    of its level-zero lift, and the one correction formula (`lift`) that
    lifts its finite Jacquet-Shalika sums.  A c off the unit circle by more
    than UNIT_CIRCLE_TOL, NaN or infinite, is refused."""

    def __init__(self, table: BesselTable, c: complex = 1.0):
        if not within(abs(abs(c) - 1.0), UNIT_CIRCLE_TOL):
            raise PreconditionViolated(f"c = {c} must lie on the unit circle")
        self.table = table
        self.rep = table.rep
        self.c = complex(c)
        self.n = table.n
        self.m = table.n // 2
        self.q = table.ctx.q
        self.terms = _level_zero_terms(self.q, self.m, self.c)
        self.js_corr, self.dual_L, self.dual_corr = self.terms[:3]

    def has_shalika_vector(self) -> bool:
        return exjs.has_shalika_vector(self.table)

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


def local_L_eps(ctx: LevelZeroCtx):
    """(L, epsilon) of the level-zero lift: trivial L and a constant epsilon
    without a Shalika vector; otherwise L = 1/(1 - c X^m) and epsilon the
    Laurent monomial q^{-m/2} c^{-1} X^{-m}."""
    if not ctx.has_shalika_vector():
        return RatQS.one(), RatQS.const(complex(exjs.gamma_tori([ctx.table])[0]))
    return ctx.terms.L, ctx.terms.eps


def local_gamma(ctx: LevelZeroCtx, ratio: RatQS = None) -> RatQS:
    """gamma = epsilon * L(m(1-s), dual) / L(ms); cross-checked against
    `ratio`, the ratio of lifted sums on the canonical pair at ctx.c.  A
    caller that passes none has it computed here by `_canonical_ratios` on
    the table's `exjs.block_profiles`, a block of one."""
    if ctx.has_shalika_vector():
        gamma = ctx.terms.gamma
    else:
        gamma = local_L_eps(ctx)[1]
    if ratio is None:
        (ratio,) = _canonical_ratios([ctx.table],
                                     *exjs.block_profiles([ctx.table])[:2], ctx.c)
    if not gamma.equals(ratio, GAMMA_TOL):
        raise OracleFailed("local_gamma",
                           f"theorem value {gamma} vs lifted ratio {ratio}")
    return gamma


def _canonical_ratios(tables, js0, dual0, c: complex) -> list:
    """The lifted dual_js / lifted js on the canonical pair (W0, phi0 =
    delta at x0) at the unit c of every table of a block, from its
    canonical profiles js0, dual0 (T x q^m, `exjs.block_profiles`) as block
    arrays: the package's one canonical-ratio code.  With a0 = js0[x0] and
    b0 = dual0[x0], odd n has no correction and the ratio is b0 / a0.  At
    even n the canonical point x0 is never 0, so the js side has no
    correction, and with p = phi0^(0) js(W0, 1) = q^(-m/2) sum_x js0 and
    dual_corr = Nd / Dd at (q, m, c) (X-shift 0: X^(-m) times dual_L =
    X^m / (X^m - c^(-1) q^(-m))),

        gamma~ = (b0 Dd + p Nd) / (a0 Dd),

    one RatQS per table.  A p of at most ZERO_COEFF is 0, as RatQS trims
    it, and leaves the constant b0 / a0.  Adding 0.0 turns the -0.0 of a
    product into the 0.0 that RatQS arithmetic writes.  A ratio with a
    non-finite coefficient fails (OracleFailed) at its theta."""
    first = tables[0]
    q, n, m = first.ctx.q, first.n, first.n // 2
    at = exjs._canonical_point(first.ctx, n)
    a0, b0 = js0[:, at, None], dual0[:, at, None]
    coeffs = zip(b0, a0)
    if n % 2 == 0:
        d = _level_zero_terms(q, m, complex(c)).dual_corr
        p = q ** (-m / 2.0) * js0.sum(axis=1, keepdims=True)
        num = b0 * d.den + 0.0
        num[:, :len(d.num)] += p * d.num
        den = a0 * d.den + 0.0
        coeffs = [(num[t], den[t]) if not within(abs(p[t, 0]), ZERO_COEFF)
                  else (b0[t], a0[t]) for t in range(len(tables))]
    ratios = []
    for table, (num, den) in zip(tables, coeffs):
        try:
            ratios.append(RatQS(num, den))
        except PreconditionViolated as exc:  # a non-finite coefficient
            raise OracleFailed("canonical ratio", f"{exc} at theta = {table.rep.exponent}")
    return ratios


def _coefficient_block(terms: _Terms, gammas) -> np.ndarray:
    """The (4, T, width) coefficient rows of `modified_fe_scans` for a block
    of gamma~: dual_corr = X^sd Nd/Dd, js_corr = X^sj Nj/Dj (`terms`) and
    gamma~ = X^sg Ng/Dg give row0 = (b Dd + p X^sd Nd) Dg Dj and
    row1 = X^sg Ng (a Dj + r X^sj Nj) Dd, whose coefficients of b, p, a and
    r these are: Dd Dg Dj, X^sd Nd Dg Dj, X^sg Ng Dj Dd and X^(sg+sj) Ng Nj
    Dd, each the `np.convolve` product of its factors left to right, at its
    shift above the lowest of the block.  The zero padding changes no
    residual."""
    d, j = terms.dual_corr, terms.js_corr
    # the (shift, product) of each table's four rows
    polys = [[(s, reduce(np.convolve, f)) for s, f in (
                 (0, (d.den, g.den, j.den)), (d.x_shift, (d.num, g.den, j.den)),
                 (g.x_shift, (g.num, j.den, d.den)),
                 (g.x_shift + j.x_shift, (g.num, j.num, d.den)))]
             for g in gammas]
    low = min(s for table in polys for s, _ in table)
    width = max(s - low + len(poly) for table in polys for s, poly in table)
    rows = np.zeros((4, len(gammas), width), dtype=complex)
    for t, table in enumerate(polys):
        for row, (s, poly) in zip(rows[:, t], table):
            row[s - low:s - low + len(poly)] = poly
    return rows


def modified_fe_scans(tables, profiles: exjs.BlockProfiles = None):
    """The modified functional equation at the trivial-twist normalization
    c = 1 for a block of tables at one (q, n, psi), all with a Shalika
    vector or all without one: per table, one rational function gamma~, the
    lifted canonical-pair ratio (`_canonical_ratios`), covers every (W, phi)
    pair.  The pairs are (translate, delta_x) over the shared pool, whose
    profiles, with the canonical pair's, are the block's `profiles`
    (`exjs.block_profiles`, at the default trials and seed when None):
    a = js(W, delta_x) and b = dual_js(W, delta_x); then j1 = js(W, 1) =
    sum_x a, delta_x(0) = [x = 0] and delta_x^(0) = q^(-m/2).

    The lifted sides lhs = b + p dual_corr (p = q^(-m/2) j1) and
    gamma~ (a + r js_corr) (r = [x = 0] j1), cross-multiplied over their
    denominators, are rows linear in (b, p, a, r) with pair-independent
    coefficients (`_coefficient_block`), so the rows of every pair of a
    block are a few broadcast products.  A pair's residual is
    max|row0 - row1| / max(|row0|, |row1|), and 0 (0 = 0) when every
    coefficient is `within` ZERO_COEFF.  Its memory grows with the block.

    Returns one (gamma~, max residual, pairs checked) per table."""
    if not tables:
        return []
    n = tables[0].n
    if n % 2:
        raise PreconditionViolated("modified functional equation is for even n")
    if len({exjs.has_shalika_vector(table) for table in tables}) > 1:
        raise PreconditionViolated("a modified-FE block is all Shalika or all"
                                   " without a Shalika vector")
    if profiles is None:
        profiles = exjs.block_profiles(tables)
    js0, dual0, a, b, pairs = profiles
    q, m = tables[0].ctx.q, n // 2
    gammas = _canonical_ratios(tables, js0, dual0, 1 + 0j)
    # the coefficients of (b, p, a, r), each (T, width, 1, 1)
    c0, c1, c2, c3 = _coefficient_block(_level_zero_terms(q, m, 1 + 0j),
                                        gammas)[..., None, None]
    a, b = a[:, None], b[:, None]
    j1 = a.sum(axis=-1, keepdims=True)
    # row0 and row1 as (T, width, translates, q^m), the pair axes last and
    # contiguous: p is constant over the points of a translate, and r lives
    # on the point x = 0 only
    row0 = c0 * b
    row0 += c1 * (q ** (-m / 2.0) * j1)
    row1 = c2 * a
    row1[..., :1] += c3 * j1
    scale = np.maximum(np.abs(row0).max(axis=1), np.abs(row1).max(axis=1))
    gap = np.abs(np.subtract(row0, row1, out=row0)).max(axis=1)
    resid = np.divide(gap, scale, out=np.zeros_like(gap), where=~within(scale, ZERO_COEFF))
    worst = resid.max(axis=(1, 2))
    require_within(worst, exjs.FE_TOL, [table.rep.exponent for table in tables],
                   lambda i, where: NonConstantRatio(
                       f"modified functional equation residual {worst[i]} {where}"))
    return list(zip(gammas, worst.tolist(), [pairs] * len(tables)))


def modified_fe_check(table: BesselTable, trials: int = 100,
                      seed: int = exjs.DEFAULT_SEED):
    """(gamma~, max residual) of one table: `modified_fe_scans` on a block
    of one, for callers that need no pair count."""
    return modified_fe_scans([table], exjs.block_profiles([table], trials, seed))[0][:2]


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
    if within(abs(shalika_functional_value(ctx, witness)), PERIOD_ZERO_TOL):
        return RatQS.one()
    base = cmath.exp(1j * cmath.phase(ctx.c) / ctx.m) * (abs(ctx.c) ** (1.0 / ctx.m))
    out = RatQS.one()
    for j in range(ctx.m):
        alpha = base * cmath.exp(2j * cmath.pi * j / ctx.m)
        out = out * RatQS([1.0], [1.0, -alpha])
    return out
