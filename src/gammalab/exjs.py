"""Jacquet-Shalika sums and the exterior square gamma factor.

The finite-field analog of the exterior-square integral pairs a Whittaker
function W with a function phi on F_q^m (n = 2m or 2m+1) through shuffled
Shalika-type coset sums.  The gamma factor is the constant of the functional
equation dual_js = gamma * js; it is computed here by three mutually
independent routes (functional-equation ratio, Bessel torus sums, and
closed-form character sums for n = 2, 3, 4) plus the S0/S1 split, together
with the Shalika-vector detection and the appendix multiplicity bounds.
"""

from __future__ import annotations

import itertools
import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .bessel import (BesselTable, gather_sums, support_keys, support_signature,
                     support_signatures)
from .charkit import (AddChar, CFun, _gauss_terms, _pairing_matrix, _read_only,
                      character_sums, fourier, gauss_sum, kloosterman,
                      restriction_is_trivial)
from .cuspchar import _block_field, character_matrix
from .errors import (
    DimensionMismatch,
    DimensionBoundViolated,
    MalformedShalikaElement,
    NonConstantRatio,
    OracleFailed,
    PreconditionViolated,
    ShalikaVectorPresent,
    UnsupportedN,
    require_within,
    within,
)
from .ffield import FieldCtx
from . import matgrp as mg

DEFAULT_SEED = 1729
#: exhaustive functional-equation sweeps whenever |GL_n| * q^m is below this
EXHAUSTIVE_PAIR_CAP = 3000
#: the bound on every functional-equation residual: the plain and modified
#: certificates, the canonical normalization JS(W0, phi0) = 1 and the
#: Shalika witness and zero search
FE_TOL = 1e-8
#: the bound on ||gamma| - 1| for the gamma of every route, in each route's
#: guard and in `verify`'s gamma_unitarity
UNITARITY_TOL = 1e-8
#: the distance of the averaged character sum dim Hom_H(pi, 1) from 0 or 1
HOMDIM_TOL = 1e-6


class WhittakerFun:
    """A finite linear combination of right translates of the Bessel
    function: W(g) = sum_i scale_i * B(g h_i).  Translates span the
    Whittaker model, so functional-equation checks over this family are
    checks over the full model."""

    def __init__(self, table: BesselTable, terms):
        self.table = table
        self.terms = tuple(terms)

    @classmethod
    def translate(cls, table: BesselTable, h: mg.Mat, scale: complex = 1.0):
        return cls(table, [(scale, h)])

    def __call__(self, g: mg.Mat) -> complex:
        ctx = self.table.ctx
        return sum(scale * self.table.eval(mg.mat_mul(ctx, g, h))
                   for scale, h in self.terms)

    def right_translated(self, s: mg.Mat) -> "WhittakerFun":
        """pi(s)W, i.e. g -> W(g s)."""
        ctx = self.table.ctx
        return WhittakerFun(self.table,
                            [(scale, mg.mat_mul(ctx, s, h)) for scale, h in self.terms])


@dataclass
class GammaResult:
    value: complex
    route: str
    diagnostics: dict = field(default_factory=dict)


# -- precomputed summation frames (representation independent) ----------------

@lru_cache(maxsize=64)
def _sum_frame(ctx: FieldCtx, n: int) -> tuple:
    """Both Jacquet-Shalika sums as one list of terms (g, -tr X, i_js, i_dual):

        js(W, phi)      = sum W(g) psi(-tr X) phi[i_js]      / norm
        dual_js(W, phi) = sum W(g) psi(-tr X) phi_hat[i_dual] / norm

    over the terms whose index is not None; indices are flat points of
    F_q^m.  Even n: g = sigma u(X) diag(g0, g0) over the coset grid, one term
    feeding js at eps*g0 and dual_js at e_1*g0^{-T}.  Odd n: for each grid
    element and Z, a js term and a dual term, both at Z."""
    m = n // 2
    sig = mg.sigma_perm(n)
    idx = CFun(ctx, m).index_of
    out = []
    if n % 2 == 0:
        for g in mg.unipotent_coset_reps(ctx, m):
            ginv = mg.mat_inv(ctx, g)
            i_eps = idx(g[m - 1])
            i_e1 = idx(tuple(row[0] for row in ginv))  # first column of g^{-1}
            dg = mg.shalika_diag(g)
            for x in mg.lower_nilpotent_reps(ctx, m):
                prod = mg.mat_chain(ctx, sig, mg.shalika_u(m, x), dg)
                out.append((prod, ctx.neg(mg.mat_trace(ctx, x)), i_eps, i_e1))
        return tuple(out)
    front = mg.antidiag_elem(ctx, (1, 2 * m), (1, 1))
    zpoints = CFun(ctx, m).points()
    for g in mg.unipotent_coset_reps(ctx, m):
        dg = mg.odd_diag(g)
        for x in mg.lower_nilpotent_reps(ctx, m):
            base = mg.mat_chain(ctx, sig, mg.odd_u(m, x), dg)
            dbase = mg.mat_mul(ctx, front, base)
            ntr = ctx.neg(mg.mat_trace(ctx, x))
            for z in zpoints:
                zi = idx(z)
                out.append((mg.mat_mul(ctx, base, mg.odd_lower(m, z)), ntr, zi, None))
                out.append((mg.mat_mul(ctx, dbase, mg.odd_upper_right(m, z)), ntr,
                            None, zi))
    return tuple(out)


def double_dual_flip(ctx: FieldCtx, n: int) -> mg.Mat:
    """The block flip entering the dual's definition.  Even: antidiag(I, I).
    Odd: the same with -I_m blocks and a fixed last coordinate (the sign is
    forced by double duality; it is invisible over F_2)."""
    m = n // 2
    if n % 2 == 0:
        return mg.from_blocks([[mg.zero(m), mg.identity(m)],
                               [mg.identity(m), mg.zero(m)]])
    neg = mg.scalar_mul(ctx, ctx.neg(1), mg.identity(m))
    return mg.from_blocks([
        [mg.zero(m), neg, mg.zero(m, 1)],
        [neg, mg.zero(m), mg.zero(m, 1)],
        [mg.zero(1, m), mg.zero(1, m), mg.identity(1)],
    ])


def definitional_dual(table: BesselTable, tilde_table: BesselTable, w,
                      phi: CFun) -> complex:
    """The dual sum computed from its definition: JS of the contragredient
    data on the flipped, transposed-inverse translate of W against the
    Fourier transform of phi.  Agrees with dual_js (double duality)."""
    ctx = table.ctx
    n = table.n
    wn = mg.antidiag_elem(ctx, (1,) * n, (1,) * n)
    flip = double_dual_flip(ctx, n)

    def w_contra(g):
        arg = mg.mat_mul(ctx, g, flip)
        return w(mg.mat_mul(ctx, wn, mg.transpose(mg.mat_inv(ctx, arg))))

    return js(tilde_table, w_contra, fourier(phi, table.psi))


def _norm_const(ctx: FieldCtx, n: int) -> int:
    m = n // 2
    c = mg.gl_order(ctx.q, m)
    if n % 2:
        c *= ctx.q ** m
    return c


def _exhaustive(q: int, n: int) -> bool:
    return mg.gl_order(q, n) * q ** (n // 2) <= EXHAUSTIVE_PAIR_CAP


def _fe_translates(ctx: FieldCtx, n: int, seed: int, trials: int) -> tuple:
    """The translates h of the certificates' test functions W = B(. h): every
    h in GL_n when |GL_n| * q^m <= EXHAUSTIVE_PAIR_CAP, else the first
    `trials` of the seeded random stream, so a larger count extends a
    smaller one and shares its rows (`_translate_rows`)."""
    if _exhaustive(ctx.q, n):
        return mg.all_gl(ctx, n)
    rng = random.Random(f"fe:{seed}:{ctx.q}:{n}")
    return tuple(mg.random_invertible(ctx, n, rng) for _ in range(trials))


@lru_cache(maxsize=64)
def _frame_arrays(ctx: FieldCtx, n: int) -> tuple:
    """`_sum_frame` as arrays: the terms g as base-field codes, -tr X as a
    code, and i_js and i_dual with -1 for None."""
    frame = _sum_frame(ctx, n)
    F = ctx.base
    index = [np.array([-1 if t[i] is None else t[i] for t in frame]) for i in (2, 3)]
    return (F.codes(np.array([t[0] for t in frame])), F.codes([t[1] for t in frame]),
            *index)


#: translates whose rows are kept: every translate of the largest pool
#: (1,000 sampled, 480 at q = 5, n = 2) with the canonical and
#: Shalika-witness translates; least recently used out first
ROW_CACHE_SIZE = 4096
_ROWS = OrderedDict()  # (ctx, n, h) -> the rows of `_translate_rows`


def _translate_rows(ctx: FieldCtx, n: int, translates) -> list:
    """For each translate h, the support key (-1 off the Bessel support) and
    psi-argument code of every sum-frame term g at g h.  Representation
    independent: every representation at (q, n) reads the rows of h from
    one bounded cache, and the translates missing from it are decomposed
    together (`support_signatures`), so each g h is decomposed once."""
    new = [h for h in dict.fromkeys(translates) if (ctx, n, h) not in _ROWS]
    if new:
        F = ctx.base
        g, ntr, _, _ = _frame_arrays(ctx, n)
        step = max(1, mg.BATCH_CHUNK // len(g))
        for lo in range(0, len(new), step):
            part = new[lo:lo + step]
            prod = mg.batch_mat_mul(ctx, g, F.codes(np.array(part))[:, None])
            key, s = support_signatures(ctx, prod.reshape(-1, n, n))
            key, arg = key.reshape(len(part), -1), F.add(s.reshape(len(part), -1), ntr)
            for i, h in enumerate(part):
                _ROWS[(ctx, n, h)] = key[i], arg[i]
    out = []
    for h in translates:
        _ROWS.move_to_end((ctx, n, h))
        out.append(_ROWS[(ctx, n, h)])
    while len(_ROWS) > ROW_CACHE_SIZE:
        _ROWS.popitem(last=False)
    return out


@dataclass(frozen=True)
class FePool:
    """The pool rows of `translates` translates, compiled to one stacked row
    set for `bessel.gather_sums`: the support key (`key`, into
    `support_keys`), psi-argument (`arg`, into the base-field elements) and
    flat cell (`cell`) of each row, the js sum of (t, i) at t * size + i and
    the dual_js sum at (translates + t) * size + i.  The js rows come first
    and the dual_js rows after, each in (translate, frame term) order; a
    term off the Bessel support, or not feeding a sum, has no row there.
    `pairs` is the count of (translate, point) pairs the rows stand for:
    translates * size, or, in the certificates' pool (`_cached_pool`), the
    pairs of every test translate, whose distinct row sets are compiled once
    behind the canonical translate, which it does not count."""
    translates: int
    size: int
    key: np.ndarray
    arg: np.ndarray
    cell: np.ndarray
    pairs: int

    @property
    def js_rows(self) -> slice:
        """The js rows, which come first: those whose cell lies below
        translates * size."""
        return slice(0, int(np.count_nonzero(self.cell < self.translates * self.size)))


def _compile_pool(ctx: FieldCtx, n: int, translates) -> FePool:
    """The `FePool` of `translates`, from their cached rows (`_translate_rows`):
    every row that feeds no sum is dropped here, once per pool."""
    rows = _translate_rows(ctx, n, translates)
    _, _, i_js, i_dual = _frame_arrays(ctx, n)
    key = np.stack([k for k, _ in rows])
    arg = np.stack([a for _, a in rows]).astype(np.intp)
    size = ctx.q ** (n // 2)
    parts = []
    for half, index in enumerate((i_js, i_dual)):
        t, term = np.nonzero((key >= 0) & (index >= 0))
        cell = (half * len(rows) + t) * size + index[term]
        parts.append((key[t, term], arg[t, term], cell))
    return FePool(len(rows), size, *map(np.concatenate, zip(*parts)),
                  pairs=len(rows) * size)


def _fe_pool(ctx: FieldCtx, n: int, seed: int, trials: int) -> FePool:
    """The compiled rows (`FePool`) of the canonical translate sigma^-1 and
    then of the translates of `_fe_translates`, one translate per distinct
    row set (`_cached_pool`), with `pairs` counting every test translate.
    Representation independent: shared by every representation at (q, n),
    by the canonical pair and both functional-equation certificates
    (`block_profiles`), and by the Shalika zero search.  An exhaustive cell
    ignores seed and trials, so it has one cache entry; a sampled one reads
    a prefix of the stream of its seed, at least one translate long, so no
    certificate passes on zero pairs."""
    if _exhaustive(ctx.q, n):
        seed = trials = None
    elif trials < 1:
        raise PreconditionViolated(
            f"the sampled functional-equation check at q = {ctx.q}, n = {n}"
            f" needs trials >= 1, got {trials}")
    return _cached_pool(ctx, n, seed, trials)


@lru_cache(maxsize=64)
def _cached_pool(ctx: FieldCtx, n: int, seed, trials) -> FePool:
    """`_compile_pool` of sigma^-1, the canonical translate, and then of the
    first test translate of each distinct row set, in first-seen order.
    Translates with the same support keys, and the same psi-arguments
    wherever the key is on the support, have the same js and dual_js
    profiles bit for bit: `_pool_profiles` adds each translate's rows in
    their own order into its own cells.  So every residual, max and gamma
    over the kept translates equals that over all of them (at q = 5, n = 2
    the 480 translates of GL_2 have 101 row sets), and the canonical
    translate's profiles equal those of sigma^-1 compiled alone."""
    translates = _fe_translates(ctx, n, seed, trials)
    kept = {}
    for h, (key, arg) in zip(translates, _translate_rows(ctx, n, translates)):
        kept.setdefault(key.tobytes() + np.where(key >= 0, arg, 0).tobytes(), h)
    pool = _compile_pool(ctx, n, [_sigma_inv(ctx, n), *kept.values()])
    return replace(pool, pairs=len(translates) * pool.size)


def _delta_profiles(table: BesselTable, s_js: np.ndarray, s_dual: np.ndarray):
    """(js(W, delta_x), dual_js(W, delta_x)) over all points x (the last
    axis), written over the complex arrays of frame sums S accumulated per
    point, one leading row per table: js is S_js / norm, and dual_js is
    sum_z S_dual[z] * fourier(delta_x)(z) / norm."""
    ctx = table.ctx
    n, m, _ = _split(table)
    norm = _norm_const(ctx, n)
    K = _pairing_matrix(ctx, m, table.psi.inverse)
    # one einsum per table, written over its contiguous sums: a block holds
    # no second array of its size.  `@` would be 3-9x faster, but OpenBLAS
    # runs it on two threads, which raised the peak RSS of a cold q5n2 cell
    # by 0.75 MB (0.4 MB on one thread)
    for part in s_dual:
        part[...] = np.einsum("...z,xz->...x", part, K)
    s_dual *= ctx.q ** (-m / 2.0) / norm
    s_js *= 1.0 / norm
    return s_js, s_dual


def _pool_profiles(tables, pool: FePool):
    """(js, dual): the (T x translates x q^m) arrays of js(W, delta_x) and
    dual_js(W, delta_x) of a block of T tables at one (q, n, psi), over the
    pooled translates W = B(. h) and all points x: one `gather_sums` of
    V[key, theta] * psi[arg] over the pool's stacked rows into each table's
    js cells and then its dual_js cells, and the pairing product of
    `_delta_profiles`."""
    psi = _block_cell(tables)[2]
    sums = gather_sums(pool.cell, pool.key, psi.values[pool.arg],
                       np.stack([t.values for t in tables], axis=1),
                       2 * pool.translates * pool.size)
    sums = sums.reshape(len(tables), 2, pool.translates, pool.size)
    return _delta_profiles(tables[0], sums[:, 0], sums[:, 1])


def _block_cell(tables):
    """(ctx, n, psi) of a block of tables, which must share them: a block's
    gathers read the first table's psi-values and cached terms."""
    ctx, n = _block_field([t.rep for t in tables])
    psi = tables[0].psi
    if any(t.psi.inverse != psi.inverse for t in tables):
        raise PreconditionViolated("a block of tables shares one (q, n, psi)")
    return ctx, n, psi


def _split(table: BesselTable):
    n = table.n
    if n < 2:
        raise UnsupportedN("need n >= 2")
    return n, n // 2, n % 2 == 1


def _profiles(table: BesselTable, w):
    """(js(W, delta_x), dual_js(W, delta_x)) over all points x.  A
    `WhittakerFun` on `table` reads the cached rows of its translates, W's
    profile being sum_i scale_i * profile(B(. h_i)); any other W is
    evaluated on every frame term (`js_profiles`)."""
    if not (isinstance(w, WhittakerFun) and w.table is table):
        return js_profiles(table, w)
    (a,), (b,) = _pool_profiles([table], _compile_pool(table.ctx, table.n,
                                                       [h for _, h in w.terms]))
    scales = np.array([scale for scale, _ in w.terms], dtype=complex)
    return np.einsum("t,tx->x", scales, a), np.einsum("t,tx->x", scales, b)


def _phi_sum(table: BesselTable, w, phi: CFun, dual: bool) -> complex:
    """sum_x phi(x) * js(W, delta_x) (dual_js if `dual`): both sums are
    linear in phi."""
    _, m, _ = _split(table)
    if phi.m != m:
        raise DimensionMismatch(f"phi lives on F_q^{phi.m}, need m = {m}")
    return complex(np.einsum("x,x->", _profiles(table, w)[dual], phi.values))


def js(table: BesselTable, w, phi: CFun) -> complex:
    """The Jacquet-Shalika sum JS(W, phi)."""
    return _phi_sum(table, w, phi, dual=False)


def dual_js(table: BesselTable, w, phi: CFun) -> complex:
    """The dual sum via the direct formulas (Fourier transform of phi on the
    flipped argument)."""
    return _phi_sum(table, w, phi, dual=True)


def js_profiles(table: BesselTable, w):
    """js(W, delta_x) and dual_js(W, delta_x) for every point x at once,
    evaluating W on every frame term: the reference for the compiled rows
    (`_pool_profiles`), and the path of a W that is not a `WhittakerFun`."""
    ctx = table.ctx
    n, m, _ = _split(table)
    psi = table.psi
    size = ctx.q ** m
    s_js = [0j] * size
    s_dual = [0j] * size
    for g, ntr, i_js, i_dual in _sum_frame(ctx, n):
        val = w(g) * psi(ntr)
        if i_js is not None:
            s_js[i_js] += val
        if i_dual is not None:
            s_dual[i_dual] += val
    js, dual = _delta_profiles(table, np.array([s_js]), np.array([s_dual]))
    return js[0], dual[0]


# -- Shalika subgroup actions -------------------------------------------------

def _parse_even_shalika(ctx: FieldCtx, s: mg.Mat, m: int):
    g = tuple(row[:m] for row in s[:m])
    x = tuple(row[m:] for row in s[:m])
    g2 = tuple(row[m:] for row in s[m:])
    low = tuple(row[:m] for row in s[m:])
    if g != g2 or any(any(v for v in row) for row in low) \
            or not mg.is_invertible(ctx, g):
        raise MalformedShalikaElement("expected [[g, X], [0, g]]")
    return g, x


def _parse_odd_shalika(ctx: FieldCtx, s: mg.Mat, m: int):
    g = tuple(row[:m] for row in s[:m])
    x = tuple(row[m:2 * m] for row in s[:m])
    y = tuple(row[2 * m] for row in s[:m])
    g2 = tuple(row[m:2 * m] for row in s[m:2 * m])
    z = tuple(s[2 * m][m:2 * m])
    ok = (g == g2 and mg.is_invertible(ctx, g)
          and all(not v for row in s[m:2 * m] for v in row[:m])
          and all(not row[2 * m] for row in s[m:2 * m])
          and all(not v for v in s[2 * m][:m])
          and s[2 * m][2 * m] == 1)
    if not ok:
        raise MalformedShalikaElement("expected [[g, X, Y], [0, g, 0], [0, Z, 1]]")
    return g, x, y, z


def shalika_psi(table: BesselTable, s: mg.Mat) -> complex:
    """Psi(s) = psi(tr(X g^{-1})) on the even Shalika subgroup."""
    ctx = table.ctx
    n, m, odd = _split(table)
    if odd:
        g, x, _y, z = _parse_odd_shalika(ctx, s, m)
        if any(z):
            raise MalformedShalikaElement("Psi needs the mirabolic part (Z = 0)")
    else:
        g, x = _parse_even_shalika(ctx, s, m)
    arg = mg.mat_trace(ctx, mg.mat_mul(ctx, x, mg.mat_inv(ctx, g)))
    return table.psi(arg)


def shalika_action(table: BesselTable, s: mg.Mat, phi: CFun) -> CFun:
    """The action rho(s) of the Shalika subgroup on functions on F_q^m."""
    ctx = table.ctx
    n, m, odd = _split(table)
    psi = table.psi
    out = CFun(ctx, m)
    if not odd:
        g, _x = _parse_even_shalika(ctx, s, m)
        for i in range(out.size):
            y = out.point_at(i)
            out.values[i] = phi(mg.vec_mat(ctx, y, g))
        return out
    g, x, y, z = _parse_odd_shalika(ctx, s, m)
    ginv = mg.mat_inv(ctx, g)
    zg = mg.vec_mat(ctx, z, ginv)
    # tr((X - Y Z g^{-1}) g^{-1}) = tr(X g^{-1}) - (Z g^{-1}) . Y
    tr_a = mg.mat_trace(ctx, mg.mat_mul(ctx, x, ginv))
    dot = 0
    for zc, yc in zip(zg, y):
        dot = ctx.add(dot, ctx.mul(zc, yc))
    front = psi(ctx.neg(ctx.sub(tr_a, dot)))
    for i in range(out.size):
        pt = out.point_at(i)
        mod = 0
        for pc, yc in zip(pt, y):
            mod = ctx.add(mod, ctx.mul(pc, yc))
        shifted = tuple(ctx.add(pc, zc) for pc, zc in zip(pt, zg))
        out.values[i] = front * psi(mod) * phi(mg.vec_mat(ctx, shifted, g))
    return out


# -- canonical test vectors ----------------------------------------------------

def _canonical_point(ctx: FieldCtx, n: int) -> int:
    """The flat point of the canonical phi's delta function: 0 for odd n,
    and eps = (0, ..., 0, 1) for even n."""
    m = n // 2
    return CFun(ctx, m).index_of((0,) * m if n % 2 else (0,) * (m - 1) + (1,))


def _sigma_inv(ctx: FieldCtx, n: int) -> mg.Mat:
    """sigma^-1, the translate of the canonical W0."""
    return mg.mat_inv(ctx, mg.sigma_perm(n))


def canonical_pair(table: BesselTable):
    """The (W, phi) with JS(W, phi) = 1: the sigma^{-1}-translate of the
    Bessel function at full normalizing scale, against a delta function."""
    ctx = table.ctx
    n, m, odd = _split(table)
    w = WhittakerFun.translate(table, _sigma_inv(ctx, n),
                               scale=float(_norm_const(ctx, n)))
    phi = CFun(ctx, m)
    phi.values[_canonical_point(ctx, n)] = 1.0
    return w, phi


class BlockProfiles(NamedTuple):
    """The profiles of a block of T tables from one pass over its pool: the
    canonical W0's js(W0, delta_x) and dual_js(W0, delta_x) as (T x q^m)
    arrays (`js0`, `dual0`, the package's one reading of the canonical
    pair), the test translates' as (T x translates x q^m) arrays (`js`,
    `dual`), and the (translate, point) pairs each table's test rows stand
    for."""
    js0: np.ndarray
    dual0: np.ndarray
    js: np.ndarray
    dual: np.ndarray
    pairs: int

    def rows(self, part: slice) -> "BlockProfiles":
        """The profiles of the tables `part` of the block, as views."""
        return BlockProfiles(self.js0[part], self.dual0[part], self.js[part],
                             self.dual[part], self.pairs)


def block_profiles(tables, trials: int = 100,
                   seed: int = DEFAULT_SEED) -> BlockProfiles:
    """The `BlockProfiles` of a block of tables at one (q, n, psi), with or
    without a Shalika vector, from one `_pool_profiles` call on the shared
    pool (`_fe_pool`: exhaustive on small cells, else `trials` translates):
    the canonical pair from translate 0, scaled by `_norm_const`, and the
    certificates' pairs from the rest.  Its memory grows with the block."""
    ctx, n, _ = _block_cell(tables)
    pool = _fe_pool(ctx, n, seed, trials)
    a, b = _pool_profiles(tables, pool)
    scale = float(_norm_const(ctx, n))
    return BlockProfiles(scale * a[:, 0], scale * b[:, 0], a[:, 1:], b[:, 1:],
                         pool.pairs)


def functional_equation_scans(tables, profiles: BlockProfiles = None):
    """gamma of every table of a block at one (q, n, psi) from its canonical
    pair, plus a constancy verification of dual_js = gamma * js over every
    (translate, delta_x) pair of the shared pool.  Both read the block's
    `profiles` (`block_profiles`, at the default trials and seed when None),
    whose test arrays are overwritten.

    Returns (gamma, max_residual, pairs_checked): arrays over the tables and
    the pairs checked per table."""
    if profiles is None:
        profiles = block_profiles(tables)
    at = _canonical_point(tables[0].ctx, tables[0].n)
    a0, b0, a, b, pairs = profiles
    thetas = [table.rep.exponent for table in tables]
    require_within(np.abs(a0[:, at] - 1.0), FE_TOL, thetas, lambda i, where: OracleFailed(
        "canonical_js", f"JS(W0, phi0) = {a0[i, at]} {where}"))
    gamma = b0[:, at]
    a *= gamma[:, None, None]  # in place: the block's arrays are the largest
    resid = np.abs(np.subtract(b, a, out=b)).max(axis=(1, 2))
    require_within(resid, FE_TOL, thetas, lambda i, where: NonConstantRatio(
        f"functional equation residual {resid[i]} {where}"))
    return gamma, resid, pairs


# -- the three gamma routes ----------------------------------------------------

def has_shalika_vector(table: BesselTable) -> bool:
    """Whether the representation has a Shalika vector: n even and theta
    trivial on F_{q^m}^x, m = n / 2."""
    return table.n % 2 == 0 and restriction_is_trivial(table.rep.theta, table.n // 2)


def _require_no_shalika(table: BesselTable):
    _split(table)
    if has_shalika_vector(table):
        raise ShalikaVectorPresent(
            "theta restricted to the half-level is trivial: use the level-zero"
            " modified functional equation")


def gamma_ratios(tables, profiles: BlockProfiles = None):
    """Route 1 for a block of tables at one (q, n, psi): the
    functional-equation ratio on each canonical pair, with one constancy
    certificate over further pairs (`functional_equation_scans`, which
    reads `profiles`).

    Returns (gamma, max_residual, pairs_checked): arrays over the tables and
    the pairs checked per table."""
    if not tables:
        return np.empty(0, dtype=complex), np.empty(0), 0
    for table in tables:
        _require_no_shalika(table)
    gammas, worst, checked = functional_equation_scans(tables, profiles)
    _unitarity_guard(gammas, "ratio", tables)
    return gammas, worst, checked


def gamma_ratio(table: BesselTable, trials: int = 100,
                seed: int = DEFAULT_SEED) -> GammaResult:
    """Route 1 for one table: `gamma_ratios` on a block of one."""
    (gamma,), (resid,), checked = gamma_ratios(
        [table], block_profiles([table], trials, seed))
    return GammaResult(complex(gamma), "ratio",
                       {"max_residual": float(resid), "pairs_checked": checked})


@lru_cache(maxsize=64)
def _torus_terms(ctx: FieldCtx, n: int, inverse: bool) -> tuple:
    """(key, phase, extra, weight, front): the representation-independent
    terms of `gamma_tori`, one per antidiagonal block torus element t with
    t^-1 on the Bessel support, in the order of the pointwise sum:

        gamma = front * sum_i weight[i] * ((phase[i] * B[key[i]]) * extra[i])

    with key[i] the index of t^-1's support key, phase[i] psi of its
    signature's argument, extra[i] psi(lambda_last) at even n with a last
    block of size 1 (1 otherwise), weight[i] q^-(sum 2 C(m_i, 2)) over t's
    composition and front q^(+-m/2 + 2 C(m, 2)).  Read-only arrays."""
    m, odd = n // 2, n % 2 == 1
    q = ctx.q
    psi = AddChar(ctx, inverse)
    index = {key: i for i, key in enumerate(support_keys(ctx, n))}
    keys, phases, extras, weights = [], [], [], []
    for comp in mg.compositions(m):
        weight = q ** (-sum(2 * (mi * (mi - 1) // 2) for mi in comp))
        for lams in itertools.product(ctx.subfield_units(1), repeat=len(comp)):
            t = mg.antidiag_elem(ctx, comp, lams, block_scale=2, tail_one=odd)
            sig = support_signature(ctx, mg.mat_inv(ctx, t))
            if sig is None:
                continue
            keys.append(index[sig[0]])
            phases.append(psi(sig[1]))
            extras.append(psi(lams[-1]) if not odd and comp[-1] == 1 else 1)
            weights.append(weight)
    exp2 = 2 * (m * (m - 1) // 2)
    front = q ** (m / 2.0 + exp2) if odd else q ** (-m / 2.0 + exp2)
    return _read_only(np.array(keys, dtype=np.intp), np.array(phases, dtype=complex),
                      np.array(extras, dtype=complex), np.array(weights)) + (front,)


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise as Python's complex product,
    (ar br - ai bi) + (ar bi + ai br) i, bit for bit: numpy's own complex
    multiply may fuse these operations and differ in the last place."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| elementwise, equal bit for bit to Python's abs of each complex
    (numpy's own complex abs may differ in the last place)."""
    return np.hypot(z.real, z.imag)


def gamma_tori(tables) -> np.ndarray:
    """Route 2 for a block of tables at one (q, n, psi): the Bessel sums
    over antidiagonal block tori, one gather of the tables' values at the
    keys of `_torus_terms`.  Each term is formed and added in the order of
    the pointwise sum, so every gamma equals it bit for bit."""
    ctx, n, psi = _block_cell(tables)
    for table in tables:
        _require_no_shalika(table)
    key, phase, extra, weight, front = _torus_terms(ctx, n, psi.inverse)
    terms = weight * _cmul(_cmul(phase, np.stack([t.values[key] for t in tables])), extra)
    total = np.zeros(len(tables), dtype=complex)
    for column in terms.T:
        total += column
    gammas = front * total
    _unitarity_guard(gammas, "torus", tables)
    return gammas


def gamma_torus(table: BesselTable) -> GammaResult:
    """Route 2 for one table: `gamma_tori` on a block of one."""
    return GammaResult(complex(gamma_tori([table])[0]), "torus", {})


@lru_cache(maxsize=64)
def _closed_terms(ctx: FieldCtx, inverse: bool) -> tuple:
    """The representation-independent terms (j, w) of `gamma_closed_forms`
    at n = 3, 4, one per xi in F_{q^n}^x: j the dlog of xi^2 at level n, and
    w its weight under the additive character with this `inverse` flag,

        n = 3: w = psi(-Tr(xi^2) / N(xi)),
        n = 4: w = K_psi(1, b + c) + K_psi(1, b - c), b = Tr(1/xi^2) and
               c = Tr(xi^2) / N(xi),

    so that sum_xi w * theta(xi^2) is one `character_sums`."""
    n = ctx.n
    psi = AddChar(ctx, inverse)
    dlogs, weights = [], []
    for xi in ctx.subfield_units(n):
        xi2 = ctx.mul(xi, xi)
        wing = ctx.mul(ctx.trace(xi2, n, 1), ctx.inv(ctx.norm(xi, n, 1)))
        if n == 3:
            w = psi(ctx.neg(wing))
        else:
            # sum_b psi(-b + c/b) = K_psi(1, -c) with c = (a1 + a3 lam)/lam^2
            # at lam = +-N(xi), so the kernel is Tr(1/xi^2) +- Tr(xi^2)/N(xi)
            base = ctx.trace(ctx.inv(xi2), n, 1)
            w = (kloosterman(1, ctx.add(base, wing), psi)
                 + kloosterman(1, ctx.sub(base, wing), psi))
        dlogs.append(ctx.subfield_dlog(xi2, n))
        weights.append(w)
    return _read_only(np.array(dlogs), np.array(weights, dtype=complex))


def gamma_closed_forms(tables) -> np.ndarray:
    """Route 3 for a block of tables at one (q, n, psi): the printed
    character-sum forms for n = 2, 3, 4.  The Gauss sums of the central
    characters (n = 2, 4) and the sums over F_{q^n}^x (n = 3, 4) are each
    one `charkit.character_sums` of cached terms (`charkit._gauss_terms`,
    `_closed_terms`)."""
    ctx, n, psi = _block_cell(tables)
    q = ctx.q
    k = np.array([t.rep.exponent for t in tables], dtype=np.int64)
    if n == 2:
        _require_nontrivial(tables, 1, "n = 2 closed form needs a non-trivial"
                                       " central character")
        gammas = q ** -0.5 * character_sums(*_gauss_terms(ctx, psi.inverse), q - 1, k)
    elif n == 3:
        gammas = q ** -1.5 * character_sums(*_closed_terms(ctx, psi.inverse),
                                            q ** 3 - 1, k)
    elif n == 4:
        _require_nontrivial(tables, 2, "n = 4 closed form needs theta"
                                       " non-trivial on the quadratic subfield")
        t0 = np.where(k % (q - 1) == 0, q * q - 1, 0)
        g_sums = character_sums(*_gauss_terms(ctx, psi.inverse), q - 1, k)
        sums = character_sums(*_closed_terms(ctx, psi.inverse), q ** 4 - 1, k)
        gammas = t0 / q ** 2 - 0.5 * q ** -3 * g_sums * sums
    else:
        raise UnsupportedN(f"no closed form for n = {n}")
    _unitarity_guard(gammas, "closed_form", tables)
    return gammas


def _require_nontrivial(tables, d: int, message: str):
    for table in tables:
        if restriction_is_trivial(table.rep.theta, d):
            raise PreconditionViolated(f"{message} (theta = {table.rep.exponent})")


def gamma_closed(table: BesselTable) -> GammaResult:
    """Route 3 for one table: `gamma_closed_forms` on a block of one."""
    return GammaResult(complex(gamma_closed_forms([table])[0]), "closed_form", {})


def _unitarity_guard(gammas: np.ndarray, route: str, tables):
    """Refuse the first gamma of a block of tables off the unit circle."""
    require_within(np.abs(modulus(gammas) - 1.0), UNITARITY_TOL,
                   [table.rep.exponent for table in tables],
                   lambda i, where: OracleFailed(
                       "unitarity", f"|gamma| = {abs(gammas[i])} on route {route} {where}"))


def s0_s1_decomposition(table: BesselTable):
    """The S0/S1 split of the even torus sum: S0 collects compositions whose
    first block exceeds 1, S1 the Gauss-sum companion; reassembly recovers
    gamma."""
    _require_no_shalika(table)
    ctx = table.ctx
    n, m, odd = _split(table)
    if odd:
        raise PreconditionViolated("S0/S1 split applies to even n")
    q = ctx.q
    units = ctx.subfield_units(1)
    s0 = 0j
    for comp in mg.compositions(m):
        if comp[0] <= 1:
            continue
        weight = q ** (-sum(2 * (mi * (mi - 1) // 2) for mi in comp))
        for lams in itertools.product(units, repeat=len(comp)):
            t = mg.antidiag_elem(ctx, comp, lams, block_scale=2)
            s0 += weight * table.eval(t)
    s1 = 0j
    for comp in mg.compositions(m - 1):
        weight = q ** (-sum(2 * (mi * (mi - 1) // 2) for mi in comp))
        for lams in itertools.product(units, repeat=len(comp)):
            t = mg.antidiag_elem(ctx, (1,) + comp, (1,) + lams, block_scale=2)
            s1 += weight * table.eval(t)
    gsum = gauss_sum(table.rep.central_char, table.psi)
    exp2 = 2 * (m * (m - 1) // 2)
    gamma = q ** (-m / 2.0 + exp2) * (s0 + s1 * gsum)
    return s0, s1, gamma


# -- Shalika vectors -------------------------------------------------------------

@lru_cache(maxsize=64)
def _witness_terms(ctx: FieldCtx, n: int, inverse: bool) -> tuple:
    """The terms (scale, h) of `shalika_witness` under the additive
    character with this `inverse` flag: h = u(X) diag(g, g) sigma^-1 over
    the mirabolic cosets g and lower nilpotent X, scaled by psi(-tr X)."""
    m = n // 2
    sig_inv = _sigma_inv(ctx, n)
    psi = AddChar(ctx, inverse)
    terms = []
    for g in mg.mirabolic_coset_reps(ctx, m):
        dg = mg.shalika_diag(g)
        for x in mg.lower_nilpotent_reps(ctx, m):
            h = mg.mat_chain(ctx, mg.shalika_u(m, x), dg, sig_inv)
            terms.append((psi(ctx.neg(mg.mat_trace(ctx, x))), h))
    return tuple(terms)


def shalika_witness(table: BesselTable) -> WhittakerFun:
    """The candidate Shalika Whittaker function built from mirabolic cosets."""
    n, _, odd = _split(table)
    if odd:
        raise PreconditionViolated("Shalika vectors live at even n")
    return WhittakerFun(table, _witness_terms(table.ctx, n, table.psi.inverse))


@lru_cache(maxsize=64)
def _witness_rows(ctx: FieldCtx, n: int, inverse: bool) -> tuple:
    """(cell, key, weight): the rows of one `gather_sums` whose cell 0 is
    JS(W, 1) and cell 1 is W(sigma) for the witness W = sum_i scale_i
    B(. h_i) of every table at (q, n) under the additive character with this
    `inverse` flag (`_witness_terms`).  Cell 0 holds the js rows of the
    terms' compiled pool, weighted by scale_i psi(arg) / norm, as
    JS(W, 1) = sum_x js(W, delta_x); cell 1 holds the support signature of
    every sigma h_i on the support, from one `support_signatures` stack,
    weighted by scale_i psi(s)."""
    F = ctx.base
    scales, translates = zip(*_witness_terms(ctx, n, inverse))
    scales = np.array(scales, dtype=complex)
    psi = AddChar(ctx, inverse).values
    pool = _compile_pool(ctx, n, translates)
    js = pool.js_rows
    js_weight = scales[pool.cell[js] // pool.size] * psi[pool.arg[js]] / _norm_const(ctx, n)
    key, s = support_signatures(ctx, mg.batch_mat_mul(
        ctx, F.codes(np.array(mg.sigma_perm(n))), F.codes(np.array(translates))))
    on = key >= 0
    return _read_only(np.repeat([0, 1], [len(js_weight), np.count_nonzero(on)]),
                      np.concatenate([pool.key[js], key[on]]),
                      np.concatenate([js_weight, scales[on] * psi[s[on]]]))


def shalika_detect(tables, samples: int = 1000, seed: int = DEFAULT_SEED) -> list:
    """The divisibility criterion (q^m - 1) | k of each table of a block at
    one (q, n, psi), n = 2m, cross-checked: a table meeting it must have a
    witness (`shalika_witness`) with JS(W, 1) = W(sigma) != 0, and any other
    JS(W, 1) = sum_x JS(W, delta_x) = 0 on every translate of `_fe_pool`
    (the canonical one and `samples` sampled translates).  Each side is one
    `gather_sums` over its tables: the witness's cached rows
    (`_witness_rows`), and the pool's js rows summed per translate, which
    needs no pairing product.
    Returns one (flag, report) per table; raises OracleFailed naming the
    first table whose witness check fails, else the first whose zero search
    fails."""
    ctx, n, psi = _block_cell(tables)
    if n % 2:
        raise PreconditionViolated("Shalika vectors live at even n")
    flags = [restriction_is_trivial(t.rep.theta, n // 2) for t in tables]
    reports = [{"criterion": flag} for flag in flags]
    values = np.stack([t.values for t in tables], axis=1)
    thetas = np.array([t.rep.exponent for t in tables])
    witness = [i for i, flag in enumerate(flags) if flag]
    if witness:
        sums = gather_sums(*_witness_rows(ctx, n, psi.inverse), values[:, witness], 2)
        val, at_sigma = sums.T
        # a witness whose JS(W, 1) is zero is off by inf
        off = np.where(within(np.abs(val), FE_TOL), np.inf, np.abs(val - at_sigma))
        require_within(off, FE_TOL, thetas[witness], lambda j, where: OracleFailed(
            "shalika_witness", f"JS(W,1) = {val[j]}, W(sigma) = {at_sigma[j]} {where}"))
        for i, (js_one, w_sigma) in zip(witness, sums.tolist()):
            reports[i].update(witness_js=js_one, witness_at_sigma=w_sigma)
    free = [i for i, flag in enumerate(flags) if not flag]
    if free:
        pool = _fe_pool(ctx, n, seed, samples)
        js = pool.js_rows
        sums = gather_sums(pool.cell[js] // pool.size, pool.key[js],
                           psi.values[pool.arg[js]], values[:, free], pool.translates)
        worst = np.abs(sums).max(axis=1) / _norm_const(ctx, n)
        require_within(worst, FE_TOL, thetas[free], lambda j, where: OracleFailed(
            "shalika_zero_search", f"JS(W,1) = {worst[j]} without the criterion {where}"))
        for i, value in zip(free, worst.tolist()):
            reports[i]["max_js_one"] = value
    return list(zip(flags, reports))


def broken_equation_witness(table: BesselTable):
    """In the Shalika case: a pair with js = 1 but dual_js = 0 (the
    functional equation cannot hold)."""
    ctx = table.ctx
    n, m, _ = _split(table)
    w = shalika_witness(table)
    one = CFun.constant(ctx, m, 1.0)
    return js(table, w, one), dual_js(table, w, one)


# -- appendix multiplicity bounds -------------------------------------------------

@lru_cache(maxsize=64)
def _subgroup_classes(ctx: FieldCtx, n: int) -> tuple:
    """(classes, counts): counts[c] elements of the appendix subgroup H of
    `homdim_check` lie in classes[c], H typed as one `mg.class_ids` stack."""
    m = n // 2
    gl = mg.all_gl(ctx, m)
    zero = mg.zero(m)
    if n % 2 == 0:
        e_last = tuple(1 if j == m - 1 else 0 for j in range(m))
        group = [mg.from_blocks([[g1, zero], [zero, g2]]) for g1 in gl for g2 in gl
                 if g2[m - 1] == e_last]
    else:
        tail = [mg.zero(1, m), mg.zero(1, m), mg.identity(1)]
        group = [mg.from_blocks([[g1, zero, tuple((x,) for x in u)],
                                 [zero, g2, mg.zero(m, 1)], tail])
                 for g1 in gl for g2 in gl
                 for u in itertools.product(ctx.subfield_elements(1), repeat=m)]
    classes = {}
    ids = mg.class_ids(ctx, ctx.base.codes(np.array(group)), classes)
    return (tuple(classes), *_read_only(np.bincount(ids, minlength=len(classes))))


def homdim_check(reps) -> list:
    """dim Hom_H(pi, 1) = |H|^{-1} sum_{h in H} chi(h) of each representation
    of a block at one (q, n), for the appendix subgroup H of matching
    parity: diag(g1, g2) with g2 mirabolic at even n, and
    [[g1, 0, u], [0, g2, 0], [0, 0, 1]] with u a column at odd n, read from
    H's class histogram and one `character_matrix` of the block.  Returns
    the dimensions; raises DimensionBoundViolated naming the first
    representation whose sum is not within HOMDIM_TOL of 0 or 1."""
    ctx, n = _block_field(reps)
    classes, counts = _subgroup_classes(ctx, n)
    chi = character_matrix(ctx, n, classes, [rep.exponent for rep in reps])
    values = np.einsum("c,ct->t", counts, chi) / counts.sum()
    nearest = np.round(values.real)
    # a sum nearest to neither 0 nor 1 is off by inf
    off = np.where((nearest == 0) | (nearest == 1), np.abs(values - nearest), np.inf)
    require_within(off, HOMDIM_TOL, [rep.exponent for rep in reps],
                   lambda i, where: DimensionBoundViolated(f"dim Hom = {values[i]} {where}"))
    return nearest.astype(int).tolist()
