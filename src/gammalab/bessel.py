"""The Bessel function of a cuspidal representation.

B(g) is the unique bi-psi-equivariant Whittaker function with B(I) = 1.  It
is supported on double cosets whose monomial part is an antidiagonal of
scalar blocks; the table stores one value per (composition, scalar tuple),
computed through the averaging formula

    B(t) = |N_n|^{-1} * sum_{u in N_n} chi(t u) psi^{-1}(u),

and arbitrary arguments reduce to table entries through the Bruhat
decomposition.  Every t u of the formula is typed by `matgrp.class_ids`.
Two character-sum forms are independent cross-checks of the same values:
one for the (1, n - 1) run at every n (at n = 3 the printed GL_3 form) and
the Deriziotis-Gotsis GL_4 form on composition (2, 2).
"""

from __future__ import annotations

import csv
import itertools
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .charkit import AddChar, _read_only, _roots_of_unity, character_sums
from .cuspchar import CuspidalRep, character_matrix
from .errors import OracleFailed, PreconditionViolated, name_int, require_within
from .ffield import FieldCtx
from . import matgrp as mg

#: the most class typings (|N_n| per support key) a support profile may
#: take; (q, n) = (2, 6) needs 1,048,576 and (4, 4) 786,432, while
#: (5, 4) needs 7,812,500, (3, 5) 9,565,938 and (2, 7) 134,217,728
MAX_CLASS_TYPINGS = 2 ** 21
#: the bound on |B(I) - 1|, the normalization every Bessel table is checked
#: against in `_tables`
NORMALIZATION_TOL = 1e-8
#: the most (row, representation) values `gather_sums` gathers at once: it
#: takes the rows of a block of T representations in passes of
#: PASS_VALUES // T, so its working memory does not grow with the rows
PASS_VALUES = 2 ** 13


def require_profile_size(q: int, n: int) -> None:
    """Refuse a cell whose support profile needs more than MAX_CLASS_TYPINGS
    class typings: |N_n| = q^(n(n-1)/2) for each of the (q - 1) * q^(n-1)
    support keys, q^a (q - 1) with a = (n - 1)(n + 2)/2, from (q, n) alone,
    for q >= 2.  It is at least 2^low, from bit lengths; past 2^256 it is
    not formed or printed, and is over the limit."""
    a = (n - 1) * (n + 2) // 2
    low = a * (q.bit_length() - 1) + (q - 1).bit_length() - 1
    typings = q ** a * (q - 1) if low <= 256 else f"at least 2^{low}"
    if low > 256 or typings > MAX_CLASS_TYPINGS:
        raise PreconditionViolated(
            f"the Bessel support profile at q = {name_int(q)}, n = {n} needs"
            f" {typings} class typings, over the limit of {MAX_CLASS_TYPINGS}")


@lru_cache(maxsize=64)
def support_keys(ctx: FieldCtx, n: int) -> tuple:
    """All (composition of n, scalar tuple) support parameters."""
    units = ctx.subfield_units(1)
    return tuple((comp, lams) for comp in mg.compositions(n)
                 for lams in itertools.product(units, repeat=len(comp)))


def _unipotents(ctx: FieldCtx, n: int):
    """Every u in N_n as a stack of base-field codes, in the order of
    `mg.all_unipotent`, with the codes of their superdiagonal sums."""
    F = ctx.base
    q = ctx.q
    spots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = q ** len(spots)
    unip = np.broadcast_to(np.eye(n, dtype=F.dtype), (count, n, n)).copy()
    idx = np.arange(count)
    for pos, (i, j) in enumerate(spots):
        unip[:, i, j] = idx // q ** (len(spots) - 1 - pos) % q
    sums = F.sum(unip[:, np.arange(n - 1), np.arange(1, n)])
    return unip, sums


class SupportProfile(NamedTuple):
    """The class-count histogram of t*u over u in N_n for every support key
    t, kept sparse: `classes` the conjugacy data `(d, k, alpha)` of each
    class id, with id 0 = None (the non-primary classes), and one row
    (key[r], cls[r], s[r], count[r]) per nonzero cell of

        C[key, c, s] = #{u in N_n : class(t u) = c, superdiag(u) = code s},

    sorted by (key, class, s), with keys in `support_keys` order."""
    classes: tuple
    key: np.ndarray
    cls: np.ndarray
    s: np.ndarray
    count: np.ndarray


@lru_cache(maxsize=64)
def _support_profile(ctx: FieldCtx, n: int) -> SupportProfile:
    """The support profile at (q, n), shared by every representation.
    Refused up front when it would type more than MAX_CLASS_TYPINGS classes.

    Built in array passes of `mg.BATCH_CHUNK` matrices t*u, each typed by
    the class-typing kernel `mg.class_ids` against one class map for the
    cell.  Each pass counts its distinct cells with `np.unique`, and the
    passes are merged at the end, so the rows held never outnumber the
    typings.  `mg.class_type` is the pointwise reference."""
    require_profile_size(ctx.q, n)
    keys = support_keys(ctx, n)
    F, q = ctx.base, ctx.q
    unip, sums = _unipotents(ctx, n)
    # t is monomial: row i of t*u is row spot[i] of u scaled by lam[i]
    spot = np.empty((len(keys), n), dtype=np.intp)
    lam = np.empty((len(keys), n), dtype=F.dtype)
    for row, key in enumerate(keys):
        t = mg.antidiag_elem(ctx, *key)
        spot[row] = [next(j for j, x in enumerate(r) if x) for r in t]
        lam[row] = F.codes([r[j] for r, j in zip(t, spot[row])])
    classes, cells, counts = {}, [], []  # classes: class data -> id, None = 0
    size = len(keys) * len(unip)
    # a cell's flat code (key * radix + class id) * q + s: class ids stay
    # below radix, as each typing adds at most one class
    radix = size + 1
    for lo in range(0, size, mg.BATCH_CHUNK):
        flat = np.arange(lo, min(lo + mg.BATCH_CHUNK, size))
        k, u = np.divmod(flat, len(unip))
        tu = F.mul(lam[k][:, :, None], unip[u[:, None], spot[k]])
        cls = mg.class_ids(ctx, tu, classes)
        cell, count = np.unique((k * radix + cls) * q + sums[u], return_counts=True)
        cells.append(cell)
        counts.append(count)
    cell, inverse = np.unique(np.concatenate(cells), return_inverse=True)
    count = np.bincount(inverse, np.concatenate(counts)).astype(np.int64)
    key, rest = np.divmod(cell, radix * q)
    return SupportProfile(tuple(classes), *_read_only(key, *np.divmod(rest, q), count))


@lru_cache(maxsize=64)
def _class_sums(ctx: FieldCtx, n: int, inverse: bool) -> tuple:
    """The nonzero class sums M[key, c] = sum_s C[key, c, s] * psibar(s) over
    the primary classes c of the support profile's histogram C, with psibar
    the inverse of the additive character whose `inverse` flag is given:
    B(t) = |N_n|^-1 * sum_c M[key(t), c] chi(c).  Kept sparse, as arrays
    (key, cls, value) sorted by (key, class) and read from the profile's
    rows with one weighted bincount per real and imaginary part; the
    non-primary class 0, where every character vanishes, is left out."""
    prof = _support_profile(ctx, n)
    live = prof.cls > 0
    pair, which = np.unique(prof.key[live] * len(prof.classes) + prof.cls[live],
                            return_inverse=True)
    weight = prof.count[live] * AddChar(ctx, not inverse).values[prof.s[live]]
    value = np.empty(len(pair), dtype=complex)
    value.real = np.bincount(which, weight.real, len(pair))
    value.imag = np.bincount(which, weight.imag, len(pair))
    return _read_only(*np.divmod(pair, len(prof.classes)), value)


def support_signature(ctx: FieldCtx, g: mg.Mat):
    """(table key, additive-character argument) of the Bessel evaluation at
    g, or None off the support; representation independent.  With
    lacc g racc = w d from `mg.bruhat_reduce`, g = u1 (w d) u2 for
    u1 = lacc^-1 and u2 = racc^-1, and a unipotent (I + N)^-1 has
    superdiagonal -superdiag(N): nothing is inverted."""
    monomial, lacc, racc = mg.bruhat_reduce(ctx, g)
    parsed = mg.parse_antidiag(monomial)
    if parsed is None:
        return None
    s = ctx.neg(ctx.add(mg.superdiag_sum(ctx, lacc), mg.superdiag_sum(ctx, racc)))
    return parsed, s


@lru_cache(maxsize=64)
def _key_lookup(ctx: FieldCtx, n: int):
    """Arrays that read a support key off a monomial matrix: the sorted
    codes sum_j row(j) n^j of the block antidiagonal permutations (row(j)
    the row of column j's entry) and, in the same order, the composition's
    first key, whether each column continues the block of the one before,
    and the mixed-radix weight of the scalar read at each column."""
    radix = n ** np.arange(n)
    perms, first, same, weight = [], [], [], []
    start = 0
    for comp in mg.compositions(n):
        t = mg.antidiag_elem(ctx, comp, (1,) * len(comp))
        row = np.array([[r[j] for r in t].index(1) for j in range(n)])
        perms.append(row @ radix)
        first.append(start)
        same.append(row[1:] == row[:-1] + 1)
        w = np.zeros(n, dtype=np.intp)
        top = 0
        for k, size in enumerate(comp):  # block k's scalar, read in its top row
            w[t[top].index(1)] = (ctx.q - 1) ** (len(comp) - 1 - k)
            top += size
        weight.append(w)
        start += (ctx.q - 1) ** len(comp)
    order = np.argsort(perms)
    return (np.array(perms)[order], np.array(first)[order], np.array(same)[order],
            np.array(weight)[order])


def support_signatures(ctx: FieldCtx, g):
    """`support_signature` of every matrix of a stack (B, n, n) of invertible
    base-field codes at once: (key, s), key the index into `support_keys`
    (-1 off the support) and s the code of the additive-character argument.
    The key is a permutation lookup, a check that the scalars are constant
    on each block and a mixed-radix index of the scalars."""
    F = ctx.base
    n = g.shape[1]
    monomial, lacc, racc, _ = mg.batch_bruhat(ctx, g)
    row = np.argmax(monomial != 0, axis=1)
    scalar = np.take_along_axis(monomial, row[:, None, :], axis=1)[:, 0].astype(np.intp)
    perms, first, same, weight = _key_lookup(ctx, n)
    code = row @ (n ** np.arange(n))
    at = np.minimum(np.searchsorted(perms, code), len(perms) - 1)
    on = (perms[at] == code) & ~(same[at] & (scalar[:, 1:] != scalar[:, :-1])).any(axis=1)
    key = np.where(on, first[at] + ((scalar - 1) * weight[at]).sum(axis=1), -1)
    diag = np.arange(n - 1)
    s = F.neg(F.add(F.sum(lacc[:, diag, diag + 1]), F.sum(racc[:, diag, diag + 1])))
    return key, s


class BesselTable:
    """Bessel values of (rep, psi) on the antidiagonal scalar-block torus:
    `values` in `support_keys` order, and `entries` the same values keyed
    by support key."""

    def __init__(self, rep: CuspidalRep, psi: AddChar, values: np.ndarray):
        self.rep = rep
        self.psi = psi
        self.ctx = rep.ctx
        self.n = rep.n
        self.values = values

    @cached_property
    def entries(self) -> dict:
        return dict(zip(support_keys(self.ctx, self.n), self.values.tolist()))

    def value(self, comp, scalars) -> complex:
        return self.entries[(tuple(comp), tuple(scalars))]

    def eval(self, g: mg.Mat) -> complex:
        """B(g) through the Bruhat decomposition and bi-equivariance."""
        sig = support_signature(self.ctx, g)
        return 0j if sig is None else self.psi(sig[1]) * self.entries[sig[0]]


def gather_sums(index, rows, weights, block, size: int) -> np.ndarray:
    """The (T x size) sums out[t, i] of block[rows[r], t] * weights[r] over
    the rows r with index[r] = i: the package's one sparse product of a
    block of T representations with a representation-independent map (the
    class sums of `_tables`, the pool rows of `exjs._pool_profiles`).  An
    unbuffered `np.add.at` adds every sum's terms in row order, in passes
    of PASS_VALUES values whose size does not change the result."""
    count = block.shape[1]
    out = np.zeros((count, size), dtype=complex)
    offset = np.arange(count) * size
    step = max(1, PASS_VALUES // count)
    for lo in range(0, len(index), step):
        part = slice(lo, lo + step)
        terms = block[rows[part]]
        terms *= weights[part, None]
        np.add.at(out.reshape(-1), (index[part, None] + offset).ravel(), terms.ravel())
    return out


def _tables(reps, psi: AddChar) -> list:
    """The Bessel tables of a block of representations at one (q, n), via
    the averaging formula: B[theta, key] = |N_n|^-1 * sum_c M[key, c]
    X[c, theta], one `gather_sums` of the cached sparse class sums M
    (`_class_sums`) against the character matrix X
    (`cuspchar.character_matrix`) of the whole block.  Its memory grows
    with the block: the caller chooses how many representations to compute
    together.  The normalization B(I) = 1 is asserted for every table."""
    ctx, n = reps[0].ctx, reps[0].n
    key, cls, value = _class_sums(ctx, n, psi.inverse)
    classes = _support_profile(ctx, n).classes
    chi = character_matrix(ctx, n, classes, [rep.exponent for rep in reps])
    values = gather_sums(key, cls, value, chi, len(support_keys(ctx, n)))
    values /= ctx.q ** (n * (n - 1) // 2)
    values.flags.writeable = False
    ident = values[:, support_keys(ctx, n).index(((n,), (1,)))]
    require_within(np.abs(ident - 1.0), NORMALIZATION_TOL, [rep.exponent for rep in reps],
                   lambda i, where: OracleFailed("bessel_normalization",
                                                 f"B(I) = {ident[i]} {where}"))
    return [BesselTable(rep, psi, row) for rep, row in zip(reps, values)]


def bessel_tables(ctx: FieldCtx, n: int, exponents, psi: AddChar) -> list:
    """One `BesselTable` per exponent k of a regular theta = gen^k of
    F_{q^n}^x, all from the cell's cached sums in one block (`_tables`)."""
    if n != ctx.n:
        raise PreconditionViolated(f"the field is built for n = {ctx.n}, not {n}")
    return _tables([CuspidalRep(ctx, k) for k in exponents], psi) if exponents else []


def bessel_build(rep: CuspidalRep, psi: AddChar) -> BesselTable:
    """The Bessel table of one representation: a block of one of
    `bessel_tables`."""
    return _tables([rep], psi)[0]


# -- closed forms -------------------------------------------------------------

def _norm_fibres(ctx: FieldCtx, n: int) -> dict:
    """c -> the xi of F_{q^n}^x with N(xi) = c, in `subfield_units(n)`
    order, for every c in F_q^x."""
    fibres = {}
    for xi in ctx.subfield_units(n):
        fibres.setdefault(ctx.norm(xi, n, 1), []).append(xi)
    return fibres


@lru_cache(maxsize=64)
def _closed_form_terms(ctx: FieldCtx, n: int, inverse: bool) -> tuple:
    """(dlogs, weights, quotient, central) of `bessel_closed_forms` under the
    additive character psi with this `inverse` flag: row c of the b = 1
    rows, c in `subfield_units(1)` order, is the fibre N(xi) = (-1)^(n-1) c
    (`_norm_fibres`, all of one length) with level-n dlogs and weights
    psi(-Tr xi); quotient holds the row of a / b for each unit pair (a, b)
    in `itertools.product` order, central the level-n dlog of each unit."""
    psi = AddChar(ctx, inverse)
    units = ctx.subfield_units(1)
    sign = ctx.pow(ctx.neg(1), n - 1)
    fibres = _norm_fibres(ctx, n)
    rows = [fibres[ctx.mul(sign, c)] for c in units]
    index = {u: i for i, u in enumerate(units)}
    return _read_only(np.array([[ctx.subfield_dlog(xi, n) for xi in row] for row in rows]),
                      np.array([[psi(ctx.neg(ctx.trace(xi, n, 1))) for xi in row]
                                for row in rows]),
                      np.array([index[ctx.mul(a, ctx.inv(b))]
                                for a, b in itertools.product(units, repeat=2)]),
                      np.array([ctx.subfield_dlog(b, n) for b in units]))


def bessel_closed_forms(ctx: FieldCtx, n: int, exponents, psi: AddChar) -> np.ndarray:
    """The Bessel functions of a block of regular theta = gen^k on the
    (1, n - 1) run of `support_keys`, for every n >= 2, as a
    ((q - 1)^2 x T) array, one row per unit pair (a, b) in
    `itertools.product` order:

        B(antidiag(a I_1, b I_{n-1})) = (-1)^(n-1) q^-(n-1)
            sum_{N(xi) = (-1)^(n-1) a b^(n-1)} psi(-Tr xi / b) theta(xi),

    an exotic Kloosterman sum over a norm fibre of F_{q^n}^x (at n = 3 the
    printed GL_3 form).  xi -> b xi maps the fibre of (a / b, 1) onto that
    of (a, b), so row (a, b) is omega(b) row(a / b, 1), omega the central
    character: one `character_sums` of the q - 1 cached b = 1 rows
    (`_closed_form_terms`), whose memory does not grow with the (q - 1)^2
    rows.  Independent of `bessel_tables`."""
    if n != ctx.n or n < 2:
        raise PreconditionViolated(f"no closed form for n = {n} in a field for n = {ctx.n}")
    q, m = ctx.q, ctx.q ** n - 1
    dlogs, weights, quotient, central = _closed_form_terms(ctx, n, psi.inverse)
    sums = character_sums(dlogs, weights, m, exponents)
    sums /= (-1) ** (n - 1) * q ** (n - 1)
    k = np.asarray(exponents, dtype=np.int64) % m
    rows = sums[quotient].reshape(q - 1, q - 1, len(k))
    rows *= _roots_of_unity(m)[central[:, None] * k % m]  # omega(b)
    return rows.reshape(-1, len(k))


@lru_cache(maxsize=64)
def _gl4_w6_terms(ctx: FieldCtx, inverse: bool) -> tuple:
    """(dlogs, weights) of the Deriziotis-Gotsis form at n = 4 under the
    additive character psi with this `inverse` flag: row (a, b), in
    `itertools.product` order, is the fibre N(xi) = (ab)^2 (`_norm_fibres`)
    with level-4 dlogs and weights -inner / q^4, inner the sum over beta in
    F_q^x of psi(-beta + (a1 + a3 ab) / (beta a b^2)), a3 = -Tr xi and
    a1 = -(ab)^2 Tr xi^-1, less q when xi lies in F_{q^2} but not in F_q
    and ab = -N_{F_{q^2}/F_q}(xi)."""
    q, n = ctx.q, 4
    psi = AddChar(ctx, inverse)
    units = ctx.subfield_units(1)
    fibres = _norm_fibres(ctx, n)
    dlogs, weights = [], []
    for a, b in itertools.product(units, repeat=2):
        ab = ctx.mul(a, b)
        det, ab2 = ctx.mul(ab, ab), ctx.mul(ab, b)
        fibre = fibres[det]
        dlogs.append([ctx.subfield_dlog(xi, n) for xi in fibre])
        row = []
        for xi in fibre:
            numer = ctx.add(ctx.neg(ctx.mul(ctx.trace(ctx.inv(xi), n, 1), det)),
                            ctx.mul(ctx.neg(ctx.trace(xi, n, 1)), ab))
            inner = 0j
            if (ctx.in_subfield(xi, 2) and not ctx.in_subfield(xi, 1)
                    and ab == ctx.neg(ctx.norm(xi, 2, 1))):
                inner += -q
            for beta in units:
                inner += psi(ctx.add(ctx.neg(beta),
                                     ctx.mul(numer, ctx.inv(ctx.mul(beta, ab2)))))
            row.append(-inner / q ** 4)
        weights.append(row)
    return _read_only(np.array(dlogs), np.array(weights, dtype=complex))


def _pair_row(ctx: FieldCtx, a: int, b: int) -> int:
    """The row of the unit pair (a, b) in `itertools.product` order."""
    units = ctx.subfield_units(1)
    return units.index(a) * len(units) + units.index(b)


def bessel_closed_form_gl3(rep: CuspidalRep, psi: AddChar, lam1: int, lam2: int) -> complex:
    """B(antidiag(lam1 I_1, lam2 I_2)): the n = 3 row of `bessel_closed_forms`."""
    return complex(bessel_closed_forms(rep.ctx, 3, [rep.exponent], psi)[
        _pair_row(rep.ctx, lam1, lam2), 0])


def bessel_closed_form_gl4(rep: CuspidalRep, psi: AddChar, mu: int, nu: int) -> complex:
    """B(t w6) for t = diag(mu I_2, nu I_2), w6 the block flip: the
    Deriziotis-Gotsis sum over F_{q^4}, a check on the composition (2, 2)
    keys."""
    if rep.n != 4:
        raise PreconditionViolated("closed form is for n = 4")
    dlogs, weights = _gl4_w6_terms(rep.ctx, psi.inverse)
    row = _pair_row(rep.ctx, mu, nu)
    return complex(character_sums(dlogs[row], weights[row], rep.q ** 4 - 1,
                                  [rep.exponent])[0])


def export_bessel_csv(table: BesselTable, path) -> None:
    """Write the table as CSV: composition, scalars as base-field dlog
    exponents, re, im.  First line carries the schema version."""
    ctx = table.ctx
    with open(path, "w", newline="") as fh:
        fh.write("# schema gammalab/1 bessel-table"
                 f" q={ctx.q} n={table.n} theta={table.rep.exponent}"
                 f" psi_inverse={int(table.psi.inverse)}\n")
        writer = csv.writer(fh)
        writer.writerow(["composition", "scalars", "re", "im"])
        for (comp, scalars) in sorted(table.entries):
            val = table.entries[(comp, scalars)]
            comp_s = "+".join(str(c) for c in comp)
            dlogs = "+".join(str(ctx.subfield_dlog(s, 1)) for s in scalars)
            writer.writerow([comp_s, dlogs, repr(float(val.real)),
                             repr(float(val.imag))])
