"""The Bessel function of a cuspidal representation.

B(g) is the unique bi-psi-equivariant Whittaker function with B(I) = 1.  It
is supported on double cosets whose monomial part is an antidiagonal of
scalar blocks; the table stores one value per (composition, scalar tuple),
computed through the averaging formula

    B(t) = |N_n|^{-1} * sum_{u in N_n} chi(t u) psi^{-1}(u),

and arbitrary arguments reduce to table entries through the Bruhat
decomposition.  The printed GL_3 and GL_4 closed forms are implemented as
independent cross-checks of the same values.
"""

from __future__ import annotations

import csv
import itertools
from functools import lru_cache

import numpy as np

from .charkit import TOL, AddChar
from .cuspchar import CuspidalRep
from .errors import OracleFailed, PreconditionViolated, Singular
from .ffield import FieldCtx
from . import matgrp as mg

#: the most class typings (|N_n| per support key) a support profile may
#: take; (q, n) = (2, 6) needs 1,048,576 and (4, 4) 786,432, while
#: (5, 4) needs 7,812,500, (3, 5) 9,565,938 and (2, 7) 134,217,728
MAX_CLASS_TYPINGS = 2 ** 21


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


@lru_cache(maxsize=64)
def _support_profile(ctx: FieldCtx, n: int) -> tuple:
    """The class-count histogram of t*u over u in N_n, for each support key
    t; shared by every representation at this (q, n).  Returns (classes,
    counts): `classes` the conjugacy data `(d, k, alpha)` of each class id,
    with id 0 = None (the non-primary classes), and `counts` the read-only
    integer array (keys x classes x q), in `support_keys` order, of

        C[key, c, s] = #{u in N_n : class(t u) = c, superdiag(u) = code s}.

    Refused up front when it would type more than MAX_CLASS_TYPINGS classes.

    Built in array passes of `mg.BATCH_CHUNK` matrices t*u: their
    characteristic polynomials (`mg.batch_charpoly`), the factorisation of
    each distinct one (`mg._primary_factor`), and, only where f^mult has
    mult > 1, the kernel rank of f(t*u) (`mg.batch_rank`); each pass is
    counted into the histogram as it goes.  `mg.class_type` is the
    pointwise reference."""
    keys = support_keys(ctx, n)
    typings = ctx.q ** (n * (n - 1) // 2) * len(keys)
    if typings > MAX_CLASS_TYPINGS:
        raise PreconditionViolated(
            f"the Bessel support profile at q = {ctx.q}, n = {n} needs"
            f" {typings} class typings, over the limit of {MAX_CLASS_TYPINGS}")
    F = ctx.base
    q = ctx.q
    unip, sums = _unipotents(ctx, n)
    # t is monomial: row i of t*u is row spot[i] of u scaled by lam[i]
    spot = np.empty((len(keys), n), dtype=np.intp)
    lam = np.empty((len(keys), n), dtype=F.dtype)
    for row, key in enumerate(keys):
        t = mg.antidiag_elem(ctx, *key)
        spot[row] = [next(j for j, x in enumerate(r) if x) for r in t]
        lam[row] = F.codes([r[j] for r, j in zip(t, spot[row])])
    classes = {None: 0}  # class data -> class id
    kinds = {}  # charpoly code -> `_poly_kind`
    digits = q ** np.arange(n)
    counts = np.zeros((len(keys), 0), dtype=np.int64)  # key x (class id * q + s)
    size = len(keys) * len(unip)
    for lo in range(0, size, mg.BATCH_CHUNK):
        flat = np.arange(lo, min(lo + mg.BATCH_CHUNK, size))
        k, u = np.divmod(flat, len(unip))
        tu = F.mul(lam[k][:, :, None], unip[u[:, None], spot[k]])
        polys = mg.batch_charpoly(ctx, tu)
        codes, first, inverse = np.unique(polys[:, :n] @ digits, return_index=True,
                                          return_inverse=True)
        for code, at in zip(codes.tolist(), first.tolist()):
            if code not in kinds:
                kinds[code] = _poly_kind(ctx, F.elems[polys[at]].tolist(), classes)
        chunk_kinds = [kinds[code] for code in codes.tolist()]
        cls = np.array([cid for cid, _ in chunk_kinds])[inverse]
        rank = np.array([need is not None for _, need in chunk_kinds])[inverse]
        if rank.any():
            cls[rank] = _kernel_classes(ctx, tu[rank], chunk_kinds, inverse[rank],
                                        classes)
        width = len(classes) * q
        if width > counts.shape[1]:
            counts = np.pad(counts, ((0, 0), (0, width - counts.shape[1])))
        k0, k1 = int(k[0]), int(k[-1]) + 1
        counts[k0:k1] += np.bincount((k - k0) * width + cls * q + sums[u],
                                     minlength=(k1 - k0) * width).reshape(-1, width)
    counts = counts.reshape(len(keys), len(classes), q)
    counts.flags.writeable = False
    return tuple(classes), counts


@lru_cache(maxsize=64)
def _class_sums(ctx: FieldCtx, n: int, inverse: bool) -> np.ndarray:
    """M[key, c] = sum_s C[key, c, s] * psibar(s) over the support profile's
    histogram C, with psibar the inverse of the additive character whose
    `inverse` flag is given: B(t) = |N_n|^-1 * sum_c M[key(t), c] chi(c)."""
    _, counts = _support_profile(ctx, n)
    psi_bar = AddChar(ctx, not inverse)
    # einsum rather than @ here and in `bessel_build`: a first BLAS call
    # alone adds about 0.5 MB to the peak memory of a cell
    out = np.einsum("kcs,s->kc", counts,
                    np.array([psi_bar(s) for s in ctx.subfield_elements(1)]))
    out.flags.writeable = False
    return out


def _poly_kind(ctx: FieldCtx, poly: list, classes: dict):
    """(class id, None) of the matrices with charpoly `poly`, or, when it is
    f^mult with mult > 1 and the class needs the kernel rank of f(g),
    (0, (d, alpha, codes of f))."""
    primary = mg._primary_factor(ctx, tuple(poly))
    if primary is None:
        return 0, None
    d, mult, alpha, f = primary
    if mult == 1:  # f(g) = 0 (Cayley-Hamilton), so k = 1
        return classes.setdefault((d, 1, alpha), len(classes)), None
    return 0, (d, alpha, ctx.base.codes(f))


def _kernel_classes(ctx: FieldCtx, g, kinds: list, which, classes: dict):
    """Class ids of a stack g of matrices, the i-th of charpoly f^mult with
    mult > 1 and (d, alpha, f) = kinds[which[i]][1]: k = dim ker f(g) / d,
    with f(g) by Horner's rule and f padded to degree n / 2."""
    F = ctx.base
    n = g.shape[1]
    coef = np.zeros((len(kinds), n // 2 + 1), dtype=F.dtype)
    for i, (_, need) in enumerate(kinds):
        if need is not None:
            coef[i, :need[2].size] = need[2]
    coef = coef[which]
    diag = np.arange(n)
    fg = np.zeros_like(g)
    for i in range(n // 2, -1, -1):
        fg = mg.batch_mat_mul(ctx, fg, g)
        fg[:, diag, diag] = F.add(fg[:, diag, diag], coef[:, i, None])
    combos, inverse = np.unique(which * (n + 1) + n - mg.batch_rank(ctx, fg),
                                return_inverse=True)
    ids = []
    for combo in combos.tolist():
        i, kdim = divmod(combo, n + 1)
        d, alpha, _ = kinds[i][1]
        if kdim % d:
            raise Singular("kernel dimension incompatible with factor degree")
        ids.append(classes.setdefault((d, kdim // d, alpha), len(classes)))
    return np.array(ids)[inverse]


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
        self.entries = dict(zip(support_keys(self.ctx, self.n), values.tolist()))

    def value(self, comp, scalars) -> complex:
        return self.entries[(tuple(comp), tuple(scalars))]

    def eval(self, g: mg.Mat) -> complex:
        """B(g) through the Bruhat decomposition and bi-equivariance."""
        sig = support_signature(self.ctx, g)
        return 0j if sig is None else self.psi(sig[1]) * self.entries[sig[0]]


def bessel_build(rep: CuspidalRep, psi: AddChar) -> BesselTable:
    """Tabulate B on every antidiagonal scalar-block element via the
    averaging formula, as one product of the cached class sums
    (`_class_sums`) with the character on the profile's classes; the
    normalization B(I) = 1 is asserted."""
    ctx, n = rep.ctx, rep.n
    classes, _ = _support_profile(ctx, n)
    chi = np.array([rep.char_of_class(data) for data in classes])
    values = (np.einsum("kc,c->k", _class_sums(ctx, n, psi.inverse), chi)
              / ctx.q ** (n * (n - 1) // 2))
    values.flags.writeable = False
    table = BesselTable(rep, psi, values)
    ident = table.value((n,), (1,))
    if abs(ident - 1.0) > TOL:
        raise OracleFailed("bessel_normalization", f"B(I) = {ident}")
    return table


def bessel_eval(table: BesselTable, g: mg.Mat) -> complex:
    return table.eval(g)


# -- printed closed forms -----------------------------------------------------

def bessel_closed_form_gl3(rep: CuspidalRep, psi: AddChar, lam1: int, lam2: int) -> complex:
    """B(antidiag(lam1 I_1, lam2 I_2)) as a character sum over F_{q^3}."""
    if rep.n != 3:
        raise PreconditionViolated("closed form is for n = 3")
    ctx = rep.ctx
    target = ctx.mul(lam1, ctx.mul(lam2, lam2))
    inv_l2 = ctx.inv(lam2)
    total = 0j
    for xi in ctx.subfield_units(3):
        if ctx.norm(xi, 3, 1) != target:
            continue
        arg = ctx.neg(ctx.mul(inv_l2, ctx.trace(xi, 3, 1)))
        total += psi(arg) * rep.theta(xi)
    return total / ctx.q ** 2


def bessel_closed_form_gl4(rep: CuspidalRep, psi: AddChar, mu: int, nu: int) -> complex:
    """B(t w6) for t = diag(mu I_2, nu I_2), w6 the block flip: the
    Deriziotis-Gotsis sum over F_{q^4}."""
    if rep.n != 4:
        raise PreconditionViolated("closed form is for n = 4")
    ctx = rep.ctx
    q = ctx.q
    det_t = ctx.mul(ctx.mul(mu, mu), ctx.mul(nu, nu))
    mu_nu = ctx.mul(mu, nu)
    mu_nu2 = ctx.mul(mu_nu, nu)
    units_base = ctx.subfield_units(1)
    total = 0j
    for xi in ctx.subfield_units(4):
        if ctx.norm(xi, 4, 1) != det_t:
            continue
        a3 = ctx.neg(ctx.trace(xi, 4, 1))
        a1 = ctx.neg(ctx.mul(ctx.trace(ctx.inv(xi), 4, 1), ctx.norm(xi, 4, 1)))
        numer = ctx.add(a1, ctx.mul(a3, mu_nu))
        inner = 0j
        if ctx.in_subfield(xi, 2) and not ctx.in_subfield(xi, 1) \
                and mu_nu == ctx.neg(ctx.norm(xi, 2, 1)):
            inner += -q
        for beta in units_base:
            arg = ctx.add(ctx.neg(beta),
                          ctx.mul(numer, ctx.inv(ctx.mul(beta, mu_nu2))))
            inner += psi(arg)
        total += (-inner / q ** 4) * rep.theta(xi)
    return total


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
