"""Matrix machinery over the base field F_q.

Matrices are tuples of row tuples of field-element indices, all entries in
the degree-1 subfield of the ambient context.  Everything here is pure:
Bruhat decomposition, canonical coset systems for N\\G and B\\M, the
interleaving shuffles, antidiagonal block elements, and conjugacy-class
typing (primary or not) used by the character formula.

The primary classes (d, alpha) have one home, `primary_charpolys`: a table
per (ctx, n), built from the Frobenius orbits of F_{q^d} for d | n, that
maps each primary characteristic polynomial f^(n/d) to (d, n/d, alpha, f).
`class_type`, `class_ids` and `cuspchar.primary_class_inventory` all read
it; no polynomial is factored.

The representation-independent tables (support profiles, functional-equation
pools) are built by batched kernels on stacks of matrices given as numpy
arrays of base-field codes (`FieldCtx.base`): `batch_mat_mul`,
`batch_bruhat` with `batch_rank`, `batch_charpoly`, and `class_ids`, the
one class-typing kernel of every stack.  The pointwise functions stay the
path of single matrices and the reference the kernels are tested against.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatch, Singular, ZeroScalar
from .ffield import FieldCtx, _ptrim

Mat = tuple  # tuple of row tuples

BruhatDecomp = namedtuple("BruhatDecomp", "u1 w d u2")
ClassType = namedtuple("ClassType", "primary d c alpha k")


# -- basic matrix arithmetic --------------------------------------------------

def identity(n: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero(n: int, m: int = None) -> Mat:
    m = n if m is None else m
    return tuple((0,) * m for _ in range(n))


def mat_mul(ctx: FieldCtx, a: Mat, b: Mat) -> Mat:
    add, mul = ctx.add, ctx.mul
    bt = tuple(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in bt:
            s = 0
            for x, y in zip(row, col):
                if x and y:
                    s = add(s, mul(x, y))
            orow.append(s)
        out.append(tuple(orow))
    return tuple(out)


def mat_chain(ctx: FieldCtx, *ms: Mat) -> Mat:
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(ctx, out, m)
    return out


def transpose(a: Mat) -> Mat:
    return tuple(zip(*a))


def scalar_mul(ctx: FieldCtx, lam: int, a: Mat) -> Mat:
    return tuple(tuple(ctx.mul(lam, x) for x in row) for row in a)


def mat_trace(ctx: FieldCtx, a: Mat) -> int:
    t = 0
    for i in range(len(a)):
        t = ctx.add(t, a[i][i])
    return t


def superdiag_sum(ctx: FieldCtx, u: Mat) -> int:
    s = 0
    for i in range(len(u) - 1):
        s = ctx.add(s, u[i][i + 1])
    return s


def _reduce_rows(ctx: FieldCtx, rows):
    """The reduced row echelon form of a list of rows over F_q, column by
    column with the first nonzero row at or below the next pivot row as
    pivot: (the reduced rows, as lists, and the pivot columns in order),
    row i of the result the pivot row of the i-th pivot column.  The one
    pointwise row reduction, behind `rank`, `mat_inv` and
    `canonical_unipotent_coset`."""
    rows = [list(r) for r in rows]
    add, mul, inv, neg = ctx.add, ctx.mul, ctx.inv, ctx.neg
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        ipiv = inv(rows[r][col])
        rows[r] = [mul(ipiv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = neg(rows[i][col])
                rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def mat_inv(ctx: FieldCtx, a: Mat) -> Mat:
    """a^-1, the right half of the reduced [a | I]: a is invertible when
    the pivots are the first n columns."""
    n = len(a)
    rows, pivots = _reduce_rows(
        ctx, [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(a)])
    if pivots[:n] != list(range(n)):
        raise Singular("matrix is not invertible")
    return tuple(tuple(row[n:]) for row in rows)


def rank(ctx: FieldCtx, a: Mat) -> int:
    return len(_reduce_rows(ctx, a)[1])


def is_invertible(ctx: FieldCtx, a: Mat) -> bool:
    return rank(ctx, a) == len(a)


def vec_mat(ctx: FieldCtx, v, a: Mat) -> tuple:
    """The row vector v a."""
    add, mul = ctx.add, ctx.mul
    out = []
    for col in transpose(a):
        s = 0
        for x, y in zip(col, v):
            if x and y:
                s = add(s, mul(x, y))
        out.append(s)
    return tuple(out)


# -- block assembly -----------------------------------------------------------

def from_blocks(rows_of_blocks) -> Mat:
    out = []
    for brow in rows_of_blocks:
        height = len(brow[0])
        for i in range(height):
            out.append(tuple(itertools.chain(*(blk[i] for blk in brow))))
    return tuple(out)


def shalika_u(m: int, x: Mat) -> Mat:
    """[[I, X], [0, I]] of size 2m."""
    return from_blocks([[identity(m), x], [zero(m), identity(m)]])


def shalika_diag(g: Mat) -> Mat:
    m = len(g)
    return from_blocks([[g, zero(m)], [zero(m), g]])


def odd_u(m: int, x: Mat) -> Mat:
    """[[I, X, 0], [0, I, 0], [0, 0, 1]] of size 2m+1."""
    return from_blocks([
        [identity(m), x, zero(m, 1)],
        [zero(m), identity(m), zero(m, 1)],
        [zero(1, m), zero(1, m), identity(1)],
    ])


def odd_diag(g: Mat) -> Mat:
    m = len(g)
    return from_blocks([
        [g, zero(m), zero(m, 1)],
        [zero(m), g, zero(m, 1)],
        [zero(1, m), zero(1, m), identity(1)],
    ])


def odd_lower(m: int, z) -> Mat:
    """[[I, 0, 0], [0, I, 0], [0, Z, 1]] with Z a row vector of length m."""
    rows = [list(r) for r in identity(2 * m + 1)]
    for j in range(m):
        rows[2 * m][m + j] = z[j]
    return tuple(tuple(r) for r in rows)


def odd_upper_right(m: int, y) -> Mat:
    """[[I, 0, Y], [0, I, 0], [0, 0, 1]] with Y a column vector of length m."""
    rows = [list(r) for r in identity(2 * m + 1)]
    for i in range(m):
        rows[i][2 * m] = y[i]
    return tuple(tuple(r) for r in rows)


# -- shuffles and antidiagonal elements --------------------------------------

def perm_matrix(perm) -> Mat:
    """Column permutation matrix: column j is the standard vector e_perm(j)."""
    n = len(perm)
    return tuple(tuple(1 if perm[j] == i else 0 for j in range(n)) for i in range(n))


def sigma_perm(n: int) -> Mat:
    """The interleaving shuffle: columns 1..m go to 1,3,..,2m-1 and columns
    m+1..2m go to 2,4,..,2m; for odd n the last column is fixed."""
    if n < 2:
        raise ZeroScalar("shuffle needs n >= 2")
    m = n // 2
    perm = [0] * n
    for j in range(m):
        perm[j] = 2 * j
        perm[m + j] = 2 * j + 1
    if n % 2:
        perm[2 * m] = 2 * m
    return perm_matrix(perm)


def antidiag_elem(ctx: FieldCtx, weights, scalars, block_scale: int = 1,
                  tail_one: bool = False) -> Mat:
    """antidiag(lam_1 I_{t*m_1}, ..., lam_r I_{t*m_r} [, I_1])."""
    if any(s == 0 for s in scalars):
        raise ZeroScalar("antidiagonal scalars must be nonzero")
    sizes = [block_scale * m for m in weights]
    lams = list(scalars)
    if tail_one:
        sizes.append(1)
        lams.append(1)
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    row_off = 0
    col_hi = n
    for size, lam in zip(sizes, lams):
        col_off = col_hi - size
        for i in range(size):
            rows[row_off + i][col_off + i] = lam
        row_off += size
        col_hi = col_off
    return tuple(tuple(r) for r in rows)


def parse_antidiag(m: Mat):
    """If m = antidiag(lam_1 I_{n_1}, ..., lam_r I_{n_r}) return
    (composition, scalars); otherwise None.  m must be monomial."""
    n = len(m)
    comp, scalars = [], []
    row = 0
    col_hi = n
    while row < n:
        j = next((c for c in range(n) if m[row][c]), None)
        if j is None or j >= col_hi:
            return None
        size = col_hi - j
        lam = m[row][j]
        if row + size > n:
            return None
        for t in range(size):
            r = row + t
            expected = j + t
            nz = [c for c in range(n) if m[r][c]]
            if nz != [expected] or m[r][expected] != lam:
                return None
        comp.append(size)
        scalars.append(lam)
        col_hi = j
        row += size
    if col_hi != 0:
        return None
    return tuple(comp), tuple(scalars)


def compositions(m: int):
    """All ordered compositions of m, in a fixed deterministic order."""
    if m == 0:
        return [()]
    out = []
    for first in range(1, m + 1):
        for rest in compositions(m - first):
            out.append((first,) + rest)
    return out


# -- Bruhat decomposition ------------------------------------------------------

def bruhat_reduce(ctx: FieldCtx, g: Mat):
    """The elimination behind `bruhat`: (monomial, lacc, racc) as lists of
    rows, with lacc * g * racc = monomial = w d and lacc, racc upper
    unipotent, so g = lacc^-1 (w d) racc^-1."""
    n = len(g)
    work = [list(r) for r in g]
    add, mul, inv, neg = ctx.add, ctx.mul, ctx.inv, ctx.neg
    lacc = [[0] * n for _ in range(n)]
    racc = [[0] * n for _ in range(n)]
    for i in range(n):
        lacc[i][i] = racc[i][i] = 1
    for j in range(n):
        piv = next((i for i in range(n - 1, -1, -1) if work[i][j]), None)
        if piv is None:
            raise Singular("matrix is not invertible")
        ip = inv(work[piv][j])
        # clear the column above the pivot with lower-row additions
        for r in range(piv):
            if work[r][j]:
                f = neg(mul(work[r][j], ip))
                work[r] = [add(x, mul(f, y)) for x, y in zip(work[r], work[piv])]
                lacc[r] = [add(x, mul(f, y)) for x, y in zip(lacc[r], lacc[piv])]
        # clear the pivot row to the right with earlier-column additions
        for c in range(j + 1, n):
            if work[piv][c]:
                f = neg(mul(work[piv][c], ip))
                for i in range(n):
                    work[i][c] = add(work[i][c], mul(f, work[i][j]))
                    racc[i][c] = add(racc[i][c], mul(f, racc[i][j]))
    return work, lacc, racc


def bruhat(ctx: FieldCtx, g: Mat) -> BruhatDecomp:
    """g = u1 * (w d) * u2 with u1, u2 upper unipotent, w a permutation
    matrix and d diagonal; (w, d) is unique."""
    n = len(g)
    monomial, lacc, racc = bruhat_reduce(ctx, g)
    perm = [0] * n
    dvals = [0] * n
    for j in range(n):
        i = next(i for i in range(n) if monomial[i][j])
        perm[j] = i
        dvals[j] = monomial[i][j]
    w = perm_matrix(perm)
    d = tuple(tuple(dvals[j] if i == j else 0 for j in range(n)) for i in range(n))
    u1 = mat_inv(ctx, tuple(tuple(r) for r in lacc))
    u2 = mat_inv(ctx, tuple(tuple(r) for r in racc))
    return BruhatDecomp(u1, w, d, u2)


# -- coset systems -------------------------------------------------------------

def canonical_unipotent_coset(ctx: FieldCtx, g: Mat) -> Mat:
    """The canonical representative of N g (N = upper unipotent): each row is
    reduced modulo the row space of the rows below it, against their
    reduced row echelon basis."""
    rows = [list(r) for r in g]
    add, mul, neg = ctx.add, ctx.mul, ctx.neg
    for i in range(len(g) - 2, -1, -1):
        basis, pivots = _reduce_rows(ctx, rows[i + 1:])
        for col, b in zip(pivots, basis):
            if rows[i][col]:
                f = neg(rows[i][col])
                rows[i] = [add(x, mul(f, y)) for x, y in zip(rows[i], b)]
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=64)
def all_gl(ctx: FieldCtx, m: int) -> tuple:
    """Every invertible m x m matrix over F_q, in a deterministic order."""
    elems = ctx.subfield_elements(1)
    rows = list(itertools.product(elems, repeat=m))
    out = []
    for mat in itertools.product(rows, repeat=m):
        if is_invertible(ctx, mat):
            out.append(mat)
    return tuple(out)


def _triangular(ctx: FieldCtx, m: int, upper: bool) -> tuple:
    """Every m x m matrix with free entries strictly above (`upper`, with
    ones on the diagonal) or strictly below the diagonal (with zeros on
    it), and zeros elsewhere: the free entries run over F_q in
    `itertools.product` order, taken row by row."""
    elems = ctx.subfield_elements(1)
    positions = [(i, j) for i in range(m) for j in range(m) if (j > i if upper else j < i)]
    out = []
    for vals in itertools.product(elems, repeat=len(positions)):
        rows = [[int(upper and i == j) for j in range(m)] for i in range(m)]
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


@lru_cache(maxsize=64)
def all_unipotent(ctx: FieldCtx, m: int) -> tuple:
    """The group N_m of upper unipotent matrices."""
    return _triangular(ctx, m, upper=True)


@lru_cache(maxsize=64)
def lower_nilpotent_reps(ctx: FieldCtx, m: int) -> tuple:
    """Strictly lower triangular matrices: the coset system B\\M."""
    return _triangular(ctx, m, upper=False)


@lru_cache(maxsize=64)
def unipotent_coset_reps(ctx: FieldCtx, m: int) -> tuple:
    """Canonical representatives for N\\GL_m(F_q)."""
    if m == 1:
        return tuple(((x,),) for x in ctx.subfield_units(1))
    reps = {canonical_unipotent_coset(ctx, g) for g in all_gl(ctx, m)}
    return tuple(sorted(reps))


@lru_cache(maxsize=64)
def mirabolic_coset_reps(ctx: FieldCtx, m: int) -> tuple:
    """Canonical representatives for N\\P_m, P_m the mirabolic subgroup."""
    if m == 1:
        return (identity(1),)
    e_last = tuple(1 if j == m - 1 else 0 for j in range(m))
    reps = {canonical_unipotent_coset(ctx, g) for g in all_gl(ctx, m)
            if g[m - 1] == e_last}
    return tuple(sorted(reps))


def gl_order(q: int, n: int) -> int:
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


# -- characteristic polynomial and conjugacy typing ----------------------------

def poly_mul(ctx, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = ctx.add, ctx.mul
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return _ptrim(out)


def charpoly(ctx: FieldCtx, a: Mat) -> list:
    """Monic characteristic polynomial, ascending coefficients, computed by
    Hessenberg reduction (a similarity, so exact over F_q)."""
    n = len(a)
    h = [list(r) for r in a]
    add, mul, inv, neg = ctx.add, ctx.mul, ctx.inv, ctx.neg
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[j + 1], h[piv] = h[piv], h[j + 1]
            for i in range(n):
                h[i][j + 1], h[i][piv] = h[i][piv], h[i][j + 1]
        ip = inv(h[j + 1][j])
        for r in range(j + 2, n):
            if h[r][j]:
                f = mul(h[r][j], ip)
                nf = neg(f)
                h[r] = [add(x, mul(nf, y)) for x, y in zip(h[r], h[j + 1])]
                for i in range(n):
                    h[i][j + 1] = add(h[i][j + 1], mul(f, h[i][r]))
    # charpoly of an upper Hessenberg matrix by the leading-minor recurrence
    polys = [[1]]
    for k in range(1, n + 1):
        tk = poly_mul(ctx, [ctx.neg(h[k - 1][k - 1]), 1], polys[k - 1])
        term = list(tk) + [0] * (k + 1 - len(tk))
        sub = 1
        for i in range(k - 1, 0, -1):
            sub = mul(sub, h[i][i - 1])
            if sub == 0:
                break
            coeff = mul(h[i - 1][k - 1], sub)
            if coeff:
                pi = polys[i - 1]
                nc = neg(coeff)
                for t, c in enumerate(pi):
                    term[t] = add(term[t], mul(nc, c))
        polys.append(_ptrim(term))
    return polys[n]


@lru_cache(maxsize=64)
def primary_charpolys(ctx: FieldCtx, n: int) -> MappingProxyType:
    """Every primary characteristic polynomial of GL_n(F_q): f^(n/d) ->
    (d, n/d, alpha, f) for each Frobenius orbit of degree-d elements xi of
    F_{q^d}, d | n, with f = prod_{i<d} (x - xi^(q^i)) and alpha the
    conjugate of least dlog.  Entries are in order of d, then of the first
    orbit member in `subfield_units(d)`; a charpoly that is not a key is
    not primary.  O(q^n) field operations, once per cell; read-only, as
    every caller shares it."""
    q = ctx.q
    out = {}
    for d in range(1, n + 1):
        if n % d:
            continue
        seen = set()
        for xi in ctx.subfield_units(d):
            if xi in seen:
                continue
            orbit = [xi]
            acc = ctx.pow(xi, q)
            while acc != xi:
                orbit.append(acc)
                acc = ctx.pow(acc, q)
            seen.update(orbit)
            if len(orbit) != d:  # xi lies in a proper subfield
                continue
            f = [1]
            for root in orbit:
                f = poly_mul(ctx, f, [ctx.neg(root), 1])
            power = [1]
            for _ in range(n // d):
                power = poly_mul(ctx, power, f)
            out[tuple(power)] = (d, n // d, min(orbit, key=ctx.dlog), tuple(f))
    return MappingProxyType(out)


def class_type(ctx: FieldCtx, g: Mat) -> ClassType:
    """Primary-type data of an invertible matrix: if charpoly = f^c with f
    irreducible of degree d, report (d, c, alpha = deterministic root of f,
    k = dim ker f(g) / d); otherwise primary=False.  The class is read from
    `primary_charpolys(ctx, ctx.n)`, so a matrix of another size is
    refused."""
    n = len(g)
    if n != ctx.n:
        raise DimensionMismatch(f"class_type of a {n} x {n} matrix over a field"
                                f" built for n = {ctx.n}")
    c = charpoly(ctx, g)
    if c[0] == 0:  # the constant term is +-det g
        raise Singular("class_type of a singular matrix")
    primary = primary_charpolys(ctx, n).get(tuple(c))
    if primary is None:
        return ClassType(False, None, None, None, None)
    d0, mult, alpha, f = primary
    if mult == 1:  # f(g) = charpoly(g) = 0 (Cayley-Hamilton): k = n / d = 1
        return ClassType(True, d0, 1, alpha, 1)
    # k from the kernel of f(g), with f(g) by Horner's rule
    fg = zero(n)
    for coef in reversed(f):
        fg = mat_mul(ctx, fg, g)
        fg = tuple(tuple(ctx.add(x, coef) if i == j else x for j, x in enumerate(row))
                   for i, row in enumerate(fg))
    kdim = n - rank(ctx, fg)
    if kdim % d0:
        raise Singular("kernel dimension incompatible with factor degree")
    return ClassType(True, d0, mult, alpha, kdim // d0)


def random_invertible(ctx: FieldCtx, m: int, rng) -> Mat:
    elems = ctx.subfield_elements(1)
    while True:
        g = tuple(tuple(rng.choice(elems) for _ in range(m)) for _ in range(m))
        if is_invertible(ctx, g):
            return g


def random_unipotent(ctx: FieldCtx, m: int, rng) -> Mat:
    elems = ctx.subfield_elements(1)
    rows = [list(r) for r in identity(m)]
    for i in range(m):
        for j in range(i + 1, m):
            rows[i][j] = rng.choice(elems)
    return tuple(tuple(r) for r in rows)


# -- batched kernels on stacks of base-field codes -----------------------------

#: the most matrices a caller hands the batched kernels in one pass: bounds
#: their working memory to a few tens of MB, whatever the cell
BATCH_CHUNK = 2 ** 14


def batch_mat_mul(ctx: FieldCtx, a, b):
    """The products a @ b of broadcast stacks (..., n, k) and (..., k, m) of
    base-field codes."""
    F = ctx.base
    out = F.mul(a[..., :, :1], b[..., :1, :])
    for j in range(1, a.shape[-1]):
        out = F.add(out, F.mul(a[..., :, j:j + 1], b[..., j:j + 1, :]))
    return out


def batch_bruhat(ctx: FieldCtx, g):
    """The elimination of `bruhat_reduce` on a stack (B, n, n) of invertible
    base-field codes, every matrix at once: (monomial, lacc, racc, pivots)
    with lacc g racc = monomial."""
    return _eliminate(ctx, g)


def batch_rank(ctx: FieldCtx, a):
    """The ranks of a stack (B, n, n) of base-field codes: the pivots of the
    elimination of `batch_bruhat`, which leaves a column without a pivot as
    it is, so it reduces singular matrices too.  The accumulators are not
    formed."""
    return _eliminate(ctx, a, accumulate=False)[3]


def _eliminate(ctx: FieldCtx, g, accumulate: bool = True):
    """`bruhat_reduce`'s column-by-column elimination on a stack, with a
    column that has no nonzero entry skipped and the pivots counted; with
    `accumulate` false, lacc and racc are None and the row and column
    operations are applied to the stack alone."""
    F = ctx.base
    work = np.array(g, dtype=F.dtype)
    count, n, _ = work.shape
    lacc = racc = None
    if accumulate:
        lacc = np.broadcast_to(np.eye(n, dtype=F.dtype), work.shape).copy()
        racc = lacc.copy()
    pivots = np.zeros(count, dtype=np.intp)
    at = np.arange(count)
    cols = np.arange(n)
    for j in range(n):
        nonzero = work[:, :, j] != 0
        piv = n - 1 - np.argmax(nonzero[:, ::-1], axis=1)  # the lowest nonzero
        pivots += nonzero.any(axis=1)
        ip = F.inv(work[at, piv, j])  # 0 without a pivot, so nothing moves
        # clear the column above the pivot with lower-row additions
        f = F.neg(F.mul(work[:, :, j], ip[:, None]))
        f[cols >= piv[:, None]] = 0
        work = F.add(work, F.mul(f[:, :, None], work[at, piv][:, None, :]))
        if accumulate:
            lacc = F.add(lacc, F.mul(f[:, :, None], lacc[at, piv][:, None, :]))
        # clear the pivot row to the right with earlier-column additions
        f = F.neg(F.mul(work[at, piv], ip[:, None]))
        f[:, :j + 1] = 0
        work = F.add(work, F.mul(work[:, :, j, None], f[:, None, :]))
        if accumulate:
            racc = F.add(racc, F.mul(racc[:, :, j, None], f[:, None, :]))
    return work, lacc, racc, pivots


def batch_charpoly(ctx: FieldCtx, a):
    """Monic characteristic polynomials det(xI - a) of a stack (B, n, n) of
    base-field codes, as (B, n + 1) ascending codes.  Berkowitz's
    division-free recurrence: with a[k:, k:] = [[x, r], [c, S]], its
    polynomial is the lower-triangular Toeplitz matrix of
    (1, -x, -r c, -r S c, ..., -r S^(n-k-2) c) times that of S."""
    F = ctx.base
    count, n, _ = a.shape
    poly = np.ones((count, 1), dtype=F.dtype)  # descending, of the empty block
    for k in range(n - 1, -1, -1):
        size = n - k
        r, c, sub = a[:, k, k + 1:], a[:, k + 1:, k], a[:, k + 1:, k + 1:]
        col = np.empty((count, size + 1), dtype=F.dtype)
        col[:, 0] = 1
        col[:, 1] = F.neg(a[:, k, k])
        for i in range(2, size + 1):
            col[:, i] = F.neg(F.sum(F.mul(r, c)))
            c = F.sum(F.mul(sub, c[:, None, :]))
        new = np.zeros((count, size + 1), dtype=F.dtype)
        for j in range(size):
            new[:, j:] = F.add(new[:, j:], F.mul(col[:, :size + 1 - j], poly[:, j, None]))
        poly = new
    return poly[:, ::-1]


@lru_cache(maxsize=64)
def _primary_codes(ctx: FieldCtx) -> MappingProxyType:
    """`primary_charpolys(ctx, ctx.n)` keyed by the integer code sum_{i<n}
    c_i q^i of a charpoly's ascending base-field codes c_i, with f as codes
    padded to degree n: the per-cell view `class_ids` reads once per
    distinct charpoly."""
    F, n = ctx.base, ctx.n
    table = primary_charpolys(ctx, n)
    codes = F.codes([poly[:-1] for poly in table]) @ ctx.q ** np.arange(n)
    padded = F.codes([f + (0,) * (n + 1 - len(f)) for *_, f in table.values()])
    padded.flags.writeable = False
    return MappingProxyType({code: (d, mult, alpha, f) for code, (d, mult, alpha, _), f
                             in zip(codes.tolist(), table.values(), padded)})


def class_ids(ctx: FieldCtx, g, classes: dict) -> np.ndarray:
    """The class ids of a stack (B, n, n) of invertible base-field codes:
    `class_type` of every matrix at once, the package's one class-typing
    kernel, which raises as `class_type` does.  `classes` maps class data
    (d, k, alpha), and None for every non-primary class, to ids; a class it
    lacks gets the next id, None first, then the mult = 1 classes (k = 1,
    as f(g) = 0) in order of charpoly code, then the others in order of
    (charpoly code, dim ker f(g)), with f(g) by Horner's rule from degree
    n / 2 down and its rank from `batch_rank`."""
    F, n = ctx.base, g.shape[1]
    if n != ctx.n:
        raise DimensionMismatch(f"class_ids of {n} x {n} matrices over a field"
                                f" built for n = {ctx.n}")
    nonprimary = classes.setdefault(None, len(classes))
    polys = batch_charpoly(ctx, g)
    if not polys[:, 0].all():  # the constant term is +-det g
        raise Singular("class_ids of a singular matrix")
    codes, inverse = np.unique(polys[:, :n] @ ctx.q ** np.arange(n), return_inverse=True)
    view, absent = _primary_codes(ctx), (None, 0, None, np.zeros(n + 1, dtype=F.dtype))
    kinds = [view.get(code, absent) for code in codes.tolist()]
    ids = np.array([nonprimary if d is None else -1 if mult > 1
                    else classes.setdefault((d, 1, alpha), len(classes))
                    for d, mult, alpha, _ in kinds], dtype=np.intp)[inverse]
    need = ids < 0
    if need.any():
        g, which = g[need], inverse[need]
        coef = np.array([f for *_, f in kinds])[which]  # deg f <= n / 2 when mult > 1
        diag, fg = np.arange(n), np.zeros_like(g)
        for i in range(n // 2, -1, -1):
            fg = batch_mat_mul(ctx, fg, g)
            fg[:, diag, diag] = F.add(fg[:, diag, diag], coef[:, i, None])
        combos, at = np.unique(which * (n + 1) + n - batch_rank(ctx, fg),
                               return_inverse=True)
        found = []
        for i, kdim in (divmod(combo, n + 1) for combo in combos.tolist()):
            d, _, alpha, _ = kinds[i]
            if kdim % d:
                raise Singular("kernel dimension incompatible with factor degree")
            found.append(classes.setdefault((d, kdim // d, alpha), len(classes)))
        ids[need] = np.array(found)[at]
    return ids
