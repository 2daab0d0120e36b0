"""Irreducible cuspidal characters of GL_n(F_q).

A regular character theta of F_{q^n}^x determines an irreducible cuspidal
representation; its character is evaluated through the classical formula on
primary conjugacy classes (charpoly = f^c with f irreducible):

    chi(g) = (-1)^(n-1) * prod_{i=1}^{k-1} (1 - q^(d i)) * sum_{i<d} theta(alpha^(q^i))

with d = deg f, alpha a root of f and k the number of f-blocks; chi vanishes
off primary classes.  The classes (d, alpha), alpha the least-dlog member of
a degree-d Frobenius orbit, are read from `matgrp.primary_charpolys`, the
one place they are derived.  Every Bessel table and appendix sum reads the
character from one kernel, `character_matrix`; `CuspidalRep.char_of_class`
is its pointwise reference in the tests.  `verify_irreducible` certifies
that kernel for a block of representations: the norm <chi, chi> = 1 over
the primary classes, the degree, chi(g^-1) = conj chi(g) and class
invariance on seeded samples.  `gammalab verify` runs it on every selected
representation; `gamma` and `export` do not run it, and trust the formula.
"""

from __future__ import annotations

import random
from functools import lru_cache

import numpy as np

from .charkit import MultChar, _read_only, character_sums, regular_orbit
from .errors import OracleFailed, PreconditionViolated, require_within
from .ffield import FieldCtx
from . import matgrp as mg

#: the bound on every residual of `verify_irreducible`: |<chi, chi> - 1|,
#: |chi(1) - dim|, |chi(g^-1) - conj chi(g)| and |chi(h g h^-1) - chi(g)|
CHARACTER_TOL = 1e-6


def partitions(c: int):
    """Partitions of c as descending tuples, deterministic order."""
    if c == 0:
        return [()]
    out = []

    def rec(remaining, maxpart, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, maxpart), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(c, c, [])
    return out


def centralizer_order(lam: tuple, t: int) -> int:
    """Order of the centralizer of a primary element of Jordan type `lam`
    over a field with t elements (t = q^d)."""
    conj = []
    i = 1
    while True:
        cnt = sum(1 for part in lam if part >= i)
        if cnt == 0:
            break
        conj.append(cnt)
        i += 1
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    exponent = sum(x * x for x in conj) - sum(m * (m + 1) // 2 for m in mult.values())
    out = t ** exponent
    for m in mult.values():
        for j in range(1, m + 1):
            out *= t ** j - 1
    return out


@lru_cache(maxsize=64)
def primary_class_inventory(ctx: FieldCtx, n: int) -> tuple:
    """All primary conjugacy classes of GL_n(F_q): entries
    (d, alpha, k, class_size, lam) for each (d, alpha) of
    `mg.primary_charpolys`, in its order, and each Jordan type lam of
    c = n / d, k = len(lam)."""
    q = ctx.q
    order = mg.gl_order(q, n)
    out = []
    for d, c, alpha, _ in mg.primary_charpolys(ctx, n).values():
        for lam in partitions(c):
            size = order // centralizer_order(lam, q ** d)
            out.append((d, alpha, len(lam), size, lam))
    return tuple(out)


def _class_coefficient(q: int, n: int, d: int, k: int) -> int:
    """(-1)^(n-1) * prod_{i=1}^{k-1} (1 - q^(d i)), the factor of the
    character on a primary class with k blocks of a degree-d factor."""
    coef = 1
    for i in range(1, k):
        coef *= 1 - q ** (d * i)
    return -coef if n % 2 == 0 else coef


@lru_cache(maxsize=64)
def _class_conjugates(ctx: FieldCtx, n: int, classes: tuple) -> tuple:
    """(coef, dlogs, live) of a tuple of class data (d, k, alpha), None for
    the non-primary classes: coef[c] the class's `_class_coefficient` (0 for
    None), dlogs[c, i] the level-n dlog of alpha^(q^i) and live[c, i] = [i < d],
    over i < n."""
    coef = np.zeros(len(classes))
    dlogs = np.zeros((len(classes), n), dtype=np.int64)
    live = np.zeros((len(classes), n))
    for c, data in enumerate(classes):
        if data is None:
            continue
        d, k, alpha = data
        coef[c] = _class_coefficient(ctx.q, n, d, k)
        acc = alpha
        for i in range(d):
            dlogs[c, i] = ctx.subfield_dlog(acc, n)
            acc = ctx.pow(acc, ctx.q)
        live[c, :d] = 1.0
    return coef, dlogs, live


def character_matrix(ctx: FieldCtx, n: int, classes: tuple, exponents) -> np.ndarray:
    """X[c, j], the character on the class classes[c] of the cuspidal
    representation with theta = gen^(exponents[j]):

        X[c, j] = coef_c * sum_{i<d} zeta[k_j * D[c, i] mod (q^n - 1)],

    one `character_sums` over the class dlogs D of `_class_conjugates`,
    cached per class tuple, weighted by [i < d].
    `CuspidalRep.char_of_class` is the pointwise reference."""
    coef, dlogs, live = _class_conjugates(ctx, n, classes)
    return coef[:, None] * character_sums(dlogs, live, ctx.q ** n - 1, exponents)


class CuspidalRep:
    """The pair (n, theta) with theta a regular character of F_{q^n}^x."""

    def __init__(self, ctx: FieldCtx, exponent: int):
        self.ctx = ctx
        self.n = ctx.n
        self.q = ctx.q
        self.theta = MultChar(ctx, self.n, exponent)
        regular_orbit(ctx, self.n, exponent)  # raises NotRegular
        self.exponent = self.theta.exponent
        self.central_char = MultChar(ctx, 1, self.exponent)
        self._class_cache = {}

    def contragredient(self) -> "CuspidalRep":
        return CuspidalRep(self.ctx, -self.exponent)

    def dimension(self) -> int:
        out = 1
        for i in range(1, self.n):
            out *= self.q ** i - 1
        return out

    # -- character evaluation ------------------------------------------------

    def char_of_class(self, data) -> complex:
        """Character on the primary class (d, k, alpha); 0 for None."""
        if data is None:
            return 0j
        if data not in self._class_cache:
            d, k, alpha = data
            coef = _class_coefficient(self.q, self.n, d, k)
            ssum = 0j
            acc = alpha
            for _ in range(d):
                ssum += self.theta(acc)
                acc = self.ctx.pow(acc, self.q)
            self._class_cache[data] = coef * ssum
        return self._class_cache[data]

    def character(self, g: mg.Mat) -> complex:
        """chi(g), typing g by the pointwise `mg.class_type`."""
        ct = mg.class_type(self.ctx, g)
        return self.char_of_class((ct.d, ct.k, ct.alpha) if ct.primary else None)

    def __repr__(self):
        return f"CuspidalRep(q={self.q}, n={self.n}, k={self.exponent})"


@lru_cache(maxsize=64)
def _inventory_classes(ctx: FieldCtx, n: int) -> tuple:
    """(classes, weights) of `primary_class_inventory`, built once per cell:
    the class data (d, k, alpha) of each entry, the argument of
    `character_matrix`, and its share |class| / |GL_n| of the group."""
    order = mg.gl_order(ctx.q, n)
    inventory = primary_class_inventory(ctx, n)
    return (tuple((d, k, alpha) for d, alpha, k, _, _ in inventory),
            *_read_only(np.array([size / order for *_, size, _ in inventory])))


@lru_cache(maxsize=64)
def _sampled_classes(ctx: FieldCtx, n: int, samples: int, seed: int) -> tuple:
    """(class data of each id, ids) of the identity and the `samples` triples
    (g, g^-1, h g h^-1) that `verify_irreducible` draws from one rng seeded
    with `seed`: one `mg.class_ids` stack per cell, for every representation."""
    rng = random.Random(seed)
    mats = [mg.identity(n)]
    for _ in range(samples):
        g = mg.random_invertible(ctx, n, rng)
        h = mg.random_invertible(ctx, n, rng)
        mats += [g, mg.mat_inv(ctx, g), mg.mat_chain(ctx, h, g, mg.mat_inv(ctx, h))]
    classes = {}
    ids = mg.class_ids(ctx, ctx.base.codes(np.array(mats)), classes)
    return (tuple(classes), *_read_only(ids))


def _block_field(reps) -> tuple:
    """(ctx, n) of a block of representations, which must share them."""
    if not reps:
        raise PreconditionViolated("a block needs at least one representation")
    ctx = reps[0].ctx
    if any(rep.ctx is not ctx for rep in reps):
        raise PreconditionViolated("a block of representations shares one (q, n)")
    return ctx, ctx.n


def verify_irreducible(reps, samples: int = 40, seed: int = 1729) -> list:
    """Certify `character_matrix` for a block of representations at one
    (q, n), from one call over the primary classes (`_inventory_classes`)
    and one over the classes of `samples` seeded draws (`_sampled_classes`).

    Checks, for each: (a) <chi, chi> = 1; (b) chi(1) equals the cuspidal
    dimension; (c) chi(g^-1) = conj(chi(g)); (d) chi(h g h^-1) = chi(g).
    Returns one report per representation; raises OracleFailed naming the
    first representation with a residual not within CHARACTER_TOL, and its
    first failing check.
    """
    ctx, n = _block_field(reps)
    ks = [rep.exponent for rep in reps]
    classes, weights = _inventory_classes(ctx, n)
    chi = character_matrix(ctx, n, classes, ks).T
    # one contiguous row of |chi|^2 per representation, summed pairwise, so
    # that no norm depends on the rest of the block
    norm = (np.ascontiguousarray(chi.real ** 2 + chi.imag ** 2) * weights).sum(axis=1)
    classes, ids = _sampled_classes(ctx, n, samples, seed)
    chi = character_matrix(ctx, n, classes, ks)[ids]
    degree, g, g_inv, conj = chi[0], chi[1::3], chi[2::3], chi[3::3]
    resid = {"inner_product": np.abs(norm - 1.0),
             "degree": np.maximum(np.abs(degree - reps[0].dimension()),
                                  np.abs(degree.imag)),
             "inverse_conjugate": np.abs(g_inv - g.conj()).max(axis=0, initial=0.0),
             "class_function": np.abs(conj - g).max(axis=0, initial=0.0)}
    checks, stacked = list(resid), np.stack(list(resid.values()))
    require_within(stacked, CHARACTER_TOL, ks, lambda at, where: OracleFailed(
        checks[at[0]], f"residual {stacked[at]} {where}"))
    return [{"inner_product": ip, "degree": d, "max_inverse_residual": inv,
             "max_conjugation_residual": cls, "ok": True}
            for ip, d, inv, cls in zip(norm.tolist(), degree.tolist(),
                                       resid["inverse_conjugate"].tolist(),
                                       resid["class_function"].tolist())]
