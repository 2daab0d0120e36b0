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

from .charkit import TOL, AddChar
from .cuspchar import CuspidalRep, _class_data
from .errors import OracleFailed, PreconditionViolated
from .ffield import FieldCtx
from . import matgrp as mg

#: the most class typings (|N_n| per support key) a support profile may
#: take; (q, n) = (2, 6) needs 1,048,576 and (4, 4) 786,432, while
#: (5, 4) needs 7,812,500, (3, 5) 9,565,938 and (2, 7) 134,217,728
MAX_CLASS_TYPINGS = 2 ** 21


@lru_cache(maxsize=None)
def _unipotent_psi_data(ctx: FieldCtx, n: int) -> tuple:
    """(u, superdiagonal sum) for every upper unipotent u in N_n."""
    return tuple((u, mg.superdiag_sum(ctx, u)) for u in mg.all_unipotent(ctx, n))


@lru_cache(maxsize=None)
def support_keys(ctx: FieldCtx, n: int) -> tuple:
    """All (composition of n, scalar tuple) support parameters."""
    units = ctx.subfield_units(1)
    return tuple((comp, lams) for comp in mg.compositions(n)
                 for lams in itertools.product(units, repeat=len(comp)))


@lru_cache(maxsize=None)
def _support_profile(ctx: FieldCtx, n: int) -> dict:
    """For each support key, the conjugacy data of t*u over u in N_n;
    shared by every representation at this (q, n).  Refused up front when
    it would type more than MAX_CLASS_TYPINGS classes."""
    typings = ctx.q ** (n * (n - 1) // 2) * len(support_keys(ctx, n))
    if typings > MAX_CLASS_TYPINGS:
        raise PreconditionViolated(
            f"the Bessel support profile at q = {ctx.q}, n = {n} needs"
            f" {typings} class typings, over the limit of {MAX_CLASS_TYPINGS}")
    mul = ctx.mul
    profile = {}
    for key in support_keys(ctx, n):
        t = mg.antidiag_elem(ctx, *key)
        # t is monomial: row i of t*u is row j of u scaled by t[i][j] != 0
        spots = [next((j, x) for j, x in enumerate(row) if x) for row in t]
        rows = []
        for u, s in _unipotent_psi_data(ctx, n):
            tu = tuple(tuple(mul(lam, x) for x in u[j]) for j, lam in spots)
            rows.append((_class_data(ctx, tu), s))
        profile[key] = tuple(rows)
    return profile


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


class BesselTable:
    """Bessel values of (rep, psi) on the antidiagonal scalar-block torus."""

    def __init__(self, rep: CuspidalRep, psi: AddChar, entries: dict):
        self.rep = rep
        self.psi = psi
        self.entries = entries
        self.ctx = rep.ctx
        self.n = rep.n

    def value(self, comp, scalars) -> complex:
        return self.entries[(tuple(comp), tuple(scalars))]

    def eval(self, g: mg.Mat) -> complex:
        """B(g) through the Bruhat decomposition and bi-equivariance."""
        sig = support_signature(self.ctx, g)
        return 0j if sig is None else self.psi(sig[1]) * self.entries[sig[0]]


def bessel_build(rep: CuspidalRep, psi: AddChar) -> BesselTable:
    """Tabulate B on every antidiagonal scalar-block element via the
    averaging formula; the normalization B(I) = 1 is asserted."""
    ctx, n = rep.ctx, rep.n
    psi_inv = psi.inverted()
    psi_vals = {s: psi_inv(s) for s in ctx.subfield_elements(1)}
    norm = 1.0 / (ctx.q ** (n * (n - 1) // 2))
    entries = {}
    for key, rows in _support_profile(ctx, n).items():
        total = 0j
        for data, s in rows:
            if data is not None:
                total += rep.char_of_class(data) * psi_vals[s]
        entries[key] = total * norm
    table = BesselTable(rep, psi, entries)
    ident = entries[((n,), (1,))]
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
