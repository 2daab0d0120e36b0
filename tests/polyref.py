"""Polynomial arithmetic over F_q for the test oracles: division with
remainder, gcd, x^e modulo a polynomial and evaluation.  Polynomials are
lists of field-element indices, ascending, with no trailing zeros; the
package itself derives primary classes from Frobenius orbits
(`matgrp.primary_charpolys`) and needs none of this."""

from gammalab.ffield import _ptrim
from gammalab.matgrp import poly_mul


def poly_mod(ctx, a, f):
    a = list(a)
    add, mul, inv, neg = ctx.add, ctx.mul, ctx.inv, ctx.neg
    df = len(f) - 1
    ilead = inv(f[-1])
    while len(a) - 1 >= df and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = mul(a[-1], ilead)
        shift = len(a) - 1 - df
        for i, fi in enumerate(f):
            a[shift + i] = add(a[shift + i], neg(mul(c, fi)))
        a = _ptrim(a)
    return a


def poly_gcd(ctx, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, poly_mod(ctx, a, b)
    if a:
        il = ctx.inv(a[-1])
        a = [ctx.mul(il, x) for x in a]
    return a


def poly_pow_x(ctx, exp, f):
    result = [1]
    base = poly_mod(ctx, [0, 1], f)
    while exp:
        if exp & 1:
            result = poly_mod(ctx, poly_mul(ctx, result, base), f)
        base = poly_mod(ctx, poly_mul(ctx, base, base), f)
        exp >>= 1
    return result


def poly_eval(ctx, f, x):
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc
