"""Exception types shared across the package, the one name of an integer in
their messages, and the package's one verdict on a bound."""

import numpy as np


class GammalabError(Exception):
    """Base class for all package errors."""


class NotPrime(GammalabError):
    pass


class TooLarge(GammalabError):
    pass


class DivideByZero(GammalabError):
    pass


class NotInSubfield(GammalabError):
    pass


class ZeroHasNoLog(GammalabError):
    pass


class Singular(GammalabError):
    pass


class ZeroScalar(GammalabError):
    pass


class NotRegular(GammalabError):
    pass


class OracleFailed(GammalabError):
    """An internal self-verification check did not pass."""

    def __init__(self, check: str, detail: str = ""):
        self.check = check
        super().__init__(f"oracle failed: {check}" + (f" ({detail})" if detail else ""))


class DimensionMismatch(GammalabError):
    pass


class MalformedShalikaElement(GammalabError):
    pass


class ShalikaVectorPresent(GammalabError):
    """Raised when a plain functional-equation route is requested for a
    representation that carries a Shalika vector; use the level-zero
    modified equation instead."""


class NonConstantRatio(GammalabError):
    pass


class UnsupportedN(GammalabError):
    pass


class PreconditionViolated(GammalabError):
    pass


class DimensionBoundViolated(GammalabError):
    pass


def name_int(v: int) -> str:
    """v in full below 2^256, else by its bit length, so that a message
    naming an input stays one short line whatever the input."""
    if v.bit_length() <= 256:
        return str(v)
    return f"a {'negative ' if v < 0 else ''}{v.bit_length()}-bit integer"


def within(residual, bound):
    """The package's one pass/fail decision on a bound: residual <= bound,
    elementwise on arrays.  NaN and inf never pass (a finite bound)."""
    return residual <= bound


def require_within(residual, bound, thetas, error):
    """The one refusal of a block: `residual` holds one value per theta of
    `thetas` on its last axis, after an optional axis of checks.  At the
    first theta not `within` the bound, and its first such check, raise
    error(at, "at theta = k"), `at` the theta's position or (check, position)."""
    passed = within(np.asarray(residual), bound)
    if not passed.all():
        at = tuple(np.argwhere(~passed.T)[0][::-1])  # the first theta, then check
        raise error(at if len(at) > 1 else at[0], f"at theta = {thetas[at[-1]]}")
