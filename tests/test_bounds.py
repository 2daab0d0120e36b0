"""Every bound is decided in one place: `errors.within`, and the block
refusal `errors.require_within` built on it, so that NaN and inf fail
every check alike."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import gammalab
from gammalab.errors import OracleFailed, require_within, within

#: the names of the package's bounds: module constants, and --tol
BOUND = re.compile(r"^(?:[A-Z_]*_TOL|ZERO_COEFF)$")
SOURCES = sorted(Path(gammalab.__file__).parent.glob("*.py"))


def _is_bound(node) -> bool:
    if isinstance(node, ast.Name):
        return bool(BOUND.match(node.id))
    if isinstance(node, ast.Attribute):
        return bool(BOUND.match(node.attr)) or (
            node.attr == "tol" and isinstance(node.value, ast.Name)
            and node.value.id == "cfg")
    return False


def bound_comparisons(source: str) -> list:
    """The lines of `source` that compare an expression holding a bound with
    <, <=, >, >=, == or != rather than through `within`."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Compare)
                   and any(_is_bound(sub) for operand in [node.left, *node.comparators]
                           for sub in ast.walk(operand))})


def test_the_scan_sees_every_way_of_comparing_a_bound():
    lines = ["bad = np.flatnonzero(resid > FE_TOL)",
             "ok = worst < exjs.FE_TOL",
             "ok = abs(c) >= ZERO_COEFF",
             "ok = worst_homdim == HOMDIM_TOL",
             "ok = ROUTE_TOL * 2 <= delta",
             "ok = delta != cfg.tol",
             "ok = abs(x) < ROOT_TOL * max(1.0, top)",
             "ok = within(resid, FE_TOL)",
             "ok = ~within(np.abs(a), ZERO_COEFF)",
             "ok = 0 <= ns.tol < math.inf",
             "tol = FE_TOL"]
    assert bound_comparisons("\n".join(lines)) == [1, 2, 3, 4, 5, 6, 7]


def test_no_bound_is_compared_outside_the_verdict():
    found = [f"{path.name}:{line}" for path in SOURCES
             for line in bound_comparisons(path.read_text())]
    assert found == []
    # every module that reads a bound decides on it through the verdict
    readers = {path.stem for path in SOURCES
               if re.search(r"\b[A-Z_]*_TOL\b|\bZERO_COEFF\b|\bcfg\.tol\b", path.read_text())}
    callers = {path.stem for path in SOURCES
               if re.search(r"\b(?:require_)?within\(", path.read_text())}
    assert readers == callers - {"errors"} == {"bessel", "cli", "cuspchar", "exjs", "levelzero"}


def package_bounds() -> dict:
    """name -> (module, value) of every bound constant the package defines."""
    out = {}
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and BOUND.match(node.targets[0].id)):
                out[node.targets[0].id] = (path.stem, ast.literal_eval(node.value))
    return out


def test_the_readme_lists_every_bound_once():
    # one row per bound, `name` | `module` | value | what it bounds
    readme = (Path(gammalab.__file__).parents[2] / "README.md").read_text()
    rows = re.findall(r"^\| `([A-Z_]+)` \| `(\w+)` \| ([0-9e.-]+) \|", readme, re.M)
    assert len(rows) == len({name for name, _, _ in rows}) == 17
    assert {name: (module, float(value)) for name, module, value in rows} == package_bounds()


def test_within_never_passes_nan_or_inf():
    assert within(1e-8, 1e-8) and within(0.0, 0.0)
    assert not within(math.nan, 1.0) and not within(math.inf, 1.0)
    assert not within(np.float64("nan"), 1.0)
    assert within(np.array([0.5, np.nan, np.inf, 1.0]), 1.0).tolist() == [
        True, False, False, True]


@pytest.mark.parametrize("residual,message", [
    ([0.0, np.nan, 2.0], "1 at theta = 7"),
    ([0.0, 0.5, np.inf], "2 at theta = 9"),
    # one row per check: the first theta that fails, then its first check
    ([[0.0, 0.0, 2.0], [0.0, np.nan, 0.0]], "(1, 1) at theta = 7"),
])
def test_require_within_names_the_first_failing_theta(residual, message):
    def error(at, where):
        at = tuple(map(int, at)) if isinstance(at, tuple) else int(at)
        return OracleFailed("check", f"{at} {where}")
    with pytest.raises(OracleFailed, match=re.escape(f"({message})")):
        require_within(np.array(residual), 1.0, [5, 7, 9], error)
    require_within(np.zeros((2, 3)), 0.0, [5, 7, 9], error)
