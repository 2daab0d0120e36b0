"""Every memo in the package is bounded, so a long-lived process that
visits many cells keeps a bounded set of tables."""

import importlib
import pkgutil
import re
from pathlib import Path

import gammalab

#: the one cache allowed to grow without bound: it holds a single parser
UNBOUNDED = {"gammalab.cli._parser"}


def package_caches() -> dict:
    """name -> cache_parameters() of every `functools` cache defined at the
    top level of a gammalab module."""
    out = {}
    for info in pkgutil.iter_modules(gammalab.__path__):
        module = importlib.import_module(f"gammalab.{info.name}")
        for name, obj in vars(module).items():
            params = getattr(obj, "cache_parameters", None)
            if params is not None and obj.__module__ == module.__name__:
                out[f"{module.__name__}.{name}"] = params()
    return out


def test_every_lru_cache_has_a_finite_maxsize():
    caches = package_caches()
    # every cache decorator in the sources is one the scan sees
    decorators = sum(len(re.findall(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b",
                                    path.read_text(), re.M))
                     for path in Path(gammalab.__file__).parent.glob("*.py"))
    assert len(caches) == decorators
    assert "gammalab.matgrp.primary_charpolys" in caches
    for name, params in caches.items():
        if name not in UNBOUNDED:
            assert params["maxsize"] is not None, name

