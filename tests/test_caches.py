"""Every memo in the package is bounded, so a long-lived process that
visits many cells keeps a bounded set of tables."""

import importlib
import pkgutil
import random
import re
from collections import OrderedDict
from pathlib import Path

import numpy as np

import gammalab
from gammalab import exjs
from gammalab import matgrp as mg
from gammalab.ffield import build_field

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



def test_translate_row_cache_evicts_to_its_bound(monkeypatch):
    # exjs._ROWS is a hand-written LRU cache the scan above cannot see: with
    # ROW_CACHE_SIZE small, feeding it more translates evicts the oldest,
    # and every row it returns, evicted and recomputed or not, equals a
    # fresh computation
    f = build_field(3, 1, 2)
    rng = random.Random(5)
    draws = (mg.random_invertible(f, 2, rng) for _ in range(40))
    translates = list(dict.fromkeys(draws))[:12]
    monkeypatch.setattr(exjs, "ROW_CACHE_SIZE", 4)
    monkeypatch.setattr(exjs, "_ROWS", OrderedDict())
    calls = [translates[lo:lo + 3] for lo in range(0, 12, 3)] + [translates[:3]]
    got = []
    for part in calls:
        got += exjs._translate_rows(f, 2, part)
        assert len(exjs._ROWS) <= 4
    assert (f, 2, translates[3]) not in exjs._ROWS
    monkeypatch.setattr(exjs, "ROW_CACHE_SIZE", 100)
    monkeypatch.setattr(exjs, "_ROWS", OrderedDict())
    fresh = exjs._translate_rows(f, 2, [h for part in calls for h in part])
    assert len(got) == len(fresh) == 15
    for (key, arg), (key0, arg0) in zip(got, fresh):
        assert np.array_equal(key, key0) and np.array_equal(arg, arg0)
