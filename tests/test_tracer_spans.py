"""The benchmark's tracer wraps gammalab names listed in
`perfbench/worker.py:SPANS`; a name that stops resolving is silently
skipped there, so each must still name a callable."""

import ast
import importlib
from pathlib import Path

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


def traced_names():
    tree = ast.parse(WORKER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no SPANS assignment in perfbench/worker.py")


def test_every_traced_name_resolves_to_a_callable():
    spans = traced_names()
    assert len(spans) >= 11
    for module, path in spans:
        owner = importlib.import_module(f"gammalab.{module}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"gammalab.{module}.{path}"
