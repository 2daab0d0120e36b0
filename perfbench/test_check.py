"""Tests of the benchmark's own checker and tracer.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from gammalab import cli, ffield  # noqa: E402


@pytest.fixture(scope="module", params=[(3, 2), (2, 3), (2, 4), (4, 2)])
def cell(request, tmp_path_factory):
    q, n = request.param
    out = tmp_path_factory.mktemp("out") / "gamma.json"
    assert cli.main(["gamma", "--q", str(q), "--n", str(n), "--out", str(out)]) == 0
    return check.GaussProduct(q, n), json.loads(out.read_text())


def test_accepts_program_output(cell):
    oracle, payload = cell
    assert check.check_payload(payload, oracle) == []


def test_rejects_one_corrupted_gamma(cell):
    oracle, payload = cell
    bad = copy.deepcopy(payload)
    row = next(r for r in bad["rows"] if not r["shalika"])
    row["routes"]["ratio"][1] += 1e-6
    problems = check.check_payload(bad, oracle)
    assert len(problems) == 1 and f"theta={row['theta']}" in problems[0]


def test_rejects_corrupted_shalika_gamma():
    oracle = check.GaussProduct(3, 2)
    for k in range(1, 8):
        if check.is_shalika(3, 2, k):
            break
    L, eps, gamma = (
        {"num": [[1.0, 0.0]], "den": [[1.0, 0.0], [-1.0, 0.0]], "x_shift": 0},
        {"num": [[3 ** -0.5, 0.0]], "den": [[1.0, 0.0]], "x_shift": -1},
        {"num": [[-3 ** 0.5, 0.0], [3 ** 0.5, 0.0]], "den": [[1.0, 0.0], [-3.0, 0.0]],
         "x_shift": 0})
    row = {"theta": k, "shalika": True, "L": L, "eps": eps, "gamma": gamma,
           "modified_gamma": copy.deepcopy(gamma), "modified_fe_residual": 0.0}
    assert check.check_row(row, 3, 2, oracle) == []
    bad = copy.deepcopy(row)
    bad["modified_gamma"]["num"][0][0] *= 1.001
    problems = check.check_row(bad, 3, 2, oracle)
    assert problems and all(p.startswith("modified_gamma") for p in problems)


def test_rejects_missing_row_and_wrong_shalika_flag(cell):
    oracle, payload = cell
    short = copy.deepcopy(payload)
    short["rows"].pop()
    assert any("rows, expected" in p for p in check.check_payload(short, oracle))
    flipped = copy.deepcopy(payload)
    flipped["rows"][0]["shalika"] = not flipped["rows"][0]["shalika"]
    assert check.check_payload(flipped, oracle)


@pytest.mark.parametrize("q, n, rows", [(5, 2, 10), (4, 3, 20), (2, 5, 6), (3, 4, 18), (19, 2, 171)])
def test_expected_row_count(q, n, rows):
    assert check.expected_row_count(q, n) == rows


def test_tracer_counts_restores_and_reports_missing(monkeypatch):
    monkeypatch.setattr(worker, "SPANS", worker.SPANS + (("matgrp", "no_such_name"),))
    original = ffield.build_field
    tracer = worker.Tracer()
    tracer.install()
    try:
        assert cli.build_field is not original
        ffield.build_field(2, 1, 3)
        cli.build_field(2, 1, 3)
    finally:
        tracer.uninstall()
    assert ffield.build_field is original and cli.build_field is original
    calls, total_s, first_s = tracer.take()["ffield.build_field"]
    assert calls == 2 and 0 < first_s <= total_s
    assert tracer.take() == {}
    assert tracer.missing == ["matgrp.no_such_name"]


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, v[0]) for name, v in run.PER_LAYER.items()]
    per_layer += list(run.PER_LAYER_RUN)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    spans = {f"{module}.{name}" for module, name in worker.SPANS}
    assert {v[2] for v in run.PER_LAYER.values()} == spans
