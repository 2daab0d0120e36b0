"""Benchmark of the `gammalab gamma` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` a run repeats whole rounds until the next one
would end after S seconds (at least MIN_ROUNDS).  A round is

  1. one or more fresh `gammalab gamma --q Q --n N --theta 1` processes
     (setup_s);
  2. a fresh process running `gammalab.cli.main` on the whole cell with its
     output on stdout (cell_s, peak_rss_mb), which then runs the same
     command again with warm caches and `--out` set to a scratch file
     (warm_reps_per_s).

Each end-to-end metric is the median over all its samples in the run.
With `--trace 1` the per-layer metrics come from worker.py's traced plain
loop and a traced cold `cli.main`, in processes of their own.

Every process and pass is one operation.  Its output is checked by check.py
against values computed from the field alone, and must be byte-identical to
the run's first output of the same kind.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from check import GaussProduct, check_payload, expected_row_count

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
WORKER = HERE / "worker.py"

#: name -> (q, n, setup processes per round, warm passes per round); the
#: cheap measurements repeat within a round so that each takes a few
#: seconds.  README.md says why each cell was chosen.
WORKLOADS = {
    "exhaustive-q5n2": (5, 2, 5, 1),
    "odd-q4n3": (4, 3, 2, 10),
}
MIN_ROUNDS = 2
#: wall-clock limit of one benchmark invocation, children included
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("cell_s", "s"),
    ("warm_reps_per_s", "reps/s"),
    ("peak_rss_mb", "MB"),
)

# per-layer metric -> (unit, report, traced name, field); fields index
# worker.Tracer stats: 0 calls, 1 total seconds, 2 seconds of the first call
_CALLS, _TOTAL, _FIRST = 0, 1, 2
PER_LAYER = {
    "ffield.build_s": ("s", "cold", "ffield.build_field", _TOTAL),
    "matgrp.class_type_calls": ("count", "cold", "matgrp.class_type", _CALLS),
    "matgrp.class_type_s": ("s", "cold", "matgrp.class_type", _TOTAL),
    "matgrp.bruhat_calls.warm": ("count", "warm", "matgrp.bruhat", _CALLS),
    "matgrp.bruhat_s.warm": ("s", "warm", "matgrp.bruhat", _TOTAL),
    "matgrp.bruhat_calls.cli": ("count", "cli", "matgrp.bruhat", _CALLS),
    "bessel.bessel_build_s.cold": ("s", "cold", "bessel.bessel_build", _FIRST),
    "bessel.bessel_build_s.warm": ("s", "warm", "bessel.bessel_build", _TOTAL),
    "bessel.eval_calls.warm": ("count", "warm", "bessel.BesselTable.eval", _CALLS),
    "exjs.gamma_ratio_s.cold": ("s", "cold", "exjs.gamma_ratio", _FIRST),
    "exjs.gamma_ratio_s.warm": ("s", "warm", "exjs.gamma_ratio", _TOTAL),
    "exjs.gamma_torus_s.warm": ("s", "warm", "exjs.gamma_torus", _TOTAL),
    "exjs.gamma_closed_s.warm": ("s", "warm", "exjs.gamma_closed", _TOTAL),
    "levelzero.modified_fe_check_s.warm":
        ("s", "warm", "levelzero.modified_fe_check", _TOTAL),
    "levelzero.local_gamma_s.warm": ("s", "warm", "levelzero.local_gamma", _TOTAL),
    "charkit.fourier_calls.warm": ("count", "warm", "charkit.fourier", _CALLS),
}
# measured by the trace run as a whole rather than by one traced name
PER_LAYER_RUN = (
    ("exjs.pairs_checked", "count"),
    ("cli.overhead_s.cold", "s"),
    ("cli.overhead_s.warm", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Operations:
    """Attempted and failed operations, and whether any output was wrong."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._first = {}

    def judge(self, what: str, rc, path, kind: str, single_theta=None,
              payload=None) -> bool:
        """Count one operation; True when it ran and its output is correct.

        `kind` names the outputs that must be byte-identical within a run."""
        self.attempted += 1
        if rc != 0:
            return self._fail(what, [f"exit code {rc}"], wrong=False)
        if payload is None:
            data = Path(path).read_bytes()
            if self._first.setdefault(kind, data) != data:
                return self._fail(what, [f"output differs from the first {kind} output"])
            try:
                payload = json.loads(data)
            except ValueError as exc:
                return self._fail(what, [f"unreadable output: {exc}"])
        problems = check_payload(payload, self.oracle, single_theta)
        if problems:
            return self._fail(what, problems)
        return True

    def _fail(self, what, problems, wrong=True) -> bool:
        self.failed += 1
        self.correct = self.correct and not wrong
        print(f"FAILED {what}: " + "; ".join(problems[:5]), file=sys.stderr)
        return False


class Children:
    """Runs one program process at a time, each within the run's deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, args, stdout_path):
        """(exit code, seconds from spawn to exit, perf_counter at spawn)."""
        with open(stdout_path, "wb") as out, open(f"{stdout_path}.err", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            try:
                rc = proc.wait(timeout=max(1.0, self.deadline - t0))
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return rc, perf_counter() - t0, t0


def timed_run(q, n, setups, passes, seed, seconds, ops, children) -> dict:
    base = ["gamma", "--q", str(q), "--n", str(n), "--seed", str(seed)]
    setup, cell, rss, warm = [], [], [], []
    start = perf_counter()
    rounds = 0
    # start another round while it is predicted to end within `seconds`
    while (rounds < MIN_ROUNDS
           or (perf_counter() - start) * (rounds + 1) / rounds <= seconds):
        for i in range(setups):
            out = WORK / f"setup{rounds}.{i}.json"
            rc, wall, _ = children.run(["-m", "gammalab.cli", *base, "--theta", "1"], out)
            if ops.judge(f"setup process {rounds}.{i}", rc, out, "setup", single_theta=1):
                setup.append(wall)

        out = WORK / f"cell{rounds}.json"
        report = WORK / f"cell{rounds}.report"
        rc, _, t0 = children.run([str(WORKER), "cell", str(report), str(passes),
                                  "--", *base], out)
        rep = json.loads(report.read_text()) if rc == 0 else {
            "cold_rc": rc, "warm": [{"rc": rc}] * passes}
        if ops.judge(f"cell process {rounds}", rep["cold_rc"], out, "cell"):
            cell.append(rep["cold_done"] - t0)
            rss.append(rep["peak_rss_kb"] / 1024)
        for i, w in enumerate(rep["warm"]):
            if ops.judge(f"warm pass {rounds}.{i}", w["rc"], w.get("out"), "cell"):
                warm.append(expected_row_count(q, n) / w["seconds"])
        rounds += 1
    print(f"{rounds} rounds in {perf_counter() - start:.1f} s; setup_s {setup}; "
          f"cell_s {cell}; warm_reps_per_s {warm}", file=sys.stderr)
    samples = {"setup_s": setup, "cell_s": cell, "warm_reps_per_s": warm,
               "peak_rss_mb": rss}
    if not all(samples.values()):
        raise RuntimeError("no successful sample of " +
                           ", ".join(k for k, v in samples.items() if not v))
    return {name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END}


def traced_run(q, n, passes, seed, ops, children) -> dict:
    argv = ["gamma", "--q", str(q), "--n", str(n), "--seed", str(seed)]
    reports = {}
    for mode, opts in (("trace", [str(passes)]), ("trace-cli", [])):
        report = WORK / f"{mode}.report"
        rc, _, _ = children.run([str(WORKER), mode, str(report), *opts, "--", *argv],
                                WORK / f"{mode}.out")
        if rc != 0:
            raise RuntimeError(f"worker {mode} exited {rc}; see {mode}.out.err")
        reports[mode] = json.loads(report.read_text())
    plain, cli = reports["trace"], reports["trace-cli"]
    ops.judge("traced cold cli.main", cli["cli_rc"], cli["cli_out"], "cli")
    for i, payload in enumerate(plain["payloads"]):
        ops.judge(f"plain loop {i}", 0, None, "plain", payload=payload)
    for i, (rc, out) in enumerate(zip(plain["cli_rcs"], plain["cli_outs"])):
        ops.judge(f"warm cli.main {i}", rc, out, "cli")

    missing = sorted(set(plain["missing"]) | set(cli["missing"]))
    if missing:
        print("missing traced names (reported as 0): " + ", ".join(missing),
              file=sys.stderr)
    stats = {"cold": plain["cold"], "warm": plain["warm"], "cli": cli["cold"]}
    metrics = {}
    for name, (unit, report, traced, field) in PER_LAYER.items():
        value = stats[report].get(traced, [0, 0.0, 0.0])[field]
        metrics[name] = {"value": value, "unit": unit}
    if plain["pairs_checked"] is None:
        print("missing: gamma_ratio diagnostics['pairs_checked'] (reported as 0)",
              file=sys.stderr)
    warm_s = {k: statistics.median(v) for k, v in plain["warm_s"].items()}
    run_values = {
        "exjs.pairs_checked": plain["pairs_checked"] or 0,
        "cli.overhead_s.cold": cli["cold_s"] - plain["cold_s"],
        "cli.overhead_s.warm": warm_s["cli"] - warm_s["plain"],
        "trace.overhead_ratio": warm_s["traced"] / warm_s["plain"],
    }
    for name, unit in PER_LAYER_RUN:
        metrics[name] = {"value": run_values[name], "unit": unit}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1729,
                    help="forwarded to the program as --seed")
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops its child (Children.run's finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = perf_counter() + RUN_LIMIT_S
    if not (SRC / "gammalab" / "cli.py").is_file():
        print(f"error: no gammalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    q, n, setups, passes = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    ops = Operations(GaussProduct(q, n))
    children = Children(deadline)
    try:
        if args.trace:
            metrics = traced_run(q, n, passes, args.seed, ops, children)
        else:
            metrics = timed_run(q, n, setups, passes, args.seed, args.seconds,
                                ops, children)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": ops.correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
