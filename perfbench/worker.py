"""Child process of the benchmark: one fresh interpreter per call.

    python3 perfbench/worker.py cell  REPORT PASSES -- gamma --q Q --n N ...
    python3 perfbench/worker.py trace REPORT PASSES -- gamma --q Q --n N ...
    python3 perfbench/worker.py trace-cli REPORT -- gamma --q Q --n N ...

`cell` runs `gammalab.cli.main` cold with its output on stdout, exactly as
`gammalab gamma` does, then runs the same command PASSES more times with
`--out` set to a scratch file while the caches are warm.  `trace` wraps the
public names in SPANS and times a single-threaded plain loop over the
library calls the CLI makes per row, once cold, then PASSES times warm, each
time traced, untraced, and as an untraced `cli.main`.  `trace-cli` counts the same names around one cold `cli.main`.  Each mode
writes one JSON report to REPORT; the parent checks every output.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import threading
from time import perf_counter

from check import prime_power

#: (module, attribute) pairs wrapped by a traced run: the public names
#: behind the per-layer metrics in BENCHMARK.json
SPANS = (
    ("ffield", "build_field"),
    ("matgrp", "class_type"),
    ("matgrp", "bruhat"),
    ("bessel", "bessel_build"),
    ("bessel", "BesselTable.eval"),
    ("charkit", "fourier"),
    ("exjs", "gamma_ratio"),
    ("exjs", "gamma_torus"),
    ("exjs", "gamma_closed"),
    ("levelzero", "local_gamma"),
    ("levelzero", "modified_fe_check"),
)


class Tracer:
    """Call counts and outermost-call times for the names in SPANS.

    Every reference to a wrapped function in a loaded `gammalab` module is
    replaced, so calls made through `from .x import name` are seen too.
    A name that no longer exists is listed in `missing`.  Each thread keeps
    its own tallies, so the CLI's pool threads never wait on the tracer."""

    def __init__(self):
        self.missing = []
        self._undo = []
        self._local = threading.local()
        self._gen = 0
        self._tallies = []   # one {name: [calls, total_s, first (t0, s), running]} per thread

    def install(self):
        self.missing = []
        for mod_name, path in SPANS:
            name = f"{mod_name}.{path}"
            owner = importlib.import_module(f"gammalab.{mod_name}")
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = getattr(owner, attr, None)
            if not callable(orig):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, orig)
            if owner_path:
                targets = [owner]
            else:
                targets = [mod for key, mod in list(sys.modules.items())
                           if key.split(".")[0] == "gammalab"
                           and getattr(mod, attr, None) is orig]
            for target in targets:
                setattr(target, attr, wrapped)
                self._undo.append((target, attr, orig))

    def uninstall(self):
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()

    def take(self) -> dict:
        """name -> [calls, total_s, first_s] over all threads, then reset."""
        tallies, self._tallies = self._tallies, []
        self._gen += 1
        merged = {}
        for tally in tallies:
            for name, (calls, total, first, _) in tally.items():
                out = merged.setdefault(name, [0, 0.0, first])
                out[0] += calls
                out[1] += total
                if first is not None and (out[2] is None or first < out[2]):
                    out[2] = first
        return {name: [c, t, f[1] if f else 0.0] for name, (c, t, f) in merged.items()}

    def _wrap(self, name, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if getattr(local, "gen", None) != self._gen:
                local.gen, local.tally = self._gen, {}
                self._tallies.append(local.tally)
            tally = local.tally
            stat = tally.get(name)
            if stat is None:
                stat = tally[name] = [0, 0.0, None, False]
            stat[0] += 1
            if stat[3]:
                return fn(*args, **kwargs)
            stat[3] = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[3] = False
                stat[1] += dt
                if stat[2] is None:
                    stat[2] = (t0, dt)

        return wrapper


def plain_pass(q: int, n: int, seed: int, trials: int = 100):
    """The per-row library calls of `gammalab gamma --q Q --n N`, in a plain
    loop on one thread.  Returns (payload in the CLI's row schema, pairs
    checked by the functional-equation certificate, or None if unreported)."""
    from gammalab import bessel, charkit, cuspchar, exjs, ffield, levelzero
    ctx = ffield.build_field(*prime_power(q), n)
    rows, pairs = [], 0
    for k in charkit.regular_orbit_reps(ctx, n):
        rep = cuspchar.CuspidalRep(ctx, k)
        table = bessel.bessel_build(rep, charkit.AddChar(ctx, False))
        shalika = n % 2 == 0 and charkit.restriction_is_trivial(rep.theta, n // 2)
        row = {"theta": rep.exponent, "shalika": shalika}
        if shalika:
            lz = levelzero.LevelZeroCtx(table, 1.0)
            L, eps = levelzero.local_L_eps(lz)
            gamma = levelzero.local_gamma(lz)
            gtilde, resid = levelzero.modified_fe_check(table, trials, seed)
            row.update(L=L.to_json_dict(), eps=eps.to_json_dict(),
                       gamma=gamma.to_json_dict(),
                       modified_gamma=gtilde.to_json_dict(),
                       modified_fe_residual=resid)
        else:
            ratio = exjs.gamma_ratio(table, trials, seed)
            exjs.gamma_torus(table)
            if n in (2, 3, 4):
                exjs.gamma_closed(table)
            row["routes"] = {"ratio": [ratio.value.real, ratio.value.imag]}
            row["fe_residual"] = ratio.diagnostics["max_residual"]
            if pairs is not None and "pairs_checked" in ratio.diagnostics:
                pairs += ratio.diagnostics["pairs_checked"]
            else:
                pairs = None
        rows.append(row)
    return {"q": ctx.q, "n": n, "rows": rows}, pairs


def _argv_value(argv, flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def run_cell(report: str, passes: int, argv: list) -> dict:
    """Cold `cli.main(argv)` to stdout, then `passes` warm runs to files."""
    from gammalab import cli
    rc = cli.main(argv)
    sys.stdout.flush()
    out = {"cold_rc": rc, "cold_done": perf_counter(),
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "warm": []}
    for i in range(passes):
        path = f"{report}.warm{i}.json"
        rc, dt = _timed(cli.main, argv + ["--out", path])
        out["warm"].append({"rc": rc, "seconds": dt, "out": path})
    return out


def run_trace(report: str, passes: int, argv: list) -> dict:
    """A cold traced plain loop, then `passes` warm rounds of a traced plain
    loop, an untraced plain loop and an untraced `cli.main`."""
    from gammalab import cli
    q, n, seed = (_argv_value(argv, f) for f in ("--q", "--n", "--seed"))
    tracer = Tracer()
    tracer.install()
    (cold_payload, pairs), cold_s = _timed(plain_pass, q, n, seed)
    cold = tracer.take()
    payloads, times = [cold_payload], {"traced": [], "plain": [], "cli": []}
    cli_outs, cli_rcs = [], []
    for i in range(passes):
        if i:
            tracer.install()
        (payload, _), dt = _timed(plain_pass, q, n, seed)
        tracer.uninstall()
        if i == 0:
            warm = tracer.take()
        payloads.append(payload)
        times["traced"].append(dt)
        (payload, _), dt = _timed(plain_pass, q, n, seed)
        payloads.append(payload)
        times["plain"].append(dt)
        cli_outs.append(f"{report}.cli{i}.json")
        rc, dt = _timed(cli.main, argv + ["--out", cli_outs[-1]])
        cli_rcs.append(rc)
        times["cli"].append(dt)
    return {"missing": tracer.missing, "cold": cold, "warm": warm,
            "pairs_checked": pairs, "cold_s": cold_s, "warm_s": times,
            "cli_rcs": cli_rcs, "cli_outs": cli_outs, "payloads": payloads}


def run_trace_cli(report: str, argv: list) -> dict:
    """One cold `cli.main(argv)` with the tracer counting."""
    from gammalab import cli
    tracer = Tracer()
    tracer.install()
    cli_out = f"{report}.cli.json"
    rc, cold_s = _timed(cli.main, argv + ["--out", cli_out])
    tracer.uninstall()
    return {"missing": tracer.missing, "cold": tracer.take(), "cold_s": cold_s,
            "cli_rc": rc, "cli_out": cli_out}


def main(args) -> int:
    mode, report, *rest = args
    sep = rest.index("--")
    opts, argv = rest[:sep], rest[sep + 1:]
    if mode == "cell":
        result = run_cell(report, int(opts[0]), argv)
    elif mode == "trace":
        result = run_trace(report, int(opts[0]), argv)
    elif mode == "trace-cli":
        result = run_trace_cli(report, argv)
    else:
        raise SystemExit(f"unknown mode {mode}")
    with open(report, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
