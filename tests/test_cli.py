import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gammalab import cli, levelzero
from gammalab.bessel import BesselTable
from gammalab import matgrp as mg


def run_main(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_gamma_all_regular_q3_n2(capsys):
    code, out = run_main(["gamma", "--q", "3", "--n", "2",
                          "--theta", "all-regular"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "gammalab/1"
    rows = data["rows"]
    assert len(rows) == 3  # three Galois orbits of regular characters
    for row in rows:
        if not row["shalika"]:
            assert abs(row["abs_gamma"] - 1) < 1e-8
            assert row["max_route_delta"] < 1e-7
        else:
            assert "L" in row and "eps" in row and "gamma" in row


def test_gamma_single_theta_shalika_row(capsys):
    code, out = run_main(["gamma", "--q", "3", "--n", "2", "--theta", "2"],
                         capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["shalika"]
    # L = 1/(1 - X) at c = 1
    assert row["L"]["den"] == [[1.0, 0.0], [-1.0, 0.0]]
    assert row["modified_fe_residual"] < 1e-9


def test_gamma_q2_n3(capsys):
    code, out = run_main(["gamma", "--q", "2", "--n", "3", "--theta", "1"],
                         capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["abs_gamma"] - 1) < 1e-8
    assert set(row["routes"]) == {"ratio", "torus", "closed_form"}


def test_exit_code_on_non_regular_theta(capsys):
    code, _ = run_main(["gamma", "--q", "3", "--n", "2", "--theta", "0"],
                       capsys)
    assert code == cli.EXIT_PRECONDITION


def test_exit_code_on_route_disagreement(capsys):
    # an absurd tolerance forces the disagreement path
    code, out = run_main(["gamma", "--q", "3", "--n", "2", "--theta", "1",
                          "--tol", "1e-30"], capsys)
    assert code == cli.EXIT_ROUTE_DISAGREEMENT
    assert json.loads(out)["rows"]  # report still emitted


def test_gamma_and_verify_share_the_route_verdict_at_tol(capsys):
    # a route distance equal to --tol is within it for both commands; at
    # (3, 2) verify's worst ratio distance is the largest row delta
    code, out = run_main(["gamma", "--q", "3", "--n", "2"], capsys)
    tol = max(r["max_route_delta"] for r in json.loads(out)["rows"] if not r["shalika"])
    for command in ("gamma", "verify"):
        code, out = run_main([command, "--q", "3", "--n", "2", "--tol", repr(tol)],
                             capsys)
        assert code == cli.EXIT_OK
    assert f"PASS route_agreement residual={tol:.3e}" in json.loads(out)["checks"]


def test_verify_green(capsys):
    code, out = run_main(["verify", "--q", "2", "--n", "2"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert all(line.startswith("PASS") for line in data["checks"])


@pytest.mark.parametrize("theta", ["0", "6"])
def test_verify_refuses_a_non_regular_theta(theta, capsys):
    # as gamma and export do: 0 and 6 are not regular at (5, 2)
    code, out = run_main(["verify", "--q", "5", "--n", "2", "--theta", theta], capsys)
    assert code == cli.EXIT_PRECONDITION and not out


def test_verify_checks_only_the_named_theta(capsys, monkeypatch):
    built = []
    tables = cli.bessel_tables

    def record(ctx, n, ks, psi):
        built.append(list(ks))
        return tables(ctx, n, ks, psi)
    monkeypatch.setattr(cli, "bessel_tables", record)
    code, out = run_main(["verify", "--q", "5", "--n", "2", "--theta", "3"], capsys)
    assert code == cli.EXIT_OK and built == [[3]]
    data = json.loads(out)
    assert data["failed"] == 0 and len(data["checks"]) == 11


def _shift_tables(shift, monkeypatch):
    """Move every table `cli` builds by `shift(values, start, count)`: start
    and count those of the (1, n - 1) run."""
    tables = cli.bessel_tables

    def shifted(ctx, n, ks, psi):
        start = cli.support_keys(ctx, n).index(((1, n - 1), (1, 1)))
        out = []
        for t in tables(ctx, n, ks, psi):
            values = t.values.copy()
            shift(values, start, (ctx.q - 1) ** 2)
            out.append(BesselTable(t.rep, t.psi, values))
        return out
    monkeypatch.setattr(cli, "bessel_tables", shifted)


def _verify_shifted(argv, shift, capsys, monkeypatch, command="verify"):
    """The checks `command` printed, by name (None when it printed nothing),
    with every table moved by `shift(values, start, count)`: start and count
    those of the (1, n - 1) run."""
    _shift_tables(shift, monkeypatch)
    code, out = run_main([command] + argv, capsys)
    if not out:
        return code, None
    return code, {line.split()[1]: line for line in json.loads(out).get("checks", [])}


@pytest.mark.parametrize("q, n, theta", [(5, 2, 1), (3, 2, 1), (2, 4, 1), (2, 5, 1)])
def test_verify_refuses_one_moved_key_of_the_run(q, n, theta, capsys, monkeypatch):
    def move(values, start, count):
        values[start + count // 2] += 1e-6
    cell = ["--q", str(q), "--n", str(n), "--theta", str(theta)]
    code, checks = _verify_shifted(cell, move, capsys, monkeypatch)
    assert code == cli.EXIT_VERIFY_FAILED
    assert checks["bessel_closed_form"].startswith("FAIL")


def test_verify_refuses_the_shift_the_modified_certificate_passes(capsys, monkeypatch):
    # a Shalika table at (5, 2) moved by 1e-6 on the 16 keys of composition
    # (1, 1), which the canonical pair does not read
    def move(values, start, count):
        values[start:start + count] += 1e-6
    code, checks = _verify_shifted(["--q", "5", "--n", "2", "--theta", "4"], move,
                                   capsys, monkeypatch)
    assert code == cli.EXIT_VERIFY_FAILED
    assert checks["functional_equation"].startswith("PASS")
    assert checks["bessel_closed_form"].startswith("FAIL")


def _nan_at_key_3(values, start, count):
    values[3] = np.nan


def _nan_everywhere(values, start, count):
    values[:] = np.nan


@pytest.mark.parametrize("q, n, theta, poison", [
    (5, 2, 1, _nan_at_key_3),  # the plain certificate's residual is NaN
    (5, 2, 4, _nan_everywhere),  # the Shalika row's gamma~ and residual are NaN
    (4, 3, 1, _nan_everywhere),  # JS(W0, phi0) and every route's gamma are NaN
])
def test_gamma_refuses_non_finite_tables(q, n, theta, poison, capsys, monkeypatch):
    # a NaN residual fails its certificate: exit 1 with nothing printed, not
    # exit 0 with a NaN printed, a route disagreement (exit 3) or an uncaught
    # exception
    cell = ["--q", str(q), "--n", str(n), "--theta", str(theta)]
    code, checks = _verify_shifted(cell, poison, capsys, monkeypatch, "gamma")
    assert code == cli.EXIT_VERIFY_FAILED and checks is None


def test_nan_shalika_table_fails_with_one_error_line(capsys, monkeypatch):
    # every value NaN at (5, 2), theta = 4: the canonical ratio is refused
    # where its RatQS is built, naming theta, before numpy warns of a NaN
    _shift_tables(_nan_everywhere, monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["gamma", "--q", "5", "--n", "2", "--theta", "4"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY_FAILED and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert captured.err.endswith("at theta = 4)\n")


def test_verify_fails_a_nan_functional_equation(capsys, monkeypatch):
    # the block's certificate refuses the NaN, so the functional equation
    # fails with residual inf rather than printing the PASS of a dropped NaN
    code, checks = _verify_shifted(["--q", "4", "--n", "3", "--theta", "1"],
                                   _nan_at_key_3, capsys, monkeypatch)
    assert code == cli.EXIT_VERIFY_FAILED
    assert checks["functional_equation"] == "FAIL functional_equation residual=inf"


def test_verify_keeps_a_nan_residual(capsys, monkeypatch):
    # a NaN from one block's closed-form distance survives the fold over the
    # blocks, whatever comes after it, and fails its line
    distance = cli._closed_form_distance
    calls = []

    def first_nan(ctx, tables, psi):
        calls.append(1)
        return math.nan if len(calls) == 1 else distance(ctx, tables, psi)
    monkeypatch.setattr(cli, "_closed_form_distance", first_nan)
    monkeypatch.setattr(cli, "THETA_BLOCK", 2)
    code, out = run_main(["verify", "--q", "5", "--n", "2"], capsys)
    checks = {line.split()[1]: line for line in json.loads(out)["checks"]}
    assert len(calls) > 1 and code == cli.EXIT_VERIFY_FAILED
    assert checks["bessel_closed_form"] == "FAIL bessel_closed_form residual=nan"
    assert sum(line.startswith("FAIL") for line in checks.values()) == 1


def test_verify_passes_a_residual_equal_to_its_bound(capsys, monkeypatch):
    # every check passes a residual at most its bound, as the certificates
    # and --tol do
    monkeypatch.setattr(cli, "_closed_form_distance",
                        lambda ctx, tables, psi: cli.CLOSED_FORM_TOL)
    code, out = run_main(["verify", "--q", "3", "--n", "2"], capsys)
    assert code == cli.EXIT_OK
    assert "PASS bessel_closed_form residual=1.000e-08" in json.loads(out)["checks"]


def test_verify_fails_a_simplification_that_cancels_nothing(capsys, monkeypatch):
    monkeypatch.setattr(levelzero.RatQS, "simplified", lambda self: self)
    code, out = run_main(["verify", "--q", "2", "--n", "2"], capsys)
    checks = {line.split()[1]: line for line in json.loads(out)["checks"]}
    assert code == cli.EXIT_VERIFY_FAILED
    assert checks["ratqs_identities"].startswith("FAIL")
    assert sum(line.startswith("FAIL") for line in checks.values()) == 1


def test_verify_fails_the_route_checks_when_a_route_raises(monkeypatch, capsys):
    # a route that raises leaves no deltas to report: the route checks must
    # fail with it rather than print the PASS of an empty maximum
    def refuse(tables):
        raise cli.OracleFailed("unitarity", "refused")
    monkeypatch.setattr(cli.exjs, "gamma_tori", refuse)
    code, out = run_main(["verify", "--q", "3", "--n", "2"], capsys)
    assert code == cli.EXIT_VERIFY_FAILED
    checks = {line.split()[1]: line for line in json.loads(out)["checks"]}
    for name in ("functional_equation", "route_agreement", "gamma_unitarity"):
        assert checks[name].startswith("FAIL"), checks[name]
    assert checks["route_agreement"].endswith("residual=inf")
    assert checks["character_oracle"].startswith("PASS")


def test_csv_format(capsys):
    code, out = run_main(["gamma", "--q", "2", "--n", "2",
                          "--theta", "all-regular", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema gammalab/1"
    assert "theta" in lines[1]


def test_export_roundtrip(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    code, _ = run_main(["export", "--q", "2", "--n", "3", "--out", str(out_dir)],
                       capsys)
    assert code == 0
    sweep = json.loads((out_dir / "gamma_sweep_q2_n3.json").read_text())
    assert sweep["schema"] == "gammalab/1"
    assert len(sweep["rows"]) == 2
    csv_files = sorted(out_dir.glob("bessel_*.csv"))
    assert len(csv_files) == 2
    first = csv_files[0].read_text().splitlines()
    assert first[0].startswith("# schema gammalab/1")
    assert first[1] == "composition,scalars,re,im"


def test_byte_determinism_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "gammalab.cli", "gamma", "--q", "2", "--n", "2",
           "--theta", "all-regular", "--seed", "7"]
    a = subprocess.run(cmd, capture_output=True, check=True).stdout
    b = subprocess.run(cmd, capture_output=True, check=True).stdout
    assert a == b and a


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_keeps_openblas_to_one_thread_unless_set(preset):
    # the package makes no threaded BLAS call, so importing it sets
    # OPENBLAS_NUM_THREADS before numpy starts OpenBLAS; a value set is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = "import os, gammalab; print(os.environ['OPENBLAS_NUM_THREADS'])"
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == f"{preset or 1}\n"


def test_psi_inverse_flag(capsys):
    code, out = run_main(["gamma", "--q", "3", "--n", "2", "--theta", "1",
                          "--psi-inverse"], capsys)
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert abs(row["abs_gamma"] - 1) < 1e-8


def test_exit_code_on_non_prime_power_q(capsys):
    for q in ("6", "0", "1", "12", "-4"):
        code = cli.main(["gamma", "--q", q, "--n", "2"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_PRECONDITION
        assert captured.err == f"error: q = {q} is not a prime power\n"
        assert captured.out == ""


@pytest.mark.parametrize("q", [1000000007, 16777259, 2 ** 31 - 1, 2 ** 61 - 1])
def test_large_prime_q_refused_quickly(q, capsys, monkeypatch):
    # a prime q is refused by the size of its cell before it is factored
    # (trial division up to sqrt(2^61 - 1) would not end) and before any
    # field is built
    def no_field(*args):
        raise AssertionError("build_field called")
    monkeypatch.setattr(cli, "build_field", no_field)
    t0 = time.perf_counter()
    code = cli.main(["gamma", "--q", str(q), "--n", "2"])
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert code == cli.EXIT_PRECONDITION and captured.out == ""
    assert captured.err.startswith("error:") and "class typings" in captured.err


@pytest.mark.parametrize("command", ["gamma", "verify", "export"])
@pytest.mark.parametrize("q, n", [(2, 170), (2, 200000), (10 ** 3000 + 1, 2), (2, 10 ** 100),
                                  (-10 ** 3000 - 1, 2)])
def test_oversized_cells_refused_at_once(command, q, n, tmp_path, capsys, monkeypatch):
    # a cell whose typing count is too large to print, or to form, is
    # refused by naming the limit, and a q < 2 as no prime power, before q
    # is factored or a field built, on one short line that names a q of
    # 3,000 digits by its bit length
    monkeypatch.setattr(cli, "build_field", lambda *a: pytest.fail("build_field called"))
    argv = [command, "--q", str(q), "--n", str(n), "--out", str(tmp_path / "out")]
    t0 = time.perf_counter()
    code = cli.main(argv)
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert code == cli.EXIT_PRECONDITION and captured.out == ""
    if q < 2:
        assert captured.err == "error: q = a negative 9966-bit integer is not a prime power\n"
    else:
        assert captured.err.startswith("error: the Bessel support profile at")
        assert "class typings, over the limit of" in captured.err
    assert captured.err.count("\n") == 1
    if abs(q) > 10 ** 3000:  # named by its bit length, not its 3,001 digits
        assert len(captured.err) < 200
    assert "Traceback" not in captured.err and list(tmp_path.iterdir()) == []


def test_p_and_e_are_not_options(capsys):
    # --q is the one spelling of the field: --p is refused, and neither
    # option is in any subcommand's help
    assert cli.main(["gamma", "--p", "3", "--n", "2"]) == cli.EXIT_PRECONDITION
    assert capsys.readouterr().out == ""
    for command in ("gamma", "verify", "export"):
        assert cli.main([command, "--help"]) == cli.EXIT_OK
        usage = capsys.readouterr().out
        assert "--q Q" in usage and not re.search(r"--[pe]\b", usage)


_REFUSED = [["--q", "3", "--n", "1"], ["--q", "3", "--n", "2", "--trials", "0"],
            ["--q", "3", "--n", "2", "--tol", "nan"], ["--q", "3", "--n", "2", "--theta", "x"],
            ["--q", "3", "--n", "2", "--c-re", "2"], ["--q", "x", "--n", "2"],
            ["--n", "2"], ["--q", "3", "--n", "2", "--out", "MISSING_DIR/rows.json"]]


# export's --out is a directory, created when missing: it has no bad --out
@pytest.mark.parametrize("command,args", [
    (command, args) for command in ("gamma", "verify", "export") for args in _REFUSED
    if command != "export" or "--out" not in args])
def test_refusals_print_the_subcommand_usage(command, args, tmp_path, capsys):
    # each refusal after parsing names the usage of the subcommand given,
    # not the top-level "usage: gammalab [-h] {gamma,verify,export} ..."
    argv = [command] + [str(tmp_path / a) if a.startswith("MISSING_DIR") else a
                        for a in args]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_PRECONDITION and captured.out == ""
    assert captured.err.startswith(f"usage: gammalab {command} ")
    assert f"gammalab {command}: error:" in captured.err


def test_exit_code_on_zero_sampled_trials(capsys):
    code, out = run_main(["gamma", "--q", "3", "--n", "3", "--theta", "1",
                          "--trials", "0"], capsys)
    assert code == cli.EXIT_PRECONDITION
    assert out == ""


def test_export_builds_each_table_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = cli.bessel_tables

    def counting(ctx, n, exponents, psi):
        calls.append(list(exponents))
        return build(ctx, n, exponents, psi)

    monkeypatch.setattr(cli, "bessel_tables", counting)
    code, _ = run_main(["export", "--q", "2", "--n", "3", "--out",
                        str(tmp_path / "exp")], capsys)
    assert code == 0
    # one call for the whole cell, one table per orbit
    assert len(calls) == 1 and len(calls[0]) == 2


def test_gamma_q5n2_rows_share_one_pool(capsys):
    argv = ["gamma", "--q", "5", "--n", "2"]
    code, out = run_main(argv, capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 10
    for row in rows:
        # |GL_2(F_5)| * 5, exhaustive, for both certificates
        assert row["pairs_checked"] == 2400
    code, warm = run_main(argv, capsys)
    assert code == 0 and warm == out
    # a fresh process decomposes the pool's 480 x 4 products in its first
    # pass; with the pool, the canonical pair and the torus signatures
    # cached, a second pass reduces at most a few arguments of each row,
    # not the 2,400 pairs
    codes, (cold, warm_calls) = _fresh_bruhat_calls(argv, passes=2)
    assert codes == [0, 0] and cold >= 1920
    assert warm_calls <= 20 * len(rows)


def test_warm_q5n2_pass_certifies_each_block_once(capsys, monkeypatch):
    # a warm pass certifies its 8 tables without and 2 with a Shalika vector
    # from one pool profile call over its one block, which gives the
    # canonical pair too (a second reading of the pair would be a second
    # call), and builds no level-zero rational function again for the same
    # (q, m, c)
    from gammalab import exjs
    argv = ["gamma", "--q", "5", "--n", "2"]
    levelzero._level_zero_terms.cache_clear()
    assert run_main(argv, capsys)[0] == 0
    assert levelzero._level_zero_terms.cache_info().misses == 1
    pooled, built = [], []
    profiles = exjs._pool_profiles
    l_factor = levelzero.l_factor
    monkeypatch.setattr(exjs, "_pool_profiles",
                        lambda tables, pool: pooled.append(len(tables))
                        or profiles(tables, pool))
    monkeypatch.setattr(levelzero, "l_factor",
                        lambda c, m: built.append((c, m)) or l_factor(c, m))
    code, out = run_main(argv, capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    blocks = sorted([sum(r["shalika"] for r in rows), sum(not r["shalika"] for r in rows)])
    assert blocks == [2, 8]
    assert pooled == [10]
    assert built == [] and levelzero._level_zero_terms.cache_info().misses == 1


def test_shalika_rows_read_the_block_canonical_pair_at_every_c(capsys, monkeypatch):
    # a Shalika row at c != 1 reads its canonical pair from the block's
    # profiles: a pass makes as many pool profile calls at c = i and c = -1
    # as at c = 1, and prints what the two-call oracle (the canonical pool
    # and every test translate read apart) prints, byte for byte
    from gammalab import exjs
    from poolref import separate_profiles
    argv = ["gamma", "--q", "5", "--n", "2"]
    units = (["--c-re", "1"], ["--c-re", "0", "--c-im", "1"], ["--c-re", "-1"])
    pooled, outs = [], []
    profiles = exjs._pool_profiles
    monkeypatch.setattr(exjs, "_pool_profiles",
                        lambda tables, pool: pooled.append(len(tables))
                        or profiles(tables, pool))
    for unit in units:
        pooled.clear()
        code, out = run_main(argv + unit, capsys)
        assert code == 0 and pooled == [10]
        outs.append(out)
    monkeypatch.setattr(exjs, "block_profiles", separate_profiles)
    for unit, out in zip(units, outs):
        assert run_main(argv + unit, capsys) == (0, out)


def test_zero_trials_refused_before_any_build(capsys, monkeypatch):
    # --trials < 1 is refused while parsing: no field and no Bessel table
    # is built, even on a cell whose support profile takes seconds
    calls = []
    monkeypatch.setattr(cli, "build_field", lambda *a: calls.append(a))
    monkeypatch.setattr(cli, "bessel_tables", lambda *a: calls.append(a))
    for argv in (["gamma", "--q", "2", "--n", "5", "--trials", "0"],
                 ["verify", "--q", "5", "--n", "2", "--trials", "-1"]):
        code, out = run_main(argv, capsys)
        assert code == cli.EXIT_PRECONDITION and out == ""
    assert calls == []


def _fresh_bruhat_calls(argv, passes=1):
    """(exit codes, Bruhat reductions) of each of `passes` runs of
    cli.main(argv) in one fresh process, so no cache of this one is reused.
    Every Bruhat decomposition and every support signature runs
    `mg.bruhat_reduce` once or is one matrix of a `mg.batch_bruhat` stack."""
    script = (
        "import sys\n"
        "from gammalab import cli, matgrp as mg\n"
        "calls = []\n"
        "reduce, batch = mg.bruhat_reduce, mg.batch_bruhat\n"
        "mg.bruhat_reduce = lambda ctx, g: calls.append(1) or reduce(ctx, g)\n"
        "mg.batch_bruhat = lambda ctx, g: calls.append(len(g)) or batch(ctx, g)\n"
        f"for _ in range({passes}):\n"
        f"    code = cli.main({argv!r})\n"
        "    print('bruhat', code, sum(calls), file=sys.stderr)\n"
        "    calls.clear()\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    counts = [line.split()[1:] for line in done.stderr.splitlines()
              if line.startswith("bruhat ")]
    return [int(c) for c, _ in counts], [int(k) for _, k in counts]


def test_verify_q5n2_builds_the_exhaustive_pool_once():
    # the certificates (trials 100) and the Shalika zero search (samples
    # 200) share one all-of-GL_2 pool: 1,920 Bruhat decompositions, once
    (code,), (calls,) = _fresh_bruhat_calls(["verify", "--q", "5", "--n", "2"])
    assert code == 0
    assert 0 < calls <= 3040  # 4,960 with one pool per (seed, trials) key


def test_verify_q2n4_grows_one_sampled_pool():
    # the certificates' 100 seeded translates are the first 100 of the
    # Shalika zero search's 200, so each is decomposed once
    (code,), (calls,) = _fresh_bruhat_calls(["verify", "--q", "2", "--n", "4"])
    assert code == 0
    assert 0 < calls <= 2250  # 2,850 when the 100 were decomposed twice


def test_gamma_beyond_the_class_typing_limit_refused(capsys):
    # (2, 7) needs 2^21 unipotents x 64 support keys = 134,217,728 class
    # typings and (3, 5) 3^10 x 162 = 9,565,938: refused before the first
    # one, not left to run for hours
    for q, n in (("2", "7"), ("3", "5")):
        t0 = time.perf_counter()
        code, out = run_main(["gamma", "--q", q, "--n", n], capsys)
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert time.perf_counter() - t0 < 10


def test_over_limit_cells_refused_before_any_build(tmp_path, capsys, monkeypatch):
    # (16, 3) needs 16^3 x 15 x 16^2 = 15,728,640 class typings; the count
    # depends on (q, n) alone, so every command refuses it before building
    # a field (1.27 GB of field tables and 5.8 s when refused after it)
    calls = []
    monkeypatch.setattr(cli, "build_field", lambda *a: calls.append(a))
    for command in ("gamma", "verify", "export"):
        t0 = time.perf_counter()
        code, out = run_main([command, "--q", "16", "--n", "3",
                              "--out", str(tmp_path / command)], capsys)
        assert code == cli.EXIT_PRECONDITION and out == ""
        assert time.perf_counter() - t0 < 1
    assert calls == []


def test_bad_out_file_refused_before_any_build(tmp_path, capsys, monkeypatch):
    # gamma's and verify's --out is a file: an existing directory, or a path
    # whose directory does not exist, is refused before the cell is built,
    # not with an io error after it is computed
    calls = []
    monkeypatch.setattr(cli, "build_field", lambda *a: calls.append(a))
    for command in ("gamma", "verify"):
        for out in (tmp_path, tmp_path / "missing" / "rows.json"):
            code = cli.main([command, "--q", "3", "--n", "2", "--out", str(out)])
            captured = capsys.readouterr()
            assert code == cli.EXIT_PRECONDITION and captured.out == ""
            assert "--out" in captured.err
    assert calls == [] and list(tmp_path.iterdir()) == []
    # export's --out stays a directory, created when missing
    monkeypatch.undo()
    code, _ = run_main(["export", "--q", "3", "--n", "2", "--theta", "1",
                        "--out", str(tmp_path / "new")], capsys)
    assert code == 0 and (tmp_path / "new" / "gamma_sweep_q3_n2.json").is_file()


@pytest.mark.parametrize("command", ["gamma", "export"])
def test_exhaustive_is_a_verify_flag(command, tmp_path, capsys, monkeypatch):
    # only verify reads --exhaustive (10,000 bi-equivariance draws instead
    # of 500): gamma and export refuse it before any build
    calls = []
    monkeypatch.setattr(cli, "build_field", lambda *a: calls.append(a))
    code, out = run_main([command, "--q", "3", "--n", "2", "--exhaustive",
                          "--out", str(tmp_path / "out")], capsys)
    assert code == cli.EXIT_PRECONDITION and out == "" and calls == []
    assert cli.parse_config(["verify", "--q", "3", "--n", "2", "--exhaustive"]).exhaustive
    assert not cli.parse_config([command, "--q", "3", "--n", "2"]).exhaustive


@pytest.mark.parametrize("bound,argv,error", [
    # OracleFailed: the canonical pair's JS(W0, phi0) = 1 check of the plain
    # certificate
    ("FE_TOL", ["--q", "3", "--n", "3", "--theta", "1"], "canonical_js"),
    # NonConstantRatio: the modified certificate of a Shalika row
    ("FE_TOL", ["--q", "5", "--n", "2", "--theta", "4"],
     "modified functional equation residual"),
    # OracleFailed: the unitarity of the ratio route's gamma
    ("UNITARITY_TOL", ["--q", "3", "--n", "3", "--theta", "1"], "unitarity"),
])
def test_failed_self_check_exits_1(bound, argv, error, capsys, monkeypatch):
    # a bound no residual can meet makes a self-check fail, which is a
    # verification failure: exit 1, not 2
    from gammalab import exjs
    monkeypatch.setattr(exjs, bound, -1.0)
    code = cli.main(["gamma", *argv])
    captured = capsys.readouterr()
    assert code == cli.EXIT_VERIFY_FAILED and captured.out == ""
    assert captured.err.startswith("error:") and error in captured.err


def test_gamma_row_reads_one_canonical_ratio_at_c1(capsys, monkeypatch):
    # at c = 1 local_gamma cross-checks against the certificate's gamma~,
    # so the canonical-pair ratio of each Shalika row is computed once, in
    # the certificate's block form; every local_gamma call is handed its
    # ratio, so none computes one pointwise
    blocks, pointwise = [], []
    block, gamma = levelzero._canonical_ratios, levelzero.local_gamma
    monkeypatch.setattr(levelzero, "_canonical_ratios",
                        lambda tables, *args: blocks.append(len(tables))
                        or block(tables, *args))
    monkeypatch.setattr(levelzero, "local_gamma",
                        lambda lz, ratio=None: pointwise.append(ratio is None)
                        or gamma(lz, ratio))
    code, out = run_main(["gamma", "--q", "5", "--n", "2"], capsys)
    assert code == 0
    shalika = sum(row["shalika"] for row in json.loads(out)["rows"])
    assert shalika == 2 and blocks == [shalika] and pointwise == [False] * shalika
    # at another c the certificate's c = 1 ratio is no cross-check: the
    # block's rows compute their ratio at c in one more block call
    blocks.clear()
    pointwise.clear()
    code, out = run_main(["gamma", "--q", "5", "--n", "2", "--c-re", "0",
                          "--c-im", "1"], capsys)
    assert code == 0 and blocks == [shalika, shalika]
    assert pointwise == [False] * shalika


def test_shared_parser_still_refuses_after_a_valid_call(capsys):
    # the parser is built once per process; a valid parse must leave no
    # state behind that lets a later bad argument through
    for bad in (["--q", "6"], ["--q", "x"], ["--q", "3", "--trials", "0"],
                ["--q", "4", "--theta", "x"], ["--q", "4", "--c-re", "2"],
                ["--q", "4", "--c-re", "nan"], ["--q", "4", "--tol", "nan"],
                ["--q", "4", "--tol", "inf"], ["--q", "4", "--tol", "-1"]):
        code, out = run_main(["gamma", "--q", "2", "--n", "2", "--theta", "1"],
                             capsys)
        assert code == 0 and json.loads(out)["rows"]
        code, out = run_main(["gamma", "--n", "3", "--theta", "1", *bad], capsys)
        assert code == cli.EXIT_PRECONDITION and out == ""


def test_shared_parser_help_matches_a_fresh_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    run_main(["gamma", "--q", "2", "--n", "2", "--theta", "1"], capsys)
    for args in (["--help"], ["gamma", "--help"], ["verify", "--help"],
                 ["export", "--help"]):
        code, shared = run_main(args, capsys)
        assert code == 0
        with pytest.raises(SystemExit) as done:
            cli._parser.__wrapped__().parse_args(args)
        assert done.value.code == 0
        assert shared == capsys.readouterr().out
        assert shared.startswith("usage: gammalab")


def _element_lines(text: str) -> list:
    """The elements of the top-level lists of `_json_text` output, one
    parsed line each; each line must be the element's one-line encoding
    with sorted keys."""
    lines = [line.strip().rstrip(",") for line in text.splitlines()
             if line.startswith("    ")]
    elements = [json.loads(line) for line in lines]
    assert lines == [json.dumps(e, sort_keys=True) for e in elements]
    return elements


@pytest.mark.parametrize("argv,key", [
    (["gamma", "--q", "3", "--n", "3"], "rows"),  # no Shalika rows
    (["gamma", "--q", "5", "--n", "2"], "rows"),  # Shalika and plain rows
    (["gamma", "--q", "2", "--n", "4", "--theta", "1"], "rows"),
    (["verify", "--q", "2", "--n", "3"], "checks"),
])
def test_json_output_parses_as_the_indented_payload(argv, key, capsys, monkeypatch):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda cfg, payload, path:
                        payloads.append(payload) or emit(cfg, payload, path))
    code, out = run_main(argv, capsys)
    assert code == 0
    (payload,) = payloads
    parsed = json.loads(out)
    assert parsed == json.loads(json.dumps(payload, indent=2, sort_keys=True))
    # each element of the top-level list on a line of its own, in order
    assert parsed[key] and _element_lines(out) == parsed[key]
    # the top-level object one sorted key per line
    top = [line for line in out.splitlines() if line.startswith('  "')]
    assert [line.split('"')[1] for line in top] == sorted(payload)


def test_export_sweep_parses_as_the_indented_payload(tmp_path, capsys, monkeypatch):
    payloads = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda cfg, payload, path:
                        payloads.append(payload) or emit(cfg, payload, path))
    code = cli.main(["export", "--q", "5", "--n", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    text = (tmp_path / "gamma_sweep_q5_n2.json").read_text()
    (payload,) = payloads
    assert json.loads(text) == json.loads(json.dumps(payload, indent=2, sort_keys=True))
    assert _element_lines(text) == json.loads(text)["rows"]


def test_json_text_edge_values():
    payload = {"rows": [{"x": float("nan"), "y": [float("inf"), -float("inf")],
                         "s": 'quote " back \\ tab \t line \n é ☃', "e": {}},
                        [], {}, "a \"string\" element", None, 1.5e-300],
               "empty_list": [], "empty_dict": {}, "nested": {"b": [1, {"z": 0, "a": 1}]},
               "text": "é\n", "nan": float("nan"), "zero": -0.0}
    text = cli._json_text(payload)
    reference = json.dumps(payload, indent=2, sort_keys=True)
    # NaN != NaN, so compare the parsed values re-encoded
    assert (json.dumps(json.loads(text), sort_keys=True)
            == json.dumps(json.loads(reference), sort_keys=True))
    assert len(_element_lines(text)) == len(payload["rows"])
    assert cli._json_text({}) == "{}\n"
    assert json.loads(cli._json_text({"rows": []})) == {"rows": []}


@pytest.mark.parametrize("n", ["1", "0"])
@pytest.mark.parametrize("command", ["gamma", "verify", "export"])
def test_n_below_two_refused(command, n, tmp_path, capsys, monkeypatch):
    # refused while parsing: exit 2, nothing on stdout and no file written
    monkeypatch.chdir(tmp_path)
    argv = [command, "--q", "5", "--n", n]
    if command == "export":
        argv += ["--out", str(tmp_path / "exp")]
    code, out = run_main(argv, capsys)
    assert code == cli.EXIT_PRECONDITION and out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, routed", [
    (["--q", "2", "--n", "2"], False),
    (["--q", "3", "--n", "2", "--theta", "2"], False),
    (["--q", "3", "--n", "2"], True),
])
def test_verify_reports_route_checks_only_when_a_route_ran(argv, routed, capsys):
    # every table selected at (2, 2), and theta = 2 at (3, 2), has a Shalika
    # vector: no route is computed, so no route check may pass
    code, out = run_main(["verify"] + argv, capsys)
    assert code == cli.EXIT_OK
    names = [line.split()[1] for line in json.loads(out)["checks"]]
    assert "functional_equation" in names
    assert ("route_agreement" in names) == routed
    assert ("gamma_unitarity" in names) == routed


def _cell_outputs(q, n, out_dir, capsys):
    """stdout and exit code of gamma (both psi) and verify, and of an export
    to out_dir with its files, at (q, n)."""
    cell = ["--q", str(q), "--n", str(n)]
    outs = {" ".join(argv): run_main(argv + cell, capsys)
            for argv in (["gamma"], ["gamma", "--psi-inverse"], ["verify"])}
    outs["export"] = run_main(["export"] + cell + ["--out", str(out_dir)], capsys)
    for path in sorted(out_dir.iterdir()):
        outs[path.name] = path.read_text()
    return outs


def _block_sizes(monkeypatch) -> list:
    """The number of exponents of each `bessel_tables` call the CLI makes
    from now on."""
    sizes = []
    tables = cli.bessel_tables
    monkeypatch.setattr(cli, "bessel_tables", lambda ctx, n, ks, psi:
                        sizes.append(len(ks)) or tables(ctx, n, ks, psi))
    return sizes


@pytest.mark.parametrize("q, n", [(5, 2), (4, 3)])
def test_output_does_not_depend_on_the_block_size(q, n, tmp_path, capsys, monkeypatch):
    # at (5, 2) blocks of 3 mix Shalika and plain rows
    default = _cell_outputs(q, n, tmp_path / "default", capsys)
    sizes = _block_sizes(monkeypatch)
    monkeypatch.setattr(cli, "THETA_BLOCK", 3)
    assert _cell_outputs(q, n, tmp_path / "three", capsys) == default
    assert max(sizes) == 3 and len(sizes) > 4


def test_gamma_walks_a_cell_in_blocks_of_theta_block(capsys, monkeypatch):
    # (8, 3) has 168 regular orbits
    sizes = _block_sizes(monkeypatch)
    code, out = run_main(["gamma", "--q", "8", "--n", "3"], capsys)
    assert code == cli.EXIT_OK and len(json.loads(out)["rows"]) == 168
    assert sizes == [64, 64, 40]


def test_export_exits_3_on_route_disagreement(tmp_path, capsys):
    # export writes every file, then gives gamma's verdict on the routes
    argv = ["export", "--q", "3", "--n", "2"]
    code = cli.main(argv + ["--tol", "1e-30", "--out", str(tmp_path / "strict")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_ROUTE_DISAGREEMENT
    assert "route disagreement beyond 1e-30 for theta=" in err
    sweep = json.loads((tmp_path / "strict" / "gamma_sweep_q3_n2.json").read_text())
    assert len(sweep["rows"]) == 3
    assert len(list((tmp_path / "strict").glob("bessel_*.csv"))) == 3
    code, _ = run_main(argv + ["--out", str(tmp_path / "default")], capsys)
    assert code == cli.EXIT_OK


@pytest.mark.parametrize("command", ["gamma", "verify", "export"])
@pytest.mark.parametrize("field", [["--p", "3"], ["--e", "2"], ["--p", "2", "--e", "3"]])
def test_q_refused_next_to_p_or_e(command, field, tmp_path, capsys, monkeypatch):
    # --p and --e are no options, nor prefixes of --psi-inverse and
    # --exhaustive: refused while parsing, before any field is built, with
    # nothing on stdout and no file written
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "build_field", lambda *a: calls.append(a))
    argv = [command, "--q", "8", "--n", "2"] + field
    if command == "export":
        argv += ["--out", str(tmp_path / "exp")]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_PRECONDITION and captured.out == ""
    assert f"unrecognized arguments: {' '.join(field)}" in captured.err
    assert calls == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q, n", [(5, 2), (4, 3), (3, 4)])
def test_verify_reads_its_certificates_from_the_gamma_rows(q, n, capsys):
    # (5, 2) mixes Shalika and plain rows; every residual is the maximum
    # over the rows gamma prints for the same seed
    cell = ["--q", str(q), "--n", str(n), "--seed", "11"]
    code, out = run_main(["gamma"] + cell, capsys)
    assert code == cli.EXIT_OK
    rows = json.loads(out)["rows"]
    plain = [r for r in rows if not r["shalika"]]
    fe = max(r["modified_fe_residual"] if r["shalika"] else r["fe_residual"]
             for r in rows)
    route = max(delta for r in plain for pair, delta in r["route_deltas"].items()
                if "ratio" in pair.split("-"))
    unit = max(abs(r["abs_gamma"] - 1) for r in plain)
    code, out = run_main(["verify"] + cell, capsys)
    assert code == cli.EXIT_OK
    checks = json.loads(out)["checks"]
    for name, resid in (("functional_equation", fe), ("route_agreement", route),
                        ("gamma_unitarity", unit)):
        assert f"PASS {name} residual={resid:.3e}" in checks


def test_verify_fails_every_check_of_a_block_without_rows(monkeypatch, capsys):
    # a modified certificate that raises leaves its block without rows: the
    # plain tables of the block do not pass the route checks on their own
    def refuse(*args):
        raise cli.NonConstantRatio("refused")
    monkeypatch.setattr(levelzero, "modified_fe_scans", refuse)
    code, out = run_main(["verify", "--q", "3", "--n", "2"], capsys)
    assert code == cli.EXIT_VERIFY_FAILED
    checks = {line.split()[1]: line for line in json.loads(out)["checks"]}
    for name in ("functional_equation", "route_agreement", "gamma_unitarity"):
        assert checks[name] == f"FAIL {name} residual=inf"
    assert checks["character_oracle"].startswith("PASS")


def test_character_oracle_types_its_samples_once_per_cell(capsys, monkeypatch):
    # the 40 sampled triples (g, g^-1, h g h^-1) and the identity are typed
    # once for the cell, as one stack of the class-typing kernel; the
    # support profile is built first, so every matrix counted is a sample
    from gammalab import bessel, cuspchar
    from gammalab.ffield import build_field
    bessel._support_profile(build_field(2, 2, 3), 3)
    stacks = []
    class_ids = mg.class_ids
    monkeypatch.setattr(mg, "class_ids",
                        lambda ctx, g, classes: stacks.append(len(g))
                        or class_ids(ctx, g, classes))
    cuspchar._sampled_classes.cache_clear()
    code, _ = run_main(["verify", "--q", "4", "--n", "3"], capsys)
    assert code == cli.EXIT_OK
    assert stacks == [3 * 40 + 1]


@pytest.mark.parametrize("q,n", [("4", "3"), ("2", "4"), ("5", "2")])
def test_no_command_types_a_class_pointwise(q, n, tmp_path, capsys, monkeypatch):
    # every class typing of `gamma`, `verify` and `export` goes through the
    # batched kernel `mg.class_ids`; `mg.class_type` is the reference only
    from gammalab import bessel, cuspchar, exjs
    for cache in (bessel._support_profile, cuspchar._sampled_classes,
                  exjs._subgroup_classes):
        cache.cache_clear()
    calls = []
    monkeypatch.setattr(mg, "class_type", lambda *args: calls.append(args))
    for command in ("gamma", "verify", "export"):
        out = ["--out", str(tmp_path / command)] if command == "export" else []
        code, _ = run_main([command, "--q", q, "--n", n] + out, capsys)
        assert code == cli.EXIT_OK
    assert calls == []


@pytest.mark.parametrize("p,e,n", [(3, 1, 2), (5, 1, 2), (2, 1, 3), (2, 2, 3), (2, 1, 4)])
def test_biequivariance_block_matches_pointwise_eval(p, e, n):
    # the block's draws read off two stacks give the residual of the
    # pointwise `BesselTable.eval` loop, draw by draw from the same rng, and
    # leave the rng in the same state
    import random
    from gammalab.bessel import bessel_tables
    from gammalab.charkit import AddChar, regular_orbit_reps
    from gammalab.ffield import build_field
    f = build_field(p, e, n)
    for inverse in (False, True):
        psi = AddChar(f, inverse)
        tables = bessel_tables(f, n, regular_orbit_reps(f, n)[:6], psi)
        rng = random.Random(11)
        got = cli._biequivariance(f, tables, psi, 30, rng)
        ref_rng = random.Random(11)
        worst = 0.0
        for table in tables:
            for _ in range(30):
                g = mg.random_invertible(f, n, ref_rng)
                u1 = mg.random_unipotent(f, n, ref_rng)
                u2 = mg.random_unipotent(f, n, ref_rng)
                lhs = table.eval(mg.mat_chain(f, u1, g, u2))
                rhs = (psi(mg.superdiag_sum(f, u1)) * psi(mg.superdiag_sum(f, u2))
                       * table.eval(g))
                worst = max(worst, abs(lhs - rhs))
        assert abs(got - worst) < 1e-13
        assert rng.random() == ref_rng.random()


def test_verify_fails_the_oracle_on_a_bent_character_kernel(capsys, monkeypatch):
    # one live coefficient of the character kernel scaled by 1 + 1e-3: every
    # table is built from the bent kernel, so the oracle, which certifies
    # that kernel, must fail, and each failing block check prints inf
    # rather than the residual of the blocks that passed
    from gammalab import cuspchar
    conjugates = cuspchar._class_conjugates

    def bent(ctx, n, classes):
        coef, dlogs, live = conjugates(ctx, n, classes)
        coef = coef.copy()
        coef[np.flatnonzero(coef)[0]] *= 1 + 1e-3
        return coef, dlogs, live
    monkeypatch.setattr(cuspchar, "_class_conjugates", bent)
    code, out = run_main(["verify", "--q", "5", "--n", "2"], capsys)
    assert code == cli.EXIT_VERIFY_FAILED
    checks = {line.split()[1]: line for line in json.loads(out)["checks"]}
    for name in ("character_oracle", "shalika_equivalence", "homdim_bound"):
        assert checks[name] == f"FAIL {name} residual=inf"


@pytest.mark.parametrize("seed", [7, 1729])
def test_verify_samples_the_character_oracle_at_its_seed(seed, capsys, monkeypatch):
    from gammalab import cuspchar
    read = []
    sampled = cuspchar._sampled_classes
    monkeypatch.setattr(cuspchar, "_sampled_classes", lambda ctx, n, samples, seed:
                        read.append((ctx.q, n, samples, seed))
                        or sampled(ctx, n, samples, seed))
    argv = ["verify", "--q", "4", "--n", "3", "--seed", str(seed)]
    code, _ = run_main(argv, capsys)
    assert code == cli.EXIT_OK
    assert read and set(read) == {(4, 3, 40, seed)}
