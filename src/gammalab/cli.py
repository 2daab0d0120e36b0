"""Command-line front end.

Three subcommands: `gamma` computes exterior-square gamma factors (all
routes, or the level-zero L/eps/gamma rational functions when a Shalika
vector blocks the plain functional equation), `verify` runs the invariant
suites, and `export` writes Bessel tables and gamma sweeps to disk.  Output
bytes depend only on the configuration and seed; timings go to stderr.

Exit codes: 0 success, 1 verification failure (a NaN residual included),
2 precondition violation, 3 route disagreement beyond --tol.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exjs, levelzero
from .bessel import (bessel_closed_forms, bessel_tables, export_bessel_csv,
                     require_profile_size, support_keys, support_signatures)
from .charkit import AddChar, character_sums, regular_orbit, regular_orbit_reps
from .cuspchar import CHARACTER_TOL, verify_irreducible
from .errors import (GammalabError, NonConstantRatio, OracleFailed,
                     PreconditionViolated, name_int, within)
from .ffield import _prime_factors, build_field
from .levelzero import LevelZeroCtx, RatQS
from . import matgrp as mg

SCHEMA = "gammalab/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_ROUTE_DISAGREEMENT = 3

#: default of --tol: the bound on the distance between any two gamma routes
ROUTE_TOL = 1e-7
#: `verify`'s bound on |sum_x psi(x)| over F_q
ADDITIVE_ORTHOGONALITY_TOL = 1e-9
#: `verify`'s bound on |sum_x theta(x)| over F_{q^n}^x for each theta = gen^k
#: with 0 < k < min(q^n - 1, 40)
MULTIPLICATIVE_ORTHOGONALITY_TOL = 1e-8
#: `verify`'s bound on |B(u1 g u2) - psi(u1) psi(u2) B(g)| over sampled u1, g, u2
BIEQUIVARIANCE_TOL = 1e-8
#: `verify`'s bound on the distance of each Bessel value of the (1, n - 1)
#: run from its closed form (`bessel.bessel_closed_forms`)
CLOSED_FORM_TOL = 1e-8
#: `verify`'s bound on the RatQS residual of f * f^-1 against 1
RATQS_IDENTITY_TOL = 1e-10
#: the most representations computed together (`_blocks`): it bounds the
#: Bessel values, character matrices and certificate profiles held at once
THETA_BLOCK = 64


@dataclass
class RunConfig:
    command: str
    p: int
    e: int
    n: int
    theta: str
    psi_inverse: bool
    c: complex
    seed: int
    trials: int
    tol: float
    fmt: str
    out: str
    exhaustive: bool


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call shares it."""
    ap = argparse.ArgumentParser(
        prog="gammalab",
        description="Exterior-square gamma factors of cuspidal representations"
                    " of GL_n over finite fields.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("gamma", "verify", "export"):
        # no prefixes: --p or --e would read as --psi-inverse or --exhaustive
        sp = sub.add_parser(name, allow_abbrev=False)
        # refusals after parsing print this subcommand's usage (`parse_config`)
        sp.set_defaults(subparser=sp)
        sp.add_argument("--q", type=int, required=True, help="base-field size (prime power)")
        sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--theta", default="all-regular",
                        help="character exponent k, or 'all-regular'")
        sp.add_argument("--psi-inverse", action="store_true")
        sp.add_argument("--c-re", type=float, default=1.0)
        sp.add_argument("--c-im", type=float, default=0.0)
        sp.add_argument("--seed", type=int, default=exjs.DEFAULT_SEED)
        sp.add_argument("--trials", type=int, default=100)
        sp.add_argument("--tol", type=float, default=ROUTE_TOL)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None)
        if name == "verify":
            sp.add_argument("--exhaustive", action="store_true",
                            help="10,000 bi-equivariance draws instead of 500")
    return ap


def _prime_power(q: int):
    """(p, e) with q = p^e, trial-dividing only up to sqrt(q) (`ffield._prime_factors`)."""
    factors = _prime_factors(q)  # [] for q < 2
    if len(factors) != 1:
        raise PreconditionViolated(f"q = {name_int(q)} is not a prime power")
    return factors[0], round(math.log(q, factors[0]))  # exact for q = p^e


def parse_config(argv) -> RunConfig:
    ns = _parser().parse_args(argv)
    ap = ns.subparser
    if ns.n < 2:
        ap.error(f"--n must be >= 2, got {ns.n}")
    if ns.trials < 1:
        ap.error(f"--trials must be >= 1, got {ns.trials}")
    if ns.theta != "all-regular":
        try:
            int(ns.theta)
        except ValueError:
            ap.error(f"--theta must be an integer or 'all-regular', got {ns.theta!r}")
    if not 0 <= ns.tol < math.inf:  # NaN fails too
        ap.error(f"--tol must be finite and >= 0, got {ns.tol}")
    c = complex(ns.c_re, ns.c_im)
    if not within(abs(abs(c) - 1.0), levelzero.UNIT_CIRCLE_TOL):  # NaN fails too
        ap.error(f"c = {c} must lie on the unit circle")
    if ns.out and ns.command != "export":  # export's --out is a directory
        if os.path.isdir(ns.out):
            ap.error(f"--out {ns.out!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(ns.out))):
            ap.error(f"the directory of --out {ns.out!r} does not exist")
    # the cell's size needs q and n alone, so it is refused before q is
    # factored: trial division up to sqrt(q) would not end for a large prime.
    # A q < 2 has no factors and is refused by _prime_power at once.
    if ns.q >= 2:
        require_profile_size(ns.q, ns.n)
    p, e = _prime_power(ns.q)
    return RunConfig(ns.command, p, e, ns.n, ns.theta, ns.psi_inverse, c, ns.seed,
                     ns.trials, ns.tol, ns.format, ns.out, getattr(ns, "exhaustive", False))


def _theta_exponents(cfg: RunConfig, ctx):
    if cfg.theta == "all-regular":
        return regular_orbit_reps(ctx, cfg.n)
    k = int(cfg.theta)
    regular_orbit(ctx, cfg.n, k)  # raises NotRegular off the regular exponents
    return [k]


def _blocks(cfg: RunConfig, ctx):
    """The Bessel tables of the selected representations, THETA_BLOCK at a
    time in order.  Each table's results depend on it alone, so no output
    depends on the block size."""
    ks = _theta_exponents(cfg, ctx)
    psi = AddChar(ctx, cfg.psi_inverse)
    for lo in range(0, len(ks), THETA_BLOCK):
        yield bessel_tables(ctx, cfg.n, ks[lo:lo + THETA_BLOCK], psi)


def _cnum(z: complex):
    return [float(z.real), float(z.imag)]


def _gamma_rows(cfg: RunConfig, tables) -> list:
    """The rows of `tables`, in their order, from one pass over the block's
    pool (`exjs.block_profiles`, read on the tables without a Shalika vector
    and then those with one, so that each kind's profiles are a slice of
    the block's): the former have every route computed as one block
    (`_route_rows`), the latter are certified by one
    `levelzero.modified_fe_scans` call, and each kind reads its own rows of
    the profiles, the canonical pair's included.  The Shalika rows'
    canonical-pair ratio at c is the certificate's gamma~ at c = 1, and one
    `levelzero._canonical_ratios` call over them at any other c."""
    shalika = [exjs.has_shalika_vector(table) for table in tables]
    plain = [t for t, s in zip(tables, shalika) if not s]
    with_vector = [t for t, s in zip(tables, shalika) if s]
    profiles = exjs.block_profiles(plain + with_vector, cfg.trials, cfg.seed)
    routed = iter(_route_rows(cfg, plain, profiles.rows(slice(len(plain)))))
    vector_profiles = profiles.rows(slice(len(plain), None))
    certs = levelzero.modified_fe_scans(with_vector, vector_profiles)
    if with_vector and cfg.c != 1:
        ratios = levelzero._canonical_ratios(with_vector, vector_profiles.js0,
                                             vector_profiles.dual0, cfg.c)
    else:
        ratios = [gtilde for gtilde, _, _ in certs]
    modified = zip(certs, ratios)
    rows = []
    for table, s in zip(tables, shalika):
        rep = table.rep
        row = {"theta": rep.exponent,
               "orbit": list(regular_orbit(rep.ctx, rep.n, rep.exponent)),
               "regular": True,
               "central_char_exponent": rep.central_char.exponent,
               "shalika": s}
        row.update(_shalika_fields(cfg, table, *next(modified)) if s else next(routed))
        rows.append(row)
    return rows


def _route_rows(cfg: RunConfig, tables, profiles) -> list:
    """The route fields of the rows of tables without a Shalika vector, from
    every route computed as arrays over the block: each route's gamma,
    |gamma| of the ratio route, the distance between every two routes and
    its maximum, and the ratio certificate's residual and pairs checked,
    read from the tables' `profiles`."""
    if not tables:
        return []
    ratio, resid, checked = exjs.gamma_ratios(tables, profiles)
    routes = {"ratio": ratio, "torus": exjs.gamma_tori(tables)}
    if cfg.n in (2, 3, 4):
        routes["closed_form"] = exjs.gamma_closed_forms(tables)
    names = sorted(routes)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    deltas = np.array([exjs.modulus(routes[a] - routes[b]) for a, b in pairs])
    cnums = [np.stack([routes[name].real, routes[name].imag], axis=1).tolist()
             for name in names]
    labels = [f"{a}-{b}" for a, b in pairs]
    return [{"routes": dict(zip(names, gammas)),
             "abs_gamma": abs_gamma,
             "route_deltas": dict(zip(labels, delta)),
             "max_route_delta": worst,
             "fe_residual": fe_residual,
             "pairs_checked": checked}
            for gammas, abs_gamma, delta, worst, fe_residual in zip(
                zip(*cnums), exjs.modulus(routes["ratio"]).tolist(), deltas.T.tolist(),
                deltas.max(axis=0).tolist(), resid.tolist())]


def _shalika_fields(cfg: RunConfig, table, cert, ratio) -> dict:
    """The level-zero fields of a Shalika row; `cert` is the table's
    (gamma~, residual, pairs checked) from `levelzero.modified_fe_scans`,
    and `ratio` its canonical-pair ratio at c, which `local_gamma`
    cross-checks."""
    lz = LevelZeroCtx(table, cfg.c)
    L, eps = levelzero.local_L_eps(lz)
    gtilde, resid, checked = cert
    gam = levelzero.local_gamma(lz, ratio)
    return {"c": _cnum(cfg.c), "L": L.to_json_dict(), "eps": eps.to_json_dict(),
            "gamma": gam.to_json_dict(), "modified_gamma": gtilde.to_json_dict(),
            "modified_fe_residual": resid, "pairs_checked": checked}


#: the encoder of every JSON value below the top level: without `indent`
#: the standard library encodes through its C accelerator
_JSON_LINE = json.JSONEncoder(sort_keys=True)


def _json_text(payload: dict) -> str:
    """The JSON of a payload: the top-level object one sorted key per line,
    and each element of a top-level list (`rows`, `checks`) on one line of
    its own, with sorted keys.  It parses to the same value as
    `json.dumps(payload, indent=2, sort_keys=True)`."""
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and value:
            items = ",\n    ".join(map(_JSON_LINE.encode, value))
            text = f"[\n    {items}\n  ]"
        else:
            text = _JSON_LINE.encode(value)
        lines.append(f"  {_JSON_LINE.encode(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n" if lines else "{}\n"


def _emit(cfg: RunConfig, payload: dict, path) -> None:
    """The one output writer: render a command's payload as JSON
    (`_json_text`), or under a CSV schema line as verify's check lines or
    the flattened gamma rows, and write it to `path` (stdout when None)."""
    if cfg.fmt == "json":
        text = _json_text(payload)
    elif payload["command"] == "verify":
        text = f"# schema {SCHEMA}\n" + "\n".join(payload["checks"]) + "\n"
    else:
        flat = [_flatten_gamma_row(r) for r in payload["rows"]]
        buf = io.StringIO()
        if flat:
            header = sorted({key for row in flat for key in row})
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows([row.get(h, "") for h in header] for row in flat)
        text = f"# schema {SCHEMA}\n" + buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _flatten_gamma_row(row: dict) -> dict:
    flat = {"theta": row["theta"], "orbit": "+".join(map(str, row["orbit"])),
            "shalika": int(row["shalika"])}
    if row["shalika"]:
        for key in ("L", "eps", "gamma"):
            flat[key] = json.dumps(row[key], sort_keys=True)
    else:
        for name, val in row["routes"].items():
            flat[f"gamma_{name}_re"] = repr(float(val[0]))
            flat[f"gamma_{name}_im"] = repr(float(val[1]))
        flat["abs_gamma"] = repr(float(row["abs_gamma"]))
        flat["max_route_delta"] = repr(float(row["max_route_delta"]))
    return flat


def _route_exit(cfg: RunConfig, rows) -> int:
    """The exit code of `gamma` and `export`: EXIT_ROUTE_DISAGREEMENT, named
    on stderr, when any row's route distance is not `within` --tol."""
    bad = [row["theta"] for row in rows
           if not row["shalika"] and not within(row["max_route_delta"], cfg.tol)]
    if bad:
        print(f"route disagreement beyond {cfg.tol} for theta={bad}", file=sys.stderr)
        return EXIT_ROUTE_DISAGREEMENT
    return EXIT_OK


def cmd_gamma(cfg: RunConfig) -> int:
    ctx = build_field(cfg.p, cfg.e, cfg.n)
    t0 = time.perf_counter()
    rows = [row for tables in _blocks(cfg, ctx) for row in _gamma_rows(cfg, tables)]
    print(f"rows={len(rows)} elapsed={time.perf_counter() - t0:.3f}s", file=sys.stderr)
    payload = {"schema": SCHEMA, "command": "gamma", "q": ctx.q, "n": cfg.n,
               "psi_inverse": cfg.psi_inverse, "seed": cfg.seed, "rows": rows}
    _emit(cfg, payload, cfg.out)
    return _route_exit(cfg, rows)


def _biequivariance(ctx, tables, psi: AddChar, draws: int, rng) -> float:
    """max |B(u1 g u2) - psi(u1) psi(u2) B(g)| over `draws` draws (g, u1, u2)
    per table of a block, from rng in table order, with B of all g and of
    all u1 g u2 read off one stack each, as `BesselTable.eval` reads one."""
    F, n = ctx.base, tables[0].n
    g, u1, u2 = (F.codes(np.array(mats)) for mats in zip(*[
        (mg.random_invertible(ctx, n, rng), mg.random_unipotent(ctx, n, rng),
         mg.random_unipotent(ctx, n, rng)) for _ in range(draws * len(tables))]))
    row = np.repeat(np.arange(len(tables)), draws)
    values = np.stack([table.values for table in tables])
    b = []  # B(u1 g u2), B(g)
    for mats in (mg.batch_mat_mul(ctx, mg.batch_mat_mul(ctx, u1, g), u2), g):
        key, s = support_signatures(ctx, mats)
        b.append(np.where(key >= 0, psi.values[s] * values[row, key], 0))
    psi_u = [psi.values[F.sum(np.diagonal(u, 1, 1, 2))] for u in (u1, u2)]
    return float(np.abs(b[0] - psi_u[0] * psi_u[1] * b[1]).max())


def _closed_form_distance(ctx, tables, psi: AddChar) -> float:
    """max |B(t) - closed form| over the (1, n - 1) keys of every table of a
    block, one contiguous run of `support_keys`."""
    n = tables[0].n
    printed = bessel_closed_forms(ctx, n, [t.rep.exponent for t in tables], psi)
    start = support_keys(ctx, n).index(((1, n - 1), (1, 1)))
    run = np.stack([t.values[start:start + len(printed)] for t in tables], axis=1)
    return float(exjs.modulus(printed - run).max())


def _block_residual(check, residual=lambda result: 0.0) -> float:
    """The residual of a block check's result (0 for a check that only
    passes or raises), or inf when it raises, so that a failing block never
    reports the residual of the blocks that passed."""
    try:
        return residual(check())
    except GammalabError:
        return math.inf


def _verify_checks(cfg: RunConfig, ctx):
    """Yield (name, passed, residual) for every invariant suite that ran: its
    worst residual over the blocks (a NaN kept), passing when `within` its bound."""
    import random
    q, n = ctx.q, cfg.n
    ks = _theta_exponents(cfg, ctx)
    psi = AddChar(ctx, cfg.psi_inverse)
    worst = {}

    def fold(name, residual):
        worst[name] = np.maximum(worst.get(name, 0.0), residual)  # a NaN is kept

    # character orthogonality
    fold("additive_orthogonality", abs(sum(psi(x) for x in ctx.subfield_elements(1))))
    dlogs = np.array([ctx.subfield_dlog(x, n) for x in ctx.subfield_units(n)])
    sums = character_sums(dlogs, np.ones(len(dlogs)), q ** n - 1,
                          range(1, min(q ** n - 1, 40)))
    fold("multiplicative_orthogonality", np.max(exjs.modulus(sums)))
    # the table checks, one block at a time; the bi-equivariance draws share
    # one rng in table order
    rng = random.Random(cfg.seed)
    draws = (10000 if cfg.exhaustive else 500) // len(ks) + 1
    small = mg.gl_order(q, n) <= 25000  # the appendix bound is for small groups
    for tables in _blocks(cfg, ctx):
        reps = [table.rep for table in tables]
        fold("character_oracle", _block_residual(
            lambda: verify_irreducible(reps, seed=cfg.seed),
            lambda reports: np.max([abs(r["inner_product"] - 1) for r in reports])))
        if n % 2 == 0:
            fold("shalika_equivalence", _block_residual(
                lambda: exjs.shalika_detect(tables, samples=200, seed=cfg.seed)))
        if small:
            fold("homdim_bound", _block_residual(lambda: exjs.homdim_check(reps)))
        fold("bessel_biequivariance", _biequivariance(ctx, tables, psi, draws, rng))
        fold("bessel_closed_form", _closed_form_distance(ctx, tables, psi))
        # functional equation and route agreement, read from the rows that
        # `gamma` prints for this block; the route checks run only on a
        # block with a table without a Shalika vector
        try:
            rows = _gamma_rows(cfg, tables)
        except GammalabError:
            # a block whose certificate or route raised has no rows: every
            # check it feeds fails
            fold("functional_equation", math.inf)
            if not all(exjs.has_shalika_vector(table) for table in tables):
                fold("route_agreement", math.inf)
                fold("gamma_unitarity", math.inf)
            continue
        for row in rows:
            if row["shalika"]:
                fold("functional_equation", row["modified_fe_residual"])
                continue
            fold("functional_equation", row["fe_residual"])
            ratio = [delta for pair, delta in row["route_deltas"].items()
                     if "ratio" in pair.split("-")]
            fold("route_agreement", np.max(ratio))
            fold("gamma_unitarity", abs(row["abs_gamma"] - 1))
    # RatQS identities: f * f^-1 = 1, and a simplification that cancels
    x, one = RatQS.x_power(1), RatQS.one()
    f = (one - x) / (one + RatQS.const(0.5j) * x)
    g = (one - x * x) / (one - x)  # simplifies to 1 + X
    h = g.simplified()
    fold("ratqs_identities", (f * f.inverse()).residual(one)
         if h.equals(one + x) and len(h.num) + len(h.den) < len(g.num) + len(g.den)
         else math.inf)
    bounds = {"additive_orthogonality": ADDITIVE_ORTHOGONALITY_TOL,
              "multiplicative_orthogonality": MULTIPLICATIVE_ORTHOGONALITY_TOL,
              "character_oracle": CHARACTER_TOL, "bessel_biequivariance": BIEQUIVARIANCE_TOL,
              "bessel_closed_form": CLOSED_FORM_TOL, "functional_equation": exjs.FE_TOL,
              "route_agreement": cfg.tol, "gamma_unitarity": exjs.UNITARITY_TOL,
              "shalika_equivalence": 0.0, "homdim_bound": 0.0,
              "ratqs_identities": RATQS_IDENTITY_TOL}
    for name, bound in bounds.items():  # in the order of the report
        if name in worst:
            yield (name, within(worst[name], bound), float(worst[name]))


def cmd_verify(cfg: RunConfig) -> int:
    ctx = build_field(cfg.p, cfg.e, cfg.n)
    checks = list(_verify_checks(cfg, ctx))
    lines = [f"{'PASS' if passed else 'FAIL'} {name} residual={resid:.3e}"
             for name, passed, resid in checks]
    failed = sum(not passed for _, passed, _ in checks)
    payload = {"schema": SCHEMA, "command": "verify", "q": ctx.q, "n": cfg.n,
               "checks": lines, "failed": failed}
    _emit(cfg, payload, cfg.out)
    print("\n".join(lines), file=sys.stderr)
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def cmd_export(cfg: RunConfig) -> int:
    if not cfg.out:
        raise PreconditionViolated("export needs --out DIRECTORY")
    os.makedirs(cfg.out, exist_ok=True)
    ctx = build_field(cfg.p, cfg.e, cfg.n)
    rows = []
    for tables in _blocks(cfg, ctx):
        for table in tables:
            name = f"bessel_q{ctx.q}_n{cfg.n}_k{table.rep.exponent}.csv"
            path = os.path.join(cfg.out, name)
            export_bessel_csv(table, path)
            print(f"wrote {path}", file=sys.stderr)
        rows += _gamma_rows(cfg, tables)
    sweep = {"schema": SCHEMA, "command": "export", "q": ctx.q, "n": cfg.n,
             "psi_inverse": cfg.psi_inverse, "seed": cfg.seed, "rows": rows}
    sweep_path = os.path.join(cfg.out, f"gamma_sweep_q{ctx.q}_n{cfg.n}.{cfg.fmt}")
    _emit(cfg, sweep, sweep_path)
    print(f"wrote {sweep_path}", file=sys.stderr)
    return _route_exit(cfg, rows)


def main(argv=None) -> int:
    try:
        cfg = parse_config(argv)
        return {"gamma": cmd_gamma, "verify": cmd_verify, "export": cmd_export}[cfg.command](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OracleFailed, NonConstantRatio) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except GammalabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
