"""Output checks for `gammalab gamma` rows, made apart from the program.

Every expected value here is computed from the field alone: `gammalab.ffield`
supplies element enumeration, Frobenius and addition, and nothing from the
Bessel, Jacquet-Shalika or character modules is used.

* A row without a Shalika vector must carry the orbit Gauss-sum product

      gamma = prod_O q^(-d_O/2) sum_{y in F_{q^d_O}^x} chi_O(y)^(-1) psi(Tr y)

  as its `ratio` route, where O runs over the orbits of i -> i+1 (mod n) on
  the 2-subsets {i < j} of Z/n, d_O = |O|, and
  chi_O(gen_d^t) = exp(2 pi i k (q^i + q^j) t / (q^n - 1)).
* A Shalika row (n = 2m, (q^m - 1) | theta) must carry, at c = 1,
  L = 1/(1 - X^m), eps = q^(-m/2) X^(-m) and
  gamma = eps * L~ / L with L~ = 1/(1 - q^(-m) X^(-m)); `modified_gamma`,
  which the program derives from sums, must equal the same gamma.
"""

from __future__ import annotations

import cmath
import math

#: the CLI's route-agreement bound (`gamma --tol` default)
GAMMA_TOL = 1e-7
#: the program's own bound on functional-equation residuals
RESIDUAL_TOL = 1e-8
#: points X = q^(-s) at which rational functions are compared
X_POINTS = (0.3, 0.7 + 0.2j, -0.45 + 0.6j, 1.3j, 2.1 - 0.4j)


def mobius(n: int) -> int:
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


def expected_row_count(q: int, n: int) -> int:
    """Regular Frobenius orbits of characters of F_{q^n}^x: the number of
    monic irreducible polynomials of degree n over F_q."""
    return sum(mobius(n // d) * q ** d for d in range(1, n + 1) if n % d == 0) // n


def prime_power(q: int):
    """(p, e) with q = p^e, for q a prime power."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, e


def is_shalika(q: int, n: int, theta: int) -> bool:
    return n % 2 == 0 and theta % (q ** (n // 2) - 1) == 0


def pair_orbits(n: int) -> list:
    """(i, j, d) for one member {i, j} of each shift orbit of 2-subsets of Z/n."""
    seen, out = set(), []
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in seen:
                continue
            orbit = {tuple(sorted(((i + s) % n, (j + s) % n))) for s in range(n)}
            seen |= orbit
            out.append((i, j, len(orbit)))
    return out


class GaussProduct:
    """The orbit Gauss-sum product at one (q, n), built on `ffield` only."""

    def __init__(self, q: int, n: int):
        from gammalab.ffield import build_field
        ctx = self.ctx = build_field(*prime_power(q), n)
        self.q, self.n, self.p = ctx.q, ctx.n, ctx.p
        # psi(x) = exp(2 pi i Tr_{F_q/F_p}(x) / p), as `gamma` uses without --psi-inverse
        self._psi = {x: cmath.exp(2j * math.pi * self._prime_trace(x) / self.p)
                     for x in ctx.subfield_elements(1)}
        self._orbits = pair_orbits(self.n)
        # (t, Tr_{F_{q^d}/F_q}(gen_d^t)) for every unit of every orbit degree
        self._traces = {d: self._unit_traces(d) for _, _, d in self._orbits}

    def _prime_trace(self, x: int) -> int:
        ctx, acc, total = self.ctx, x, x
        for _ in range(ctx.e - 1):
            acc = ctx.pow(acc, ctx.p)
            total = ctx.add(total, acc)
        return total  # prime-field elements are the indices 0 .. p-1

    def _unit_traces(self, d: int) -> list:
        ctx = self.ctx
        step = (ctx.order - 1) // (self.q ** d - 1)
        out = []
        for t in range(self.q ** d - 1):
            y = ctx.gen_power(step * t)
            acc, tr = y, y
            for _ in range(d - 1):
                acc = ctx.frobenius(acc)
                tr = ctx.add(tr, acc)
            out.append((t, tr))
        return out

    def gamma(self, theta: int) -> complex:
        q, n = self.q, self.n
        big = q ** n - 1
        total = 1 + 0j
        for i, j, d in self._orbits:
            e = theta * (q ** i + q ** j)
            s = sum(cmath.exp(-2j * math.pi * (e * t % big) / big) * self._psi[tr]
                    for t, tr in self._traces[d])
            total *= q ** (-d / 2) * s
        return total


def rat_eval(obj: dict, x: complex) -> complex:
    """Evaluate the program's serialized X^x_shift * num(X) / den(X)."""
    num = sum(complex(re, im) * x ** i for i, (re, im) in enumerate(obj["num"]))
    den = sum(complex(re, im) * x ** i for i, (re, im) in enumerate(obj["den"]))
    return x ** obj["x_shift"] * num / den


def shalika_factors(q: int, m: int, x: complex):
    """(L, eps, gamma) of the level-zero lift at c = 1, evaluated at X = x."""
    L = 1 / (1 - x ** m)
    eps = q ** (-m / 2) * x ** (-m)
    dual_L = 1 / (1 - q ** (-m) * x ** (-m))
    return L, eps, eps * dual_L / L


def _close(a: complex, b: complex, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_payload(payload: dict, oracle: GaussProduct, single_theta=None) -> list:
    """Problems found in one `gamma` JSON payload; empty when it is correct.

    `single_theta` is the exponent asked for with `--theta`, or None for a
    whole-cell (`all-regular`) run."""
    q, n = oracle.q, oracle.n
    problems = []
    if payload.get("q") != q or payload.get("n") != n:
        return [f"payload is for q={payload.get('q')} n={payload.get('n')}"]
    rows = payload.get("rows", [])
    want = 1 if single_theta is not None else expected_row_count(q, n)
    if len(rows) != want:
        problems.append(f"{len(rows)} rows, expected {want}")
    thetas = [row.get("theta") for row in rows]
    if single_theta is not None and thetas != [single_theta]:
        problems.append(f"rows for theta {thetas}, expected [{single_theta}]")
    if len(set(thetas)) != len(thetas):
        problems.append("repeated theta")
    for row in rows:
        problems += [f"theta={row.get('theta')}: {p}" for p in check_row(row, q, n, oracle)]
    return problems


def check_row(row: dict, q: int, n: int, oracle: GaussProduct) -> list:
    theta = row["theta"]
    shalika = is_shalika(q, n, theta)
    if row.get("shalika") is not shalika:
        return [f"shalika={row.get('shalika')}, expected {shalika}"]
    if shalika:
        m = n // 2
        problems = []
        for x in X_POINTS:
            want = dict(zip(("L", "eps", "gamma"), shalika_factors(q, m, x)))
            want["modified_gamma"] = want["gamma"]
            for key, value in want.items():
                got = rat_eval(row[key], x)
                if not _close(got, value, GAMMA_TOL):
                    problems.append(f"{key}({x}) = {got}, expected {value}")
        if not row["modified_fe_residual"] <= RESIDUAL_TOL:
            problems.append(f"modified_fe_residual {row['modified_fe_residual']}")
        return problems
    re, im = row["routes"]["ratio"]
    got, want = complex(re, im), oracle.gamma(theta)
    problems = []
    if not abs(got - want) <= GAMMA_TOL:
        problems.append(f"ratio gamma {got}, Gauss-sum product {want}")
    if not row["fe_residual"] <= RESIDUAL_TOL:
        problems.append(f"fe_residual {row['fe_residual']}")
    return problems
