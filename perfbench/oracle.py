"""Output checks made apart from the program.

Skew information and correlation are recomputed here from their trace
formulas, on the state built by ``gen.rho``; the remaining checks are
properties every correct output must have.  Nothing here imports the
program.  Each ``check_*`` function returns a list of error strings, empty
when the output passes.

Tolerances are relative: each check compares against ``RTOL`` times the size
of the quantities involved, so scaling the observables does not change
whether a correct output passes.  Values the program computes directly
(product, cauchy, sum, LB_norm) are held to ``RTOL`` of their own size.
Orderings inside one chain are held to ``RTOL`` too.  Values that come from
the triangular Gram factor (the I chain, the S table, LB_thm3) are compared
with the directly computed ones at ``FACTOR_RTOL`` of the observables'
Frobenius scale, (|A| |B|)^2 for a pair and Sum |A_i|^2 for a family.  On
rank-deficient states the program's semidefinite Cholesky keeps rounding
noise of about 1e-8 as pivots, which moved I_1 away from I(A) I(B) by up to
4.3e-10 of that scale on 40 random variants of the chain_sweep inputs where
the program's own check still passed; the tolerance leaves a margin of 200
above that and still catches any error in the chain formulas.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
import scipy.linalg

import gen

RTOL = 1e-9
FACTOR_RTOL = 1e-7
EIG_CLAMP = 1e-12  # eigenvalues below this are exact zeros of the generated states
EXHAUSTIVE_CAP = 10**6  # the library's documented enumeration cap


# ---------------------------------------------------------------------------
# independent recomputation


def _comm(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _power(rho: np.ndarray, s: float) -> np.ndarray:
    w, V = np.linalg.eigh(rho)
    w = np.where(w > EIG_CLAMP, w, 0.0)
    return (V * w**s) @ V.conj().T


def correlation(rho: np.ndarray, A: np.ndarray, B: np.ndarray, metric: str) -> complex:
    """Corr(A, B), conjugate-linear in A.

    Wigner-Yanase(-Dyson): -1/2 Tr([rho^a, A][rho^(1-a), B]), a = 1/2 for wy.
    SLD: 1/2 Tr(X^dag [rho, B]) with rho X + X rho = [rho, A], a Lyapunov
    solve that is well posed on full-rank states only.
    """
    if metric == "sld":
        X = scipy.linalg.solve_continuous_lyapunov(rho, _comm(rho, A))
        return complex(0.5 * np.trace(X.conj().T @ _comm(rho, B)))
    a = 0.5 if metric == "wy" else float(metric.split(":", 1)[1])
    return complex(-0.5 * np.trace(_comm(_power(rho, a), A) @ _comm(_power(rho, 1.0 - a), B)))


def skew(rho: np.ndarray, A: np.ndarray, metric: str) -> float:
    return correlation(rho, A, A, metric).real


def pair_expected(rho, A, B, metric) -> dict:
    ia, ib = skew(rho, A, metric), skew(rho, B, metric)
    frob = (np.linalg.norm(A) * np.linalg.norm(B)) ** 2
    return {"product": ia * ib, "cauchy": abs(correlation(rho, A, B, metric)) ** 2,
            "scale": ia * ib + 1e-6 * frob, "factor_scale": frob}


def sum_expected(rho, obs: list[np.ndarray], metric) -> dict:
    N = len(obs)
    frob = sum(np.linalg.norm(A) ** 2 for A in obs)
    I = [skew(rho, A, metric) for A in obs]
    pairs = list(itertools.combinations(range(N), 2))
    plus = [skew(rho, obs[i] + obs[j], metric) for i, j in pairs]
    minus = [skew(rho, obs[i] - obs[j], metric) for i, j in pairs]

    def norm_bound(roots, lins):
        root = sum(math.sqrt(max(v, 0.0)) for v in roots)
        return ((2.0 / (N * (N - 1))) * root**2 + sum(lins)) / (2.0 * N - 2.0)

    return {
        "sum": sum(I),
        "LB_norm": max(norm_bound(plus, minus), norm_bound(minus, plus)),
        # the identity tuple of the parallelogram search already reaches this
        "thm3_floor": max(sum(plus), sum(minus)) / (2.0 * N - 2.0),
        "N": N,
        "scale": sum(I) + 1e-6 * frob,
        "factor_scale": frob,
    }


def spq_keys(n: int) -> list[tuple[int, int]]:
    """S-table keys after S_10, in descending-chain order (2,1), (3,1), (3,2), ..."""
    return [(p, q) for p in range(2, n + 1) for q in range(1, p)]


# ---------------------------------------------------------------------------
# checks on one CSV row


def check_pair(row: dict, exp: dict, chain_len: int | None) -> list[str]:
    """product, cauchy and (for chain tasks) the I chain and the S table."""
    errs = []
    tol = RTOL * exp["scale"]
    ftol = FACTOR_RTOL * exp["factor_scale"]
    prod, cauchy = row["product"], row["cauchy"]
    if abs(prod - exp["product"]) > tol:
        errs.append(f"product {prod!r} != I(A)I(B) {exp['product']!r}")
    if abs(cauchy - exp["cauchy"]) > tol:
        errs.append(f"cauchy {cauchy!r} != |Corr(A,B)|^2 {exp['cauchy']!r}")
    if cauchy > prod + tol:
        errs.append("cauchy above product")
    if chain_len is None:
        return errs
    I = [row[f"I_{k}"] for k in range(1, chain_len + 1)]
    if abs(I[0] - prod) > ftol:
        errs.append(f"I_1 {I[0]!r} != product {prod!r}")
    for k in range(1, chain_len):
        if I[k] > I[k - 1] + tol:
            errs.append(f"I chain increases at I_{k + 1}")
    if I[-1] < cauchy - ftol:
        errs.append(f"I_{chain_len} below cauchy")
    prev, prev_key = I[0], (1, 0)  # S_10 = I_1
    for p, q in spq_keys(chain_len):
        v = row[f"S_{p}_{q}"]
        if v > prev + tol:
            errs.append(f"S table increases from S_{prev_key} to S_{(p, q)}")
        if q == p - 1 and abs(v - I[p - 1]) > tol:
            errs.append(f"S_{p}_{q} {v!r} != I_{p} {I[p - 1]!r}")
        prev, prev_key = v, (p, q)
    for name, v in row.items():
        if name[:2] in ("I_", "S_") and not (cauchy - ftol <= v <= prod + ftol):
            errs.append(f"{name} {v!r} outside [cauchy, product]")
    return errs


def check_sum(row: dict, exp: dict) -> list[str]:
    errs = []
    tol = RTOL * exp["scale"]
    ftol = FACTOR_RTOL * exp["factor_scale"]
    total, thm3, norm = row["sum"], row["LB_thm3"], row["LB_norm"]
    if abs(total - exp["sum"]) > tol:
        errs.append(f"sum {total!r} != Sum I(A_i) {exp['sum']!r}")
    if abs(norm - exp["LB_norm"]) > tol:
        errs.append(f"LB_norm {norm!r} != definition {exp['LB_norm']!r}")
    if thm3 > total + ftol:
        errs.append(f"LB_thm3 {thm3!r} above sum {total!r}")
    if norm > total + tol:
        errs.append(f"LB_norm {norm!r} above sum {total!r}")
    if thm3 < exp["thm3_floor"] - ftol:
        errs.append(f"LB_thm3 {thm3!r} below the identity-tuple floor {exp['thm3_floor']!r}")
    if exp["N"] == 2 and abs(thm3 - total) > ftol:
        errs.append(f"LB_thm3 {thm3!r} != sum {total!r} at N = 2")
    return errs


# ---------------------------------------------------------------------------
# checks on one operation's output


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        return [], []
    header = rows[0]
    return header, [dict(zip(header, map(float, r))) for r in rows[1:]]


def expected_header(s: gen.Scenario) -> list[str]:
    cols = ["theta"]
    if s.pair is not None:
        cols += ["product", "cauchy"]
        if s.pair[0] == "chain":
            n = s.dim**2
            cols += [f"I_{k}" for k in range(1, n + 1)]
            cols += [f"S_{p}_{q}" for p, q in spq_keys(n)]
    if s.sum_names is not None:
        cols += ["sum", "LB_thm3", "LB_norm"]
    return cols


class ScenarioOracle:
    """Expected values of one scenario at each grid point, computed once."""

    def __init__(self, s: gen.Scenario):
        self.s = s
        self.thetas = s.thetas()
        self.points = []
        for theta in self.thetas:
            r = gen.rho(s, float(theta))
            exp = {}
            if s.pair is not None:
                _, a, b = s.pair
                exp["pair"] = pair_expected(r, s.observables[a], s.observables[b], s.metric)
            if s.sum_names is not None:
                exp["sum"] = sum_expected(r, [s.observables[n] for n in s.sum_names], s.metric)
            self.points.append(exp)
        self.header = expected_header(s)

    def check_csv(self, text: str) -> list[str]:
        header, rows = parse_csv(text)
        if header != self.header:
            return [f"header {header[:6]}... differs from the expected columns"]
        if len(rows) != len(self.thetas):
            return [f"{len(rows)} rows for {len(self.thetas)} grid points"]
        chain_len = self.s.dim**2 if self.s.pair and self.s.pair[0] == "chain" else None
        errs = []
        for i, (row, theta, exp) in enumerate(zip(rows, self.thetas, self.points)):
            if abs(row["theta"] - theta) > 1e-11 * max(1.0, abs(theta)):
                errs.append(f"row {i}: theta {row['theta']!r} != grid {theta!r}")
            if "pair" in exp:
                errs += [f"row {i}: {e}" for e in check_pair(row, exp["pair"], chain_len)]
            if "sum" in exp:
                errs += [f"row {i}: {e}" for e in check_sum(row, exp["sum"])]
            if len(errs) > 5:
                break
        return errs


def check_example2(text: str) -> list[str]:
    """The paper's gauge-free qutrit endpoints, product 1.875 and cauchy 0.250."""
    _, rows = parse_csv(text)
    if len(rows) != 1:
        return [f"{len(rows)} rows, expected 1"]
    errs = []
    for name, ref in (("product", 1.875), ("cauchy", 0.250)):
        if abs(rows[0][name] - ref) > 1e-3:
            errs.append(f"{name} {rows[0][name]!r} != published {ref}")
    return errs


# ---------------------------------------------------------------------------
# best_permuted_product_bound


def head_value(x, y, pa, pb) -> float:
    total = float(np.sum(x * x) * np.sum(y * y))
    return total - (x[pa[0]] * y[pb[1]] - y[pb[0]] * x[pa[1]]) ** 2


def exact_product_optimum(x: np.ndarray, y: np.ndarray) -> float:
    """total - min over i != j, k != l of (x_i y_l - y_k x_j)^2, in O(n^4)."""
    n = len(x)
    total = float(np.sum(x * x) * np.sum(y * y))
    # D[i, j, k, l] = (x_i y_l - y_k x_j)^2
    D = (x[:, None, None, None] * y[None, None, None, :]
         - y[None, None, :, None] * x[None, :, None, None]) ** 2
    eye = np.eye(n, dtype=bool)
    D[eye[:, :, None, None] | eye[None, None, :, :]] = np.inf
    return total - float(D.min())


def check_bppb(x: np.ndarray, y: np.ndarray, result) -> list[str]:
    value, (pa, pb), _index = result
    n = len(x)
    total = float(np.sum(x * x) * np.sum(y * y))
    tol = RTOL * total
    opt = exact_product_optimum(x, y)
    ident = tuple(range(n))
    errs = []
    if sorted(pa) != list(ident) or sorted(pb) != list(ident):
        return [f"witness {pa}, {pb} is not a pair of permutations"]
    if abs(value - head_value(x, y, pa, pb)) > tol:
        errs.append(f"value {value!r} is not the head value of its witness pair")
    if value > total + tol:
        errs.append(f"value {value!r} above Sum x^2 Sum y^2 = {total!r}")
    if value < head_value(x, y, ident, ident) - tol:
        errs.append(f"value {value!r} below the identity pair's head")
    if value > opt + tol:
        errs.append(f"value {value!r} above the exact optimum {opt!r}")
    if math.factorial(n) ** 2 <= EXHAUSTIVE_CAP and abs(value - opt) > tol:
        errs.append(f"exhaustive value {value!r} != exact optimum {opt!r}")
    return errs
