"""Product and sum uncertainty lower bounds and their refinement chains.

Conventions: modulus vectors x, y are nonnegative with sum(x**2) = I(A),
sum(y**2) = I(B).  The refinement chain I_k interpolates between
I_1 = I(A) I(B) and I_{d^2} = (sum x_i y_i)^2, never dropping below the
Cauchy-Schwarz bound |Corr(A, B)|^2.  The finer S_{pq} table starts at
S_{10} = I_1 and descends lexicographically in (p, q), with S_{p,p-1} = I_p.

The product and sum bounds are pure functions of two arrays per point: the
correlation matrix K of the observables (skewinfo.correlation_matrix) and
their modulus vectors (loo.modulus_vector).  All chain values are computed
by direct summation of the defining formulas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComplexityRefusal,
    DimensionMismatch,
    InvariantViolation,
    LengthMismatch,
    ValidationError,
)

# Hard cap on enumerated permutation candidates for exhaustive searches.
EXHAUSTIVE_CAP = 10**6
# Permutation tuples evaluated per array pass of the sum-bound search.
_CHUNK_ROWS = 1 << 15


@dataclass(frozen=True)
class SearchStrategy:
    """How to search permutation space: exhaustive or seeded sampling."""

    kind: str = "exhaustive"  # "exhaustive" | "sampled"
    n_samples: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("exhaustive", "sampled"):
            raise ValidationError(f"unknown strategy kind {self.kind!r}")
        if self.n_samples < 0:
            raise ValidationError(f"sample count {self.n_samples} is negative")


def _as_modulus_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise LengthMismatch(f"modulus vectors of shapes {x.shape} and {y.shape}")
    return x, y


def chain_Ik(x, y) -> np.ndarray:
    """The refinement chain I_1 ... I_n, n = len(x), by direct summation.

    I_k keeps the cross terms x_i^2 y_j^2 + x_j^2 y_i^2 for pairs reaching
    beyond position k and replaces the pairs inside the first k positions by
    their geometric-mean counterparts 2 x_i y_i x_j y_j.
    """
    x, y = _as_modulus_pair(x, y)
    n = len(x)
    x2, y2 = x * x, y * y
    xy = x * y
    diag = float(np.dot(x2, y2))
    # prefix sums over pairs i < j <= k of the two pair weights
    total_cross = 0.0
    cross_prefix = np.zeros(n + 1)
    geo_prefix = np.zeros(n + 1)
    for k in range(1, n):
        total_cross += float(np.sum(x2[:k]) * y2[k] + np.sum(y2[:k]) * x2[k])
        geo_prefix[k + 1] = geo_prefix[k] + 2.0 * float(np.sum(xy[:k]) * xy[k])
        cross_prefix[k + 1] = total_cross
    out = np.empty(n)
    for k in range(1, n + 1):
        out[k - 1] = diag + (total_cross - cross_prefix[k]) + geo_prefix[k]
    return out


def spq_order(n: int) -> list[tuple[int, int]]:
    """The descending-chain key order (1,0), (2,1), (3,1), (3,2), ..."""
    keys = [(1, 0)]
    for p in range(2, n + 1):
        keys.extend((p, q) for q in range(1, p))
    return keys


def table_Spq(x, y) -> dict[tuple[int, int], float]:
    """The refinement table S_{pq} by direct summation.

    S_{pq} subtracts from sum_{ij} x_i^2 y_j^2 every cross-difference square
    (x_j y_i - x_i y_j)^2 with i < j <= p-1, plus the first q such squares
    against position p.  Includes S_{10} (nothing subtracted) and satisfies
    S_{p,p-1} = I_p.
    """
    x, y = _as_modulus_pair(x, y)
    n = len(x)
    total = float(np.sum(x * x) * np.sum(y * y))
    # Q[i, j] = (x_j y_i - x_i y_j)^2, 0-based
    Q = (np.outer(y, x) - np.outer(x, y)) ** 2
    table = {(1, 0): total}
    tri = 0.0  # sum of Q over i < j <= p-1 (1-based)
    for p in range(2, n + 1):
        tri += float(np.sum(Q[: p - 2, p - 2])) if p >= 3 else 0.0
        col = np.cumsum(Q[: p - 1, p - 1])
        for q in range(1, p):
            table[(p, q)] = total - tri - float(col[q - 1])
    return table


def best_permuted_product_bound(
    x,
    y,
    which: str = "Ik",
    strategy: SearchStrategy = SearchStrategy(),
) -> tuple[float, tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    """Best non-trivial permuted chain bound on the product I(A) I(B).

    Returns (value, (pi_A, pi_B), index) where index is (k,) for the I chain
    or (p, q) for the S table.  Both chains descend for any fixed pair, so
    the best index is always the head (k = 2, resp. (2, 1)), whose value
    total - (x_i y_l - y_k x_j)^2 depends only on (i, j) = pi_A[:2] and
    (k, l) = pi_B[:2].  The optimum over all n! ** 2 pairs is therefore an
    extremum over index quadruples, found exactly in O(n^4) time and memory.
    The witness is the first maximizing pair in lexicographic enumeration
    order: (i, j) and (k, l), each completed by the remaining indices in
    ascending order.

    ``strategy`` is accepted for compatibility and does not change the
    result: a sampled search could never beat the exact optimum.
    """
    x, y = _as_modulus_pair(x, y)
    n = len(x)
    if which not in ("Ik", "Spq"):
        raise ValueError(f"unknown chain selector {which!r}")
    if n < 2:
        raise DimensionMismatch("permuted product bound needs at least 2 components")
    total = float(np.sum(x * x) * np.sum(y * y))

    # V[i, j, k, l] = total - (x_i y_l - y_k x_j)^2, with i = j or k = l excluded
    P = np.multiply.outer(x, y)
    V = P[:, None, None, :] - P[None, :, :, None]
    np.square(V, out=V)
    np.subtract(total, V, out=V)
    diag = np.arange(n)
    V[diag, diag] = -np.inf
    V[:, :, diag, diag] = -np.inf
    i, j, k, l = (int(a) for a in np.unravel_index(np.argmax(V), V.shape))

    def completed(a: int, b: int) -> tuple[int, ...]:
        return (a, b) + tuple(r for r in range(n) if r not in (a, b))

    index = (2,) if which == "Ik" else (2, 1)
    return float(V[i, j, k, l]), (completed(i, j), completed(k, l)), index


def _tuple_values(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The sum-form lower bound of each row of a (k, N, n) permutation array.

    (1/(2N-2)) [ sum_{i<j} ||Xi^pi + Xj^pj||^2
                 + (2/(N(N-1))) (sum_{i<j} ||Xi^pi - Xj^pj||)^2 ]

    The pairs are accumulated in the order i < j, row by row, so each value
    is the same floating-point sum a tuple-at-a-time loop would form.
    """
    N = len(X)
    Xp = [X[i][rows[:, i, :]] for i in range(N)]
    plus = np.zeros(len(rows))
    minus = np.zeros(len(rows))
    for i in range(N):
        for j in range(i + 1, N):
            plus += np.sum((Xp[i] + Xp[j]) ** 2, axis=1)
            minus += np.sqrt(np.sum((Xp[i] - Xp[j]) ** 2, axis=1))
    return (plus + (2.0 / (N * (N - 1))) * minus**2) / (2.0 * N - 2.0)


def _candidate_rows(X: np.ndarray, strategy: SearchStrategy):
    """Yield the candidate permutation tuples as (k, N, n) chunks, in search order.

    Exhaustive: the first permutation is the identity and the others run
    over n! ** (N-1) tuples in itertools.product order.  Sampled: the
    identity tuple, the sorting tuple, then ``n_samples`` seeded draws.
    """
    N, n = X.shape
    if strategy.kind == "exhaustive":
        count = math.factorial(n) ** (N - 1)
        if count > EXHAUSTIVE_CAP:
            raise ComplexityRefusal(
                f"exhaustive tuple search over {count} candidates exceeds cap "
                f"{EXHAUSTIVE_CAP}; use the sampled strategy"
            )
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        shape = (len(perms),) * (N - 1)
        for start in range(0, count, _CHUNK_ROWS):
            flat = np.arange(start, min(start + _CHUNK_ROWS, count))
            rows = np.empty((len(flat), N, n), dtype=np.intp)
            rows[:, 0] = np.arange(n)
            for i, idx in enumerate(np.unravel_index(flat, shape), start=1):
                rows[:, i] = perms[idx]
            yield rows
        return
    rows = np.empty((strategy.n_samples + 2, N, n), dtype=np.intp)
    rows[0] = np.arange(n)
    rows[1] = np.argsort(X, axis=1, kind="stable")
    # permuted shuffles each length-n row in C order, drawing from the
    # stream exactly as successive rng.permutation(n) calls do
    rng = np.random.default_rng(strategy.seed)
    rows[2:] = rng.permuted(
        np.broadcast_to(np.arange(n), (strategy.n_samples, N, n)), axis=-1
    )
    for start in range(0, len(rows), _CHUNK_ROWS):
        yield rows[start : start + _CHUNK_ROWS]


def sum_bound_parallelogram(
    moduli: list[np.ndarray], strategy: SearchStrategy = SearchStrategy()
) -> tuple[float, list[tuple[int, ...]]]:
    """Best parallelogram-law sum bound over candidate permutation tuples.

    Returns (value, witness tuple of permutations).  For N = 2 the
    parallelogram law gives every tuple the value ||X1||^2 + ||X2||^2, which
    is returned with the identity witness under either strategy.  For N >= 3
    the bound is invariant under composing every permutation with a common
    one, so exhaustive enumeration fixes the first permutation to the
    identity and sweeps the remaining n! ** (N-1) tuples (capped); the
    candidates are evaluated as arrays, chunk by chunk, and the witness is
    the first maximum in search order.
    """
    N = len(moduli)
    if N < 2:
        raise DimensionMismatch("sum bound needs at least 2 observables")
    vectors = [np.asarray(v, dtype=float) for v in moduli]
    n = len(vectors[0])
    for v in vectors:
        if v.shape != (n,):
            raise LengthMismatch("modulus vectors must share one length")
    if N == 2:
        identity = tuple(range(n))
        value = float(np.sum(vectors[0] ** 2) + np.sum(vectors[1] ** 2))
        return value, [identity, identity]

    X = np.array(vectors)
    best = -np.inf
    witness = None
    for rows in _candidate_rows(X, strategy):
        values = _tuple_values(X, rows)
        r = int(np.argmax(values))
        if values[r] > best:
            best = float(values[r])
            witness = rows[r]
    return best, [tuple(int(i) for i in p) for p in witness]


def sum_bound_norm(K) -> float:
    """The matrix-norm baseline bound from the correlation matrix K of the family.

    max over x in {0,1} of (1/(2N-2)) [ (2/(N(N-1)))
    (sum_{i<j} sqrt(I(A_i + (-1)^x A_j)))^2 + sum_{i<j} I(A_i + (-1)^(x+1) A_j) ],
    with I(A_i + s A_j) = K_ii + K_jj + 2 s Re K_ij, clamped at 0 against
    rounding.  For N = 2 both signs give K_00 + K_11.
    """
    K = np.asarray(K)
    N = len(K)
    if N < 2:
        raise DimensionMismatch("sum bound needs at least 2 observables")
    i, j = np.triu_indices(N, 1)
    diag = K.real.diagonal()
    cross = 2.0 * K.real[i, j]
    plus = np.maximum(diag[i] + diag[j] + cross, 0.0)
    minus = np.maximum(diag[i] + diag[j] - cross, 0.0)
    pair_weight = 2.0 / (N * (N - 1))
    values = [
        (pair_weight * np.sum(np.sqrt(root)) ** 2 + np.sum(lin)) / (2.0 * N - 2.0)
        for root, lin in ((plus, minus), (minus, plus))
    ]
    return float(max(values))


@dataclass(frozen=True)
class ProductChain:
    """All product-form bounds for one (rho, A, B, metric) instance."""

    product: float
    cauchy: float
    I_seq: np.ndarray
    S_table: dict[tuple[int, int], float] = field(repr=False)


def product_and_cauchy(K) -> tuple[float, float]:
    """I(A) I(B) = K_00 K_11 and the Cauchy-Schwarz bound |K_01|^2 of (A, B)."""
    return float(K[0, 0].real * K[1, 1].real), float(abs(K[0, 1]) ** 2)


def product_chain(K, x, y) -> ProductChain:
    """Product, Cauchy-Schwarz bound, and both refinement chains of (A, B).

    K is the 2 x 2 correlation matrix of (A, B); x and y are their modulus
    vectors.
    """
    product, cauchy = product_and_cauchy(K)
    return ProductChain(
        product=product,
        cauchy=cauchy,
        I_seq=chain_Ik(x, y),
        S_table=table_Spq(x, y),
    )


def check_cauchy(product: float, cauchy: float, tol: float = 1e-9) -> None:
    """Assert the Cauchy-Schwarz bound does not exceed the product.

    The tolerance scales with max(1, |product|).
    """
    if cauchy > product + tol * max(1.0, abs(product)):
        raise InvariantViolation(f"cauchy {cauchy!r} exceeds product {product!r}")


def check_product_chain(pc: ProductChain, tol: float = 1e-9) -> None:
    """Assert every ordering relation of the chains; raise InvariantViolation.

    Both tolerances scale with max(1, |product|): absolute at unit scale,
    relative for large observables.
    """
    n = len(pc.I_seq)
    scale = max(1.0, abs(pc.product))
    eq_tol = 1e-10 * scale
    tol = tol * scale
    if abs(pc.I_seq[0] - pc.product) > max(eq_tol, tol):
        raise InvariantViolation(
            f"I_1 = {pc.I_seq[0]!r} differs from product {pc.product!r}"
        )
    if abs(pc.S_table[(1, 0)] - pc.product) > max(eq_tol, tol):
        raise InvariantViolation("S_10 differs from product")
    for k in range(1, n):
        if pc.I_seq[k] > pc.I_seq[k - 1] + eq_tol:
            raise InvariantViolation(f"I chain increases at k = {k + 1}")
    keys = spq_order(n)
    for a, b in zip(keys, keys[1:]):
        if pc.S_table[b] > pc.S_table[a] + eq_tol:
            raise InvariantViolation(f"S chain increases at {b}")
    for p in range(2, n + 1):
        if abs(pc.S_table[(p, p - 1)] - pc.I_seq[p - 1]) > eq_tol:
            raise InvariantViolation(f"S_{{{p},{p - 1}}} != I_{p}")
    lo = pc.cauchy - tol
    hi = pc.product + tol
    for k in range(n):
        if not (lo <= pc.I_seq[k] <= hi):
            raise InvariantViolation(f"I_{k + 1} outside [cauchy, product]")
    for key, val in pc.S_table.items():
        if not (lo <= val <= hi):
            raise InvariantViolation(f"S_{key} outside [cauchy, product]")


@dataclass(frozen=True)
class SumBoundReport:
    """Sum of skew informations with both lower bounds and the witness."""

    sum_value: float
    parallelogram: float
    witness_perms: list[tuple[int, ...]]
    norm_bound: float


def sum_bound_report(
    K, moduli, strategy: SearchStrategy = SearchStrategy()
) -> SumBoundReport:
    """The sum-form bounds of a family from its correlation matrix and moduli."""
    para, witness = sum_bound_parallelogram(moduli, strategy)
    return SumBoundReport(
        sum_value=float(np.trace(K).real),
        parallelogram=para,
        witness_perms=witness,
        norm_bound=sum_bound_norm(K),
    )


def check_sum_report(report: SumBoundReport, tol: float = 1e-9) -> None:
    """Assert the sum dominates both of its lower bounds.

    The tolerance scales with max(1, sum): absolute at unit scale, relative
    for large observables.
    """
    tol = tol * max(1.0, abs(report.sum_value))
    if report.sum_value < report.parallelogram - tol:
        raise InvariantViolation(
            f"sum {report.sum_value!r} below parallelogram bound {report.parallelogram!r}"
        )
    if report.sum_value < report.norm_bound - tol:
        raise InvariantViolation(
            f"sum {report.sum_value!r} below norm bound {report.norm_bound!r}"
        )
