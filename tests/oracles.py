"""Reference forms that the package is tested against.

- Tuple-at-a-time searches for the permutation bounds: every candidate is
  built as Python tuples and scored one at a time, so the array kernels can
  be required to reproduce them value for value and witness for witness.
  The sum search scores the spread of a tuple's pair distances, as the
  package does; ``parallelogram_value`` keeps the paper's form of the same
  bound as a reference for that identity.
- Per-pair forms of the correlation measure and the norm baseline, one
  eigenbasis rotation per call, against which the correlation-matrix core
  is checked, and the complex form of K over all d^2 entries.
- The Wigner-Yanase-Dyson trace formula with its matrix powers and
  commutators, the scalar Morozova-Chentsov function and pairwise weight,
  and the consecutive-difference identities of the chains.
- Point-at-a-time forms of the stacked kernels: the semidefinite Cholesky
  factor, the I chain and the S table by direct summation, and the chain
  invariant checks, each written for one point with Python loops.
- The numbers of a state spec at one placeholder value, each expression
  evaluated by ``eval`` with theta bound and each pair joined by
  ``complex(re, im)``.
"""

import ast
import itertools
import math

import numpy as np

from skewbounds.bounds import EXHAUSTIVE_CAP, SearchStrategy, spq_order, table_Spq
from skewbounds.errors import (
    ComplexityRefusal,
    DimensionMismatch,
    DomainError,
    InvariantViolation,
)
from skewbounds.linalg import DensityMatrix
from skewbounds.loo import loo_basis
from skewbounds.metrics import KIND_SLD, KIND_WY, KIND_WYD, MetricSpec, weight_matrix


def parallelogram_value(vectors, perms) -> float:
    """The sum-form lower bound for one tuple of permutations, as the paper writes it.

    (1/(2N-2)) [ sum_{i<j} ||Xi^pi + Xj^pj||^2
                 + (2/(N(N-1))) (sum_{i<j} ||Xi^pi - Xj^pj||)^2 ]
    """
    N = len(vectors)
    Xp = [np.asarray(v)[list(p)] for v, p in zip(vectors, perms)]
    plus = 0.0
    minus = 0.0
    for i in range(N):
        for j in range(i + 1, N):
            plus += float(np.sum((Xp[i] + Xp[j]) ** 2))
            minus += float(np.sqrt(np.sum((Xp[i] - Xp[j]) ** 2)))
    return (plus + (2.0 / (N * (N - 1))) * minus**2) / (2.0 * N - 2.0)


def tuple_spread(vectors, perms) -> float:
    """sum_{i<j} (s_ij - mean s)^2 / (2N-2) of s_ij = ||Xi^pi - Xj^pj|| for one tuple.

    The bound of the tuple is sum_i ||Xi||^2 minus this spread.  Sums run
    in index order, one float at a time, and every square is c * c.
    """
    N = len(vectors)
    Xp = [[float(x) for x in np.asarray(v)[list(p)]] for v, p in zip(vectors, perms)]
    s = []
    for i in range(N):
        for j in range(i + 1, N):
            norm2 = 0.0
            for a, b in zip(Xp[i], Xp[j]):
                c = a - b
                norm2 += c * c
            s.append(math.sqrt(norm2))
    mean = s[0]
    for v in s[1:]:
        mean += v
    mean /= len(s)
    spread = 0.0
    for v in s:
        c = v - mean
        spread += c * c
    return spread / (2.0 * N - 2.0)


def loop_sum_bound(moduli, strategy: SearchStrategy = SearchStrategy()):
    """sum_i ||Xi||^2 minus the first least ``tuple_spread`` over the candidate tuples.

    Exhaustive: the identity followed by every tuple of itertools.product
    over the permutations.  Sampled: the identity tuple, the stable sorting
    tuple, then ``n_samples`` tuples of successive ``rng.permutation`` draws.
    """
    vectors = [np.asarray(v, dtype=float) for v in moduli]
    N, n = len(vectors), len(vectors[0])
    identity = tuple(range(n))
    if strategy.kind == "exhaustive":
        if math.factorial(n) ** (N - 1) > EXHAUSTIVE_CAP:
            raise ComplexityRefusal("over the cap")
        perms = list(itertools.permutations(range(n)))
        candidates = [
            (identity,) + rest for rest in itertools.product(perms, repeat=N - 1)
        ]
    else:
        rng = np.random.default_rng(strategy.seed)
        candidates = [
            tuple(identity for _ in range(N)),
            tuple(tuple(int(i) for i in np.argsort(v, kind="stable")) for v in vectors),
        ]
        for _ in range(strategy.n_samples):
            candidates.append(tuple(tuple(rng.permutation(n)) for _ in range(N)))
    best = np.inf
    witness = None
    for tup in candidates:
        spread = tuple_spread(vectors, tup)
        if spread < best:
            best = spread
            witness = [tuple(int(i) for i in p) for p in tup]
    X = np.array(vectors)
    return float(np.sum(X * X)) - best, witness


def enumerated_product_bound(x, y):
    """First maximum of the chain head over all n! ** 2 permutation pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    total = float(np.sum(x * x) * np.sum(y * y))
    perms = list(itertools.permutations(range(len(x))))
    best = -np.inf
    best_pair = None
    for pa in perms:
        for pb in perms:
            val = total - (x[pa[0]] * y[pb[1]] - y[pb[0]] * x[pa[1]]) ** 2
            if val > best:
                best = val
                best_pair = (pa, pb)
    return float(best), best_pair


# -- matrix functions and the trace-formula oracle ---------------------------


def commutator(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """AB - BA.  Anti-Hermitian when both inputs are Hermitian."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if A.shape != B.shape:
        raise DimensionMismatch(f"commutator of shapes {A.shape} and {B.shape}")
    return A @ B - B @ A


def matrix_power(P: DensityMatrix, s: float) -> np.ndarray:
    """rho**s for a density matrix, s in (0, 1], with 0**s := 0."""
    if not (0.0 < s <= 1.0):
        raise DomainError(f"exponent {s} outside (0, 1]")
    w = P.eigenvalues
    V = P.eigenvectors
    ws = np.where(w > 0, w, 0.0) ** s
    return (V * ws) @ V.conj().T


def wyd_direct(rho: DensityMatrix, A: np.ndarray, alpha: float) -> float:
    """Wigner-Yanase-Dyson information -(1/2) Tr [rho^a, A][rho^(1-a), A].

    Computed by explicit matrix products; serves as an independent oracle for
    skew_information with the WYD metric.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha {alpha} outside (0, 1)")
    if A.shape != rho.matrix.shape:
        raise DimensionMismatch(
            f"observable shape {A.shape} does not match state dim {rho.dim}"
        )
    ra = matrix_power(rho, alpha)
    rb = matrix_power(rho, 1.0 - alpha)
    val = -0.5 * np.trace(commutator(ra, A) @ commutator(rb, A))
    return float(val.real)


# -- scalar metric functions -------------------------------------------------


def metric_label(m: MetricSpec) -> str:
    """Inverse of parse_metric."""
    if m.kind == KIND_WYD:
        return f"wyd:{m.alpha:g}"
    return m.kind


def _wyd_alpha(m: MetricSpec) -> float:
    return 0.5 if m.kind == KIND_WY else float(m.alpha)


def mc_function(m: MetricSpec, x: float, y: float) -> float:
    """Morozova-Chentsov function c(x, y), with the analytic limit at x = y."""
    if x < 0 or y < 0:
        raise DomainError("c(x, y) requires x, y >= 0")
    if x == 0 and y == 0:
        raise DomainError("c(0, 0) is undefined")
    if m.kind == KIND_SLD:
        return 2.0 / (x + y)
    a = _wyd_alpha(m)
    if x == y:
        return 1.0 / x
    return ((x**a - y**a) * (x ** (1 - a) - y ** (1 - a))) / (
        a * (1 - a) * (x - y) ** 2
    )


def weight(m: MetricSpec, x: float, y: float) -> float:
    """Pairwise weight (m(c)/2) c(x, y) (x - y)^2, finite for all x, y >= 0."""
    if x < 0 or y < 0:
        raise DomainError("weight requires x, y >= 0")
    if m.kind == KIND_SLD:
        s = x + y
        return 0.0 if s == 0.0 else (x - y) ** 2 / (2.0 * s)
    a = _wyd_alpha(m)
    return 0.5 * (x**a - y**a) * (x ** (1 - a) - y ** (1 - a))


# -- bases and factors -------------------------------------------------------


def reconstruct(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum a_mu Omega_mu."""
    return sum(c * om for c, om in zip(coeffs, basis))


def psd_sqrt(gamma: np.ndarray, clamp: float = 1e-12) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition, small eigenvalues -> 0."""
    w, V = np.linalg.eigh(gamma)
    w = np.where(w > clamp, w, 0.0)
    return (V * np.sqrt(w)) @ V.conj().T


# -- per-pair correlation and norm baseline ----------------------------------


def pairwise_correlation(
    rho: DensityMatrix, A: np.ndarray, B: np.ndarray, m: MetricSpec
) -> complex:
    """Corr(A, B) = sum_ij w(lam_i, lam_j) conj(A~_ij) B~_ij for one pair."""
    V = rho.eigenvectors
    At = V.conj().T @ A @ V
    Bt = V.conj().T @ B @ V
    W = weight_matrix(m, rho.eigenvalues)
    return complex(np.sum(W * At.conj() * Bt))


def complex_correlation_matrix(rho: DensityMatrix, observables, m: MetricSpec) -> np.ndarray:
    """K = sum_ij W_ij conj(A~_i) A~_j over all d^2 complex entries, for one state.

    Rounding leaves K only nearly Hermitian, so it is symmetrized and the
    real part of its diagonal clamped at 0, as the package did before it
    read K off one real vector per observable.
    """
    d = rho.dim
    V = rho.eigenvectors
    left = V.conj().T[None] @ np.asarray(observables)
    rotated = (left.reshape(-1, d) @ V).reshape(len(observables), d * d)
    W = weight_matrix(m, rho.eigenvalues).reshape(1, d * d)
    K = (rotated.conj() * W) @ rotated.T
    K = 0.5 * (K + K.conj().T)
    np.fill_diagonal(K, np.maximum(K.diagonal().real, 0.0))
    return K


def pairwise_skew_information(rho: DensityMatrix, A: np.ndarray, m: MetricSpec) -> float:
    """Re Corr(A, A), with a negative rounding residue clamped to 0."""
    return max(pairwise_correlation(rho, A, A, m).real, 0.0)


def pairwise_sum_bound_norm(rho: DensityMatrix, observables, m: MetricSpec) -> float:
    """The norm baseline from the skew information of every pairwise sum and difference.

    max over x in {0,1} of (1/(2N-2)) [ (2/(N(N-1)))
    (sum_{i<j} sqrt(I(A_i + (-1)^x A_j)))^2 + sum_{i<j} I(A_i + (-1)^(x+1) A_j) ].
    """
    N = len(observables)
    best = -np.inf
    for xbit in (0, 1):
        sgn = (-1.0) ** xbit
        root_sum = 0.0
        lin_sum = 0.0
        for i in range(N):
            for j in range(i + 1, N):
                root_sum += np.sqrt(
                    pairwise_skew_information(rho, observables[i] + sgn * observables[j], m)
                )
                lin_sum += pairwise_skew_information(
                    rho, observables[i] - sgn * observables[j], m
                )
        val = ((2.0 / (N * (N - 1))) * root_sum**2 + lin_sum) / (2.0 * N - 2.0)
        best = max(best, val)
    return float(best)


# -- chain difference identities ---------------------------------------------


def chain_Ik_step(x, y, k: int) -> float:
    """Consecutive difference I_{k+1} - I_k = -sum_{i<=k} (x_i y_{k+1} - y_i x_{k+1})^2."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    return -float(np.sum((x[:k] * y[k] - y[:k] * x[k]) ** 2))


def spq_step_identities(x, y) -> list[tuple[str, float, float]]:
    """The three difference identities of the S table, as (name, lhs, rhs).

    Each rhs is minus a single cross-difference square; tests assert
    lhs == rhs to pin the direct summation against the recursive form.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    S = dict(zip(spq_order(n), table_Spq(x, y)))
    out = []
    out.append(
        ("S21-S10", S[(2, 1)] - S[(1, 0)], -float((x[1] * y[0] - x[0] * y[1]) ** 2))
    )
    for p in range(2, n + 1):
        for q in range(2, p):
            out.append(
                (
                    f"S{p}{q}-S{p}{q-1}",
                    S[(p, q)] - S[(p, q - 1)],
                    -float((x[p - 1] * y[q - 1] - x[q - 1] * y[p - 1]) ** 2),
                )
            )
    for p in range(3, n + 1):
        out.append(
            (
                f"S{p}1-S{p-1}{p-2}",
                S[(p, 1)] - S[(p - 1, p - 2)],
                -float((x[p - 1] * y[0] - x[0] * y[p - 1]) ** 2),
            )
        )
    return out


# -- point-at-a-time kernels -------------------------------------------------


def loop_cholesky_psd(gamma: np.ndarray, clamp: float = 1e-12) -> np.ndarray:
    """Upper-triangular C with C^dag C = gamma, one row at a time, for one matrix.

    A pivot at or below clamp times max(1, largest diagonal entry) leaves its
    whole row zero.
    """
    n = gamma.shape[0]
    R = np.zeros((n, n), dtype=complex)
    scale = max(1.0, float(np.max(gamma.real.diagonal(), initial=0.0)))
    for i in range(n):
        pivot = gamma[i, i].real - float(np.sum(np.abs(R[:i, i]) ** 2))
        if pivot <= clamp * scale:
            continue
        R[i, i] = np.sqrt(pivot)
        if i + 1 < n:
            R[i, i + 1 :] = (
                gamma[i, i + 1 :] - R[:i, i].conj() @ R[:i, i + 1 :]
            ) / R[i, i]
    return R


def longdouble_moduli(rho: DensityMatrix, observables, m: MetricSpec, clamp: float = 1e-12):
    """Moduli |C a| of one state by a two-pass Gram-Schmidt on F in np.clongdouble: (N, d^2).

    F_{(i,j),mu} = sqrt(W_ij) (V^dag Omega_mu V)_ij over every LOO basis
    element, in complex coordinates, from the state's double eigenvectors
    and weights.  A column is kept when its squared residual exceeds clamp
    times max(1, the largest squared column norm); the moduli are |q^dag f|
    at kept columns and 0 elsewhere, with f = sqrt(W) * V^dag A V.
    """
    d = rho.dim
    V = rho.eigenvectors.astype(np.clongdouble)
    root = np.sqrt(weight_matrix(m, rho.eigenvalues).astype(np.longdouble)).ravel()

    def columns(mats):
        return np.stack(
            [root * (V.conj().T @ np.asarray(M).astype(np.clongdouble) @ V).ravel() for M in mats],
            axis=1,
        )

    F, f = columns(loo_basis(d)), columns(observables)
    scale = max(1.0, float(np.max(np.sum(np.abs(F) ** 2, axis=0))))
    kept = []
    for k in range(d * d):
        v = F[:, k]
        for _ in range(2):
            for _, q in kept:
                v = v - q * (q.conj() @ v)
        r2 = np.sum(np.abs(v) ** 2)
        if r2 > clamp * scale:
            kept.append((k, v / np.sqrt(r2)))
    x = np.zeros((len(observables), d * d))
    for k, q in kept:
        x[:, k] = np.abs(q.conj() @ f).astype(float)
    return x


def loop_chain_Ik(x, y) -> np.ndarray:
    """The refinement chain I_1 ... I_n of one pair by running sums over k."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    x2, y2 = x * x, y * y
    xy = x * y
    diag = float(np.dot(x2, y2))
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


def loop_table_Spq(x, y) -> dict[tuple[int, int], float]:
    """The refinement table S_{pq} of one pair, keyed by (p, q), by direct summation."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    n = len(x)
    total = float(np.sum(x * x) * np.sum(y * y))
    Q = (np.outer(y, x) - np.outer(x, y)) ** 2
    table = {(1, 0): total}
    tri = 0.0
    for p in range(2, n + 1):
        tri += float(np.sum(Q[: p - 2, p - 2])) if p >= 3 else 0.0
        col = np.cumsum(Q[: p - 1, p - 1])
        for q in range(1, p):
            table[(p, q)] = total - tri - float(col[q - 1])
    return table


def loop_check_product_chain(
    product, cauchy, S_table, tol: float = 1e-9, size: float = 0.0
) -> None:
    """Every ordering relation of one point's chains, checked in turn.

    S_table is the dict of loop_table_Spq; the I chain is read off it, as
    I_1 = S_10 and I_p = S_{p,p-1}.  The slack is relative to |product|
    (none for a NaN product), plus 1e-28 times size = (|A|_F |B|_F)^2.
    Raises InvariantViolation with the message of the first relation that
    fails.
    """
    n = max(p for p, _ in S_table)
    I_seq = [S_table[(1, 0)]] + [S_table[(p, p - 1)] for p in range(2, n + 1)]
    scale = max(0.0, abs(product))
    eq_tol = 1e-10 * scale + 1e-28 * size
    tol = tol * scale + 1e-28 * size
    if abs(I_seq[0] - product) > tol:
        raise InvariantViolation(f"I_1 = {float(I_seq[0])!r} differs from product {product!r}")
    for k in range(1, n):
        if I_seq[k] > I_seq[k - 1] + eq_tol:
            raise InvariantViolation(f"I chain increases at k = {k + 1}")
    keys = spq_order(n)
    for a, b in zip(keys, keys[1:]):
        if S_table[b] > S_table[a] + eq_tol:
            raise InvariantViolation(f"S chain increases at {b}")
    lo = cauchy - tol
    hi = product + tol
    for k in range(n):
        if not (lo <= I_seq[k] <= hi):
            raise InvariantViolation(f"I_{k + 1} outside [cauchy, product]")
    for key, val in S_table.items():
        if not (lo <= val <= hi):
            raise InvariantViolation(f"S_{key} outside [cauchy, product]")


def point_entry(value, theta: float) -> float:
    """A state entry at one placeholder value: eval of the expression with theta bound.

    Numbers in the expression become floats, as the package reads them.
    """
    if not isinstance(value, str):
        return float(value)
    tree = ast.parse(value, mode="eval")
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant):
            node.value = float(node.value)
    names = {"__builtins__": {}, "pi": math.pi, "abs": abs}
    names.update((f, getattr(math, f)) for f in ("sin", "cos", "tan", "sqrt", "exp"))
    return float(eval(compile(tree, "<expression>", "eval"), names, {"theta": theta}))


def loop_state_entries(kind: str, spec, theta: float):
    """The numbers of a state spec at one placeholder value, nested as in the spec."""
    if kind == "bloch":
        return [point_entry(v, theta) for v in spec]
    if kind == "pure":
        return [complex(point_entry(re, theta), point_entry(im, theta)) for re, im in spec]
    return [
        [complex(point_entry(re, theta), point_entry(im, theta)) for re, im in row]
        for row in spec
    ]
