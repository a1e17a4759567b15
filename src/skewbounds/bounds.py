"""Product and sum uncertainty lower bounds and their refinement chains.

Conventions: modulus vectors x, y are nonnegative with sum(x**2) = I(A),
sum(y**2) = I(B).  The refinement chain I_k interpolates between
I_1 = I(A) I(B) and I_{d^2} = (sum x_i y_i)^2, never dropping below the
Cauchy-Schwarz bound |Corr(A, B)|^2.  The finer S_{pq} table starts at
S_{10} = I_1 and descends lexicographically in (p, q), with S_{p,p-1} = I_p.

The product and sum bounds are pure functions of two arrays per point: the
correlation matrix K of the observables (skewinfo.correlation_matrix) and
their modulus vectors (loo.modulus_vector).  Every function here also takes
a stack of points along a leading axis, K (T, N, N) and moduli (T, n), and
evaluates it with array operations, the permutation search of an N >= 3 sum
bound included: its candidate tuples are shared by the points of a stack.
The checks report the first failing point of a stack, with the error's
``row`` set to its index.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplexityRefusal,
    DimensionMismatch,
    InvariantViolation,
    LengthMismatch,
    ValidationError,
    raise_first,
)

# Hard cap on enumerated permutation candidates for exhaustive searches.
EXHAUSTIVE_CAP = 10**6
# (point, permutation tuple) pairs evaluated per array pass of the sum-bound search.
_CHUNK_ROWS = 1 << 15
# Slack of the ordering checks, relative to max(1, sum) for the sum check and
# to |product| alone for the chain and Cauchy checks (see check_product_chain).
CHECK_TOL = 1e-9
# Rounding the chain and Cauchy checks allow beyond their relative slack, as
# a share of (|A|_F |B|_F)^2: the part of f along columns of F that fall to
# the factor's floor at eigenvalues split by rounding, about 1e-32 of it.
CHAIN_ROUNDING = 1e-28


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
        if self.seed < 0:
            raise ValidationError(f"seed {self.seed} is negative")


def _as_modulus_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim not in (1, 2):
        raise LengthMismatch(f"modulus vectors of shapes {x.shape} and {y.shape}")
    return x, y


def _value(a):
    """A float for a single point, the array itself for a stack."""
    return float(a) if np.ndim(a) == 0 else a


def spq_order(n: int) -> list[tuple[int, int]]:
    """The descending-chain key order (1,0), (2,1), (3,1), (3,2), ..."""
    keys = [(1, 0)]
    for p in range(2, n + 1):
        keys.extend((p, q) for q in range(1, p))
    return keys


@functools.cache
def _spq_index(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays of the flat table, read-only.

    The 0-based p and q of the keys (p, q) after (1, 0), in spq_order, and
    the positions of S_{p,p-1}, p = 2..n, in the flat table.
    """
    p, q = np.array(spq_order(n)[1:], dtype=np.intp).reshape(-1, 2).T - 1
    diagonal = 1 + np.flatnonzero(p == q + 1)
    for a in (p, q, diagonal):
        a.setflags(write=False)
    return p, q, diagonal


def table_Spq(x, y) -> np.ndarray:
    """The refinement table S_{pq} as one flat array in spq_order.

    S_{pq} subtracts from sum_{ij} x_i^2 y_j^2 every cross-difference square
    (x_j y_i - x_i y_j)^2 with i < j <= p-1, plus the first q such squares
    against position p: the total, minus a prefix of whole columns of the
    upper triangle, minus a prefix of column p.  Entry 0 is S_{10}, with
    nothing subtracted, and S_{p,p-1} = I_p.  x and y may be vectors (n,)
    or stacks (T, n), giving (1 + n(n-1)/2,) or (T, 1 + n(n-1)/2).
    """
    x, y = _as_modulus_pair(x, y)
    n = x.shape[-1]
    total = np.sum(x * x, axis=-1) * np.sum(y * y, axis=-1)
    # Q[i, j] = (x_j y_i - x_i y_j)^2 for i < j, 0-based; zero elsewhere
    Q = np.triu(
        (y[..., :, None] * x[..., None, :] - x[..., :, None] * y[..., None, :]) ** 2, 1
    )
    col = np.cumsum(Q, axis=-2)
    tri = np.cumsum(col[..., -1, :], axis=-1)
    p, q, _ = _spq_index(n)
    S = np.empty(x.shape[:-1] + (1 + len(p),))
    S[..., 0] = total
    S[..., 1:] = (total[..., None] - tri[..., p - 1]) - col[..., q, p]
    return S


def _chain_from_table(S: np.ndarray) -> np.ndarray:
    """I_1 ... I_n read off a flat S table: I_1 = S_10 and I_p = S_{p,p-1}."""
    # a table of n positions has 1 + n(n-1)/2 entries
    n = (1 + math.isqrt(8 * S.shape[-1] - 7)) // 2
    return S[..., np.concatenate([[0], _spq_index(n)[2]])]


def chain_Ik(x, y) -> np.ndarray:
    """The refinement chain I_1 ... I_n, n = len(x), read off the S table.

    I_k keeps the cross terms x_i^2 y_j^2 + x_j^2 y_i^2 for pairs reaching
    beyond position k and replaces the pairs inside the first k positions by
    their geometric-mean counterparts 2 x_i y_i x_j y_j: it is S_{k,k-1}.
    x and y may be vectors (n,) or stacks (T, n); the chain has the same
    shape.
    """
    return _chain_from_table(table_Spq(x, y))


def best_permuted_product_bound(
    x, y
) -> tuple[float, tuple[tuple[int, ...], tuple[int, ...]], tuple[int, ...]]:
    """Best non-trivial permuted chain bound on the product I(A) I(B).

    Returns (value, (pi_A, pi_B), (2,)), (2,) being the index k of the I
    chain.  The chain descends for any fixed pair, so the best index is
    always its head k = 2, whose value total - (x_i y_l - y_k x_j)^2
    depends only on (i, j) = pi_A[:2] and (k, l) = pi_B[:2].  The optimum
    over all n! ** 2 pairs is therefore an extremum over index quadruples,
    found exactly in O(n^4) time and memory.  The witness is the first
    maximizing pair in lexicographic enumeration order: (i, j) and (k, l),
    each completed by the remaining indices in ascending order.
    """
    x, y = _as_modulus_pair(x, y)
    n = len(x)
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

    return float(V[i, j, k, l]), (completed(i, j), completed(k, l)), (2,)


def _spread(s: np.ndarray) -> np.ndarray:
    """sum_{i<j} (s_ij - mean)^2 / (2N - 2) of the M = N(N-1)/2 pair values on the first axis.

    Sums run in pair order and squares are c * c, as a loop over floats forms them.
    """
    mean = sum(s) / len(s)
    # 8M + 1 = (2N - 1)^2
    return sum(c * c for c in s - mean) / (math.isqrt(8 * len(s) + 1) - 1)


def _tuple_values(P: np.ndarray) -> np.ndarray:
    """Minus the spread of the pair distances of permuted families, P (T, N, k, n) to (T, k).

    P[t, i, c] is Xi^pi at point t under candidate tuple c; s_ij = ||Xi^pi - Xj^pj||.
    Squared norms add the components in order: numpy's sum over the last axis
    changes its order with P's memory layout, and so with the number of points.
    """
    N = P.shape[1]
    s = np.empty((N * (N - 1) // 2,) + P.shape[:1] + P.shape[2:-1])
    for m, (i, j) in enumerate(itertools.combinations(range(N), 2)):
        d = P[:, i] - P[:, j]
        s[m] = np.sqrt(sum(c * c for c in np.moveaxis(d, -1, 0)))
    return -_spread(s)


@functools.cache
def _arrangements(n: int, zeros: tuple[int, ...]) -> np.ndarray:
    """The permutations of range(n) that keep the indices ``zeros`` in increasing order, read-only.

    These are the n! / len(zeros)! distinct arrangements of a vector whose
    entries at ``zeros`` are equal, each the first of its arrangement in
    itertools.permutations order, and listed in that order.
    """
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    if len(zeros) > 1:
        # the position each zero index takes in each permutation
        at = np.argsort(perms, axis=1)[:, list(zeros)]
        perms = perms[np.all(at[:, :-1] < at[:, 1:], axis=1)]
    perms.setflags(write=False)
    return perms


def _product_rows(lists: list[np.ndarray], flat: np.ndarray) -> np.ndarray:
    """The tuples at positions ``flat`` of (identity, a_1, ..., a_{N-1}) over
    a_i in lists[i - 1], in itertools.product order: an array (len(flat), N, n)."""
    n = lists[0].shape[1]
    rows = np.empty((len(flat), len(lists) + 1, n), dtype=np.intp)
    rows[:, 0] = np.arange(n)
    for i, idx in enumerate(np.unravel_index(flat, [len(a) for a in lists]), start=1):
        rows[:, i] = lists[i - 1][idx]
    return rows


def _scan(X, points, chunks, values, index, witness, sorted_X=None) -> None:
    """Raise values[points] to the first maximum over the candidate chunks, in order.

    X is the stack (T, N, n); ``chunks`` yields arrays (k, N, n) of
    candidate tuples shared by the points, ``index`` receives the position
    of each point's maximum in the concatenated chunks and ``witness`` its
    tuple, so no chunk is kept after its pass.  Each pass
    gathers at most _CHUNK_ROWS (point, tuple) pairs.  ``sorted_X``, when
    given, holds each point's vectors permuted by its own sorting tuple,
    which replaces candidate 1.
    """
    N, n = X.shape[1:]
    flat_X = X.reshape(len(X), N * n)
    start = 0
    for rows in chunks:
        # positions in a point's flattened family, as (N, k, n)
        flat = rows.transpose(1, 0, 2) + (n * np.arange(N))[:, None, None]
        step = max(1, _CHUNK_ROWS // len(rows))
        for s in range(0, len(points), step):
            pts = points[s : s + step]
            P = flat_X[pts][:, flat]
            if sorted_X is not None and start <= 1 < start + len(rows):
                P[:, :, 1 - start] = sorted_X[pts]
            vals = _tuple_values(P)
            r = np.argmax(vals, axis=1)
            v = vals[np.arange(len(pts)), r]
            # a nan counts as the maximum across chunks, as argmax takes it within one
            better = (v > values[pts]) | (np.isnan(v) & ~np.isnan(values[pts]))
            values[pts[better]] = v[better]
            index[pts[better]] = start + r[better]
            witness[pts[better]] = rows[r[better]]
        start += len(rows)


def _sampled_rows(count: int, N: int, n: int, seed: int):
    """The candidate tuples of a sampled search, in chunks (k, N, n) of at most _CHUNK_ROWS.

    Two identity tuples, the second standing for each point's sorting
    tuple, then count - 2 seeded draws.  permuted shuffles each length-n row
    in C order, drawing from the stream exactly as successive
    rng.permutation(n) calls do, so the draws of successive chunks are the
    rows of one draw of them all.
    """
    rng = np.random.default_rng(seed)
    for s in range(0, count, _CHUNK_ROWS):
        rows = np.empty((min(_CHUNK_ROWS, count - s), N, n), dtype=np.intp)
        head = 2 if s == 0 else 0
        rows[:head] = np.arange(n)
        rng.permuted(np.broadcast_to(np.arange(n), rows[head:].shape), axis=-1, out=rows[head:])
        yield rows


def _best_tuples(X: np.ndarray, strategy: SearchStrategy) -> tuple[np.ndarray, list]:
    """First least spread of the pair distances of each family of a stack X (T, N, n).

    Returns the (T,) spreads and the T witnesses, each a list of N
    permutations.  One pair has no spread under any tuple, so for N = 2 the
    spread is 0 with the identity witness, and X is not read.  Beyond
    EXHAUSTIVE_CAP candidates a search is refused.  For N >= 3, in order:

    - exhaustive: the first permutation is the identity, the others run over
      n! ** (N-1) tuples in itertools.product order.  Permuting a vector's
      exact zeros among themselves leaves it unchanged, so only the first
      tuple of each set of identical ones is evaluated: the points are
      grouped by where their vectors 2..N have zeros, and each group runs
      over the product of its _arrangements.
    - sampled: the identity tuple, the point's stable sorting tuple, then
      ``n_samples`` seeded draws, the same at every point.
    """
    T, N, n = X.shape
    if N == 2:
        identity = tuple(range(n))
        return np.zeros(T), [[identity, identity] for _ in range(T)]
    exhaustive = strategy.kind == "exhaustive"
    count = math.factorial(n) ** (N - 1) if exhaustive else strategy.n_samples + 2
    if count > EXHAUSTIVE_CAP:
        raise ComplexityRefusal(
            f"{strategy.kind} tuple search over {count} candidates exceeds cap "
            f"{EXHAUSTIVE_CAP}" + ("; use the sampled strategy" if exhaustive else "")
        )
    values = np.full(T, -np.inf)
    index = np.zeros(T, dtype=np.intp)
    witness = np.empty((T, N, n), dtype=np.intp)
    if exhaustive:
        zero = (X[:, 1:] == 0).reshape(T, -1)
        todo = np.ones(T, dtype=bool)
        while todo.any():
            # the first point left, and every point left with zeros where it has them
            pattern = zero[todo.argmax()]
            points = np.flatnonzero(todo & np.all(zero == pattern, axis=1))
            todo[points] = False
            lists = [
                _arrangements(n, tuple(np.flatnonzero(z).tolist()))
                for z in pattern.reshape(N - 1, n)
            ]
            total = math.prod(len(a) for a in lists)
            chunks = (
                _product_rows(lists, np.arange(s, min(s + _CHUNK_ROWS, total)))
                for s in range(0, total, _CHUNK_ROWS)
            )
            _scan(X, points, chunks, values, index, witness)
    else:
        order = np.argsort(X, axis=-1, kind="stable")
        chunks = _sampled_rows(count, N, n, strategy.seed)
        _scan(X, np.arange(T), chunks, values, index, witness, np.take_along_axis(X, order, -1))
        witness[index == 1] = order[index == 1]
    return -values, [[tuple(p) for p in w] for w in witness.tolist()]


def _least_spread(moduli, strategy: SearchStrategy) -> tuple[float | np.ndarray, list]:
    """The least spread of the moduli (a float, or (T,) for a stack) and its witness."""
    try:
        X = np.asarray(moduli, dtype=float)
    except ValueError as exc:
        raise LengthMismatch("modulus vectors must share one length") from exc
    if X.ndim not in (2, 3):
        raise LengthMismatch("modulus vectors must share one length")
    if X.shape[-2] < 2:
        raise DimensionMismatch("sum bound needs at least 2 observables")
    if X.ndim == 3:
        return _best_tuples(X, strategy)
    spread, witnesses = _best_tuples(X[None], strategy)
    return float(spread[0]), witnesses[0]


def sum_bound_parallelogram(
    moduli, strategy: SearchStrategy = SearchStrategy()
) -> tuple[float, list[tuple[int, ...]]]:
    """Best Theorem 3 (parallelogram-law) sum bound over candidate permutation tuples.

    Returns (value, witness tuple of permutations).  With the M = N(N-1)/2
    pair distances s_ij = ||Xi^pi - Xj^pj||, the parallelogram law turns the
    paper's (1/(2N-2)) [sum_{i<j} ||Xi^pi + Xj^pj||^2 + (sum_{i<j} s_ij)^2 / M]
    into sum_i ||Xi||^2 minus the spread sum_{i<j} (s_ij - mean s)^2 / (2N-2).
    The value is sum_i ||Xi||^2 minus the least spread of the candidates,
    and the witness the first tuple in search order that has it.  For N = 2
    that is ||X1||^2 + ||X2||^2 and the identity under either strategy.  For
    N >= 3 exhaustive enumeration fixes the first permutation to the
    identity, since a common permutation changes no distance, and sweeps
    the other n! ** (N-1) tuples, evaluating one per set of identical
    tuples (see _best_tuples).  The cap counts all n! ** (N-1), or the
    n_samples + 2 candidates of a sampled search.

    ``moduli`` holds N vectors of one length n, or is a stack (T, N, n) of
    such families, searched at once, which gives (T,) values and T witnesses.
    """
    spread, witness = _least_spread(moduli, strategy)
    X = np.asarray(moduli, dtype=float)
    return _value(np.sum(X * X, axis=(-2, -1)) - spread), witness


@functools.cache
def _pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs i < j of N observables, read-only."""
    i, j = np.triu_indices(N, 1)
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def sum_bound_norm(K) -> float:
    """The matrix-norm baseline bound from the correlation matrix K of the family.

    The paper's baseline is the larger over a sign s = +1, -1 of
    (1/(2N-2)) [ (2/(N(N-1))) (sum_{i<j} t_ij)^2 + sum_{i<j} I(A_i - s A_j) ]
    with t_ij = sqrt(I(A_i + s A_j)), I(A_i + s A_j) = K_ii + K_jj + 2 s Re K_ij
    clamped at 0.  As I(A_i - s A_j) = 2 K_ii + 2 K_jj - t_ij^2, it is trace K
    minus the spread of the t_ij (see _spread), with s = -1 taken only for a
    strictly smaller spread: at most the sum, and equal to it for N = 2.  A
    stack K (T, N, N) gives a (T,) array.
    """
    K = np.asarray(K)
    N = K.shape[-1]
    if N < 2:
        raise DimensionMismatch("sum bound needs at least 2 observables")
    i, j = _pairs(N)
    diag = K.real.diagonal(axis1=-2, axis2=-1)
    cross = 2.0 * K.real[..., i, j]
    first, second = (
        _spread(np.sqrt(np.maximum(diag[..., i] + diag[..., j] + c, 0.0)).T)
        for c in (cross, -cross)
    )
    total = np.trace(K, axis1=-2, axis2=-1).real
    return _value(total - np.where(second < first, second, first))


@dataclass(frozen=True)
class ProductChain:
    """All product-form bounds for one (rho, A, B, metric) instance, or a stack of T.

    product and cauchy are floats, or (T,) arrays; S_table is the flat table
    of table_Spq, (1 + n(n-1)/2,) or (T, ...), and the I chain is read off it.
    """

    product: float | np.ndarray
    cauchy: float | np.ndarray
    S_table: np.ndarray

    @property
    def I_seq(self) -> np.ndarray:
        """I_1 ... I_n, (n,) or (T, n), read off S_table (see chain_Ik)."""
        return _chain_from_table(self.S_table)


def product_and_cauchy(K) -> tuple[float, float]:
    """I(A) I(B) = K_00 K_11 and the Cauchy-Schwarz bound |K_01|^2 of (A, B).

    For a stack K (T, 2, 2), two (T,) arrays.
    """
    K = np.asarray(K)
    return (
        _value(K[..., 0, 0].real * K[..., 1, 1].real),
        _value(np.abs(K[..., 0, 1]) ** 2),
    )


def product_chain(K, x, y) -> ProductChain:
    """Product, Cauchy-Schwarz bound, and both refinement chains of (A, B).

    K is the 2 x 2 correlation matrix of (A, B); x and y are their modulus
    vectors.  Stacks K (T, 2, 2), x and y (T, n) give a stacked chain.
    """
    product, cauchy = product_and_cauchy(K)
    return ProductChain(product=product, cauchy=cauchy, S_table=table_Spq(x, y))


def check_cauchy(product, cauchy, size) -> None:
    """Assert the Cauchy-Schwarz bound does not exceed the product.

    size is (|A|_F |B|_F)^2 of the two observables, one number or one per
    point.  The slack is the chain check's: CHECK_TOL relative to |product|,
    plus CHAIN_ROUNDING times size.  Arrays are checked point by point.
    """
    product, cauchy = np.atleast_1d(product), np.atleast_1d(cauchy)
    tol = CHECK_TOL * np.abs(product) + CHAIN_ROUNDING * size
    raise_first(
        [(cauchy > product + tol,
          lambda t: InvariantViolation(
              f"cauchy {float(cauchy[t])!r} exceeds product {float(product[t])!r}"))]
    )


def check_product_chain(pc: ProductChain, size=0.0) -> None:
    """Assert every ordering relation of the chains; raise InvariantViolation.

    I_1 matches the product within CHECK_TOL, both chains descend within
    1e-10, and every entry lies in [cauchy, product] within CHECK_TOL, each
    relative to |product| and plus CHAIN_ROUNDING times size, which is
    (|A|_F |B|_F)^2 of the observables (one number, or one per point).
    K and the moduli are read off one f, so I_1 and the product agree to a
    relative rounding at every scale, a state near I/d included.  A
    stacked chain is checked point by point, and the first failing point is
    reported.
    """
    product = np.atleast_1d(pc.product)[:, None]
    cauchy = np.atleast_1d(pc.cauchy)[:, None]
    I = np.atleast_2d(pc.I_seq)
    n = I.shape[1]
    # one row per point: I_1 .. I_n, then the S table from S_10 on
    IS = np.concatenate([I, np.atleast_2d(pc.S_table)], axis=1)
    # a NaN product gives no relative slack
    scale = np.fmax(np.abs(product), 0.0)
    rounding = CHAIN_ROUNDING * np.reshape(size, (-1, 1))
    eq_tol = 1e-10 * scale + rounding
    tol = CHECK_TOL * scale + rounding
    head = np.abs(I[:, :1] - product) > tol
    # I_{k+1} > I_k and each S after its predecessor, but not S_10 after I_n
    up = IS[:, 1:] > IS[:, :-1] + eq_tol
    up[:, n - 1] = False
    out = ~((cauchy - tol <= IS) & (IS <= product + tol))

    def first(bad, t):
        return int(bad[t].argmax())

    def increase(t):
        k = first(up, t)
        if k < n - 1:
            return InvariantViolation(f"I chain increases at k = {k + 2}")
        return InvariantViolation(f"S chain increases at {spq_order(n)[k + 1 - n]}")

    def outside(t):
        k = first(out, t)
        if k < n:
            return InvariantViolation(f"I_{k + 1} outside [cauchy, product]")
        return InvariantViolation(f"S_{spq_order(n)[k - n]} outside [cauchy, product]")

    raise_first(
        [
            (head, lambda t: InvariantViolation(
                f"I_1 = {float(I[t, 0])!r} differs from product {float(product[t, 0])!r}")),
            (up, increase),
            (out, outside),
        ]
    )


@dataclass(frozen=True)
class SumBoundReport:
    """Sum of skew informations with both lower bounds and the witness.

    For a stack of T points the numbers are (T,) arrays and witness_perms
    holds one witness per point.
    """

    sum_value: float | np.ndarray
    parallelogram: float | np.ndarray
    witness_perms: list
    norm_bound: float | np.ndarray


def sum_bound_report(
    K, moduli, strategy: SearchStrategy = SearchStrategy()
) -> SumBoundReport:
    """The sum-form bounds of a family from its correlation matrix and moduli.

    The sum is the trace of K, and each bound is that trace minus a spread
    that is never negative (see sum_bound_parallelogram and sum_bound_norm),
    so neither exceeds the sum in floating point.  For N = 2 both equal the
    sum bit for bit, and only the length n of ``moduli`` is read, so a
    caller without modulus vectors may pass a placeholder of their shape.

    A stack, K (T, N, N) and moduli (T, N, n), gives (T,) arrays and one
    witness per point.
    """
    K = np.asarray(K)
    total = _value(np.trace(K, axis1=-2, axis2=-1).real)
    spread, witness = _least_spread(moduli, strategy)
    return SumBoundReport(
        sum_value=total,
        parallelogram=_value(total - spread),
        witness_perms=witness,
        norm_bound=sum_bound_norm(K),
    )


def check_sum_report(report: SumBoundReport) -> None:
    """Assert the sum dominates both of its lower bounds.

    The tolerance CHECK_TOL scales with max(1, sum): absolute at unit
    scale, relative for large observables.  A stacked report is checked
    point by point.  No report of sum_bound_report fails it (a NaN compares
    false), so the command line does not run it.
    """
    total = np.atleast_1d(report.sum_value)
    para, norm = np.atleast_1d(report.parallelogram), np.atleast_1d(report.norm_bound)
    # max(1, |sum|) per point; a NaN sum gives 1, as Python's max does
    tol = CHECK_TOL * np.fmax(1.0, np.abs(total))
    raise_first(
        [
            (total < para - tol,
             lambda t: InvariantViolation(
                 f"sum {float(total[t])!r} below parallelogram bound {float(para[t])!r}")),
            (total < norm - tol,
             lambda t: InvariantViolation(
                 f"sum {float(total[t])!r} below norm bound {float(norm[t])!r}")),
        ]
    )
