"""Tuple-at-a-time reference searches for the permutation bounds.

These are the direct loop forms of the searches in ``skewbounds.bounds``:
every candidate is built as Python tuples and scored one at a time, so the
array kernels can be required to reproduce them value for value and
witness for witness.
"""

import itertools
import math

import numpy as np

from skewbounds.bounds import EXHAUSTIVE_CAP, SearchStrategy
from skewbounds.errors import ComplexityRefusal


def parallelogram_value(vectors, perms) -> float:
    """The sum-form lower bound for one tuple of permutations.

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


def loop_sum_bound(moduli, strategy: SearchStrategy = SearchStrategy()):
    """First maximum of ``parallelogram_value`` over the candidate tuples.

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
    best = -np.inf
    witness = None
    for tup in candidates:
        val = parallelogram_value(vectors, tup)
        if val > best:
            best = val
            witness = [tuple(int(i) for i in p) for p in tup]
    return float(best), witness


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
