"""Metric-adjusted skew information and the associated correlation measure.

Everything is evaluated in the state's eigenbasis: with A~ = V^dag A V the
correlation measure is

    Corr(A, B) = sum_{ij} w(lam_i, lam_j) conj(A~_ij) B~_ij,

where the weight w absorbs both the metric kernel and the (lam_i - lam_j)^2
factor coming from the commutators.  This is exact at degenerate and zero
eigenvalues and costs O(d^2) after diagonalization.

For Hermitian observables Corr is real and reads one triangle: each
observable is one real vector f = sqrt(W) * A~ (see _real_terms), and every
quantity the bounds need is an entry of one real symmetric correlation
matrix K = f f^T: I(A_i) = K_ii, a sum of squares, and
I(A_i + s A_j) = K_ii + K_jj + 2 s K_ij.  The modulus vectors
(loo.modulus_vectors) are read off the same f.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch
from .linalg import DensityMatrix, as_observable
from .metrics import MetricSpec, weight_matrix


@functools.cache
def _upper(d: int) -> np.ndarray:
    """Flat indices i d + j of the entries i < j of a d x d matrix, read-only."""
    i, j = np.triu_indices(d, 1)
    upper = i * d + j
    upper.setflags(write=False)
    return upper


def _real_terms(terms: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sqrt(W) * terms in real coordinates: (..., d^2) to (..., d(d-1)).

    terms are Hermitian matrices in the eigenbasis, flattened, and W their
    weights.  Entries (i, j) and (j, i) are conjugate and share a weight,
    and W_ii = 0, so the unitary that takes each such pair to sqrt(2) times
    the real and the imaginary part of its upper entry leaves every inner
    product, and so K, Gamma and the R factor, as they are.
    """
    upper = _upper(int(round(np.sqrt(terms.shape[-1]))))
    w = np.sqrt(2.0 * W[..., upper])
    z = terms[..., upper]
    return np.concatenate((w * z.real, w * z.imag), axis=-1)


def eigenbasis_terms(
    rho: DensityMatrix, observables, m: MetricSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(f, W): each observable's weighted eigenbasis terms in real coordinates, and the weights.

    f is (..., N, d(d-1)), the row sqrt(W) * V^dag A V of each observable
    (see _real_terms), and W (..., 1, d^2), with the leading axes of a
    stack of states; K = f f^T.  Each observable enters as its Hermitian
    part (A + A^dag)/2, which is A itself when A is exactly Hermitian, so
    that reading one triangle is exact.
    """
    d = rho.dim
    for A in observables:
        if np.shape(A) != (d, d):
            raise DimensionMismatch(
                f"observable shape {np.shape(A)} does not match state dim {d}"
            )
    N = len(observables)
    A = np.asarray(observables)
    A = 0.5 * (A + A.conj().swapaxes(-1, -2))
    V = rho.eigenvectors
    lead = V.shape[:-2]
    # V^dag A_k for every k, then all N of them times V in one product per point
    left = V.conj().swapaxes(-1, -2)[..., None, :, :] @ A
    rotated = (left.reshape(*lead, N * d, d) @ V).reshape(*lead, N, d * d)
    W = weight_matrix(m, rho.eigenvalues).reshape(*lead, 1, d * d)
    return _real_terms(rotated, W), W


def correlation_matrix(
    rho: DensityMatrix, observables, m: MetricSpec
) -> np.ndarray:
    """K[i, j] = Corr(A_i, A_j) for a sequence of observables: (N, N), or (T, N, N).

    K = f f^T is real and symmetric.  An observable that as_observable
    rejects raises its error here: NotHermitian beyond the tolerance.
    """
    f = eigenbasis_terms(rho, observables, m)[0]
    for A in observables:
        as_observable(A)
    return f @ f.swapaxes(-1, -2)


def correlation(
    rho: DensityMatrix, A: np.ndarray, B: np.ndarray, m: MetricSpec
) -> complex:
    """Correlation measure Corr(A, B); real and symmetric for Hermitian A and B."""
    return complex(correlation_matrix(rho, [A, B], m)[0, 1])


def skew_information(rho: DensityMatrix, A: np.ndarray, m: MetricSpec) -> float:
    """Metric-adjusted skew information I(A) = Corr(A, A) >= 0."""
    return float(correlation_matrix(rho, [A], m)[0, 0])
