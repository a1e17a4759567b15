"""Metric-adjusted skew information and the associated correlation measure.

Everything is evaluated in the state's eigenbasis: with A~ = V^dag A V the
correlation measure is

    Corr(A, B) = sum_{ij} w(lam_i, lam_j) conj(A~_ij) B~_ij,

where the weight w absorbs both the metric kernel and the (lam_i - lam_j)^2
factor coming from the commutators.  This is exact at degenerate and zero
eigenvalues and costs O(d^2) after diagonalization.  Every quantity the
bounds need is an entry of one correlation matrix K_ij = Corr(A_i, A_j):
I(A_i) = K_ii and I(A_i + s A_j) = K_ii + K_jj + 2 s Re K_ij.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InternalConsistencyError
from .linalg import DensityMatrix
from .metrics import MetricSpec, weight_matrix

# Rounding allowed on the diagonal of K, relative to max(1, |K_ii|).
_DIAG_TOL = 1e-12


def correlation_matrix(
    rho: DensityMatrix, observables, m: MetricSpec
) -> np.ndarray:
    """K[i, j] = Corr(A_i, A_j) for a sequence of observables.

    K is Hermitian with a real nonnegative diagonal.  Each term of K_ii is
    w |A~_ij|^2 >= 0, so its imaginary part and any negative real part are
    rounding; both are checked against 1e-12 max(1, |K_ii|) and removed.
    """
    for A in observables:
        if np.shape(A) != rho.matrix.shape:
            raise DimensionMismatch(
                f"observable shape {np.shape(A)} does not match state dim {rho.dim}"
            )
    V = rho.eigenvectors
    rotated = (V.conj().T @ np.asarray(observables) @ V).reshape(len(observables), -1)
    W = weight_matrix(m, rho.eigenvalues)
    K = (rotated.conj() * W.ravel()) @ rotated.T
    diag = K.diagonal()
    tol = _DIAG_TOL * np.maximum(1.0, np.abs(diag))
    bad = np.flatnonzero((np.abs(diag.imag) > tol) | (diag.real < -tol))
    if bad.size:
        i = bad[0]
        raise InternalConsistencyError(
            f"K[{i}, {i}] = {diag[i]:.6e} is not a nonnegative real beyond "
            f"rounding (tolerance {tol[i]:.3e})"
        )
    K = 0.5 * (K + K.conj().T)
    np.fill_diagonal(K, np.maximum(K.real.diagonal(), 0.0))
    return K


def correlation(
    rho: DensityMatrix, A: np.ndarray, B: np.ndarray, m: MetricSpec
) -> complex:
    """Correlation measure Corr(A, B); sesquilinear, conjugate-linear in A."""
    return complex(correlation_matrix(rho, [A, B], m)[0, 1])


def skew_information(rho: DensityMatrix, A: np.ndarray, m: MetricSpec) -> float:
    """Metric-adjusted skew information I(A) = Corr(A, A) >= 0."""
    return float(correlation_matrix(rho, [A], m)[0, 0].real)
