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

from .errors import DimensionMismatch, InternalConsistencyError, raise_first
from .linalg import DensityMatrix
from .metrics import MetricSpec, weight_matrix

# Rounding allowed on the diagonal of K, relative to max(1, |K_ii|).
_DIAG_TOL = 1e-12


def eigenbasis_terms(
    rho: DensityMatrix, observables, m: MetricSpec
) -> tuple[np.ndarray, np.ndarray]:
    """(rotated, W): the observables A~ = V^dag A V and the weights, flattened over (i, j).

    rotated is (..., N, d^2) and W (..., 1, d^2), with the leading axes of
    a stack of states.  Every correlation is a weighted sum over their
    entries; see correlation_from_terms.
    """
    d = rho.dim
    for A in observables:
        if np.shape(A) != (d, d):
            raise DimensionMismatch(
                f"observable shape {np.shape(A)} does not match state dim {d}"
            )
    N = len(observables)
    V = rho.eigenvectors
    lead = V.shape[:-2]
    # V^dag A_k for every k, then all N of them times V in one product per point
    left = V.conj().swapaxes(-1, -2)[..., None, :, :] @ np.asarray(observables)
    rotated = (left.reshape(*lead, N * d, d) @ V).reshape(*lead, N, d * d)
    W = weight_matrix(m, rho.eigenvalues).reshape(*lead, 1, d * d)
    return rotated, W


def correlation_from_terms(rotated: np.ndarray, W: np.ndarray) -> np.ndarray:
    """K[i, j] = sum W conj(A~_i) A~_j of the terms eigenbasis_terms gives.

    K is Hermitian with a real nonnegative diagonal.  Each term of K_ii is
    w |A~_ij|^2 >= 0, so its imaginary part and any negative real part are
    rounding; both are checked against 1e-12 max(1, |K_ii|) and removed.
    A stack of T states gives a stack of T matrices, (T, N, N); a residue
    beyond the tolerance is reported for the first such state.
    """
    N = rotated.shape[-2]
    K = (rotated.conj() * W) @ rotated.swapaxes(-1, -2)
    diag = K.reshape(-1, N * N)[:, :: N + 1]
    tol = _DIAG_TOL * np.maximum(1.0, np.abs(diag))
    bad = (np.abs(diag.imag) > tol) | (diag.real < -tol)

    def residue(t: int) -> InternalConsistencyError:
        i = int(bad[t].argmax())
        return InternalConsistencyError(
            f"K[{i}, {i}] = {diag[t, i]:.6e} is not a nonnegative real beyond "
            f"rounding (tolerance {tol[t, i]:.3e})"
        )

    raise_first([(bad, residue)])
    K = 0.5 * (K + K.conj().swapaxes(-1, -2))
    diag = K.reshape(-1, N * N)[:, :: N + 1]
    diag[:] = np.maximum(diag.real, 0.0)
    return K


def correlation_matrix(
    rho: DensityMatrix, observables, m: MetricSpec
) -> np.ndarray:
    """K[i, j] = Corr(A_i, A_j) for a sequence of observables (see correlation_from_terms)."""
    return correlation_from_terms(*eigenbasis_terms(rho, observables, m))


def correlation(
    rho: DensityMatrix, A: np.ndarray, B: np.ndarray, m: MetricSpec
) -> complex:
    """Correlation measure Corr(A, B); sesquilinear, conjugate-linear in A."""
    return complex(correlation_matrix(rho, [A, B], m)[0, 1])


def skew_information(rho: DensityMatrix, A: np.ndarray, m: MetricSpec) -> float:
    """Metric-adjusted skew information I(A) = Corr(A, A) >= 0."""
    return float(correlation_matrix(rho, [A], m)[0, 0].real)
