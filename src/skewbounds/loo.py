"""Local orthogonal observable (LOO) bases and the correlation Gram matrix.

The basis is the generalized Gell-Mann family, trace-orthonormalized, in a
fixed order: for each column index k = 1..d-1, first the antisymmetric and
symmetric off-diagonal pair elements for rows j < k (ascending j), then the
k-th traceless diagonal element; the identity/sqrt(d) comes last.  For d = 2
this is (sigma_y, sigma_x, sigma_z, I)/sqrt(2).

The Gram matrix Gamma_{mu,nu} = Corr(Omega_mu, Omega_nu) encodes every skew
information as a quadratic form a^T Gamma a.  Gamma = C^dag C only fixes the
factor C up to a left unitary, and the modulus vectors below do depend on
that gauge, so one deterministic choice is fixed here: the upper-triangular
semidefinite Cholesky factor, with all-zero rows at rank-deficient pivots.
Bound validity is gauge-free; only the intermediate refinement values move.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatch, DomainError
from .linalg import DensityMatrix
from .metrics import MetricSpec
from .skewinfo import correlation_matrix

# Cholesky pivots at or below this, relative to the largest diagonal entry of
# Gamma, are treated as exact kernel directions.
_SQRT_CLAMP = 1e-12


# One basis per dimension for the life of the process: it does not depend on
# the state, and callers only read it.
@functools.cache
def loo_basis(d: int) -> np.ndarray:
    """The d^2 trace-orthonormal Hermitian basis matrices, fixed order, as (d^2, d, d).

    The array is shared between calls and read-only.
    """
    if d < 2:
        raise DomainError(f"LOO basis needs d >= 2, got {d}")
    basis = np.zeros((d * d, d, d), dtype=complex)
    mu = 0
    for k in range(1, d):
        for j in range(k):
            basis[mu, j, k] = -1j / np.sqrt(2.0)
            basis[mu, k, j] = 1j / np.sqrt(2.0)
            basis[mu + 1, j, k] = basis[mu + 1, k, j] = 1.0 / np.sqrt(2.0)
            mu += 2
        diag = np.ones(k + 1)
        diag[k] = -k
        basis[mu, range(k + 1), range(k + 1)] = diag / np.sqrt(k * (k + 1))
        mu += 1
    basis[mu] = np.eye(d) / np.sqrt(d)
    basis.setflags(write=False)
    return basis


def expand(A: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Real coefficients a_mu = Tr(Omega_mu A) of one observable or a stack of them."""
    n, d, _ = basis.shape
    A = np.asarray(A)
    if A.shape[-2:] != (d, d):
        raise DimensionMismatch(f"observable shape {A.shape} vs basis dim {d}")
    # Tr(Omega A) = sum_ij Omega_ij A_ji: one product of flattened A^T with the basis
    flat = np.swapaxes(A, -1, -2).reshape(*A.shape[:-2], d * d)
    return (flat @ basis.reshape(n, d * d).T).real


def cholesky_psd(gamma: np.ndarray) -> np.ndarray:
    """Upper-triangular C with C^dag C = gamma for Hermitian PSD gamma.

    Unlike the strictly-positive-definite factorization, rank deficiency is
    allowed: whenever a pivot falls at or below _SQRT_CLAMP (relative to
    the largest diagonal entry) the whole row is left zero and elimination
    continues, so the result has exactly rank(gamma) nonzero rows.

    ``gamma`` may be one matrix (n, n) or a stack (T, n, n); the row loop
    runs once for the whole stack, each row computed for every matrix at once.
    """
    gamma = np.asarray(gamma)
    n = gamma.shape[-1]
    G = gamma.reshape(-1, n, n)
    R = np.zeros(G.shape, dtype=complex)
    diag = G.real.diagonal(axis1=1, axis2=2)
    floor = _SQRT_CLAMP * np.maximum(1.0, diag.max(axis=1, initial=0.0))
    for i in range(n):
        col = R[:, :i, i]
        pivot = diag[:, i] - np.square(np.abs(col)).sum(axis=1)
        zero = pivot <= floor
        zeros = np.count_nonzero(zero)
        if zeros == len(G):
            continue
        if zeros:
            pivot[zero] = 1.0
        R[:, i, i] = np.sqrt(pivot)
        if i + 1 < n:
            R[:, i, i + 1 :] = (
                G[:, i, i + 1 :] - (col.conj()[:, None, :] @ R[:, :i, i + 1 :])[:, 0]
            ) / R[:, i, i, None]
        if zeros:
            R[zero, i] = 0.0
    return R.reshape(gamma.shape)


def gram_matrix(rho: DensityMatrix, basis: np.ndarray, m: MetricSpec) -> np.ndarray:
    """Canonical factor C of the Gram matrix Gamma = C^dag C.

    Gamma_{mu,nu} = Corr(Omega_mu, Omega_nu) is the correlation matrix of the
    basis elements.  A stack of T states gives a stack of T factors.
    """
    return cholesky_psd(correlation_matrix(rho, basis, m))


def modulus_vector(C: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Entrywise moduli |C a|, one row per coefficient vector a; sum(x**2) = I(A).

    A stack of factors (T, n, n) gives a stack of moduli (T, N, n).
    """
    E = np.asarray(coeffs)
    if C.shape[-1] != E.shape[-1]:
        raise DimensionMismatch(
            f"factor dim {C.shape[-1]} vs coefficient length {E.shape[-1]}"
        )
    moduli = np.abs(C @ E.T)
    return moduli if E.ndim == 1 else moduli.swapaxes(-1, -2)


__all__ = [
    "cholesky_psd",
    "expand",
    "gram_matrix",
    "loo_basis",
    "modulus_vector",
]
