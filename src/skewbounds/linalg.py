"""Dense complex matrix utilities for small quantum systems.

Everything here works on plain numpy arrays except ``DensityMatrix``, which
carries its eigendecomposition so downstream code never re-diagonalizes the
state.  All functions are pure and all returned arrays are freshly allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    NotHermitian,
    ValidationError,
)

# Max-entry tolerances for Hermiticity/trace/unitarity checks and for
# negative-eigenvalue slack.  Double-precision eigensolvers at d <= 16 land
# around 1e-13; 1e-9 leaves headroom for user-supplied matrices.
# ``is_hermitian`` scales TOL_HERM by max(1, max |M_ij|), since a matrix built
# as U diag U^dagger carries rounding relative to its entries.  A state's
# entries are at most 1, so every check on a state stays at unit scale.
TOL_HERM = 1e-9
TOL_PSD = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    A = np.array(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValidationError("matrix entries must be finite")
    return A


def is_hermitian(M: np.ndarray, tol: float = TOL_HERM) -> bool:
    """Hermitian to within tol times max(1, max |M_ij|)."""
    scale = max(1.0, float(np.max(np.abs(M))))
    return bool(np.max(np.abs(M - M.conj().T)) <= tol * scale)


def as_observable(M) -> np.ndarray:
    """Validate a Hermitian observable, returned as a complex array."""
    A = as_matrix(M)
    if not is_hermitian(A):
        dev = float(np.max(np.abs(A - A.conj().T)))
        raise NotHermitian(f"observable deviates from Hermitian by {dev:.3e}")
    return A


def _canonicalize_eig(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix eigenvector phases and order degenerate columns deterministically.

    Each column is rotated so its largest-magnitude entry is real positive;
    columns within a (near-)degenerate eigenvalue group are then sorted by
    lexicographic comparison of their (real, imag) entry sequences.
    """
    V = V.copy()
    d = V.shape[0]
    for j in range(d):
        col = V[:, j]
        k = int(np.argmax(np.abs(col)))
        phase = col[k] / abs(col[k])
        V[:, j] = col / phase
    # sort within degenerate groups
    scale = max(1.0, float(np.max(np.abs(w))))
    i = 0
    while i < d:
        j = i + 1
        while j < d and abs(w[j] - w[i]) <= 1e-12 * scale:
            j += 1
        if j - i > 1:
            keys = [
                tuple(np.round(np.concatenate([V[:, c].real, V[:, c].imag]), 10))
                for c in range(i, j)
            ]
            order = sorted(range(j - i), key=lambda c: keys[c])
            V[:, i:j] = V[:, [i + c for c in order]]
        i = j
    return w, V


def eig_hermitian(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary matrix of column eigenvectors)
    with deterministic phase and tie-breaking conventions.
    """
    H = as_matrix(H)
    if not is_hermitian(H):
        dev = float(np.max(np.abs(H - H.conj().T)))
        raise NotHermitian(f"matrix deviates from Hermitian by {dev:.3e}")
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return _canonicalize_eig(w, V)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: PSD Hermitian, unit trace.

    Carries its eigendecomposition (eigenvalues ascending, clamped to [0, 1]
    and renormalized; eigenvector columns unitary).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_matrix(cls, M) -> "DensityMatrix":
        A = as_matrix(M)
        if not is_hermitian(A):
            raise ValidationError("density matrix is not Hermitian")
        tr = complex(np.trace(A))
        if abs(tr - 1.0) > TOL_HERM:
            raise ValidationError(f"density matrix trace {tr} is not 1")
        w, V = eig_hermitian(A)
        if np.min(w) < -TOL_PSD:
            raise ValidationError(
                f"density matrix has negative eigenvalue {np.min(w):.3e}"
            )
        w = w.copy()
        w[np.abs(w) < TOL_PSD] = 0.0
        w = np.clip(w, 0.0, 1.0)
        w = w / w.sum()
        mat = (V * w) @ V.conj().T
        for a in (mat, w, V):
            a.setflags(write=False)
        return cls(matrix=mat, eigenvalues=w, eigenvectors=V)

    @classmethod
    def from_bloch(cls, r) -> "DensityMatrix":
        """Qubit state (I + r.sigma)/2 from a real Bloch vector, |r| <= 1."""
        r = np.asarray(r, dtype=float)
        if r.shape != (3,):
            raise ValidationError("Bloch vector must have 3 real components")
        norm = float(np.linalg.norm(r))
        if norm > 1.0 + TOL_HERM:
            raise ValidationError(f"Bloch vector norm {norm:.6f} exceeds 1")
        rho = 0.5 * (np.eye(2, dtype=complex) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)
        return cls.from_matrix(rho)

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """Projector onto a normalized state vector.

        Amplitudes within 1e-6 of unit norm are renormalized; anything
        further off is rejected.
        """
        v = np.asarray(amplitudes, dtype=complex).ravel()
        if v.size < 2:
            raise ValidationError("state vector needs at least 2 amplitudes")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValidationError(f"state vector norm {norm:.8f} is not 1")
        v = v / norm
        return cls.from_matrix(np.outer(v, v.conj()))

