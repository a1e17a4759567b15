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
    raise_first,
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


def _sort_degenerate(w: np.ndarray, V: np.ndarray, scale: float) -> None:
    """Sort the columns of each (near-)degenerate eigenvalue group of one point, in place.

    Columns within a group are ordered by lexicographic comparison of their
    (real, imag) entry sequences.
    """
    d = V.shape[0]
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


def _canonicalize_eig(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fix eigenvector phases and order degenerate columns deterministically.

    Works on one decomposition or a stack of them, w (..., d) and V (..., d, d).
    Each column is rotated so its largest-magnitude entry is real positive;
    columns within a (near-)degenerate eigenvalue group are then sorted by
    lexicographic comparison of their (real, imag) entry sequences.  The
    sort runs only for the points where two adjacent eigenvalues are that
    close, which every pure state with d >= 3 has.
    """
    d = w.shape[-1]
    Vs, ws = V.reshape(-1, d, d), w.reshape(-1, d)
    top = Vs[np.arange(len(Vs))[:, None], np.abs(Vs).argmax(axis=1), np.arange(d)]
    # hypot rounds as the scalar abs does; np.abs of a complex array may not
    Vs = Vs / (top / np.hypot(top.real, top.imag))[:, None, :]
    scale = np.maximum(1.0, np.abs(ws).max(axis=1))
    close = np.abs(ws[:, 1:] - ws[:, :-1]) <= 1e-12 * scale[:, None]
    for t in np.flatnonzero(close.any(axis=1)):
        _sort_degenerate(ws[t], Vs[t], float(scale[t]))
    return w, Vs.reshape(V.shape)


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
    and renormalized; eigenvector columns unitary).  A stack of T states
    keeps the same fields with a leading axis: matrix and eigenvectors
    (T, d, d), eigenvalues (T, d).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @classmethod
    def from_matrix(cls, M) -> "DensityMatrix":
        """Validate a state (d, d), or a stack of states (T, d, d).

        A stack is checked with array reductions and diagonalized by one
        stacked eigensolver call.  The finite, Hermitian and trace checks
        report the first point that fails any of them, with the error of the
        first check it fails and ``row`` set to its index; the eigenvalue
        check runs once every point passes those.  So a point that fails
        only the eigenvalue check can hide behind a later point that fails
        an earlier check: callers that need the first invalid point re-check
        the points before the one reported, as the CLI does.
        """
        A = np.array(M, dtype=complex)
        if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2] or A.shape[-1] < 1:
            raise ValidationError(f"expected a square matrix, got shape {A.shape}")
        stack = A.reshape(-1, *A.shape[-2:])
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            # zeros in place of the rows that fail first on finiteness
            stack = np.where(finite[:, None, None], stack, 0.0)
        dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
        scale = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
        tr = stack.trace(axis1=1, axis2=2)
        raise_first(
            [
                (~finite, lambda t: ValidationError("matrix entries must be finite")),
                (~(dev <= TOL_HERM * scale),
                 lambda t: ValidationError("density matrix is not Hermitian")),
                (np.abs(tr - 1.0) > TOL_HERM,
                 lambda t: ValidationError(f"density matrix trace {complex(tr[t])} is not 1")),
            ]
        )
        try:
            w, V = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(str(exc)) from exc
        w, V = _canonicalize_eig(w, V)
        low = w.min(axis=1)
        raise_first(
            [(low < -TOL_PSD,
              lambda t: ValidationError(f"density matrix has negative eigenvalue {low[t]:.3e}"))]
        )
        w[np.abs(w) < TOL_PSD] = 0.0
        w = w.clip(0.0, 1.0)
        w /= w.sum(axis=1, keepdims=True)
        mat = (V * w[:, None, :]) @ V.conj().swapaxes(1, 2)
        if A.ndim == 2:
            mat, w, V = mat[0], w[0], V[0]
        for a in (mat, w, V):
            a.setflags(write=False)
        return cls(matrix=mat, eigenvalues=w, eigenvectors=V)

    @classmethod
    def from_bloch(cls, r) -> "DensityMatrix":
        """Qubit state (I + r.sigma)/2 from a real Bloch vector, |r| <= 1.

        ``r`` may be one vector (3,) or a stack (T, 3).
        """
        r = np.asarray(r, dtype=float)
        if r.ndim not in (1, 2) or r.shape[-1] != 3:
            raise ValidationError("Bloch vector must have 3 real components")
        norm = np.linalg.norm(r, axis=-1)
        raise_first(
            [(norm > 1.0 + TOL_HERM,
              lambda t: ValidationError(
                  f"Bloch vector norm {np.atleast_1d(norm)[t]:.6f} exceeds 1"))]
        )
        r = r[..., None, None]
        rho = 0.5 * (
            np.eye(2, dtype=complex) + r[..., 0, :, :] * PAULI_X
            + r[..., 1, :, :] * PAULI_Y + r[..., 2, :, :] * PAULI_Z
        )
        return cls.from_matrix(rho)

    @classmethod
    def from_pure(cls, amplitudes) -> "DensityMatrix":
        """Projector onto a normalized state vector, or a stack (T, d) of them.

        Amplitudes within 1e-6 of unit norm are renormalized; anything
        further off is rejected.
        """
        v = np.asarray(amplitudes, dtype=complex)
        if v.ndim != 2:
            v = v.ravel()
        if v.shape[-1] < 2:
            raise ValidationError("state vector needs at least 2 amplitudes")
        # row-by-column products sum as np.linalg.norm does on one vector
        re, im = v.real[..., None, :], v.imag[..., None, :]
        norm = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])
        raise_first(
            [(np.abs(norm - 1.0) > 1e-6,
              lambda t: ValidationError(
                  f"state vector norm {np.atleast_1d(norm)[t]:.8f} is not 1"))]
        )
        v = v / norm[..., None]
        return cls.from_matrix(v[..., :, None] * v.conj()[..., None, :])
