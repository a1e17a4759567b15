"""Dense complex matrix utilities for small quantum systems.

Everything here works on plain numpy arrays except ``DensityMatrix``, which
carries its eigendecomposition so downstream code never re-diagonalizes the
state.  All functions are pure and all returned arrays are freshly allocated.

The eigenvectors are ``np.linalg.eigh``'s, as it returns them: no phase
convention and no tie-breaking within a degenerate eigenspace.  Nothing
downstream depends on that choice: every correlation
sum_ij w(lam_i, lam_j) conj(A~_ij) B~_ij is unchanged by a phase on an
eigenvector or by a unitary inside an eigenspace, since w is constant on
each pair of eigenspaces.
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
# ``as_observable`` scales TOL_HERM by max(1, max |M_ij|), since a matrix built
# as U diag U^dagger carries rounding relative to its entries.  A state's
# entries are at most 1, so every check on a state stays at unit scale.
TOL_HERM = 1e-9
TOL_PSD = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_observable(M) -> np.ndarray:
    """Validate a Hermitian observable, returned as a complex array.

    The entries must be finite, and the matrix Hermitian to within TOL_HERM
    times max(1, max |M_ij|).
    """
    A = np.array(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValidationError("matrix entries must be finite")
    dev = float(np.max(np.abs(A - A.conj().T)))
    if dev > TOL_HERM * max(1.0, float(np.max(np.abs(A)))):
        raise NotHermitian(f"observable deviates from Hermitian by {dev:.3e}")
    return A


@dataclass(frozen=True)
class DensityMatrix:
    """A validated quantum state: PSD Hermitian, unit trace.

    Carries its eigendecomposition (eigenvalues ascending, clamped to [0, 1]
    and renormalized; eigenvector columns unitary, with whatever phases and
    degenerate-eigenspace basis the eigensolver returns).  A stack of T states
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
