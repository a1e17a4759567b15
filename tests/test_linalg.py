"""Eigendecomposition, matrix powers, commutators, and state validation."""

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_unitary
from oracles import commutator, matrix_power
from skewbounds.errors import DomainError, NotHermitian, ValidationError
from skewbounds.linalg import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    as_observable,
)


class TestEigHermitian:
    """The Hermitian eigendecomposition a state carries, as np.linalg.eigh returns it."""

    def test_identity(self):
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        w, V = rho.eigenvalues, rho.eigenvectors
        assert np.allclose(w, [0.5, 0.5])
        assert np.allclose(V.conj().T @ V, np.eye(2))

    def test_sigma_z_already_diagonal(self):
        rho = DensityMatrix.from_matrix((np.eye(2) + 0.5 * PAULI_Z) / 2)
        assert np.allclose(rho.eigenvalues, [0.25, 0.75])

    def test_sigma_x_hand_diagonalization(self):
        rho = DensityMatrix.from_matrix((np.eye(2) + 0.5 * PAULI_X) / 2)
        w, V = rho.eigenvalues, rho.eigenvectors
        assert np.allclose(w, [0.25, 0.75])
        # eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase
        for col, sign in zip(V.T, (-1, 1)):
            assert np.allclose(PAULI_X @ col, sign * col)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0, 0.5]], dtype=complex))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_reconstruction_and_unitarity(self, d):
        rng = np.random.default_rng(100 + d)
        for _ in range(20):
            M = random_density(rng, d, rank=int(rng.integers(1, d + 1))).matrix
            rho = DensityMatrix.from_matrix(M)
            w, V = rho.eigenvalues, rho.eigenvectors
            assert np.max(np.abs((V * w) @ V.conj().T - M)) <= 1e-10
            assert np.max(np.abs(V.conj().T @ V - np.eye(d))) <= 1e-10
            assert np.all(np.diff(w) >= 0)

    def test_deterministic_under_degeneracy(self):
        M = np.diag([0.25, 0.25, 0.5]).astype(complex)
        a, b = DensityMatrix.from_matrix(M), DensityMatrix.from_matrix(M)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestMatrixPower:
    def test_diagonal_square_root(self):
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.75]))
        assert np.allclose(
            matrix_power(rho, 0.5), np.diag([0.5, np.sqrt(3) / 2])
        )

    def test_exponent_one_is_identity_map(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        assert np.allclose(matrix_power(rho, 1.0), rho.matrix, atol=1e-12)

    def test_projector_fixed_point(self):
        rho = DensityMatrix.from_pure([1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
        for s in (0.25, 0.5, 0.9):
            assert np.allclose(matrix_power(rho, s), rho.matrix, atol=1e-12)

    def test_power_composition_full_rank(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d = int(rng.integers(2, 5))
            lam = rng.uniform(0.05, 1.0, size=d)
            lam /= lam.sum()
            H = random_hermitian(rng, d)
            _, V = np.linalg.eigh(H)
            rho = DensityMatrix.from_matrix((V * lam) @ V.conj().T)
            for alpha in (0.25, 0.5, 0.75):
                prod = matrix_power(rho, alpha) @ matrix_power(rho, 1 - alpha)
                assert np.max(np.abs(prod - rho.matrix)) <= 1e-10

    def test_bad_exponent(self):
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        for s in (0.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                matrix_power(rho, s)


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)

    def test_self_commutator(self):
        rng = np.random.default_rng(3)
        A = random_hermitian(rng, 4)
        assert np.allclose(commutator(A, A), 0)

    def test_identity_commutes(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        assert np.allclose(commutator(rho.matrix, np.eye(3)), 0)

    def test_anti_hermitian_for_hermitian_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = random_hermitian(rng, 3)
            B = random_hermitian(rng, 3)
            C = commutator(A, B)
            assert np.max(np.abs(C + C.conj().T)) <= 1e-12


class TestDensityMatrix:
    def test_trace_must_be_one(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValidationError):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))

    def test_clamps_tiny_negatives(self):
        rho = DensityMatrix.from_matrix(np.diag([1.0 + 5e-10, -5e-10]))
        assert np.all(rho.eigenvalues >= 0)
        assert abs(rho.eigenvalues.sum() - 1.0) <= 1e-12

    def test_bloch_ball_boundary(self):
        rho = DensityMatrix.from_bloch([0, 0, 1])
        assert np.allclose(rho.matrix, np.diag([1, 0]))
        with pytest.raises(ValidationError):
            DensityMatrix.from_bloch([1.5, 0, 0])

    def test_bloch_mixed(self):
        rho = DensityMatrix.from_bloch([np.sqrt(3) / 2, 0, 0])
        expected = 0.5 * (np.eye(2) + np.sqrt(3) / 2 * PAULI_X)
        assert np.allclose(rho.matrix, expected)

    def test_pure_state_norm_policy(self):
        # within 1e-6 of unit norm: renormalized
        v = np.array([1 + 5e-7, 0.0])
        rho = DensityMatrix.from_pure(v)
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        # far off: rejected
        with pytest.raises(ValidationError):
            DensityMatrix.from_pure([1.0, 0.0, 1.0])

    def test_eigen_data_consistent(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 4, rank=2)
        w, V = rho.eigenvalues, rho.eigenvectors
        assert np.max(np.abs((V * w) @ V.conj().T - rho.matrix)) <= 1e-10
        assert np.sum(w > 0) == 2


def test_as_observable_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        as_observable([[0, 1], [2, 0]])
    A = as_observable([[0, 1j], [-1j, 0]])
    assert A.dtype == complex


def test_hermitian_tolerance_scales_with_the_entries():
    # U diag U^dagger at 1e8 carries rounding above an absolute 1e-9 on
    # every draw; relative to its entries it is far below
    rng = np.random.default_rng(11)
    for _ in range(50):
        U = random_unitary(rng, 4)
        A = 1e8 * ((U * rng.standard_normal(4)) @ U.conj().T)
        assert np.array_equal(as_observable(A), A)
    with pytest.raises(NotHermitian):
        as_observable(1e8 * np.array([[0, 1], [1 + 1e-6, 0]]))
