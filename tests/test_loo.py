"""Orthonormal observable bases, the Gram matrix, and its triangular factor."""

import numpy as np
import pytest

from conftest import random_density, random_hermitian, random_unitary
from oracles import psd_sqrt, reconstruct, wyd_direct
from skewbounds.errors import DimensionMismatch, DomainError
from skewbounds.linalg import PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix
from skewbounds.loo import (
    cholesky_psd,
    expand,
    gram_matrix,
    loo_basis,
    modulus_vector,
)
from skewbounds.metrics import make_metric
from skewbounds.skewinfo import correlation, correlation_matrix, skew_information

WY = make_metric("wy")


class TestLooBasis:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_orthonormal_and_complete_count(self, d):
        basis = loo_basis(d)
        assert len(basis) == d * d
        G = np.array([[np.trace(a @ b) for b in basis] for a in basis])
        assert np.max(np.abs(G - np.eye(d * d))) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_all_hermitian(self, d):
        for om in loo_basis(d):
            assert np.max(np.abs(om - om.conj().T)) <= 1e-15

    def test_qubit_ordering(self):
        # fixed order: antisymmetric, symmetric, diagonal, identity
        basis = loo_basis(2)
        s = 1 / np.sqrt(2)
        assert np.allclose(basis[0], s * PAULI_Y)
        assert np.allclose(basis[1], s * PAULI_X)
        assert np.allclose(basis[2], s * PAULI_Z)
        assert np.allclose(basis[3], s * np.eye(2))

    def test_identity_element_last(self):
        for d in (2, 3, 4):
            basis = loo_basis(d)
            assert np.allclose(basis[-1], np.eye(d) / np.sqrt(d))

    def test_rejects_small_dim(self):
        with pytest.raises(DomainError):
            loo_basis(1)


class TestExpand:
    def test_basis_element_is_unit_vector(self):
        basis = loo_basis(3)
        a = expand(basis[4], basis)
        expected = np.zeros(9)
        expected[4] = 1.0
        assert np.allclose(a, expected, atol=1e-12)

    def test_identity_expansion(self):
        a = expand(np.eye(2, dtype=complex), loo_basis(2))
        assert np.allclose(a, [0, 0, 0, np.sqrt(2)], atol=1e-12)

    def test_example_observable_roundtrip(self):
        basis = loo_basis(2)
        A = PAULI_X - PAULI_Z / 2
        a = expand(A, basis)
        assert np.max(np.abs(reconstruct(a, basis) - A)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_completeness_random(self, d):
        rng = np.random.default_rng(40 + d)
        basis = loo_basis(d)
        for _ in range(100):
            A = random_hermitian(rng, d)
            a = expand(A, basis)
            assert np.all(np.isreal(a))
            assert np.max(np.abs(reconstruct(a, basis) - A)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            expand(np.eye(3, dtype=complex), loo_basis(2))


class TestCholeskyPsd:
    def test_full_rank(self):
        rng = np.random.default_rng(50)
        G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        gamma = G.conj().T @ G
        R = cholesky_psd(gamma)
        assert np.max(np.abs(R.conj().T @ R - gamma)) <= 1e-10
        assert np.allclose(R, np.triu(R))

    def test_rank_deficient_rows_are_zero(self):
        rng = np.random.default_rng(51)
        G = rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6))
        gamma = G.conj().T @ G  # rank 3 in 6 dims
        R = cholesky_psd(gamma)
        assert np.max(np.abs(R.conj().T @ R - gamma)) <= 1e-9
        nonzero_rows = np.sum(np.any(np.abs(R) > 1e-9, axis=1))
        assert nonzero_rows == 3

    def test_zero_matrix(self):
        assert np.array_equal(cholesky_psd(np.zeros((4, 4))), np.zeros((4, 4)))

    def test_psd_sqrt_also_factors(self):
        rng = np.random.default_rng(52)
        G = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        gamma = G.conj().T @ G
        C = psd_sqrt(gamma)
        assert np.max(np.abs(C.conj().T @ C - gamma)) <= 1e-9
        assert np.max(np.abs(C - C.conj().T)) <= 1e-12


class TestGramMatrix:
    def test_maximally_mixed_gives_zero(self):
        for d in (2, 3):
            rho = DensityMatrix.from_matrix(np.eye(d) / d)
            gamma = correlation_matrix(rho, loo_basis(d), WY)
            assert np.max(np.abs(gamma)) <= 1e-12

    def test_entries_are_basis_correlations(self):
        rng = np.random.default_rng(60)
        rho = random_density(rng, 2)
        basis = loo_basis(2)
        gamma = correlation_matrix(rho, basis, WY)
        for mu in range(4):
            for nu in range(4):
                want = correlation(rho, basis[mu], basis[nu], WY)
                assert gamma[mu, nu] == pytest.approx(want, abs=1e-12)

    def test_gamma_hermitian_psd_and_factored(self):
        rng = np.random.default_rng(61)
        for d in (2, 3):
            for m in (WY, make_metric("sld"), make_metric("wyd", 0.25)):
                rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
                gamma = correlation_matrix(rho, loo_basis(d), m)
                C = gram_matrix(rho, loo_basis(d), m)
                assert np.max(np.abs(gamma - gamma.conj().T)) <= 1e-10
                assert np.min(np.linalg.eigvalsh(gamma)) >= -1e-10
                resid = C.conj().T @ C - gamma
                assert np.max(np.abs(resid)) <= 1e-10

    def test_identity_direction_in_kernel(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 3)
        gamma = correlation_matrix(rho, loo_basis(3), WY)
        e_id = np.zeros(9)
        e_id[-1] = 1.0
        assert np.max(np.abs(gamma @ e_id)) <= 1e-12

    def test_quadratic_form_is_skew_information(self):
        rng = np.random.default_rng(63)
        for d in (2, 3):
            basis = loo_basis(d)
            for m in (WY, make_metric("sld"), make_metric("wyd", 0.75)):
                rho = random_density(rng, d)
                gamma = correlation_matrix(rho, basis, m)
                A = random_hermitian(rng, d)
                a = expand(A, basis)
                quad = float((a @ gamma @ a).real)
                assert abs(quad - skew_information(rho, A, m)) <= 1e-9

    def test_quadratic_form_matches_wyd_oracle(self):
        m = make_metric("wyd", 0.25)
        rho = DensityMatrix.from_bloch([np.sqrt(3) / 2, 0, 0])
        basis = loo_basis(2)
        gamma = correlation_matrix(rho, basis, m)
        A = PAULI_X - PAULI_Z / 2
        a = expand(A, basis)
        quad = float((a @ gamma @ a).real)
        assert abs(quad - wyd_direct(rho, A, 0.25)) <= 1e-10


class TestModulusVector:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(70)
        rho = random_density(rng, 2)
        C = gram_matrix(rho, loo_basis(2), WY)
        assert np.array_equal(modulus_vector(C, np.zeros(4)), np.zeros(4))

    def test_norm_identity(self):
        rng = np.random.default_rng(71)
        for d in (2, 3):
            basis = loo_basis(d)
            rho = random_density(rng, d)
            C = gram_matrix(rho, basis, WY)
            A = random_hermitian(rng, d)
            x = modulus_vector(C, expand(A, basis))
            assert abs(np.sum(x * x) - skew_information(rho, A, WY)) <= 1e-9

    def test_cauchy_schwarz_bridge(self):
        # |f . g| equals |Corr(A, B)|, independent of the factor gauge
        rng = np.random.default_rng(72)
        for d in (2, 3):
            basis = loo_basis(d)
            rho = random_density(rng, d)
            C = gram_matrix(rho, basis, WY)
            A = random_hermitian(rng, d)
            B = random_hermitian(rng, d)
            f = C @ expand(A, basis)
            g = C @ expand(B, basis)
            bridge = abs(np.vdot(f, g))
            assert abs(bridge - abs(correlation(rho, A, B, WY))) <= 1e-9
            # same under a random left-unitary re-gauging
            U = random_unitary(rng, d * d)
            assert abs(abs(np.vdot(U @ f, U @ g)) - bridge) <= 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(73)
        rho = random_density(rng, 2)
        C = gram_matrix(rho, loo_basis(2), WY)
        with pytest.raises(DimensionMismatch):
            modulus_vector(C, np.zeros(9))
