"""Orthonormal observable bases, the Gram matrix, and its triangular factor."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_density, random_hermitian, random_unitary
from oracles import (
    complex_correlation_matrix,
    longdouble_moduli,
    psd_sqrt,
    reconstruct,
    wyd_direct,
)
from skewbounds import loo
from skewbounds.cli import main
from skewbounds.errors import DimensionMismatch, DomainError
from skewbounds.linalg import PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix
from skewbounds.loo import (
    cholesky_psd,
    expand,
    gram_matrix,
    loo_basis,
    modulus_vector,
    modulus_vectors,
    orthonormalize,
)
from skewbounds.metrics import make_metric, weight_matrix
from skewbounds.skewinfo import (
    correlation,
    correlation_matrix,
    eigenbasis_terms,
    skew_information,
)

WY = make_metric("wy")
METRICS = [WY, make_metric("wyd", 0.3), make_metric("sld")]
GOLDEN = Path(__file__).parent / "golden"


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


def compositions(d):
    """Every composition of d: the run lengths of equal eigenvalues, 2^(d-1) of them."""
    for cuts in range(2 ** (d - 1)):
        sizes, run = [], 1
        for k in range(d - 1):
            if cuts >> k & 1:
                sizes.append(run)
                run = 1
            else:
                run += 1
        yield sizes + [run]


def pattern_spectrum(rng, sizes):
    """Ascending eigenvalues, exactly equal within each run of sizes and well apart across runs.

    The first run is zero half the time.
    """
    values = np.arange(len(sizes)) + rng.uniform(0.5, 1.0, len(sizes))
    if len(sizes) > 1 and rng.random() < 0.5:
        values[0] = 0.0
    lam = np.repeat(values, sizes)
    return lam / lam.sum()


def moduli_at(rho, observables, m):
    """The CLI's moduli of the observables at rho, (T, N, d^2), with the weights, (T, d^2).

    One state gives (N, d^2) and (d^2,).
    """
    rotated, W = eigenbasis_terms(rho, observables, m)
    return modulus_vectors(rho, rotated, W), W.reshape(rotated.shape[:-2] + (-1,))


class TestFactorFromF:
    """The moduli from F's kept columns: the pattern table, the fast path and its fallback."""

    @pytest.mark.parametrize("d", range(2, 9))
    def test_pattern_table(self, d):
        # one column per positive weight, and the reference search keeps the
        # same columns at three other states of each pattern
        rng = np.random.default_rng(80 + d)
        every = tuple(range(d * d))
        patterns = list(compositions(d))
        assert len(patterns) == 2 ** (d - 1)
        for sizes in patterns:
            for m in METRICS:
                W = weight_matrix(m, pattern_spectrum(rng, sizes)).reshape(1, -1)
                support = W[0] > 0
                J = loo._pattern_columns(d, support.tobytes())
                assert J is not None and len(J) == np.count_nonzero(support)
                V = random_unitary(rng, d)[None]
                Q, _ = orthonormalize(loo._basis_columns(V, W, every))
                assert tuple(np.flatnonzero(np.any(Q[0], axis=0)).tolist()) == J

    def test_generic_states_take_no_fallback(self, monkeypatch):
        rng = np.random.default_rng(90)
        cases = []
        for d in range(2, 9):
            for rank in range(1, d + 1):
                for m in METRICS:
                    states = np.array([random_density(rng, d, rank).matrix for _ in range(4)])
                    observables = [random_hermitian(rng, d) for _ in range(2)]
                    cases.append((DensityMatrix.from_matrix(states), observables, m))
        for case in cases:
            moduli_at(*case)  # fills the pattern table
        calls = []
        original = loo.orthonormalize
        monkeypatch.setattr(loo, "orthonormalize", lambda F: calls.append(len(F)) or original(F))
        for case in cases:
            moduli_at(*case)
        assert calls == []

    def test_reproduce_1_takes_the_fallback(self, monkeypatch, capsys):
        # its Bloch vectors lie in the x-y plane, where the sigma_x column
        # depends on sigma_y and the kernel: all 100 points take the loop
        assert main(["reproduce", "1"]) == 0
        capsys.readouterr()
        calls = []
        original = loo.orthonormalize
        monkeypatch.setattr(loo, "orthonormalize", lambda F: calls.append(len(F)) or original(F))
        assert main(["reproduce", "1"]) == 0
        assert calls == [100]
        assert capsys.readouterr().out == (GOLDEN / "reproduce1.csv").read_text(encoding="utf-8")

    def test_surplus_row_point(self):
        # the Cholesky factor of Gamma, formed over all d^2 complex entries,
        # keeps a seventh row here, where W has six positive entries, and
        # its moduli miss the reference by 3.4e-6
        rng = np.random.default_rng([60, 4, 1])
        rho = random_density(rng, 4, 1)
        observables = [random_hermitian(rng, 4) for _ in range(2)]
        basis = loo_basis(4)
        old = cholesky_psd(complex_correlation_matrix(rho, basis, WY))
        assert np.count_nonzero(np.any(old != 0, axis=1)) == 7
        x, W = moduli_at(rho, observables, WY)
        assert np.count_nonzero(W) == 6
        assert np.all(np.count_nonzero(x, axis=-1) <= 6)
        ref = longdouble_moduli(rho, observables, WY)
        assert np.max(np.abs(x - ref)) <= 1e-12
        assert np.max(np.abs(modulus_vector(old, expand(np.array(observables), basis)) - ref)) > 1e-6

    def test_pattern_without_clear_columns_takes_the_reference(self):
        # at d = 9 the seeded search keeps no clear column set for eigenvalue
        # runs of 6 and 3, so every point of that pattern takes the loop
        d = 9
        lam = np.repeat([0.0, 1.0 / 3.0], [6, 3])
        assert loo._pattern_columns(d, (weight_matrix(WY, lam) > 0).tobytes()) is None
        rng = np.random.default_rng(91)
        U = random_unitary(rng, d)
        rho = DensityMatrix((U * lam) @ U.conj().T, lam, U)
        observables = [random_hermitian(rng, d) for _ in range(2)]
        x, W = moduli_at(rho, observables, WY)
        assert np.all(np.count_nonzero(x, axis=-1) <= np.count_nonzero(W))
        ref = longdouble_moduli(rho, observables, WY)
        assert np.max(np.abs(x - ref)) <= 1e-12 * max(1.0, np.max(ref))

    def test_maximally_mixed_moduli_are_zero(self):
        for d in (2, 3):
            rho = DensityMatrix.from_matrix(np.eye(d) / d)
            x, _ = moduli_at(rho, [random_hermitian(np.random.default_rng(d), d)], WY)
            assert np.array_equal(x, np.zeros((1, d * d)))

    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["wishart", "degenerate", "real", "planar", "near_mixed"]),
        d=st.integers(2, 6),
        metric=st.sampled_from(range(len(METRICS))),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_path_matches_the_reference(self, seed, kind, d, metric):
        rng = np.random.default_rng(seed)
        m = METRICS[metric]
        if kind == "planar":
            d = 2
            r = rng.uniform(0.0, 1.0, 4) ** 0.5
            phi = rng.uniform(0.0, 2 * np.pi, 4)
            bloch = np.stack([r * np.cos(phi), r * np.sin(phi), 0 * r], axis=1)
            rho = DensityMatrix.from_bloch(bloch)
        elif kind == "near_mixed":
            # I/d plus a spread of 1e-6 ... 1e-10, where all of W is tiny
            d = int(rng.integers(2, 9))
            spread = 10.0 ** -rng.uniform(6.0, 10.0, (4, 1, 1))
            H = np.array([random_hermitian(rng, d) for _ in range(4)])
            H -= np.trace(H, axis1=1, axis2=2)[:, None, None] * np.eye(d) / d
            rho = DensityMatrix.from_matrix(np.eye(d) / d + spread * H)
        else:
            states = []
            for _ in range(4):
                if kind == "wishart":
                    states.append(random_density(rng, d, int(rng.integers(1, d + 1))).matrix)
                elif kind == "degenerate":
                    sizes = list(compositions(d))[int(rng.integers(2 ** (d - 1)))]
                    U = random_unitary(rng, d)
                    states.append((U * pattern_spectrum(rng, sizes)) @ U.conj().T)
                else:
                    G = rng.standard_normal((d, int(rng.integers(1, d + 1))))
                    states.append(G @ G.T / np.trace(G @ G.T))
            rho = DensityMatrix.from_matrix(np.array(states))
        observables = [random_hermitian(rng, d) for _ in range(3)]
        if kind == "real":
            observables = [A.real.astype(complex) for A in observables]
        x, W = moduli_at(rho, observables, m)
        norms = np.sum(eigenbasis_terms(rho, observables, m)[0] ** 2, axis=-1)
        K = correlation_matrix(rho, observables, m)
        C = gram_matrix(rho, loo_basis(d), m)
        ref = modulus_vector(C, expand(np.array(observables), loo_basis(d)))
        every = tuple(range(d * d))
        for t in range(len(x)):
            support = W[t] > 0
            kept = np.flatnonzero(C[t].diagonal()).tolist()
            assert np.all(np.count_nonzero(x[t], axis=-1) <= np.count_nonzero(support))
            assert not np.any(x[t][:, np.setdiff1d(every, kept)])
            # sum(x**2) = |f|^2, of which the moduli are an orthonormal
            # change of coordinates, less the part of f whose columns fall
            # to the floor: eigenvalues meant to be equal but split by
            # rounding weigh about 1e-32
            scale = np.array([np.sum(np.abs(A) ** 2) for A in observables])
            assert np.all(
                np.abs(np.sum(x[t] ** 2, axis=-1) - norms[t]) <= 1e-13 * norms[t] + 1e-28 * scale
            )
            # and K_ii is |f|^2, K being f f^T
            I = K[t].diagonal()
            assert np.all(np.abs(norms[t] - I) <= 1e-13 * I)
            assert np.max(np.abs(x[t] - ref[t])) <= 1e-12 * np.max(ref[t])
            # where the pattern's columns pass the fast path's check, the
            # reference keeps exactly them
            J = loo._pattern_columns(d, support.tobytes())
            if J:
                R = np.linalg.qr(loo._basis_columns(rho.eigenvectors[t : t + 1], W[t : t + 1], J), mode="r")
                if np.all(np.square(R.diagonal(axis1=1, axis2=2)) > 1e-12 * W[t].max()):
                    assert kept == list(J)
