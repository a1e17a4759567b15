"""Skew information, the correlation measure, and the trace-formula oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import point_arrays, random_density, random_hermitian, random_unitary
from oracles import pairwise_correlation, wyd_direct
from skewbounds.errors import DimensionMismatch, DomainError, NotHermitian
from skewbounds.linalg import PAULI_X, PAULI_Z, DensityMatrix
from skewbounds.bounds import product_chain
from skewbounds.loo import loo_basis
from skewbounds.metrics import make_metric
from skewbounds.skewinfo import correlation, correlation_matrix, skew_information

WY = make_metric("wy")


class TestCorrelation:
    def test_identity_observable_gives_zero(self):
        rng = np.random.default_rng(0)
        for d in (2, 3):
            rho = random_density(rng, d)
            B = random_hermitian(rng, d)
            for m in (WY, make_metric("sld"), make_metric("wyd", 0.3)):
                assert abs(correlation(rho, np.eye(d), B, m)) <= 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.9])
    def test_two_level_hand_value(self, p):
        # rho = diag(p, 1-p), A = sigma_x, WY: I(A) = 1 - 2 sqrt(p(1-p))
        rho = DensityMatrix.from_matrix(np.diag([p, 1 - p]))
        got = correlation(rho, PAULI_X, PAULI_X, WY)
        assert got.real == pytest.approx(1 - 2 * np.sqrt(p * (1 - p)), abs=1e-12)
        assert abs(got.imag) <= 1e-14

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(1)
        rho = random_density(rng, 3)
        A = random_hermitian(rng, 3)
        B = random_hermitian(rng, 3)
        assert correlation(rho, B, A, WY) == pytest.approx(
            np.conj(correlation(rho, A, B, WY)), abs=1e-12
        )

    def test_sesquilinear(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 3)
        A1, A2, B = (random_hermitian(rng, 3) for _ in range(3))
        a = 1.7  # real so a*A1 + A2 stays Hermitian
        lhs = correlation(rho, a * A1 + A2, B, WY)
        rhs = a * correlation(rho, A1, B, WY) + correlation(rho, A2, B, WY)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        with pytest.raises(DimensionMismatch):
            correlation(rho, np.eye(3), np.eye(3), WY)


class TestSkewInformation:
    def test_zero_for_commuting(self):
        rho = DensityMatrix.from_matrix(np.diag([0.2, 0.8]))
        assert skew_information(rho, PAULI_Z, WY) == 0.0
        assert skew_information(rho, np.eye(2), WY) == 0.0

    def test_zero_for_maximally_mixed(self):
        rng = np.random.default_rng(3)
        for d in (2, 3, 4):
            rho = DensityMatrix.from_matrix(np.eye(d) / d)
            A = random_hermitian(rng, d)
            for m in (WY, make_metric("sld")):
                assert skew_information(rho, A, m) <= 1e-12

    def test_positive_for_noncommuting(self):
        rho = DensityMatrix.from_matrix(np.diag([0.2, 0.8]))
        assert skew_information(rho, PAULI_X, WY) > 0.01

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        rho = random_density(rng, 3)
        A = random_hermitian(rng, 3)
        for c in (-2.0, 0.5, 10.0):
            assert skew_information(rho, A + c * np.eye(3), WY) == pytest.approx(
                skew_information(rho, A, WY), abs=1e-12
            )

    def test_pure_state_alpha_independence(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 3, rank=1)
        A = random_hermitian(rng, 3)
        vals = [
            skew_information(rho, A, make_metric("wyd", a))
            for a in (0.1, 0.25, 0.5, 0.75, 0.9)
        ]
        assert max(vals) - min(vals) <= 1e-10

    def test_nonnegative_random(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            A = random_hermitian(rng, d)
            for m in (WY, make_metric("sld"), make_metric("wyd", 0.25)):
                assert skew_information(rho, A, m) >= 0.0


class TestCorrelationMatrix:
    METRICS = [WY, make_metric("sld"), make_metric("wyd", 0.25)]

    @pytest.mark.parametrize("scale", [1.0, 1000.0])
    def test_matches_pairwise_oracle(self, scale):
        rng = np.random.default_rng(9)
        for _ in range(40):
            d = int(rng.integers(2, 6))
            N = int(rng.integers(1, 5))
            rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            obs = [scale * random_hermitian(rng, d) for _ in range(N)]
            m = self.METRICS[int(rng.integers(len(self.METRICS)))]
            K = correlation_matrix(rho, obs, m)
            assert K.shape == (N, N)
            for i in range(N):
                for j in range(N):
                    size = max(1.0, np.linalg.norm(obs[i]) * np.linalg.norm(obs[j]))
                    want = pairwise_correlation(rho, obs[i], obs[j], m)
                    assert abs(K[i, j] - want) <= 1e-12 * size

    def test_hermitian_with_real_nonnegative_diagonal(self):
        rng = np.random.default_rng(10)
        rho = random_density(rng, 4, rank=2)
        K = correlation_matrix(rho, [random_hermitian(rng, 4) for _ in range(3)], WY)
        assert K.dtype == np.float64
        assert np.array_equal(K, K.T)
        assert np.all(K.diagonal() >= 0.0)

    def test_rejects_an_observable_beyond_the_hermitian_tolerance(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 3)
        A = random_hermitian(rng, 3)
        near, far = A.copy(), A.copy()
        near[0, 1] += 5e-10
        far[0, 1] += 1e-6
        # within the tolerance, an observable is taken by its Hermitian part
        K = correlation_matrix(rho, [near, A], WY)
        assert np.array_equal(K, correlation_matrix(rho, [(near + near.conj().T) / 2, A], WY))
        with pytest.raises(NotHermitian):
            correlation_matrix(rho, [A, far], WY)
        with pytest.raises(NotHermitian):
            skew_information(rho, far, WY)

    @given(
        seed=st.integers(0, 2**32 - 1),
        c=st.floats(1.0, 1e6),
        kind=st.sampled_from(["wy", "sld", "wyd"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_covariance(self, seed, c, kind):
        # I(cA) = c^2 I(A)
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        A = random_hermitian(rng, d)
        m = make_metric("wyd", 0.3) if kind == "wyd" else make_metric(kind)
        base = skew_information(rho, A, m)
        assert abs(skew_information(rho, c * A, m) - c * c * base) <= 1e-12 * c * c * base


    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["wy", "sld", "wyd"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitary_covariance(self, seed, kind):
        # K(U rho U^dagger, U A U^dagger) = K(rho, A); so are the chain's
        # gauge-free endpoints, the product and the Cauchy-Schwarz bound
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 6))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        obs = np.array([random_hermitian(rng, d) for _ in range(int(rng.integers(2, 4)))])
        U = random_unitary(rng, d)
        m = make_metric("wyd", 0.3) if kind == "wyd" else make_metric(kind)
        K, (x, y, *_) = point_arrays(rho, obs, m)
        rotated = DensityMatrix.from_matrix(U @ rho.matrix @ U.conj().T)
        K_u, (x_u, y_u, *_) = point_arrays(rotated, U @ obs @ U.conj().T, m)
        norms = np.linalg.norm(obs, axis=(1, 2))
        assert np.all(np.abs(K_u - K) <= 1e-12 * np.outer(norms, norms))
        pc, pc_u = product_chain(K[:2, :2], x, y), product_chain(K_u[:2, :2], x_u, y_u)
        size = (norms[0] * norms[1]) ** 2
        assert abs(pc_u.product - pc.product) <= 1e-12 * size
        assert abs(pc_u.cauchy - pc.cauchy) <= 1e-12 * size
        # I_1 comes from the rotated state's Gram factor: equal to the
        # factor's accuracy, the tolerance check_product_chain allows
        assert abs(pc_u.I_seq[0] - pc.product) <= 1e-9 * size


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(2, 5),
    kind=st.sampled_from(["wy", "sld", "wyd"]),
)
@settings(max_examples=60, deadline=None)
def test_independent_of_eigenvector_gauge(seed, d, kind):
    """K and Gamma do not see the phases of the eigenvectors or the basis of a
    degenerate eigenspace, so the state may carry eigh's output as it is."""
    rng = np.random.default_rng(seed)
    m = make_metric("wyd", 0.3) if kind == "wyd" else make_metric(kind)
    # every rank, pure states included; the nonzero eigenvalues take two
    # levels, so eigenspaces other than the kernel can be degenerate too
    rank = int(rng.integers(1, d + 1))
    lam = np.zeros(d)
    lam[:rank] = rng.choice([1.0, 2.0], size=rank)
    U = random_unitary(rng, d)
    rho = DensityMatrix.from_matrix((U * (lam / lam.sum())) @ U.conj().T)
    w, V = rho.eigenvalues, rho.eigenvectors
    # a random unitary inside each group of equal eigenvalues, then a random
    # phase on each column
    G = np.zeros((d, d), dtype=complex)
    bounds = [0, *(np.flatnonzero(np.diff(w) > 1e-12) + 1), d]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        G[lo:hi, lo:hi] = random_unitary(rng, hi - lo)
    G *= np.exp(2j * np.pi * rng.random(d))
    gauged = DensityMatrix(matrix=rho.matrix, eigenvalues=w, eigenvectors=V @ G)
    assert np.max(np.abs((gauged.eigenvectors * w) @ gauged.eigenvectors.conj().T
                         - rho.matrix)) <= 1e-12
    observables = np.array([random_hermitian(rng, d) for _ in range(3)])
    for family in (observables, loo_basis(d)):
        K = correlation_matrix(rho, family, m)
        K_gauged = correlation_matrix(gauged, family, m)
        assert np.max(np.abs(K_gauged - K)) <= 1e-12 * max(1.0, np.max(np.abs(K)))


class TestWydDirectOracle:
    def test_pure_state_variance(self):
        # |psi> = (|0>+|1>)/sqrt(2), A = sigma_z, alpha = 1/2 -> variance 1
        rho = DensityMatrix.from_pure([1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert wyd_direct(rho, PAULI_Z, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_two_level_hand_value(self):
        rho = DensityMatrix.from_matrix(np.diag([0.3, 0.7]))
        expected = 1 - 2 * np.sqrt(0.3 * 0.7)
        assert wyd_direct(rho, PAULI_X, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_identity_gives_zero(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 3)
        assert wyd_direct(rho, np.eye(3), 0.25) == pytest.approx(0.0, abs=1e-14)

    def test_alpha_domain(self):
        rho = DensityMatrix.from_matrix(np.eye(2) / 2)
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                wyd_direct(rho, PAULI_X, alpha)

    def test_agrees_with_metric_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
            A = random_hermitian(rng, d)
            for alpha in (0.25, 0.5, 0.75):
                via_metric = skew_information(rho, A, make_metric("wyd", alpha))
                assert abs(via_metric - wyd_direct(rho, A, alpha)) <= 1e-10
