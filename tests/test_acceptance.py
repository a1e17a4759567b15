"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines and the gauge-dependent intermediate comparison).
"""

import importlib.resources

import numpy as np

from conftest import point_arrays, random_density, random_hermitian, random_unitary
from oracles import chain_Ik_step, spq_step_identities, wyd_direct
from skewbounds.bounds import (
    SearchStrategy,
    chain_Ik,
    product_chain,
    spq_order,
    sum_bound_norm,
    sum_bound_report,
    sum_bound_parallelogram,
    table_Spq,
)
from skewbounds.cli import main
from skewbounds.linalg import PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix, as_observable
from skewbounds.loo import expand, gram_matrix, loo_basis
from skewbounds.metrics import make_metric
from skewbounds.skewinfo import correlation_matrix, skew_information

WYD14 = make_metric("wyd", 0.25)
WY = make_metric("wy")

# Qutrit worked example: |psi> = (|0> + |2>)/sqrt(2), alpha = 1/4
QUTRIT_STATE = DensityMatrix.from_pure([1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
QUTRIT_A = as_observable([[1, 1 - 1j, 0], [1 + 1j, -1, 0], [0, 0, 0]])
QUTRIT_B = as_observable([[0, 0, 1 - 1j], [0, 0, 1], [1 + 1j, 1, 0]])

# Qubit worked example: Bloch circle of radius sqrt(3)/2, alpha = 1/4
QUBIT_A = PAULI_X - PAULI_Z / 2
QUBIT_B = PAULI_Y + PAULI_Z

THETA_GRID = np.linspace(0.0, 2.0 * np.pi, 100)


def _report(n: int, text: str) -> None:
    print(f"criterion {n}: {text}: PASS")


def test_criterion_1_qutrit_gauge_invariant_endpoints():
    product = skew_information(QUTRIT_STATE, QUTRIT_A, WYD14) * skew_information(
        QUTRIT_STATE, QUTRIT_B, WYD14
    )
    K, (x, y) = point_arrays(QUTRIT_STATE, [QUTRIT_A, QUTRIT_B], WYD14)
    pc = product_chain(K, x, y)
    assert abs(product - 1.875) <= 1e-3
    assert abs(pc.cauchy - 0.250) <= 1e-3
    _report(1, "qutrit endpoints product=1.875, cauchy=0.250")


def test_criterion_2_qutrit_chain_structure():
    K, (x, y) = point_arrays(QUTRIT_STATE, [QUTRIT_A, QUTRIT_B], WYD14)
    pc = product_chain(K, x, y)
    I = pc.I_seq
    S = dict(zip(spq_order(9), pc.S_table))
    assert np.all(np.diff(I) <= 1e-10)
    assert np.all(np.diff(pc.S_table) <= 1e-10)
    for p in range(2, 10):
        assert abs(S[(p, p - 1)] - I[p - 1]) <= 1e-10
    assert abs(I[0] - 1.875) <= 1e-3
    assert abs(I[-1] - 0.250) <= 1e-3
    # Gauge-dependent intermediates: informational comparison only.  The
    # published chain was computed under an unstated factorization gauge;
    # ours is the documented triangular one, so mismatches are expected.
    printed = {"I_7": 1.844, "S_86": 1.344, "I_8": 0.625, "S_96": 0.610, "S_97": 0.610}
    got = {
        "I_7": I[6],
        "S_86": S[(8, 6)],
        "I_8": I[7],
        "S_96": S[(9, 6)],
        "S_97": S[(9, 7)],
    }
    flags = ", ".join(
        f"{k}={got[k]:.3f} ({'match' if abs(got[k] - v) <= 1e-3 else 'mismatch'} vs {v})"
        for k, v in printed.items()
    )
    _report(2, f"qutrit chain ordering and endpoints; intermediates: {flags}")


def test_criterion_3_qubit_structural_equalities():
    worst = 0.0
    for theta in THETA_GRID:
        r = [np.sqrt(3) / 2 * np.cos(theta), np.sqrt(3) / 2 * np.sin(theta), 0.0]
        rho = DensityMatrix.from_bloch(r)
        K, (x, y) = point_arrays(rho, [QUBIT_A, QUBIT_B], WYD14)
        pc = product_chain(K, x, y)
        I = pc.I_seq
        S = dict(zip(spq_order(4), pc.S_table))
        devs = [
            abs(I[0] - I[1]),
            abs(I[0] - S[(1, 0)]),
            abs(I[0] - S[(2, 1)]),
            abs(I[2] - I[3]),
            abs(I[2] - S[(3, 1)]),
            abs(I[2] - S[(3, 2)]),
            abs(I[2] - S[(4, 1)]),
            abs(I[2] - S[(4, 2)]),
            abs(I[2] - S[(4, 3)]),
        ]
        worst = max(worst, max(devs))
        assert max(devs) <= 1e-9, f"equality broken at theta={theta}"
        assert pc.product >= I[2] - 1e-9
        assert I[2] >= pc.cauchy - 1e-9
    _report(3, f"qubit equalities on 100-point grid (worst dev {worst:.2e})")


def test_criterion_4_sum_bound_dominance():
    A = PAULI_X + PAULI_Y / 2
    B = PAULI_Y
    C = PAULI_Z - PAULI_Y
    min_gap = np.inf
    for theta in THETA_GRID:
        r = [np.sqrt(3) / 3 * np.cos(theta), 0.0, np.sqrt(3) / 3]
        rho = DensityMatrix.from_bloch(r)
        report = sum_bound_report(*point_arrays(rho, [A, B, C], WY))
        assert report.parallelogram >= report.norm_bound - 1e-9
        assert report.sum_value >= report.parallelogram - 1e-9
        assert report.sum_value >= report.norm_bound - 1e-9
        min_gap = min(min_gap, report.parallelogram - report.norm_bound)
    _report(4, f"sum bound dominates norm baseline on grid (min gap {min_gap:.4f})")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        A = random_hermitian(rng, d)
        for alpha in (0.25, 0.5, 0.75):
            via_metric = skew_information(rho, A, make_metric("wyd", alpha))
            dev = abs(via_metric - wyd_direct(rho, A, alpha))
            worst = max(worst, dev)
            assert dev <= 1e-10
        wyd_half = skew_information(rho, A, make_metric("wyd", 0.5))
        assert abs(wyd_half - skew_information(rho, A, WY)) <= 1e-12
    _report(5, f"200 random WYD oracle checks (worst dev {worst:.2e})")


def test_criterion_6_gauge_robust_bound_validity():
    rng = np.random.default_rng(2025)
    metrics = [WY, make_metric("sld"), make_metric("wyd", 0.25), make_metric("wyd", 0.75)]
    for _ in range(200):
        d = int(rng.integers(2, 4))
        rho = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        A = random_hermitian(rng, d)
        B = random_hermitian(rng, d)
        m = metrics[int(rng.integers(len(metrics)))]
        basis = loo_basis(d)
        C = gram_matrix(rho, basis, m)
        f0 = C @ expand(A, basis)
        g0 = C @ expand(B, basis)
        pc = product_chain(correlation_matrix(rho, [A, B], m), np.abs(f0), np.abs(g0))
        lo, hi = pc.cauchy - 1e-9, pc.product + 1e-9
        gauges = [np.eye(d * d)] + [random_unitary(rng, d * d) for _ in range(5)]
        for U in gauges:
            x, y = np.abs(U @ f0), np.abs(U @ g0)
            for v in chain_Ik(x, y):
                assert lo <= v <= hi
            for v in table_Spq(x, y):
                assert lo <= v <= hi
    _report(6, "200 random instances x 5 unitary re-gaugings stay in bounds")


def test_criterion_7_difference_identities():
    rng = np.random.default_rng(2026)
    # parallelogram identity behind the sum bound
    for N in (2, 3, 4, 5):
        for _ in range(20):
            vecs = [rng.uniform(-2, 2, size=5) for _ in range(N)]
            plus = sum(
                np.sum((vecs[i] + vecs[j]) ** 2)
                for i in range(N)
                for j in range(i + 1, N)
            )
            minus = sum(
                np.sum((vecs[i] - vecs[j]) ** 2)
                for i in range(N)
                for j in range(i + 1, N)
            )
            lhs = (2 * N - 2) * sum(np.sum(v**2) for v in vecs)
            assert abs(lhs - (plus + minus)) <= 1e-10
    # consecutive-difference formula for the I chain and the S-table steps
    for _ in range(50):
        n = int(rng.integers(2, 8))
        x, y = rng.uniform(0, 2, size=(2, n))
        I = chain_Ik(x, y)
        for k in range(1, n):
            assert abs((I[k] - I[k - 1]) - chain_Ik_step(x, y, k)) <= 1e-10
        for name, lhs, rhs in spq_step_identities(x, y):
            assert abs(lhs - rhs) <= 1e-10, name
    _report(7, "parallelogram and chain difference identities hold to 1e-10")


def test_criterion_8_saturation_cases():
    rng = np.random.default_rng(2027)
    for _ in range(20):
        d = int(rng.integers(2, 4))
        rho = random_density(rng, d)
        A = random_hermitian(rng, d)
        K, (x, y) = point_arrays(rho, [A, A], WY)
        pc = product_chain(K, x, y)
        assert abs(pc.cauchy - pc.product) <= 1e-10
        for N in (2, 3):
            val, _ = sum_bound_parallelogram(
                [x] * N, SearchStrategy(kind="sampled", n_samples=10, seed=0)
            )
            assert abs(val - N * skew_information(rho, A, WY)) <= 1e-10
            assert abs(
                sum_bound_norm(correlation_matrix(rho, [A] * N, WY))
                - N * skew_information(rho, A, WY)
            ) <= 1e-10
    _report(8, "self-pair and identical-family saturation cases")


def test_criterion_9_sweep_determinism(tmp_path):
    scenario = importlib.resources.files("skewbounds").joinpath(
        "scenarios", "example1.yaml"
    )
    path = tmp_path / "scenario.yaml"
    path.write_text(scenario.read_text(encoding="utf-8"), encoding="utf-8")
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.csv"
        code = main(
            ["--strategy", "sampled", "--seed", "42", "--out", str(out), "sweep", str(path)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _report(9, "seeded sweep CSV byte-identical across runs")
