"""Shared helpers: seeded random states, observables, unitaries, the
per-point arrays the bounds are computed from, and a scenario writer."""

import numpy as np
import yaml

from skewbounds.linalg import DensityMatrix
from skewbounds.loo import expand, gram_matrix, loo_basis, modulus_vector
from skewbounds.scenario import PairTask, Scenario, SumTask
from skewbounds.skewinfo import correlation_matrix


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2.0


def random_density(
    rng: np.random.Generator, d: int, rank: int | None = None
) -> DensityMatrix:
    """A random full- or low-rank state via a Wishart-style construction."""
    k = rank if rank is not None else d
    G = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
    M = G @ G.conj().T
    M = M / np.trace(M).real
    return DensityMatrix.from_matrix(M)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre matrix."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def point_arrays(rho, observables, m):
    """The correlation matrix K and the modulus vectors of a family of observables."""
    obs = np.array(observables)
    basis = loo_basis(rho.dim)
    moduli = modulus_vector(gram_matrix(rho, basis, m), expand(obs, basis))
    return correlation_matrix(rho, obs, m), moduli


def _thaw(value):
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


def write_scenario(s: Scenario) -> str:
    """Serialize back to YAML; parse_scenario_text round-trips the result."""
    doc = {
        "metric": s.metric_label,
        "state": {s.state_kind: _thaw(s.state_spec)},
        "observables": {
            name: [[[float(e.real), float(e.imag)] for e in row] for row in mat]
            for name, mat in s.observables.items()
        },
        "tasks": [],
    }
    if s.theta is not None:
        doc["theta"] = s.theta
    for t in s.tasks:
        if isinstance(t, PairTask):
            doc["tasks"].append({t.kind: {"A": t.a, "B": t.b}})
        elif isinstance(t, SumTask):
            doc["tasks"].append({"sum": {"observables": list(t.names)}})
        else:
            doc["tasks"].append(
                {"sweep": {"param": t.param, "range": [t.lo, t.hi], "steps": t.steps}}
            )
    return yaml.safe_dump(doc, sort_keys=False)
