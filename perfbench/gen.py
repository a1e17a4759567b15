"""Seeded inputs for the benchmark: states, observables, scenario files, vectors.

Every scenario is described twice from the same numbers: as the YAML text the
program parses, and as plain numpy arrays the oracles in ``oracle.py`` use.
Nothing here imports the program.

A workload is a fixed list of operation *shapes* (dimension, state kind,
metric kind, task, grid length); a random generator fills in the numbers
(angles, amplitudes, spectra, observables, metric parameter, sweep range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

TWO_PI = 2.0 * math.pi

# ---------------------------------------------------------------------------
# scenario model


@dataclass
class Scenario:
    """One scenario file: state, observables, metric, tasks and grid."""

    metric: str  # "wy" | "wyd:<alpha>" | "sld"
    state_kind: str  # "bloch" | "pure" | "density"
    state: dict  # numeric parameters of rho(theta), see rho()
    observables: dict[str, np.ndarray]
    pair: tuple[str, str, str] | None = None  # ("chain" | "product", A, B)
    sum_names: tuple[str, ...] | None = None
    theta: float | None = None  # single-point value for compute
    sweep: tuple[float, float, int] | None = None  # (lo, hi, steps)

    @property
    def dim(self) -> int:
        return next(iter(self.observables.values())).shape[0]

    def thetas(self) -> np.ndarray:
        if self.sweep is not None:
            lo, hi, steps = self.sweep
            return np.linspace(lo, hi, steps)
        return np.array([self.theta])


@dataclass
class Op:
    """One operation: a cli.main call or one library call."""

    label: str
    kind: str  # "sweep" | "compute" | "reproduce" | "bppb"
    argv: list[str] = field(default_factory=list)
    scenario: Scenario | None = None
    x: np.ndarray | None = None  # bppb inputs
    y: np.ndarray | None = None

    @property
    def points(self) -> int:
        if self.kind == "bppb":
            return 1
        return len(self.scenario.thetas())


# ---------------------------------------------------------------------------
# states: the program gets expression strings, the oracle gets rho(theta)


def _lin_expr(terms: list[tuple[float, str]]) -> str | float:
    """c0 + c1*f1(theta) + ...; a bare number when every coefficient but c0 is 0."""
    if all(c == 0.0 for c, f in terms if f):
        return float(sum(c for c, f in terms if not f))
    parts = [f"({c!r})*{f}" if f else f"({c!r})" for c, f in terms if c != 0.0 or not f]
    return "+".join(parts)


def bloch_state(rng: np.random.Generator, pure: bool) -> dict:
    """r(theta) = a cos(theta) u + a sin(theta) v + c w, u v w orthonormal."""
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if pure:
        beta = rng.uniform(0.2, 1.3)
        a, c = math.cos(beta), math.sin(beta)
    else:
        radius = rng.uniform(0.3, 0.9)
        beta = rng.uniform(0.2, 1.3)
        a, c = radius * math.cos(beta), radius * math.sin(beta)
    return {"cos": Q[:, 0] * a, "sin": Q[:, 1] * a, "const": Q[:, 2] * c}


def pure_state(rng: np.random.Generator, d: int) -> dict:
    """v(theta) = cos(theta) u + sin(theta) w with u, w orthonormal."""
    G = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
    Q, _ = np.linalg.qr(G)
    return {"cos": Q[:, 0], "sin": Q[:, 1]}


def density_state(rng: np.random.Generator, d: int, rank: int) -> dict:
    """rho(theta) = C + cos(theta) S with C = U diag(p) U^dag, S = U diag(delta) U^dag.

    p sums to 1 and delta to 0 over the first ``rank`` eigenvectors, with
    |delta| <= p / 2, so every eigenvalue stays at least p_min / 2 > 0 on the
    support and exactly 0 off it.
    """
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, _ = np.linalg.qr(G)
    p = np.zeros(d)
    p[:rank] = rng.uniform(0.5, 1.5, rank)
    p /= p.sum()
    delta = np.zeros(d)
    raw = rng.uniform(-1.0, 1.0, rank) * p[:rank]
    raw -= raw.mean()
    delta[:rank] = raw * (0.5 / max(1.0, float(np.max(np.abs(raw) / p[:rank]))))
    C = (U * p) @ U.conj().T
    S = (U * delta) @ U.conj().T
    # exact Hermitian symmetry of the printed entries
    C = 0.5 * (C + C.conj().T)
    S = 0.5 * (S + S.conj().T)
    return {"C": C, "S": S}


def state_spec(kind: str, st: dict):
    """The YAML ``state`` section for a state description."""
    if kind == "bloch":
        return {
            "bloch": [
                _lin_expr(
                    [(float(st["const"][k]), ""), (float(st["cos"][k]), "cos(theta)"),
                     (float(st["sin"][k]), "sin(theta)")]
                )
                for k in range(3)
            ]
        }
    if kind == "pure":
        u, w = st["cos"], st["sin"]
        return {
            "pure": [
                [
                    _lin_expr([(float(u[i].real), "cos(theta)"), (float(w[i].real), "sin(theta)")]),
                    _lin_expr([(float(u[i].imag), "cos(theta)"), (float(w[i].imag), "sin(theta)")]),
                ]
                for i in range(len(u))
            ]
        }
    C, S = st["C"], st["S"]
    d = C.shape[0]
    return {
        "density": [
            [
                [
                    _lin_expr([(float(C[i, j].real), ""), (float(S[i, j].real), "cos(theta)")]),
                    _lin_expr([(float(C[i, j].imag), ""), (float(S[i, j].imag), "cos(theta)")]),
                ]
                for j in range(d)
            ]
            for i in range(d)
        ]
    }


PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def rho(s: Scenario, theta: float) -> np.ndarray:
    """The state at theta, computed from the numbers behind the scenario file."""
    st = s.state
    c, sn = math.cos(theta), math.sin(theta)
    if s.state_kind == "bloch":
        r = st["const"] + c * st["cos"] + sn * st["sin"]
        return 0.5 * (np.eye(2) + sum(r[k] * PAULI[k] for k in range(3)))
    if s.state_kind == "pure":
        v = c * st["cos"] + sn * st["sin"]
        return np.outer(v, v.conj())
    return st["C"] + c * st["S"]


# ---------------------------------------------------------------------------
# observables and scenario files


def hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    H = 0.5 * (G + G.conj().T) * (scale / math.sqrt(d))
    return 0.5 * (H + H.conj().T)


def _observable_rows(M: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in M]


def scenario_yaml(s: Scenario) -> str:
    doc: dict = {"metric": s.metric}
    if s.theta is not None:
        doc["theta"] = float(s.theta)
    doc["state"] = state_spec(s.state_kind, s.state)
    doc["observables"] = {n: _observable_rows(M) for n, M in s.observables.items()}
    tasks = []
    if s.pair is not None:
        kind, a, b = s.pair
        tasks.append({kind: {"A": a, "B": b}})
    if s.sum_names is not None:
        tasks.append({"sum": {"observables": list(s.sum_names)}})
    if s.sweep is not None:
        lo, hi, steps = s.sweep
        tasks.append({"sweep": {"param": "theta", "range": [float(lo), float(hi)], "steps": steps}})
    doc["tasks"] = tasks
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=1000)


def metric_label(rng: np.random.Generator, kind: str) -> str:
    if kind == "wyd":
        return f"wyd:{round(float(rng.uniform(0.1, 0.9)), 3)!r}"
    return kind


def make_state(rng: np.random.Generator, d: int, kind: str) -> tuple[str, dict]:
    """kind: bloch | bloch_pure | pure | density | density_lowrank."""
    if kind == "bloch":
        return "bloch", bloch_state(rng, pure=False)
    if kind == "bloch_pure":
        return "bloch", bloch_state(rng, pure=True)
    if kind == "pure":
        return "pure", pure_state(rng, d)
    if kind == "density":
        return "density", density_state(rng, d, d)
    if kind == "density_lowrank":
        return "density", density_state(rng, d, max(2, d - 1 - d // 3))
    raise ValueError(kind)


def make_scenario(
    rng: np.random.Generator,
    d: int,
    state: str,
    metric: str,
    *,
    pair: str | None = None,
    n_sum: int = 0,
    steps: int | None = None,
    obs_scale: float = 1.0,
) -> Scenario:
    """A scenario of a fixed shape with seeded numbers."""
    state_kind, st = make_state(rng, d, state)
    names = [chr(ord("A") + i) for i in range(max(2, n_sum))]
    observables = {n: hermitian(rng, d, obs_scale) for n in names}
    s = Scenario(
        metric=metric_label(rng, metric),
        state_kind=state_kind,
        state=st,
        observables=observables,
        pair=(pair, "A", "B") if pair else None,
        sum_names=tuple(names[:n_sum]) if n_sum else None,
    )
    if steps is None:
        s.theta = float(rng.uniform(0.0, TWO_PI))
    else:
        lo = float(rng.uniform(0.0, 1.0))
        s.sweep = (lo, lo + float(rng.uniform(2.0, TWO_PI)), steps)
    return s


def write_op(workdir: Path, index: int, op: Op) -> Op:
    """Write the op's scenario file and complete its argv."""
    path = workdir / f"op{index:04d}.yaml"
    path.write_text(scenario_yaml(op.scenario), encoding="utf-8")
    op.argv = op.argv + [op.kind, str(path)]
    return op


# ---------------------------------------------------------------------------
# the shipped worked examples, restated from the paper's numbers


def _bloch_circle(cos_coef, sin_coef, const) -> dict:
    return {"cos": np.array(cos_coef, float), "sin": np.array(sin_coef, float),
            "const": np.array(const, float)}


def example(n: int) -> Scenario:
    X, Y, Z = PAULI
    if n == 1:
        h = math.sqrt(3) / 2
        return Scenario(
            metric="wyd:0.25",
            state_kind="bloch",
            state=_bloch_circle([h, 0, 0], [0, h, 0], [0, 0, 0]),
            observables={"A": X - Z / 2, "B": Y + Z},
            pair=("chain", "A", "B"),
            sweep=(0.0, TWO_PI, 100),
        )
    if n == 2:
        A = np.array([[1, 1 - 1j, 0], [1 + 1j, -1, 0], [0, 0, 0]], dtype=complex)
        B = np.array([[0, 0, 1 - 1j], [0, 0, 1], [1 + 1j, 1, 0]], dtype=complex)
        e0, e2 = np.eye(3)[0].astype(complex), np.eye(3)[2].astype(complex)
        return Scenario(
            metric="wyd:0.25",
            state_kind="pure",
            state={"cos": e0, "sin": e2},
            observables={"A": A, "B": B},
            pair=("chain", "A", "B"),
            theta=math.pi / 4,
        )
    if n == 3:
        r = math.sqrt(3) / 3
        return Scenario(
            metric="wy",
            state_kind="bloch",
            state=_bloch_circle([r, 0, 0], [0, 0, 0], [0, 0, r]),
            observables={"A": X + Y / 2, "B": Y, "C": Z - Y},
            sum_names=("A", "B", "C"),
            sweep=(0.0, TWO_PI, 100),
        )
    raise ValueError(n)


def reproduce_op(n: int) -> Op:
    return Op(label=f"reproduce{n}", kind="reproduce", argv=["reproduce", str(n)],
              scenario=example(n))


def scaled_example1(factor: float) -> Scenario:
    s = example(1)
    s.observables = {k: v * factor for k, v in s.observables.items()}
    return s


def nonneg_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.0, 1.0, n) ** 2
