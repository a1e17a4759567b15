"""CLI: subcommands, CSV shape, exit codes, and reproduction reports."""

import dataclasses
import importlib.resources
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skewbounds.bounds
import skewbounds.cli
import skewbounds.loo
import skewbounds.skewinfo
from conftest import random_density, random_hermitian, random_unitary, write_scenario
from skewbounds.bounds import SearchStrategy
from skewbounds.cli import build_parser, main
from skewbounds.linalg import DensityMatrix
from skewbounds.metrics import parse_metric
from skewbounds.scenario import (
    PairTask,
    Scenario,
    SumTask,
    SweepTask,
    parse_scenario_text,
)

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"

QUBIT_CHAIN = """
metric: "wyd:0.25"
state:
  bloch: ["0.8*cos(theta)", "0.8*sin(theta)", 0.0]
observables:
  A:
    - [[0.0, 0.0], [1.0, 0.0]]
    - [[1.0, 0.0], [0.0, 0.0]]
  B:
    - [[1.0, 0.0], [0.0, -1.0]]
    - [[0.0, 1.0], [-1.0, 0.0]]
tasks:
  - chain: {A: A, B: B}
  - sweep: {param: theta, range: [0.0, 3.0], steps: 5}
"""

# d = 3 with three observables: the exhaustive tuple search would need
# (9!)^2 candidates, far beyond the enumeration cap.
QUTRIT_SUM = """
metric: "wy"
state:
  pure: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
observables:
  A:
    - [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
    - [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
  B:
    - [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
  C:
    - [[0.0, 0.0], [0.0, -1.0], [0.0, 0.0]]
    - [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
tasks:
  - sum: {observables: [A, B, C]}
"""


# a chain and a three-observable sum at theta = 0.7, where --metric changes
# every column and a sampled search with no samples misses the best LB_thm3
QUBIT_CHAIN_SUM3 = QUBIT_CHAIN.replace('"wyd:0.25"\n', '"wyd:0.25"\ntheta: 0.7\n').replace(
    "tasks:\n",
    """  C:
    - [[0.5, 0.0], [0.0, -1.0]]
    - [[0.0, 1.0], [-0.5, 0.0]]
tasks:
  - sum: {observables: [A, B, C]}
""",
)


BLOCH = "state:\n  bloch: [0.5, 0.0, 0.0]\n"
SIGMA_X = "observables:\n  A: [[0.0, 1.0], [1.0, 0.0]]\n"
# sections of the wrong YAML type, each once an uncaught TypeError,
# ValueError or AttributeError
MALFORMED = {
    "observables-list": BLOCH + "observables: [1]\n",
    "observables-set": BLOCH + "observables: !!set {A}\n",
    "entry-of-pairs": BLOCH + "observables:\n  A: [[[[1, 0], [0, 0]], 0], [0, 0]]\n",
    "entry-text": BLOCH + "observables:\n  A: [[[abc, 0], 0], [0, 0]]\n",
    "tasks-scalar": BLOCH + SIGMA_X + "tasks: 5\n",
    "task-name-list": BLOCH + SIGMA_X + "tasks:\n  - product: {A: [1], B: A}\n",
    "sum-name-list": BLOCH + SIGMA_X + "tasks:\n  - sum: {observables: [[1], A]}\n",
    "bloch-scalar": "state:\n  bloch: 5\n" + SIGMA_X,
    "pure-scalar": "state:\n  pure: 5\n" + SIGMA_X,
    "density-ragged": "state:\n  density: [[1, 0], [0]]\n" + SIGMA_X,
    "density-row-scalar": "state:\n  density: [5]\n" + SIGMA_X,
    "theta-list": "theta: [1]\n" + BLOCH + SIGMA_X,
    "theta-text": "theta: abc\n" + BLOCH + SIGMA_X,
    "theta-date": "theta: 2001-12-14\n" + BLOCH + SIGMA_X,
}
# tagged scalars with bad values, each once an uncaught ValueError,
# AttributeError or KeyError from the YAML constructor
BAD_TAGGED = {
    "float": ("theta: !!float abc\n", "'abc' is not a valid !!float value"),
    "int": ("theta: !!int x\n", "'x' is not a valid !!int value"),
    "timestamp": ("theta: !!timestamp foo\n", "'foo' is not a valid !!timestamp value"),
    "bool": ("theta: !!bool maybe\n", "'maybe' is not a valid !!bool value"),
}


def run_cli(*args):
    """The CLI in a fresh interpreter, so that a crash cannot end the test run."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "skewbounds.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )


def write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(capsys):
    out = capsys.readouterr().out
    lines = [ln for ln in out.strip().splitlines() if ln]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestCompute:
    def test_chain_columns(self, tmp_path, capsys):
        path = write(tmp_path, QUBIT_CHAIN)
        assert main(["compute", path]) == 0
        header, rows = read_csv(capsys)
        assert header[:3] == ["theta", "product", "cauchy"]
        assert "I_1" in header and "I_4" in header
        assert "S_2_1" in header and "S_4_3" in header
        assert len(rows) == 1
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["I_1"] == pytest.approx(vals["product"], abs=1e-9)

    def test_sum_columns(self, tmp_path, capsys):
        path = write(tmp_path, QUTRIT_SUM)
        assert main(["--strategy", "sampled", "compute", path]) == 0
        header, rows = read_csv(capsys)
        assert header == ["theta", "sum", "LB_thm3", "LB_norm"]
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["sum"] >= vals["LB_thm3"] - 1e-9
        assert vals["sum"] >= vals["LB_norm"] - 1e-9

    def test_pair_sum_bound_is_the_sum(self, capsys):
        # a rank-one qutrit state under wyd: the bound once taken from the
        # rank-deficient Gram factor was 2.4000054263737236, above the sum
        # 2.4000054107327036, and compute exited 2
        assert main(["compute", str(DATA / "sum_n2_pure_qutrit.yaml")]) == 0
        header, (row,) = read_csv(capsys)
        assert header == ["theta", "sum", "LB_thm3", "LB_norm"]
        assert row[2] == row[1] == "2.40000541073"

    def test_metric_override(self, tmp_path, capsys):
        path = write(tmp_path, QUBIT_CHAIN)
        assert main(["--metric", "sld", "compute", path]) == 0
        header, rows = read_csv(capsys)
        assert len(rows) == 1

    def test_metric_override_matches_the_edited_file(self, tmp_path, capsys):
        # the state parsing built is kept through the override
        text = QUBIT_CHAIN_SUM3.replace('"wyd:0.25"', '"wy"')
        assert main(["--metric", "sld", "compute", write(tmp_path, text)]) == 0
        overridden = capsys.readouterr().out
        sld = write(tmp_path, text.replace('"wy"', '"sld"'), "sld.yaml")
        assert main(["compute", sld]) == 0
        assert overridden == capsys.readouterr().out

    def test_out_flag(self, tmp_path, capsys):
        path = write(tmp_path, QUBIT_CHAIN)
        out = tmp_path / "result.csv"
        assert main(["--out", str(out), "compute", path]) == 0
        assert out.read_text().startswith("theta,product,cauchy")

    def test_failing_run_keeps_the_out_file(self, tmp_path, capsys):
        # the file is written only once the run succeeds
        out = tmp_path / "prev.csv"
        out.write_bytes(b"theta,product\n1,2\n")
        path = write(tmp_path, BLOCH_SWEEP)
        assert main(["--out", str(out), "sweep", path]) == 1
        assert main(["--out", str(out), "compute", str(tmp_path / "missing.yaml")]) == 1
        assert out.read_bytes() == b"theta,product\n1,2\n"
        assert capsys.readouterr().out == ""

    def test_out_in_a_missing_directory(self, tmp_path):
        out = tmp_path / "missing" / "result.csv"
        proc = run_cli("--out", str(out), "compute", write(tmp_path, QUBIT_CHAIN))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()


def _nan(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def _blocks():
    """Blocks on both sides of the size and the repeat share at which runs are formatted once."""
    size = skewbounds.cli._RUN_VALUES
    rng = np.random.default_rng(4)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, -123456789012345.0]
    narrow = np.concatenate([special, rng.standard_normal(40) * 10.0 ** rng.integers(-20, 20, 40)])
    # NaNs of either sign and of three payloads, next to each other
    nans = [_nan(0x7FF8000000000000), _nan(0xFFF8000000000000), _nan(0x7FF8000000000001),
            _nan(0x7FF0000000000001), np.nan, -np.nan]
    special = nans + [0.0, -0.0, 0.0, -0.0, -0.0, np.inf, np.inf, -np.inf, 5e-324, 5e-324,
                      -5e-324, 0.0, 1e300, 1e300]
    runs = np.repeat(rng.standard_normal(size // 4), rng.integers(1, 16, size // 4))
    mixed = np.concatenate([special, runs, special])
    scattered = rng.standard_normal(size) * 10.0 ** rng.integers(-20, 20, size)
    blocks = {
        "narrow": narrow.reshape(-1, 6),
        "runs": runs[: 8 * (len(runs) // 8)].reshape(8, -1),
        "specials-and-runs": mixed[: 4 * (len(mixed) // 4)].reshape(-1, 4),
        "one-row": mixed.reshape(1, -1),
        "one-column": mixed.reshape(-1, 1),
        "few-repeats": scattered.reshape(-1, 16),
        "below-the-size": np.repeat(rng.standard_normal(size // 4), 4)[: size - 1].reshape(1, -1),
        "at-the-size": np.concatenate([special, np.repeat(1.5, size - len(special))]).reshape(-1, 2),
        "chain-like": np.repeat(np.repeat(rng.standard_normal((5, 20)), 7, axis=1), 4, axis=0),
    }
    blocks["transposed"] = blocks["runs"].T
    return blocks


def test_row_format_matches_format_12g():
    # every block, whichever way it is formatted, writes what format(v, ".12g")
    # writes per value: 0.0 and -0.0, and NaNs of another sign or payload,
    # are runs of their own
    for name, rows in _blocks().items():
        expected = "".join(",".join(format(v, ".12g") for v in row) + "\n" for row in rows.tolist())
        assert skewbounds.cli._format_rows(rows) == expected, name


class TestParserReuse:
    def test_second_call_matches_a_fresh_process(self, tmp_path, capsys):
        # the parser is built once per process; options of one call must not
        # carry over into the next
        assert build_parser() is build_parser()
        path = write(tmp_path, QUBIT_CHAIN_SUM3)
        options = ["--metric", "sld", "--strategy", "sampled", "--seed", "3", "--samples", "0"]
        options.append("--out")
        first, fresh_first = tmp_path / "first.csv", tmp_path / "fresh_first.csv"
        assert main([*options, str(first), "compute", path]) == 0
        assert main(["compute", path]) == 0
        second = capsys.readouterr().out
        fresh = run_cli("compute", path)
        assert fresh.returncode == 0, fresh.stderr
        assert second == fresh.stdout
        assert run_cli(*options, str(fresh_first), "compute", path).returncode == 0
        assert first.read_text() == fresh_first.read_text()
        assert first.read_text() != second


class TestSweep:
    def test_row_per_grid_point(self, tmp_path, capsys):
        path = write(tmp_path, QUBIT_CHAIN)
        assert main(["sweep", path]) == 0
        header, rows = read_csv(capsys)
        assert len(rows) == 5
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == pytest.approx(3.0)

    def test_single_step_equals_point(self, tmp_path, capsys):
        text = QUBIT_CHAIN.replace("range: [0.0, 3.0], steps: 5", "range: [1.0, 1.0], steps: 1")
        path = write(tmp_path, text)
        assert main(["sweep", path]) == 0
        _, rows = read_csv(capsys)
        assert len(rows) == 1

    def test_sweep_without_sweep_task(self, tmp_path, capsys):
        path = write(tmp_path, QUTRIT_SUM)
        assert main(["--strategy", "sampled", "sweep", path]) == 1


class TestScale:
    def test_example_1_observables_times_100(self, tmp_path, capsys):
        # I_1 and the product agree to rounding at 7.5e6, far beyond 1e-10
        text = importlib.resources.files("skewbounds").joinpath(
            "scenarios", "example1.yaml"
        ).read_text(encoding="utf-8")
        s = parse_scenario_text(text)
        scaled = dataclasses.replace(
            s, observables={k: 100 * v for k, v in s.observables.items()}
        )
        path = write(tmp_path, write_scenario(scaled))
        assert main(["sweep", path]) == 0
        header, rows = read_csv(capsys)
        assert len(rows) == 100

    def test_qutrit_observables_times_1000(self, capsys):
        # I(A) ~ 1e6: the checks' slack is relative to the product
        assert main(["compute", str(DATA / "qutrit_x1000.yaml")]) == 0
        header, rows = read_csv(capsys)
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["I_1"] == pytest.approx(vals["product"], rel=1e-9)
        assert vals["sum"] >= vals["LB_thm3"] * (1 - 1e-9)

    def test_unitary_rotated_observables_times_1e8(self, tmp_path, capsys):
        # U diag U^dagger at 1e8 deviates from Hermitian by more than an
        # absolute 1e-9; the check scales with the entries
        rng = np.random.default_rng(5)
        rho = random_density(rng, 4).matrix
        observables = {}
        for name in "AB":
            U = random_unitary(rng, 4)
            observables[name] = 1e8 * ((U * rng.standard_normal(4)) @ U.conj().T)
        s = Scenario(
            state_kind="density",
            state_spec=tuple(tuple((float(z.real), float(z.imag)) for z in r) for r in rho),
            observables=observables,
            metric_label="wy",
            metric=parse_metric("wy"),
            tasks=(PairTask("chain", "A", "B"), SumTask(("A", "B"))),
        )
        assert main(["compute", write(tmp_path, write_scenario(s))]) == 0
        header, rows = read_csv(capsys)
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["I_1"] == pytest.approx(vals["product"], rel=1e-9)


class TestFactorCases:
    """Chain points where the Cholesky factor of the basis Gram matrix broke I_1 = product."""

    @pytest.mark.parametrize(
        "name",
        ["factor_pure_d5_wyd.yaml", "factor_rank3_d5_sld.yaml", "factor_qubit_sld_near_xy.yaml"],
    )
    def test_chain_head_is_the_product(self, name, capsys):
        assert main(["compute", str(DATA / name)]) == 0
        header, rows = read_csv(capsys)
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["I_1"] == pytest.approx(vals["product"], rel=1e-12)


class TestOneRepresentation:
    """K and the moduli read off one f: near I/d, where all of W is tiny, and
    with observables Hermitian only to within the parser's tolerance."""

    def test_near_mixed_qubit_chain_is_the_product(self, capsys):
        assert main(["compute", str(DATA / "near_mixed_qubit_chain.yaml")]) == 0
        header, rows = read_csv(capsys)
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["product"] == pytest.approx(2.49999999918e-25, rel=1e-11, abs=0)
        for key in header[2:]:
            assert vals[key] == pytest.approx(vals["product"], rel=1e-12, abs=0), key

    def test_near_mixed_sum_bound_is_scale_free(self, capsys):
        # LB_thm3/sum at Bloch vectors of about 1e-7 and 1e-3
        assert main(["sweep", str(DATA / "near_mixed_sum_n3_sld.yaml")]) == 0
        header, rows = read_csv(capsys)
        small, large = (dict(zip(header, map(float, row))) for row in rows)
        assert small["sum"] == pytest.approx(1e-8 * large["sum"], rel=1e-6, abs=0)
        assert large["LB_thm3"] < large["sum"]
        ratio = large["LB_thm3"] / large["sum"]
        assert small["LB_thm3"] / small["sum"] == pytest.approx(ratio, rel=1e-9)

    def test_nearly_hermitian_chain_head_is_the_product(self, capsys):
        assert main(["compute", str(DATA / "nearly_hermitian_qutrit_chain.yaml")]) == 0
        header, rows = read_csv(capsys)
        vals = dict(zip(header, map(float, rows[0])))
        assert vals["I_1"] == pytest.approx(vals["product"], rel=1e-12, abs=0)

    def test_chain_wrong_at_small_scale_exits_2(self, capsys, monkeypatch):
        # an I chain of zeros against a product of 2.5e-25: the check's
        # slack is relative to the product
        table_Spq = skewbounds.bounds.table_Spq
        monkeypatch.setattr(
            skewbounds.bounds, "table_Spq", lambda x, y: np.zeros_like(table_Spq(x, y))
        )
        assert main(["compute", str(DATA / "near_mixed_qubit_chain.yaml")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "invariant violation: I_1 = 0.0 differs from product 2.49999999"
        )


class TestPointWork:
    """What a sweep builds, counted by wrapping the builders: once per block of points."""

    def counting(self, monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def run_sweep(self, tmp_path, capsys, text):
        assert main(["sweep", write(tmp_path, text)]) == 0
        return read_csv(capsys)[1]

    def state_builds(self, monkeypatch):
        """The number of placeholder values of each Scenario.build_state call."""
        sizes = []
        original = Scenario.build_state

        def wrapper(scenario, theta=None):
            sizes.append(int(np.size(theta)))
            return original(scenario, theta)

        monkeypatch.setattr(Scenario, "build_state", wrapper)
        return sizes

    def test_sweep_builds_states_once_per_block(self, tmp_path, capsys, monkeypatch):
        # two qubit points a block: blocks of 2, 2 and 1 of the 5 grid points,
        # and no state at the default theta, which the sweep never evaluates
        monkeypatch.setattr(skewbounds.cli, "_BLOCK_ENTRIES", 2 * 2**4)
        sizes = self.state_builds(monkeypatch)
        path = write(tmp_path, QUBIT_CHAIN)
        assert parse_scenario_text(QUBIT_CHAIN).state is None
        assert sizes == []
        assert main(["sweep", path]) == 0
        assert len(read_csv(capsys)[1]) == 5
        assert sizes == [2, 2, 1]

    def test_chain_and_sum_factor_once_per_block(self, tmp_path, capsys, monkeypatch):
        # the moduli come from the terms K is built from: one weight matrix,
        # one factor call and no Cholesky factor of the basis Gram matrix
        factors = self.counting(monkeypatch, skewbounds.cli, "modulus_vectors")
        cholesky = self.counting(monkeypatch, skewbounds.loo, "cholesky_psd")
        weights = self.counting(monkeypatch, skewbounds.skewinfo, "weight_matrix")
        text = QUBIT_CHAIN.replace(
            "  - chain: {A: A, B: B}\n", "  - chain: {A: A, B: B}\n  - sum: {observables: [A, B]}\n"
        )
        rows = self.run_sweep(tmp_path, capsys, text)
        assert len(rows) == 5  # one block
        assert len(factors) == 1
        assert cholesky == []
        assert len(weights) == 1

    def test_product_task_builds_no_factor(self, tmp_path, capsys, monkeypatch):
        factors = self.counting(monkeypatch, skewbounds.cli, "modulus_vectors")
        weights = self.counting(monkeypatch, skewbounds.skewinfo, "weight_matrix")
        text = QUBIT_CHAIN.replace("  - chain: {A: A, B: B}", "  - product: {A: A, B: B}")
        rows = self.run_sweep(tmp_path, capsys, text)
        assert len(rows) == 5
        assert factors == []
        assert len(weights) == 1

    def test_pair_sum_builds_no_factor(self, tmp_path, capsys, monkeypatch):
        # the bound of a pair's sum is its trace of K, the sum itself
        factors = self.counting(monkeypatch, skewbounds.cli, "modulus_vectors")
        weights = self.counting(monkeypatch, skewbounds.skewinfo, "weight_matrix")
        text = QUBIT_CHAIN.replace("  - chain: {A: A, B: B}", "  - sum: {observables: [A, B]}")
        rows = self.run_sweep(tmp_path, capsys, text)
        assert len(rows) == 5
        assert all(row[2] == row[1] for row in rows)
        assert factors == []
        assert len(weights) == 1

    def kernel_shapes(self, monkeypatch):
        """The (points, tuples) of each call of the sum-bound value kernel."""
        shapes = []
        original = skewbounds.bounds._tuple_values

        def wrapper(P):
            shapes.append((P.shape[0], P.shape[2]))
            return original(P)

        monkeypatch.setattr(skewbounds.bounds, "_tuple_values", wrapper)
        return shapes

    @pytest.mark.parametrize("argv", [[], ["--strategy", "sampled", "--samples", "30"]])
    def test_sum_search_once_per_block(self, tmp_path, capsys, monkeypatch, argv):
        # the five points share their zero pattern: one pass over all of them
        shapes = self.kernel_shapes(monkeypatch)
        assert main([*argv, "sweep", write(tmp_path, QUBIT_CHAIN_SUM3)]) == 0
        assert len(read_csv(capsys)[1]) == 5
        assert [points for points, _ in shapes] == [5]

    def test_reproduce_3_searches_distinct_tuples(self, capsys, monkeypatch):
        # each modulus vector has two exact zeros, so 4!/2! = 12 distinct
        # arrangements of each of the two permuted vectors: 144 tuples a
        # point, not 24**2 = 576
        shapes = self.kernel_shapes(monkeypatch)
        assert main(["reproduce", "3"]) == 0
        assert len(read_csv(capsys)[1]) == 100
        assert sum(points for points, _ in shapes) == 100
        assert sum(points * tuples for points, tuples in shapes) <= 144 * 100

    def test_qutrit_exhaustive_sweep_refused(self, tmp_path, capsys):
        text = QUTRIT_SUM.replace(
            "pure: [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]",
            'pure: [["cos(theta)", 0.0], ["sin(theta)", 0.0], [0.0, 0.0]]',
        ) + "  - sweep: {param: theta, range: [0.0, 1.0], steps: 4}\n"
        assert main(["sweep", write(tmp_path, text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "refused: exhaustive tuple search over 131681894400 candidates exceeds "
            "cap 1000000; use the sampled strategy\n"
        )


    @pytest.mark.parametrize(
        "builder, state, argv, sweep",
        [
            ("from_bloch", None, ["compute"], True),
            ("from_bloch", None, ["compute"], False),
            ("from_bloch", None, ["--metric", "sld", "compute"], True),
            ("from_pure", 'pure: [["cos(theta)", 0.0], [0.0, "sin(theta)"]]', ["compute"], True),
            (
                "from_matrix",
                'density: [[["cos(theta)**2", 0.0], 0.0], [0.0, ["sin(theta)**2", 0.0]]]',
                ["compute"],
                True,
            ),
            (
                "from_matrix",
                'density: [[["cos(theta)**2", 0.0], 0.0], [0.0, ["sin(theta)**2", 0.0]]]',
                ["compute"],
                False,
            ),
            ("from_pure", None, ["reproduce", "2"], False),
        ],
        ids=["bloch", "bloch-sweep-free", "bloch-metric-override", "pure", "density",
             "density-sweep-free", "reproduce-2"],
    )
    def test_compute_builds_the_state_once(
        self, tmp_path, capsys, monkeypatch, builder, state, argv, sweep
    ):
        # a sweep-free file at parse, a file with a sweep task when compute
        # evaluates its default point
        builds = self.counting(monkeypatch, DensityMatrix, builder)
        sizes = self.state_builds(monkeypatch)
        text = QUBIT_CHAIN_SUM3
        if state is not None:
            text = text.replace('bloch: ["0.8*cos(theta)", "0.8*sin(theta)", 0.0]', state)
        if not sweep:
            text = text.replace("  - sweep: {param: theta, range: [0.0, 3.0], steps: 5}\n", "")
        if argv[-1] == "compute":
            assert ("sweep:" in text) == sweep
            argv = [*argv, write(tmp_path, text)]
        assert main(argv) == 0
        assert len(builds) == 1
        assert sizes == [1]


def mixture_scenario(d, seed, tasks):
    """rho(theta) = cos^2(theta) rho_1 + sin^2(theta) rho_2 of two seeded full-rank states."""
    rng = np.random.default_rng(seed)
    r1, r2 = (random_density(rng, d).matrix for _ in range(2))

    def entry(a, b):
        return f"({a!r})*cos(theta)**2 + ({b!r})*sin(theta)**2"

    spec = tuple(
        tuple(
            (entry(float(r1[i, j].real), float(r2[i, j].real)),
             entry(float(r1[i, j].imag), float(r2[i, j].imag)))
            for j in range(d)
        )
        for i in range(d)
    )
    observables = {name: random_hermitian(rng, d) for name in "ABC"}
    return Scenario("density", spec, observables, "wy", parse_metric("wy"), None, tasks)


class TestBlocks:
    def test_block_boundary(self, tmp_path, capsys, monkeypatch):
        # one block and one point: two blocks, each row as a one-point compute gives it
        d = 8
        steps = skewbounds.cli._BLOCK_ENTRIES // d**4 + 1
        sweep = SweepTask("theta", 0.0, 1.5, steps)
        s = mixture_scenario(d, 3, (PairTask("chain", "A", "B"), sweep))
        calls = []
        original = skewbounds.cli.modulus_vectors
        monkeypatch.setattr(
            skewbounds.cli,
            "modulus_vectors",
            lambda rho, rotated, W: calls.append(len(rotated)) or original(rho, rotated, W),
        )
        assert main(["sweep", write(tmp_path, write_scenario(s))]) == 0
        header, rows = read_csv(capsys)
        assert calls == [steps - 1, 1]
        assert len(rows) == steps
        for theta, row in zip(np.linspace(0.0, 1.5, steps), rows):
            point = dataclasses.replace(s, theta=float(theta))
            assert main(["compute", write(tmp_path, write_scenario(point), "point.yaml")]) == 0
            point_header, (point_row,) = read_csv(capsys)
            assert point_header == header
            got, want = np.array(row, dtype=float), np.array(point_row, dtype=float)
            tol = 1e-10 * max(1.0, abs(want[header.index("product")]))
            assert np.all(np.abs(got - want) <= tol)


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        # the reason once repeated the path, as in "[Errno 2] ...: '<path>'"
        for path, reason in [
            ("/nonexistent/file.yaml", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ]:
            assert main(["compute", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: cannot read {path}: {reason}\n"

    def test_undecodable_file(self, tmp_path, capsys):
        # once an uncaught UnicodeDecodeError traceback
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"metric: wy\n\xff\xfe bad\n")
        assert main(["compute", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {path}: "
            "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte\n"
        )

    def test_validation_error(self, tmp_path, capsys):
        bad = QUBIT_CHAIN.replace('"0.8*cos(theta)"', "1.8")
        path = write(tmp_path, bad)
        assert main(["compute", path]) == 1

    def test_observable_dimension_mismatch(self, tmp_path, capsys):
        qutrit_b = """  B:
    - [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]
    - [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
tasks:"""
        text = QUBIT_CHAIN.replace(
            """  B:
    - [[1.0, 0.0], [0.0, -1.0]]
    - [[0.0, 1.0], [-1.0, 0.0]]
tasks:""",
            qutrit_b,
        )
        for task in ("product", "chain"):
            path = write(tmp_path, text.replace("chain: {A: A, B: B}", f"{task}: {{A: A, B: B}}"))
            assert main(["compute", path]) == 1
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("depth", [600, 100_000])
    def test_deep_nesting(self, tmp_path, depth):
        # in a fresh interpreter: loaded without the nesting check, depth 600
        # ends in a RecursionError and depth 100000 crashes libyaml's loader
        path = write(tmp_path, "state: " + "[" * depth + "]" * depth + "\n")
        proc = run_cli("compute", path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("text", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_section(self, tmp_path, capsys, text):
        assert main(["compute", write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("case", BAD_TAGGED.values(), ids=list(BAD_TAGGED))
    def test_bad_tagged_scalar(self, tmp_path, capsys, case):
        line, message = case
        assert main(["compute", write(tmp_path, line + BLOCH + SIGMA_X)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / 'scenario.yaml'}: {message}\n"

    @pytest.mark.parametrize("steps", [10**17, 10**19])
    def test_oversized_sweep(self, tmp_path, capsys, steps):
        # 10**17 float64 values (711 PiB) exceed any address space, so the
        # allocation fails at once; 10**19 exceeds numpy's largest size
        text = QUBIT_CHAIN.replace("steps: 5", f"steps: {steps}")
        assert main(["sweep", write(tmp_path, text)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"refused: sweep of {steps} steps: ")

    def test_complexity_refusal(self, tmp_path, capsys):
        path = write(tmp_path, QUTRIT_SUM)
        assert main(["--strategy", "exhaustive", "compute", path]) == 3

    def test_negative_sample_count(self, tmp_path, capsys):
        path = write(tmp_path, QUTRIT_SUM)
        assert main(["--strategy", "sampled", "--samples", "-1", "compute", path]) == 1

    def test_negative_seed(self, tmp_path, capsys):
        # once numpy's "expected non-negative integer" traceback
        path = write(tmp_path, QUBIT_CHAIN_SUM3)
        assert main(["--strategy", "sampled", "--seed", "-1", "compute", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed -1 is negative\n"

    @pytest.mark.parametrize("samples", [10**15, 10**30])
    def test_oversized_sample(self, tmp_path, capsys, samples):
        # once uncaught: numpy cannot allocate 10**15 candidate rows (85 PiB),
        # and 10**30 exceeds its largest dimension
        path = write(tmp_path, QUBIT_CHAIN_SUM3)
        argv = ["--strategy", "sampled", "--samples", str(samples), "compute", path]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"refused: sampled tuple search over {samples + 2} candidates exceeds "
            "cap 1000000\n"
        )

    @pytest.mark.parametrize(
        "sweep",
        [
            "range: [0.0, 3.0], steps: 0",
            "range: [0.0, 3.0], steps: -3",
            "param: phi, range: [0.0, 3.0], steps: 5",
            "range: [0.0, 3.0], steps: 2.7",
            "range: [0.0, 3.0], steps: true",
            'range: [0.0, 3.0], steps: "5"',
            "range: [.nan, 3.0], steps: 5",
            "range: [0.0, .inf], steps: 5",
        ],
    )
    def test_bad_sweep(self, tmp_path, capsys, sweep):
        text = QUBIT_CHAIN.replace("param: theta, range: [0.0, 3.0], steps: 5", sweep)
        path = write(tmp_path, text)
        assert main(["sweep", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, old, new",
        [
            (["compute"], "bloch: [0.5, 0.0, 0.0]", "bloch: [BIG, 0.0, 0.0]"),
            (["compute"], "bloch: [0.5, 0.0, 0.0]", 'bloch: ["BIG*theta", 0.0, 0.0]'),
            (["compute"], "bloch: [0.5, 0.0, 0.0]", "pure: [BIG, 0.0]"),
            (["compute"], "A: [[0.0, 1.0]", "A: [[BIG, 1.0]"),
            (["compute"], "A: [[0.0, 1.0]", "A: [[[0.0, BIG], 1.0]"),
            (["compute"], "state:", "theta: BIG\nstate:"),
            (["sweep"], "tasks: []", "tasks:\n  - sweep: {range: [BIG, 1.0], steps: 3}"),
        ],
        ids=["state", "state-expression", "pure", "observable", "observable-pair",
             "theta", "sweep-range"],
    )
    def test_integer_beyond_float_range(self, tmp_path, capsys, argv, old, new):
        # once an uncaught OverflowError: int too large to convert to float
        text = (BLOCH + SIGMA_X + "tasks: []\n").replace(old, new.replace("BIG", "1" + "0" * 400))
        assert main([*argv, write(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "int too large to convert to float" in captured.err

    def test_non_finite_theta(self, tmp_path, capsys):
        # a theta-free state: once exit 2 ("non-finite value in column
        # theta") with a task, and exit 0 with a CSV of nan without one
        text = "theta: .nan\n" + BLOCH + SIGMA_X
        for tasks in ("tasks:\n  - product: {A: A, B: A}\n", "tasks: []\n"):
            assert main(["compute", write(tmp_path, text + tasks)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "theta nan is not finite" in captured.err


BLOCH_SWEEP = """
state:
  bloch: ["1.2*sin(theta)", 0.0, 0.0]
observables:
  A: [[0.0, 1.0], [1.0, 0.0]]
  B: [[1.0, 0.0], [0.0, -1.0]]
tasks:
  - product: {A: A, B: B}
  - sweep: {param: theta, range: [0.0, 1.5], steps: 20}
"""


class TestSweepErrors:
    """A failing sweep reports its first failing row, as a row-by-row evaluation would."""

    def test_first_state_outside_the_ball(self, tmp_path, capsys):
        # rows 13 on leave the Bloch ball; row 13 has |r| = 1.2 sin(1.5 * 13/19)
        assert main(["sweep", write(tmp_path, BLOCH_SWEEP)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: Bloch vector norm 1.026476 exceeds 1\n"

    def test_expression_fails_mid_grid(self, tmp_path, capsys):
        # on [0, 3] in 5 steps, x fails from row 4 (theta = 3) and y from
        # row 3 (theta = 2.25): the error is y's, the entry that fails first
        text = BLOCH_SWEEP.replace(
            '["1.2*sin(theta)", 0.0, 0.0]',
            '["0.1*sqrt(2.5 - theta)", "0.1*sqrt(1.5 - theta)", 0.0]',
        ).replace("range: [0.0, 1.5], steps: 20", "range: [0.0, 3.0], steps: 5")
        assert main(["sweep", write(tmp_path, text)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: bad expression '0.1*sqrt(1.5 - theta)': math domain error\n"
        )

    def test_invalid_only_at_the_default_theta(self, tmp_path, capsys):
        # the state is valid on the grid [0.5, 1.5] and not at the default
        # theta 0, which a sweep never evaluates; compute evaluates it
        text = BLOCH_SWEEP.replace(
            '["1.2*sin(theta)", 0.0, 0.0]', '[0.0, "0.9*sqrt(theta - 0.5)", 0.0]'
        ).replace("range: [0.0, 1.5], steps: 20", "range: [0.5, 1.5], steps: 20")
        path = write(tmp_path, text)
        assert main(["sweep", path]) == 0
        header, rows = read_csv(capsys)
        scenario = parse_scenario_text(text)
        grid = np.linspace(0.5, 1.5, 20)
        want = skewbounds.cli._compute_rows(
            scenario, grid, SearchStrategy(), scenario.build_state(grid)
        )
        assert header == list(want[0])
        assert [",".join(row) for row in rows] == skewbounds.cli._format_rows(want[1]).splitlines()
        assert main(["compute", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bad expression '0.9*sqrt(theta - 0.5)': math domain error\n"

    def test_earlier_violation_before_later_bad_state(self, tmp_path, capsys):
        # entries of 1e200 make K overflow from row 1 on (row 0 is the
        # maximally mixed state, where K = 0); the bad states of rows 13 on
        # must not hide that
        text = BLOCH_SWEEP.replace(
            "A: [[0.0, 1.0], [1.0, 0.0]]", "A: [[0.0, 1.0e+200], [1.0e+200, 0.0]]"
        )
        assert main(["sweep", write(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "invariant violation: row 1 (theta=0.0789474): non-finite value in column product\n"
        )

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ((1, 0), 100.0, "I_1 = 100.0 differs from product {product!r}"),
            ((3, 2), 100.0, "I chain increases at k = 3"),
            ((3, 1), 100.0, "S chain increases at (3, 1)"),
            ((4, 3), -1.0, "I_4 outside [cauchy, product]"),
            # while both chains descend, an S entry between two I entries
            # can leave [cauchy, product] alone only as a NaN
            ((3, 1), np.nan, "S_(3, 1) outside [cauchy, product]"),
        ],
    )
    def test_chain_violation(self, tmp_path, capsys, monkeypatch, key, value, message):
        # one S entry of row 2 replaced, the I chain following it; the
        # points before row 2 are evaluated again as a stack of two
        table_Spq = skewbounds.bounds.table_Spq

        def moved(x, y):
            S = table_Spq(x, y)
            if len(S) == 5:
                S[2, skewbounds.bounds.spq_order(4).index(key)] = value
            return S

        monkeypatch.setattr(skewbounds.bounds, "table_Spq", moved)
        assert main(["sweep", write(tmp_path, QUBIT_CHAIN)]) == 2
        captured = capsys.readouterr()
        scenario = parse_scenario_text(QUBIT_CHAIN)
        rho = scenario.build_state(np.linspace(0.0, 3.0, 5))
        observables = [scenario.observables[name] for name in ("A", "B")]
        K = skewbounds.skewinfo.correlation_matrix(rho, observables, scenario.metric)
        product = float(skewbounds.bounds.product_and_cauchy(K)[0][2])
        assert captured.out == ""
        assert captured.err == (
            f"invariant violation: row 2 (theta=1.5): {message.format(product=product)}\n"
        )

    def test_overflow_reported_without_numpy_warnings(self, tmp_path):
        # K and the sum search overflow at entries of 1e200; the only
        # stderr line is the pipeline's own report, in a fresh interpreter
        # where numpy's RuntimeWarnings would otherwise print
        text = """
metric: "wy"
state:
  bloch: ["0.5*cos(theta)", "0.5*sin(theta)", 0.0]
observables:
  A: [[0.0, 1.0e+200], [1.0e+200, 0.0]]
  B: [[1.0e+200, 0.0], [0.0, -1.0e+200]]
  C: [[0.0, 1.0], [1.0, 0.0]]
tasks:
  - sum: {observables: [A, B, C]}
  - sweep: {param: theta, range: [0.1, 1.0], steps: 3}
"""
        proc = run_cli("sweep", write(tmp_path, text))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "invariant violation: row 0 (theta=0.1): non-finite value in column sum\n"
        )


class TestReproduce:
    def test_metric_does_not_apply(self, capsys):
        # each worked example fixes its metric, so an override is refused
        assert main(["--metric", "sld", "reproduce", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: --metric does not apply to reproduce: each worked example fixes its metric\n"
        )

    def test_example_2_report(self, capsys):
        assert main(["reproduce", "2"]) == 0
        captured = capsys.readouterr()
        assert "product = 1.875" in captured.err
        assert "cauchy = 0.250" in captured.err
        assert "MISMATCH" not in captured.err  # endpoints must match

    def test_example_1_grid_structure(self, capsys):
        assert main(["reproduce", "1"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 101
        first = dict(zip(header, map(float, lines[1].split(","))))
        assert first["I_1"] == pytest.approx(first["I_2"], abs=1e-9)
        assert first["I_3"] == pytest.approx(first["I_4"], abs=1e-9)

    def test_example_3_dominance(self, capsys):
        assert main(["reproduce", "3"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        for ln in lines[1:]:
            row = dict(zip(header, map(float, ln.split(","))))
            assert row["LB_thm3"] >= row["LB_norm"] - 1e-9
            assert row["sum"] >= row["LB_thm3"] - 1e-9
