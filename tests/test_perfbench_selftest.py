"""The benchmark's self-test and short runs, with the suite.

``perfbench/selftest.py`` drives the package through the same entry points
as the benchmark and checks its output checks against the package, so a
change to the package's API that breaks the benchmark fails here.  Short
runs of ``perfbench/run.py`` check that each workload ends in a result line
with every metric ``BENCHMARK.json`` declares.
"""

import importlib
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def traced_targets():
    """The (module, qualified name) pairs perfbench/spans.py wraps in a traced run."""
    path = ROOT / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_perfbench_selftest():
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout


@pytest.mark.parametrize("module, qualname", traced_targets())
def test_traced_function_exists(module, qualname):
    # spans.py skips a name it cannot find, so a traced run of a program that
    # lost one prints a result line short of the metrics BENCHMARK.json
    # declares; a traced function is retired only with the benchmark's spans
    owner = importlib.import_module(f"skewbounds.{module}")
    *classes, name = qualname.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # spans.py wraps a method where its class defines it
    assert vars(owner).get(name) is not None, f"skewbounds.{module}.{qualname}"


def _not_strict_json(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    """src/ and perfbench/ copied out, so that runs write their spans beside the copy."""
    root = tmp_path_factory.mktemp("bench")
    for name in ("src", "perfbench"):
        shutil.copytree(
            ROOT / name, root / name, ignore=shutil.ignore_patterns("out", "__pycache__")
        )
    return root


@pytest.mark.parametrize(
    "workload, trace",
    [("chain_sweep", 1), ("perm_search", 1), ("compute_batch", 1), ("compute_batch", 0)],
)
def test_short_benchmark_run(bench_copy, workload, trace):
    # a run can exit 0 with a result line short of the declared metrics,
    # as when a traced function is gone
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=bench_copy,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_not_strict_json)
    assert result["failed"] == 0
    assert result["correct"] is True
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
