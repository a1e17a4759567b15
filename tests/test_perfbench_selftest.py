"""The benchmark's self-test, run with the suite.

``perfbench/selftest.py`` drives the package through the same entry points
as the benchmark and checks its output checks against the package, so a
change to the package's API that breaks the benchmark fails here.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
