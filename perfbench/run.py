"""skewbounds benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload chain_sweep --seed 1 --seconds 30 --trace 0

Runs the program from the checkout's ``src`` directory in this process
(``skewbounds.cli.main([...])`` calls and ``best_permuted_product_bound``
calls), checks every successful output against ``oracle.py``, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``)
as the last line of standard output.  See README.md for the workloads and
the meaning of each metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in the set-up children: the program's matrices
# are at most 64 x 64, and more threads only add CPU time and run-to-run
# noise.  Set before numpy loads.
os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")})

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
MIN_OPS = 40  # successful operations a round needs for its tail percentile

SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import skewbounds, skewbounds.cli
skewbounds.cli.build_parser()
sys.stdout.write(skewbounds.__file__ + "\\n")
sys.stdout.flush()
"""


def fail(msg: str) -> None:
    sys.stderr.write(f"benchmark error: {msg}\n")
    sys.exit(2)


def load_program():
    if not (SRC / "skewbounds" / "__init__.py").is_file():
        fail(f"no skewbounds sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import skewbounds
    import skewbounds.cli

    if Path(skewbounds.__file__).resolve().parent != (SRC / "skewbounds").resolve():
        fail(f"imported skewbounds from {skewbounds.__file__}, not from {SRC}")
    return skewbounds


def measure_setup() -> float:
    """Median wall time from a fresh interpreter until skewbounds is imported and ready."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                                stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or Path(line.decode().strip()).resolve().parent != (SRC / "skewbounds").resolve():
            fail("set-up child did not import skewbounds from the checkout")
        if i > 0:  # the first start also writes the byte-code caches
            times.append(t1 - t0)
    return statistics.median(times)


class Runner:
    """Executes operations, times them, and checks their outputs."""

    def __init__(self, sb, ops, tracer):
        import oracle

        self.sb = sb
        self.cli = sys.modules["skewbounds.cli"]
        self.ops = ops
        self.oracle = oracle
        self.expected: dict[int, object] = {}
        self.tracer = tracer
        self.errors: list[str] = []
        self.failures: dict[str, str] = {}
        self.next_id = 0

    def execute(self, op):
        """Run one op; returns (ok, output)."""
        if op.kind == "bppb":
            try:
                return True, self.sb.best_permuted_product_bound(op.x, op.y)
            except Exception as exc:  # a failed operation is counted, not fatal
                return False, f"{type(exc).__name__}: {exc}"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # an uncaught error is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        return code == 0, out.getvalue() if code == 0 else f"exit {code}: {err.getvalue().strip()}"

    def check(self, index: int, op, output) -> list[str]:
        o = self.oracle
        if op.kind == "bppb":
            return o.check_bppb(op.x, op.y, output)
        if index not in self.expected:
            self.expected[index] = o.ScenarioOracle(op.scenario)
        errs = self.expected[index].check_csv(output)
        if op.label == "reproduce2":
            errs += o.check_example2(output)
        return errs

    def round(self, traced: bool) -> list[tuple]:
        """All ops once; returns (op index, op id, ok, wall s, cpu s, CSV bytes) per op."""
        records = []
        if traced:
            self.tracer.install()
        try:
            for index, op in enumerate(self.ops):
                op_id = self.next_id
                self.next_id += 1
                self.tracer.current_op = op_id
                c0 = time.process_time()
                t0 = time.perf_counter()
                ok, output = self.execute(op)
                t1 = time.perf_counter()
                c1 = time.process_time()
                records.append((index, op_id, ok, t1 - t0, c1 - c0, output))
        finally:
            if traced:
                self.tracer.uninstall()
        kept = []
        for index, op_id, ok, wall, cpu, output in records:
            op = self.ops[index]
            if ok:
                errs = self.check(index, op, output)
                if errs:
                    self.errors.append(f"{op.label}: {errs[0]}")
            elif op.label not in self.failures:
                self.failures[op.label] = str(output)[:200]
            csv_bytes = len(output.encode()) if ok and op.kind != "bppb" else 0
            kept.append((index, op_id, ok, wall, cpu, csv_bytes))
        return kept


def summarize(records, ops) -> dict:
    """Totals over the successful operations, each at its typical time.

    Every round runs the same operations on the same inputs, so the median
    of one operation's times over the rounds is its typical time; it drops
    the contention bursts of a shared machine, which can slow a whole round.
    """
    runs: dict[int, list[tuple[float, float]]] = {}
    for index, _, ok, wall, cpu, _ in records:
        if ok:
            runs.setdefault(index, []).append((wall, cpu))
    wall = {k: statistics.median(w for w, _ in v) for k, v in runs.items()}
    cpu = {k: statistics.median(c for _, c in v) for k, v in runs.items()}
    return {"points": sum(ops[k].points for k in runs), "wall": sum(wall.values()),
            "cpu": sum(cpu.values()), "op_ms": sorted(1000.0 * w for w in wall.values()),
            "attempted": len(records),
            "failed": len(records) - sum(len(v) for v in runs.values())}


def tail(op_ms: list[float]) -> float:
    """Highest percentile of a round's operations with at least ten operations beyond it."""
    if len(op_ms) < MIN_OPS:
        fail(f"only {len(op_ms)} successful operations a round; the tail needs {MIN_OPS}")
    return op_ms[len(op_ms) - 11]


def end_to_end(s: dict, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "points_per_s": (s["points"] / s["wall"], "1/s"),
        "cpu_ms_per_point": (1000.0 * s["cpu"] / s["points"], "ms"),
        "op_ms_p50": (statistics.median(s["op_ms"]), "ms"),
        "op_ms_tail": (tail(s["op_ms"]), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(st, traced_records, untraced_records, ops) -> dict:
    good = [r for r in traced_records if r[2]]
    points = sum(ops[r[0]].points for r in good)
    cli_good = [r for r in good if ops[r[0]].kind != "bppb"]
    cli_points = sum(ops[r[0]].points for r in cli_good)
    n_ops, n_cli = len(good), len(cli_good)
    traced, untraced = summarize(traced_records, ops), summarize(untraced_records, ops)

    def per(x, n):
        return x / n if n else 0.0

    m: dict[str, tuple[float, str]] = {}

    def put(name, unit, label, value):
        if label is None or st.present(label):
            m[name] = (value, unit)

    put("scenario.parse.ms_per_op", "ms", "scenario.parse_scenario_text",
        per(st.outer_ms(["scenario.parse_scenario", "scenario.parse_scenario_text"]), n_ops))
    put("scenario.build_state.ms_per_point", "ms", "scenario.build_state",
        per(st.ms("scenario.build_state"), points))
    put("scenario.eval_scalar.calls_per_point", "count", "scenario.eval_scalar",
        per(st.count("scenario.eval_scalar"), points))
    put("linalg.from_matrix.ms_per_point", "ms", "linalg.from_matrix",
        per(st.ms("linalg.from_matrix"), points))
    put("metrics.weight_matrix.calls_per_point", "count", "metrics.weight_matrix",
        per(st.count("metrics.weight_matrix"), points))
    put("skewinfo.correlation.calls_per_point", "count", "skewinfo.correlation",
        per(st.count("skewinfo.correlation"), points))
    put("skewinfo.correlation.ms_per_point", "ms", "skewinfo.correlation",
        per(st.outer_ms(["skewinfo.correlation"]), points))
    for name in ("loo_basis", "gram_matrix", "cholesky_psd"):
        put(f"loo.{name}.ms_per_point", "ms", f"loo.{name}", per(st.ms(f"loo.{name}"), points))
    for name in ("expand", "modulus_vector"):
        put(f"loo.{name}.calls_per_point", "count", f"loo.{name}",
            per(st.count(f"loo.{name}"), points))
    put("bounds.product_chain.ms_per_point", "ms", "bounds.product_chain",
        per(st.ms("bounds.product_chain", self_only=True), points))
    for name in ("chain_Ik", "table_Spq", "check_product_chain", "sum_bound_parallelogram",
                 "sum_bound_norm", "check_sum_report"):
        put(f"bounds.{name}.ms_per_point", "ms", f"bounds.{name}",
            per(st.ms(f"bounds.{name}"), points))
    label = "bounds.sum_bound_parallelogram"
    put(f"{label}.candidates_per_point", "count", label, per(st.sum_candidates(label), points))
    put(f"{label}.candidates_per_ms", "1/ms", label, per(st.sum_candidates(label), st.ms(label)))
    label = "bounds.best_permuted_product_bound"
    calls = st.count(label)
    put(f"{label}.ms_per_call", "ms", label, per(st.ms(label), calls))
    put(f"{label}.candidates_per_call", "count", label, per(st.sum_candidates(label), calls))
    put("cli.main.self_ms_per_op", "ms", "cli.main", per(st.ms("cli.main", self_only=True), n_cli))
    csv_bytes = sum(r[5] for r in cli_good)
    put("cli.csv_bytes_per_point", "B", None, per(csv_bytes, cli_points))
    put("trace.overhead_ms_per_point", "ms", None,
        per(1000.0 * (traced["wall"] - untraced["wall"]), traced["points"]))
    return m


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    sb = load_program()
    import spans

    setup_s = None if args.trace else measure_setup()
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = spans.Tracer()
        runner = Runner(sb, ops, tracer)
        # warm-up outside the timed rounds: lazy imports and first-call paths
        runner.execute(workloads.gen.reproduce_op(2))
        runner.execute(next((op for op in ops if op.kind == "bppb"), ops[0]))

        untraced, traced = [], []
        start = time.perf_counter()
        rounds = 0
        while True:
            untraced += runner.round(traced=False)
            if args.trace:
                traced += runner.round(traced=True)
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop after the whole round at which the run ends closest to --seconds
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    counted = traced if args.trace else untraced
    summary = summarize(counted, ops)
    if summary["points"] == 0:
        fail("no operation succeeded")
    if args.trace:
        good_ops = {r[1] for r in traced if r[2]}
        tracer.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
        metrics = per_layer(spans.SpanStats(tracer, good_ops), traced, untraced, ops)
    else:
        metrics = end_to_end(summary, setup_s)

    for label, msg in runner.failures.items():
        sys.stderr.write(f"failed: {label}: {msg}\n")
    for msg in runner.errors[:20]:
        sys.stderr.write(f"INCORRECT {msg}\n")
    kind = "traced round(s), each after an untraced one" if args.trace else "round(s)"
    print(f"workload {args.workload} seed {args.seed}: {rounds} {kind}, "
          f"{summary['attempted']} operations attempted, {summary['failed']} failed, "
          f"{summary['points']} points per round")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:14.6g} {unit}")
    result = {
        "correct": not runner.errors,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
