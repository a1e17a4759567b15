"""Alternating benchmark runs of two source trees, summarized pair by pair.

    python tools/bench_pairs.py PARENT_TREE TREE --out BENCH_name.json \\
        [--workloads compute_batch ...] [--pairs 10] [--claim compute_batch:op_ms_p50]

One batch runs the given number of pairs.  Pair i runs one seed on each
workload, once per tree, one run at a time: ``python3 perfbench/run.py
--workload W --seed S --seconds R --trace 0`` in that tree, so each side
measures its own ``src``, with R the ``run_seconds`` of TREE's
BENCHMARK.json.  The parent runs first in odd pairs and second in even ones.
Seeds continue from the largest seed already in the record (from 1 in a new
one), so no seed is run twice.

The record at --out is a list of batches; a new batch is appended to it and
the batches already there are kept, so every run made stays in the record.
The file is rewritten after every pair, so an interrupted batch keeps what
it ran.  For each workload and each end-to-end metric of BENCHMARK.json a
batch holds both sides' values in pair order, their medians, the parent's
inclusive quartiles, the pairs the change wins, ``worse_by`` (the change's
relative loss against the parent median, negative for a gain) against the
metric's bound, and a verdict (see ``verdict``).  A claimed metric is met
when the change wins at least nine tenths of the pairs and the medians
differ, in its favour, by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("chain_sweep", "perm_search", "compute_batch")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON result of one benchmark run in tree."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def verdict(parent: list[float], change: list[float], better: str, worse_by: float,
            parent_iqr: float, bound: float) -> str:
    """'better_in_every_run' when every change run reads better than every
    parent run; otherwise 'unresolved' when the parent's interquartile range
    over its median exceeds the bound, since such a spread cannot tell a
    loss of the bound's size; otherwise 'within_bound' or 'worse_than_bound'
    by worse_by against the bound."""
    if better == "lower" and max(change) < min(parent):
        return "better_in_every_run"
    if better == "higher" and min(change) > max(parent):
        return "better_in_every_run"
    if parent_iqr > bound * abs(statistics.median(parent)):
        return "unresolved"
    return "within_bound" if worse_by <= bound else "worse_than_bound"


def summarize_metric(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q2, q3 = quartiles(parent) if len(parent) > 1 else (p_med,) * 3
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": [q1, q2, q3],
        "parent_iqr": q3 - q1,
        "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
        "worse_by": round(worse_by, 4),
        "bound": bound,
        "verdict": verdict(parent, change, better, worse_by, q3 - q1, bound),
    }


def claim_verdict(m: dict, better: str) -> dict:
    pairs = len(m["parent"])
    gain = (m["parent_median"] - m["change_median"]) * (1.0 if better == "lower" else -1.0)
    wins_needed = math.ceil(0.9 * pairs)
    return {
        "pairs": pairs,
        "change_wins": m["change_wins"],
        "wins_needed": wins_needed,
        "parent_median": m["parent_median"],
        "change_median": m["change_median"],
        "change_vs_parent": (m["change_median"] - m["parent_median"]) / m["parent_median"],
        "parent_iqr": m["parent_iqr"],
        "met": m["change_wins"] >= wins_needed and gain > m["parent_iqr"],
    }


def summarize(runs: dict, metrics: dict) -> dict:
    summary = {}
    for w, sides in runs.items():
        n = len(sides["change"])
        parent_runs, change_runs = sides["parent"][:n], sides["change"][:n]
        summary[w] = {
            "pairs": n,
            "seeds": [r["seed"] for r in change_runs],
            "failed": {s: [r["failed"] for r in rs]
                       for s, rs in (("parent", parent_runs), ("change", change_runs))},
            "correct": all(r["correct"] for r in parent_runs + change_runs),
            "metrics": {
                name: summarize_metric(
                    [r["metrics"][name]["value"] for r in parent_runs],
                    [r["metrics"][name]["value"] for r in change_runs],
                    m["better"], m["bound"],
                )
                for name, m in metrics.items()
            },
        }
    return summary


def load_batches(out: Path) -> list[dict]:
    """The batches already recorded at out; refuses a file of another shape."""
    if not out.exists():
        return []
    record = json.loads(out.read_text(encoding="utf-8"))
    if not isinstance(record, dict) or not isinstance(record.get("batches"), list):
        raise SystemExit(f"{out} is not a record of batches; not overwriting it")
    return record["batches"]


def last_seed(batches: list[dict]) -> int:
    return max((r["seed"] for b in batches for sides in b.get("runs", {}).values()
                for rs in sides.values() for r in rs), default=0)


def machine() -> dict:
    import numpy
    import yaml

    return {"cpus": os.cpu_count(), "os": platform.system(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "pyyaml": yaml.__version__}


def git_head(tree: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("tree", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)
    parent, tree = args.parent.resolve(), args.tree.resolve()
    spec = json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    claims = [tuple(c.split(":", 1)) for c in args.claim]
    batches = load_batches(args.out)
    seed0 = last_seed(batches)

    runs = {w: {"parent": [], "change": []} for w in args.workloads}
    batch = {
        "parent_commit": git_head(parent),
        "change_commit": git_head(tree),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{seconds:g} --trace 0, in each tree, one run at a time",
        "order": f"pair i (1-{args.pairs}) runs seed {seed0} + i on the workloads in "
                 f"the order {', '.join(args.workloads)}; the parent runs first in odd "
                 "pairs and second in even ones",
        "quartiles": "statistics.quantiles(n=4, method='inclusive') over the parent's runs",
        "worse_by": "(change median - parent median) / parent median for a lower-is-better "
                    "metric, the reverse for a higher-is-better one; bound is BENCHMARK.json's",
        "verdict": " ".join(verdict.__doc__.split()),
        "claim_rule": "met when the change wins at least 9 of 10 pairs (the same share of "
                      "more) and the medians differ in its favour by more than the parent's "
                      "interquartile range",
        "machine": machine(),
    }
    batches.append(batch)
    for i in range(1, args.pairs + 1):
        seed = seed0 + i
        for w in args.workloads:
            sides = [("parent", parent), ("change", tree)]
            for side, path in sides if i % 2 else sides[::-1]:
                t0 = time.perf_counter()
                result = run_once(path, w, seed, seconds)
                result["seed"], result["wall_s"] = seed, round(time.perf_counter() - t0, 2)
                runs[w][side].append(result)
                print(f"pair {i} {w} {side}: op_ms_p50 "
                      f"{result['metrics']['op_ms_p50']['value']:.4f}", flush=True)
        batch["summary"] = summarize(runs, metrics)
        batch["claims"] = {
            f"{w}:{name}": claim_verdict(batch["summary"][w]["metrics"][name],
                                         metrics[name]["better"])
            for w, name in claims if w in runs
        }
        batch["runs"] = runs
        args.out.write_text(json.dumps({"batches": batches}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
