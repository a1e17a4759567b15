"""Compare the CLI output of two source trees on every operation of the benchmark.

    python tools/diff_outputs.py PARENT_TREE TREE [--seeds 11 12]

For each seed, the operations of the three workloads (chain_sweep,
perm_search, compute_batch) are built once with PARENT_TREE's
``perfbench/workloads.py``, their scenario files written to a temporary
directory, and every CLI operation (the library calls of perm_search are
left out) is run in one subprocess per tree, in-process through
``skewbounds.cli.main`` from that tree's ``src``.  For each operation the
report says whether the exit code, stderr and stdout are the same; where
stdout differs, it gives the largest relative difference per CSV column,
|new - old| / max(|old|, tiny).  The last line counts the operations that
differ.  Exit code 0 when every operation matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("chain_sweep", "perm_search", "compute_batch")


def worker(tree: Path, ops_file: Path) -> None:
    """Run each argv of ops_file through tree's cli.main; one JSON line per operation."""
    sys.path.insert(0, str(tree / "src"))
    from skewbounds.cli import main

    for argv in json.loads(ops_file.read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        print(json.dumps({"code": code, "out": out.getvalue(), "err": err.getvalue()}))


def build_ops(tree: Path, seed: int, workdir: Path) -> list[tuple[str, list[str]]]:
    """(label, argv) of every CLI operation of the three workloads at seed."""
    sys.path.insert(0, str(tree / "perfbench"))
    import workloads

    ops = []
    for name in WORKLOADS:
        sub = workdir / name
        sub.mkdir()
        for i, op in enumerate(workloads.WORKLOADS[name](seed, sub)):
            if op.kind != "bppb":
                ops.append((f"{name}[{i}] {op.label}", list(op.argv)))
    return ops


def run_tree(tree: Path, argvs: list[list[str]], ops_file: Path) -> list[dict]:
    ops_file.write_text(json.dumps(argvs), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", str(tree), str(ops_file)],
        capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in proc.stdout.splitlines()]


def column_diffs(old: str, new: str) -> dict[str, float] | str:
    """Largest relative difference per CSV column, or why the two cannot be compared."""
    a, b = old.splitlines(), new.splitlines()
    if len(a) != len(b) or not a or a[0] != b[0]:
        return "different header or row count"
    header = a[0].split(",")
    worst: dict[str, float] = {}
    for ra, rb in zip(a[1:], b[1:]):
        for name, x, y in zip(header, ra.split(","), rb.split(",")):
            if x != y:
                x, y = float(x), float(y)
                rel = abs(y - x) / max(abs(x), 1e-300)
                worst[name] = max(worst.get(name, 0.0), rel)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("tree", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[11, 12])
    args = ap.parse_args(argv)
    parent, tree = args.parent.resolve(), args.tree.resolve()
    total = differ = 0
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            ops = build_ops(parent, seed, Path(tmp))
            argvs = [argv for _, argv in ops]
            old = run_tree(parent, argvs, Path(tmp) / "ops.json")
            new = run_tree(tree, argvs, Path(tmp) / "ops.json")
        for (label, _), a, b in zip(ops, old, new):
            total += 1
            same = [a["code"] == b["code"], a["err"] == b["err"], a["out"] == b["out"]]
            if all(same):
                continue
            differ += 1
            print(f"seed {seed} {label}: exit {a['code']} -> {b['code']}, "
                  f"stderr {'same' if same[1] else 'differs'}, "
                  f"stdout {'same' if same[2] else 'differs'}")
            if not same[2]:
                diffs = column_diffs(a["out"], b["out"])
                if isinstance(diffs, str):
                    print(f"    {diffs}")
                else:
                    for name, rel in sorted(diffs.items(), key=lambda kv: -kv[1]):
                        print(f"    {name}: {rel:.3g}")
    print(f"{differ} of {total} operations differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--worker":
        worker(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        sys.exit(main())
