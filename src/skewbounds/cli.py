"""Command-line front end: point evaluation, parameter sweeps, reproductions.

CSV goes to stdout (or --out); human-readable report text goes to stderr.
Exit codes: 0 success, 1 parse/validation error, 2 invariant violation,
3 complexity refusal.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib.resources
import io
import sys

import numpy as np

from .bounds import (
    SearchStrategy,
    check_cauchy,
    check_product_chain,
    product_and_cauchy,
    product_chain,
    spq_order,
    sum_bound_report,
)
from .errors import (
    ComplexityRefusal,
    InvariantViolation,
    ParseError,
    SkewboundsError,
    ValidationError,
    raise_first,
)
from .linalg import DensityMatrix
from .loo import modulus_vectors
from .metrics import parse_metric
from .scenario import (
    Scenario,
    SumTask,
    SweepTask,
    parse_scenario,
    parse_scenario_text,
)
from .skewinfo import eigenbasis_terms

# Values printed in the qutrit worked example, keyed by chain label.  The
# endpoints are gauge-free; the intermediates depend on the factorization
# gauge and are reported as match/mismatch only.
_EXAMPLE2_ENDPOINTS = {"product": 1.875, "cauchy": 0.250}
_EXAMPLE2_INTERMEDIATES = {
    "I_7": 1.844,
    "S_8_6": 1.344,
    "I_8": 0.625,
    "S_9_6": 0.610,
    "S_9_7": 0.610,
}


# Points evaluated together in one block of a sweep.  A block of T points at
# dimension d holds fewer than T d^4 entries of stacked columns of F, and
# this caps that count, so a sweep's working arrays do not grow with its steps.
_BLOCK_ENTRIES = 1 << 16

# Values in a block from which _format_rows looks for runs of repeated
# values to format once.  Chain sweeps hold nearly all their values in
# blocks this wide; in smaller ones the search's fixed cost outweighs
# what their repeats save.
_RUN_VALUES = 512


@functools.lru_cache(maxsize=256)
def _plan(tasks: tuple, n: int) -> tuple[tuple[str, ...], tuple[str, ...], tuple]:
    """What evaluating the non-sweep tasks at one point takes: (names, header, steps).

    names lists the observables the tasks name, once each; header is the CSV
    header, theta first; steps holds, per task, (task, the positions of its
    observables in names, its columns in the header).  n is the length of a
    modulus vector.  A later task that writes a column an earlier one wrote
    overwrites it in place.
    """
    tasks = [t for t in tasks if not isinstance(t, SweepTask)]
    names = tuple(dict.fromkeys(name for t in tasks for name in t.names))
    columns = {"theta": 0}
    steps = []
    for task in tasks:
        if isinstance(task, SumTask):
            keys = ("sum", "LB_thm3", "LB_norm")
        elif task.kind == "product":
            keys = ("product", "cauchy")
        else:
            keys = (
                ("product", "cauchy")
                + tuple(f"I_{k}" for k in range(1, n + 1))
                + tuple(f"S_{p}_{q}" for p, q in spq_order(n)[1:])
            )
        idx = [names.index(name) for name in task.names]
        cols = np.array([columns.setdefault(key, len(columns)) for key in keys])
        cols.setflags(write=False)
        steps.append((task, idx, cols))
    return names, tuple(columns), tuple(steps)


def _compute_rows(
    scenario: Scenario, thetas: np.ndarray, strategy: SearchStrategy, rho: DensityMatrix
) -> tuple[tuple[str, ...], np.ndarray]:
    """Evaluate all non-sweep tasks at each placeholder value: (header, (T, ncols) rows).

    rho is the stack of states at the placeholder values.  The observables
    the tasks name are rotated into the eigenbasis and weighted once, as one
    real vector f each; one stacked correlation matrix K = f f^T covers them
    all, and the modulus vectors are read off the same f only for chain
    tasks and sums of three or more observables, which are the ones that
    need them: the bound of a pair's sum is its trace of K.  Each stage
    raises the error of the first point that fails it, with ``row`` set.
    """
    n = scenario.dim**2
    names, header, steps = _plan(scenario.tasks, n)
    m = scenario.metric
    rows = np.empty((len(thetas), len(header)))
    rows[:, 0] = thetas
    if names:
        observables = [scenario.observables[name] for name in names]
        f, W = eigenbasis_terms(rho, observables, m)
        K = f @ f.swapaxes(-1, -2)
        if any(len(idx) > 2 if isinstance(task, SumTask) else task.kind == "chain"
               for task, idx, _ in steps):
            moduli = modulus_vectors(rho, f, W)
    for task, idx, cols in steps:
        K_task = K[:, idx][:, :, idx]
        if isinstance(task, SumTask):
            # a pair's report reads only the shape of its moduli
            X = moduli[:, idx] if len(idx) > 2 else np.broadcast_to(np.nan, (len(thetas), 2, n))
            # no bound exceeds the sum (see sum_bound_report): nothing to check
            report = sum_bound_report(K_task, X, strategy=strategy)
            rows[:, cols[0]] = report.sum_value
            rows[:, cols[1]] = report.parallelogram
            rows[:, cols[2]] = report.norm_bound
            continue
        a, b = (np.linalg.norm(observables[i]) for i in idx)
        size = (a * b) ** 2  # the checks' rounding scale
        if task.kind == "product":
            product, cauchy = product_and_cauchy(K_task)
            check_cauchy(product, cauchy, size=size)
            rows[:, cols[0]] = product
            rows[:, cols[1]] = cauchy
        else:
            pc = product_chain(K_task, *moduli[:, idx].swapaxes(0, 1))
            check_product_chain(pc, size=size)
            rows[:, cols[0]] = pc.product
            rows[:, cols[1]] = pc.cauchy
            rows[:, cols[2 : 2 + n]] = pc.I_seq
            rows[:, cols[2 + n :]] = pc.S_table[:, 1:]
    bad = ~np.isfinite(rows)
    raise_first(
        [(bad, lambda t: InvariantViolation(
            f"non-finite value in column {header[int(bad[t].argmax())]}"))]
    )
    return header, rows


def _evaluate(
    scenario: Scenario,
    thetas: np.ndarray,
    strategy: SearchStrategy,
    rho: DensityMatrix | None = None,
) -> tuple[tuple[str, ...], np.ndarray]:
    """(header, (T, ncols) rows) of a block of points, or the error of its first failing row.

    rho is the stack of states at the placeholder values, built here when
    not given.  A stage reports the first point that fails it, but an
    earlier point may fail only at a later stage.  So when a point other
    than the first fails, the points before it are evaluated again on their
    own: an error there takes precedence, and otherwise the first error
    stands.
    """
    try:
        if rho is None:
            rho = scenario.build_state(thetas)
        return _compute_rows(scenario, thetas, strategy, rho)
    except SkewboundsError as exc:
        if exc.row:
            _evaluate(scenario, thetas[: exc.row], strategy)
        raise


def _format_rows(rows: np.ndarray) -> str:
    """CSV lines of the rows, each value as format(v, ".12g") writes it.

    A block of at least _RUN_VALUES values in which at least a quarter of
    the values repeat the one before them, read row by row, formats each run
    of equal 64-bit patterns once and expands the texts back by index: a
    chain row's S table repeats a value along every zero modulus position.
    Bits, not floats, are compared, since 0.0 == -0.0 prints two texts and
    nan != nan.  Other blocks take one "%" format per row.
    """
    if rows.size >= _RUN_VALUES:
        flat = rows.ravel()
        bits = flat.view(np.int64)
        starts = np.concatenate(([True], bits[1:] != bits[:-1]))
        if 4 * np.count_nonzero(starts) <= 3 * flat.size:
            values = flat[starts].tolist()
            texts = np.array(("%.12g," * len(values) % tuple(values)).split(","), dtype=object)
            table = texts[np.cumsum(starts) - 1].reshape(rows.shape).tolist()
            return "".join(",".join(row) + "\n" for row in table)
    line = ",".join(["%.12g"] * rows.shape[1]) + "\n"
    return "".join(line % tuple(row) for row in rows.tolist())


def _write_csv(header: tuple[str, ...], chunks, out) -> None:
    """The header line, then the formatted rows of each block in turn."""
    out.write(",".join(header) + "\n")
    out.writelines(chunks)


def run_compute(scenario: Scenario, strategy: SearchStrategy, out):
    """Write the CSV of the one point at the default placeholder value; return (header, row).

    The state is the one parsing validated there, when the scenario has it.
    """
    theta = scenario.theta if scenario.theta is not None else 0.0
    header, rows = _evaluate(scenario, np.array([theta]), strategy, scenario.state)
    _write_csv(header, [_format_rows(rows)], out)
    return header, rows[0]


def run_sweep(scenario: Scenario, strategy: SearchStrategy, out) -> None:
    """Evaluate the sweep grid block by block; write the CSV once every block succeeds."""
    sweeps = [t for t in scenario.tasks if isinstance(t, SweepTask)]
    if not sweeps:
        raise ValidationError("scenario has no sweep task")
    sweep = sweeps[0]
    if not scenario.uses_theta():
        raise ValidationError(
            f"sweep parameter {sweep.param!r} does not appear in the state spec"
        )
    try:
        grid = np.linspace(sweep.lo, sweep.hi, sweep.steps)
    except (MemoryError, ValueError) as exc:
        # numpy cannot allocate the grid, or refuses its size outright
        raise ComplexityRefusal(f"sweep of {sweep.steps} steps: {exc}") from exc
    block = max(1, _BLOCK_ENTRIES // scenario.dim**4)
    chunks = []
    for start in range(0, len(grid), block):
        try:
            header, rows = _evaluate(scenario, grid[start : start + block], strategy)
        except InvariantViolation as exc:
            i = start + (exc.row or 0)
            raise InvariantViolation(f"row {i} (theta={grid[i]:.6g}): {exc}") from exc
        chunks.append(_format_rows(rows))
    _write_csv(header, chunks, out)


def _load_example(n: int) -> Scenario:
    ref = importlib.resources.files("skewbounds").joinpath(
        "scenarios", f"example{n}.yaml"
    )
    return parse_scenario_text(ref.read_text(encoding="utf-8"), source=ref.name)


def run_reproduce(example_id: int, strategy: SearchStrategy, out, err) -> None:
    scenario = _load_example(example_id)
    if example_id in (1, 3):
        err.write(f"reproducing worked example {example_id}: theta sweep\n")
        run_sweep(scenario, strategy, out)
        return
    # example 2: single-point qutrit report at the file's theta, pi/4
    header, row = run_compute(scenario, strategy, out)
    row = dict(zip(header, row.tolist()))
    err.write("built-in example 2 (qutrit, theta = pi/4):\n")
    for label, ref in _EXAMPLE2_ENDPOINTS.items():
        got = row[label]
        status = "match" if abs(got - ref) <= 1e-3 else "MISMATCH"
        err.write(f"  {label} = {got:.3f} (printed {ref}): {status}\n")
    err.write("  intermediate chain values (gauge-dependent):\n")
    for label, ref in _EXAMPLE2_INTERMEDIATES.items():
        got = row[label]
        status = "match" if abs(got - ref) <= 1e-3 else "mismatch"
        err.write(f"  {label} = {got:.3f} (printed {ref}): {status}\n")


# Built once per process: parse_args reads the parser and does not change it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbounds",
        description="Skew-information uncertainty bounds for small quantum systems",
    )
    parser.add_argument("--out", default=None, help="CSV output path (default stdout)")
    parser.add_argument(
        "--strategy",
        choices=["exhaustive", "sampled"],
        default="exhaustive",
        help="permutation search strategy",
    )
    parser.add_argument("--seed", type=int, default=0, help="sampled-strategy seed")
    parser.add_argument(
        "--samples", type=int, default=200, help="sampled-strategy candidate count"
    )
    parser.add_argument("--metric", default=None, help="override the scenario metric")
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("compute", help="evaluate all tasks at a single point")
    p.add_argument("scenario")
    p = sub.add_parser("sweep", help="evaluate tasks over the sweep grid")
    p.add_argument("scenario")
    p = sub.add_parser("reproduce", help="reproduce a worked example")
    p.add_argument("example", type=int, choices=[1, 2, 3])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # with --out, the CSV is held here and the file opened only once the run
    # succeeds, so a failing run leaves an existing file as it was
    out = sys.stdout if args.out is None else io.StringIO()
    err = sys.stderr
    # numpy's floating-point warnings stay off stderr: overflow and invalid
    # operations end in non-finite values, which the pipeline reports itself
    with np.errstate(all="ignore"):
        try:
            strategy = SearchStrategy(
                kind=args.strategy, n_samples=args.samples, seed=args.seed
            )
            if args.command == "reproduce":
                if args.metric is not None:
                    raise ValidationError(
                        "--metric does not apply to reproduce: each worked example fixes its metric"
                    )
                run_reproduce(args.example, strategy, out, err)
            else:
                scenario = parse_scenario(args.scenario)
                if args.metric is not None:
                    scenario = dataclasses.replace(
                        scenario,
                        metric_label=args.metric,
                        metric=parse_metric(args.metric),
                    )
                if args.command == "compute":
                    run_compute(scenario, strategy, out)
                else:
                    run_sweep(scenario, strategy, out)
        except (ParseError, ValidationError) as exc:
            err.write(f"error: {exc}\n")
            return 1
        except InvariantViolation as exc:
            err.write(f"invariant violation: {exc}\n")
            return 2
        except ComplexityRefusal as exc:
            err.write(f"refused: {exc}\n")
            return 3
        except SkewboundsError as exc:
            err.write(f"error: {exc}\n")
            return 1
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(out.getvalue())
        except OSError as exc:
            err.write(f"error: cannot write {args.out}: {exc.strerror or exc}\n")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
