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
import math
import sys

import numpy as np

from .bounds import (
    SearchStrategy,
    check_cauchy,
    check_product_chain,
    check_sum_report,
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
)
from .loo import expand, gram_matrix, loo_basis, modulus_vector
from .metrics import parse_metric
from .scenario import (
    Scenario,
    SumTask,
    SweepTask,
    parse_scenario,
    parse_scenario_text,
)
from .skewinfo import correlation_matrix

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


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _point_row(scenario: Scenario, theta: float, strategy: SearchStrategy) -> dict:
    """Evaluate all non-sweep tasks at one placeholder value.

    One correlation matrix K covers every observable the tasks name; the
    Gram factor and the modulus vectors are built only for chain and sum
    tasks, which are the ones that need them.
    """
    rho = scenario.build_state(theta)
    m = scenario.metric
    tasks = [t for t in scenario.tasks if not isinstance(t, SweepTask)]
    names = list(dict.fromkeys(name for t in tasks for name in t.names))
    index = {name: i for i, name in enumerate(names)}
    row: dict[str, float] = {"theta": theta}
    if not names:
        return row
    observables = [scenario.observables[name] for name in names]
    K = correlation_matrix(rho, observables, m)
    if any(isinstance(t, SumTask) or t.kind == "chain" for t in tasks):
        basis = loo_basis(rho.dim)
        moduli = modulus_vector(
            gram_matrix(rho, basis, m), expand(observables, basis)
        )
    for task in tasks:
        idx = [index[name] for name in task.names]
        K_task = K[np.ix_(idx, idx)]
        if isinstance(task, SumTask):
            report = sum_bound_report(K_task, moduli[idx], strategy=strategy)
            check_sum_report(report)
            row["sum"] = report.sum_value
            row["LB_thm3"] = report.parallelogram
            row["LB_norm"] = report.norm_bound
        elif task.kind == "product":
            product, cauchy = product_and_cauchy(K_task)
            check_cauchy(product, cauchy)
            row["product"] = product
            row["cauchy"] = cauchy
        else:
            pc = product_chain(K_task, moduli[idx[0]], moduli[idx[1]])
            check_product_chain(pc)
            row["product"] = pc.product
            row["cauchy"] = pc.cauchy
            for k, val in enumerate(pc.I_seq, start=1):
                row[f"I_{k}"] = val
            for p, q in spq_order(len(pc.I_seq))[1:]:
                row[f"S_{p}_{q}"] = pc.S_table[(p, q)]
    for key, val in row.items():
        if not math.isfinite(val):
            raise InvariantViolation(f"non-finite value in column {key}")
    return row


def _emit_csv(rows: list[dict], out) -> None:
    if not rows:
        return
    header = list(rows[0].keys())
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(row[k]) for k in header) + "\n")


def run_compute(scenario: Scenario, strategy: SearchStrategy, out) -> None:
    theta = scenario.theta if scenario.theta is not None else 0.0
    _emit_csv([_point_row(scenario, theta, strategy)], out)


def run_sweep(scenario: Scenario, strategy: SearchStrategy, out) -> None:
    sweeps = [t for t in scenario.tasks if isinstance(t, SweepTask)]
    if not sweeps:
        raise ValidationError("scenario has no sweep task")
    sweep = sweeps[0]
    if not scenario.uses_theta():
        raise ValidationError(
            f"sweep parameter {sweep.param!r} does not appear in the state spec"
        )
    grid = np.linspace(sweep.lo, sweep.hi, sweep.steps)
    rows = []
    for i, theta in enumerate(grid):
        try:
            rows.append(_point_row(scenario, float(theta), strategy))
        except InvariantViolation as exc:
            raise InvariantViolation(f"row {i} (theta={theta:.6g}): {exc}") from exc
    _emit_csv(rows, out)


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
    # example 2: single-point qutrit report at theta = pi/4
    row = _point_row(scenario, math.pi / 4, strategy)
    _emit_csv([row], out)
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
    out = sys.stdout
    err = sys.stderr
    try:
        strategy = SearchStrategy(kind=args.strategy, n_samples=args.samples, seed=args.seed)
        if args.out is not None:
            out = open(args.out, "w", encoding="utf-8")
        try:
            if args.command == "reproduce":
                scenario = None
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
        finally:
            if out is not sys.stdout:
                out.close()
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
