"""The three workloads as fixed lists of operation shapes.

Grid lengths were set so that, at the commit that introduced the benchmark,
every timed operation of a workload costs about the same (about 80 ms on
chain_sweep, 85 ms on perm_search, 8-20 ms on compute_batch); the two
deliberately large perm_search operations sit above the tail.  They stay
fixed so that a faster program is measured on the same work.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import gen
from gen import Op

# The numbers inside every scenario file come from FIXED_SEED, not from
# --seed.  On rank-deficient Gram matrices loo.cholesky_psd keeps rounding
# noise as pivots or drops rows with nonzero off-diagonals, and on about one
# seed in a hundred the program then fails its own I_1 = product or
# sum >= LB_thm3 check on a valid input, full-rank or not; with fixed inputs
# each operation has the same outcome in every run.  --seed orders the
# operations of the round and draws the sampled-search seeds and the
# best_permuted_product_bound vectors, none of which goes through that factor.
FIXED_SEED = 20220401

# (d, state, metric, task, steps); each shape runs CHAIN_COPIES times a round
CHAIN_SHAPES = [
    (2, "bloch", "wy", "chain", 71),
    (2, "bloch_pure", "wyd", "chain", 66),
    (2, "bloch", "sld", "product", 69),
    (2, "pure", "wyd", "product", 63),
    (2, "density", "sld", "chain", 65),
    (3, "pure", "wy", "chain", 34),
    (3, "density", "sld", "chain", 32),
    (3, "density_lowrank", "wyd", "product", 38),
    (4, "density", "wy", "chain", 18),
    (4, "pure", "wyd", "product", 28),
    (4, "density_lowrank", "wy", "chain", 18),
    (5, "pure", "wyd", "chain", 15),
    (5, "density", "sld", "product", 14),
    (5, "density_lowrank", "wy", "chain", 12),
    (6, "density", "wy", "chain", 7),
    (6, "density", "sld", "product", 8),
    (6, "pure", "wyd", "chain", 10),
    (7, "density_lowrank", "wyd", "chain", 4),
    (7, "density", "sld", "chain", 5),
    (7, "pure", "wy", "product", 8),
    (8, "density", "wy", "chain", 2),
    (8, "density", "sld", "product", 3),
    (8, "pure", "wyd", "chain", 3),
    (8, "density_lowrank", "wyd", "product", 3),
]
CHAIN_COPIES = 2

# (d, state, metric, n_sum, steps, sampled)
PERM_SHAPES = (
    [(2, st, m, 2, 47, False) for st, m in [
        ("bloch", "wy"), ("bloch_pure", "wyd"), ("density", "sld"), ("pure", "wy"),
        ("bloch", "wyd"), ("density", "wy"), ("bloch_pure", "wy"), ("bloch", "sld"),
        ("pure", "wyd"), ("density", "wyd")]]
    + [(2, st, m, 3, 2, False) for st, m in [
        ("bloch", "wyd"), ("density", "sld"), ("pure", "wy"), ("bloch_pure", "wyd"),
        ("bloch", "wy"), ("density", "wy"), ("bloch", "sld"), ("pure", "wyd"),
        ("density", "wyd"), ("bloch_pure", "wy")]]
    + [(3, st, m, 3, 4, True) for st, m in [
        ("density", "wy"), ("pure", "wyd"), ("density_lowrank", "wy"), ("density", "sld"),
        ("pure", "wy"), ("density_lowrank", "wyd"), ("density", "wyd"), ("density", "sld"),
        ("pure", "wyd"), ("density_lowrank", "wy")]]
    + [(4, st, m, 2, 7, True) for st, m in [
        ("density", "sld"), ("pure", "wy"), ("density_lowrank", "wyd"), ("density", "wy"),
        ("pure", "wyd"), ("density_lowrank", "wy"), ("density", "wyd"), ("density", "sld"),
        ("pure", "wy"), ("density_lowrank", "wyd")]]
)
PRODUCT_CALLS_N4 = 16
PRODUCT_CALLS_N9 = 4

# compute_batch: (d, state, task) shapes, each instantiated COMPUTE_COPIES times
COMPUTE_SHAPES = (
    [(2, st, task) for st in ("bloch", "bloch_pure", "pure", "density")
     for task in ("product", "chain", "sum2", "chain+sum2")]
    + [(d, st, task) for d in (3, 4) for st in ("pure", "density", "density_lowrank")
       for task in ("product", "chain")]
)
COMPUTE_COPIES = 4
FULL_RANK = ("bloch", "density")


def _task_kwargs(task: str) -> dict:
    kw: dict = {}
    for part in task.split("+"):
        if part.startswith("sum"):
            kw["n_sum"] = int(part[3:])
        else:
            kw["pair"] = part
    return kw


def _finish(seed: int, workdir: Path, ops: list[Op]) -> list[Op]:
    """Order the round by --seed and write the scenario files."""
    order = np.random.default_rng([seed, 0]).permutation(len(ops))
    ops = [ops[i] for i in order]
    for i, op in enumerate(ops):
        if op.scenario is not None and op.kind != "reproduce":
            gen.write_op(workdir, i, op)
    return ops


def _scaled_sweeps() -> list[Op]:
    """Sweeps with observables scaled x100; they fail today (fixed absolute tolerance)."""
    ops = []
    for kind in ("chain", "product"):
        s = gen.scaled_example1(100.0)
        s.pair = (kind, "A", "B")
        ops.append(Op(label=f"example1-x100-{kind}", kind="sweep", scenario=s))
    rng = np.random.default_rng(FIXED_SEED)
    s = gen.make_scenario(rng, 3, "density", "wy", pair="chain", steps=20, obs_scale=100.0)
    ops.append(Op(label="qutrit-x100-chain", kind="sweep", scenario=s))
    return ops


def chain_sweep(seed: int, workdir: Path) -> list[Op]:
    fixed = np.random.default_rng([FIXED_SEED, 1])
    ops = [gen.reproduce_op(1)]
    for _ in range(CHAIN_COPIES):
        for d, state, metric, task, steps in CHAIN_SHAPES:
            s = gen.make_scenario(fixed, d, state, metric, steps=steps, **_task_kwargs(task))
            ops.append(Op(label=f"d{d}-{state}-{metric}-{task}", kind="sweep", scenario=s))
    ops += _scaled_sweeps()
    return _finish(seed, workdir, ops)


def perm_search(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    fixed = np.random.default_rng([FIXED_SEED, 2])
    ops = [gen.reproduce_op(3)]
    s = gen.make_scenario(fixed, 3, "density", "wy", n_sum=2)
    ops.append(Op(label="qutrit-sum2-exhaustive", kind="compute", scenario=s))
    for d, state, metric, n_sum, steps, sampled in PERM_SHAPES:
        s = gen.make_scenario(fixed, d, state, metric, n_sum=n_sum, steps=steps)
        argv = ["--strategy", "sampled", "--seed", str(int(rng.integers(1 << 30)))] if sampled else []
        label = f"d{d}-{state}-{metric}-sum{n_sum}-{'sampled' if sampled else 'exhaustive'}"
        ops.append(Op(label=label, kind="sweep", argv=argv, scenario=s))
    for _ in range(PRODUCT_CALLS_N4):
        ops.append(Op(label="bppb-n4", kind="bppb", x=gen.nonneg_vector(rng, 4),
                      y=gen.nonneg_vector(rng, 4)))
    for _ in range(PRODUCT_CALLS_N9):
        # refused today: 9!^2 pairs exceed the enumeration cap
        ops.append(Op(label="bppb-n9", kind="bppb", x=gen.nonneg_vector(fixed, 9),
                      y=gen.nonneg_vector(fixed, 9)))
    return _finish(seed, workdir, ops)


def compute_batch(seed: int, workdir: Path) -> list[Op]:
    fixed = np.random.default_rng([FIXED_SEED, 3])
    ops = [gen.reproduce_op(2)]
    for copy in range(COMPUTE_COPIES):
        for i, (d, state, task) in enumerate(COMPUTE_SHAPES):
            allowed = ("wy", "wyd", "sld") if state in FULL_RANK else ("wy", "wyd")
            metric = allowed[(i + copy) % len(allowed)]
            s = gen.make_scenario(fixed, d, state, metric, **_task_kwargs(task))
            ops.append(Op(label=f"d{d}-{state}-{metric}-{task}", kind="compute", scenario=s))
    return _finish(seed, workdir, ops)


WORKLOADS = {
    "chain_sweep": chain_sweep,
    "perm_search": perm_search,
    "compute_batch": compute_batch,
}
