"""Self-test of the benchmark's output checks; runs in a few seconds.

    python3 perfbench/selftest.py

1. On a few small inputs the oracles agree with the program.
2. Each check rejects a deliberately perturbed value: a product off by 1e-6
   relative, a chain that increases, an LB_thm3 1e-4 above the sum, and a
   permuted product bound above the exact optimum.
3. The exact O(n^4) product optimum equals brute-force enumeration.

Exits 1 and names the failing case when any of these does not hold.
"""

from __future__ import annotations

import itertools
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

import numpy as np

import gen
import oracle
import spans
from gen import Op

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def small_ops(workdir: Path) -> list[Op]:
    rng = np.random.default_rng(7)
    shapes = [
        (2, "bloch", "wyd", {"pair": "chain"}),
        (2, "bloch_pure", "wy", {"pair": "chain", "n_sum": 2}),
        (3, "density", "sld", {"pair": "chain"}),
        (3, "pure", "wyd", {"pair": "product"}),
        (2, "density", "wy", {"n_sum": 3}),
    ]
    ops = [gen.reproduce_op(2)]
    for i, (d, state, metric, kw) in enumerate(shapes):
        s = gen.make_scenario(rng, d, state, metric, steps=3 if i % 2 else None, **kw)
        ops.append(gen.write_op(workdir, i, Op(label=f"small{i}", kind="sweep" if i % 2 else "compute",
                                              scenario=s)))
    s = gen.make_scenario(rng, 3, "density_lowrank", "wy", n_sum=3, steps=2)
    ops.append(gen.write_op(workdir, 99, Op(label="sampled", kind="sweep", scenario=s,
                                           argv=["--strategy", "sampled", "--seed", "5"])))
    for _ in range(3):
        ops.append(Op(label="bppb-n4", kind="bppb", x=gen.nonneg_vector(rng, 4),
                      y=gen.nonneg_vector(rng, 4)))
    return ops


def test_agreement(runner: run.Runner, ops: list[Op]) -> None:
    for i, op in enumerate(ops):
        ok, out = runner.execute(op)
        expect(ok, f"{op.label} runs")
        if ok:
            errs = runner.check(i, op, out)
            expect(not errs, f"{op.label}: oracle agrees with the program {errs[:1]}")


def test_perturbations(ops: list[Op]) -> None:
    # a qutrit chain point, checked by value so the perturbations are exact
    s = next(op.scenario for op in ops if op.label == "small2")
    r = gen.rho(s, float(s.thetas()[0]))
    exp = oracle.pair_expected(r, s.observables["A"], s.observables["B"], s.metric)
    n = s.dim ** 2
    row = {"product": exp["product"], "cauchy": exp["cauchy"]}
    # a consistent chain: I_1 = product, then straight down to cauchy
    I = np.linspace(exp["product"], max(exp["cauchy"], 0.9 * exp["product"]), n)
    for k in range(n):
        row[f"I_{k + 1}"] = float(I[k])
    prev = I[0]
    for p, q in oracle.spq_keys(n):
        # between I_{p-1} and I_p, descending, equal to I_p at q = p - 1
        v = I[p - 1] + (I[p - 2] - I[p - 1]) * (p - 1 - q) / (p - 1)
        row[f"S_{p}_{q}"] = float(min(v, prev))
        prev = row[f"S_{p}_{q}"]
    expect(not oracle.check_pair(row, exp, n), "a consistent chain row passes")
    bad = dict(row, product=row["product"] * (1 + 1e-6))
    expect(bool(oracle.check_pair(bad, exp, None)), "product off by 1e-6 relative is rejected")
    bad = dict(row, **{"I_3": row["I_2"] + 1e-6 * row["product"]})
    expect(bool(oracle.check_pair(bad, exp, n)), "an increasing I chain is rejected")
    bad = dict(row, **{"S_3_1": row["S_2_1"] + 1e-6 * row["product"]})
    expect(bool(oracle.check_pair(bad, exp, n)), "an increasing S table is rejected")
    bad = dict(row, cauchy=row["cauchy"] * (1 + 1e-6) + 1e-9 * row["product"])
    expect(bool(oracle.check_pair(bad, exp, None)), "cauchy off by 1e-6 relative is rejected")

    s = next(op.scenario for op in ops if op.label == "small4")
    r = gen.rho(s, float(s.thetas()[0]))
    exp = oracle.sum_expected(r, [s.observables[k] for k in s.sum_names], s.metric)
    good = {"sum": exp["sum"], "LB_norm": exp["LB_norm"], "LB_thm3": exp["thm3_floor"]}
    expect(not oracle.check_sum(good, exp), "a consistent sum row passes")
    # LB_thm3 comes from the Gram factor, held to FACTOR_RTOL of sum |A_i|^2
    bad = dict(good, LB_thm3=exp["sum"] * (1 + 1e-4))
    expect(bool(oracle.check_sum(bad, exp)), "LB_thm3 1e-4 above sum is rejected")
    bad = dict(good, LB_norm=exp["LB_norm"] * (1 - 1e-6))
    expect(bool(oracle.check_sum(bad, exp)), "LB_norm off its definition is rejected")
    bad = dict(good, sum=exp["sum"] * (1 + 1e-6))
    expect(bool(oracle.check_sum(bad, exp)), "sum off by 1e-6 relative is rejected")


def test_product_optimum() -> None:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        x, y = gen.nonneg_vector(rng, 4), gen.nonneg_vector(rng, 4)
        brute = max(oracle.head_value(x, y, pa, pb)
                    for pa in itertools.permutations(range(4))
                    for pb in itertools.permutations(range(4)))
        worst = max(worst, abs(brute - oracle.exact_product_optimum(x, y)))
    expect(worst < 1e-12, f"exact O(n^4) optimum equals enumeration (max diff {worst:.1e})")
    x, y = gen.nonneg_vector(rng, 4), gen.nonneg_vector(rng, 4)
    opt = oracle.exact_product_optimum(x, y)
    ident = (0, 1, 2, 3)
    fake = (opt * (1 + 1e-6), (ident, ident), (2,))
    expect(bool(oracle.check_bppb(x, y, fake)), "a product bound above the optimum is rejected")


def test_candidate_counts() -> None:
    from skewbounds import SearchStrategy

    moduli = [np.zeros(4)] * 3
    expect(spans.sum_candidates((moduli,), {}) == 576.0, "exhaustive N = 3, n = 4: 576 tuples")
    expect(spans.sum_candidates((moduli, SearchStrategy("sampled")), {}) == 202.0,
           "sampled sum search: 202 candidates")
    expect(spans.product_candidates((np.zeros(4), np.zeros(4)), {}) == 576.0,
           "exhaustive product search, n = 4: 576 pairs")


def main() -> int:
    sb = run.load_program()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        ops = small_ops(Path(tmp))
        runner = run.Runner(sb, ops, spans.Tracer())
        test_agreement(runner, ops)
    test_perturbations(ops)
    test_product_optimum()
    test_candidate_counts()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
