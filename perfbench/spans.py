"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each listed function with a wrapper wherever the
program looks it up: in its defining module and in every ``skewbounds``
module (or the package itself) that imported the same object.  Methods are
wrapped on their class.  A listed name that no longer exists is skipped, so
a later change that removes it yields a missing metric rather than a failed
run.  ``uninstall`` puts the originals back.

Each span records its name, start, end, parent span and the operation it
belongs to.  Spans stay in memory (typed arrays) until ``save``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array

import numpy as np

# (module, qualified name) of every traced function
TARGETS = [
    ("cli", "main"),
    ("scenario", "parse_scenario"),
    ("scenario", "parse_scenario_text"),
    ("scenario", "eval_scalar"),
    ("scenario", "Scenario.build_state"),
    ("linalg", "DensityMatrix.from_matrix"),
    ("metrics", "weight_matrix"),
    ("skewinfo", "correlation"),
    ("skewinfo", "skew_information"),
    ("loo", "loo_basis"),
    ("loo", "gram_matrix"),
    ("loo", "cholesky_psd"),
    ("loo", "expand"),
    ("loo", "modulus_vector"),
    ("bounds", "product_chain"),
    ("bounds", "chain_Ik"),
    ("bounds", "table_Spq"),
    ("bounds", "check_product_chain"),
    ("bounds", "sum_bound_report"),
    ("bounds", "sum_bound_parallelogram"),
    ("bounds", "sum_bound_norm"),
    ("bounds", "check_sum_report"),
    ("bounds", "best_permuted_product_bound"),
]


def _strategy(args, kwargs, position):
    s = kwargs.get("strategy", args[position] if len(args) > position else None)
    kind = getattr(s, "kind", "exhaustive")
    return kind, getattr(s, "n_samples", 200)


def sum_candidates(args, kwargs) -> float:
    """Tuples sum_bound_parallelogram evaluates, computed from N, n and the strategy."""
    moduli = args[0] if args else kwargs["moduli"]
    N, n = len(moduli), len(moduli[0])
    kind, samples = _strategy(args, kwargs, 1)
    if kind == "sampled":
        return 2.0 + samples  # identity tuple, sorted tuple, samples
    return float(math.factorial(n) ** (N - 1))


def product_candidates(args, kwargs) -> float:
    """Pairs best_permuted_product_bound evaluates, computed from n and the strategy."""
    n = len(args[0] if args else kwargs["x"])
    kind, samples = _strategy(args, kwargs, 3)
    if kind == "sampled":
        return 3.0 + samples  # identity pair, two sorted pairings, samples
    return float(math.factorial(n) ** 2)


COUNTERS = {
    "bounds.sum_bound_parallelogram": sum_candidates,
    "bounds.best_permuted_product_bound": product_candidates,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.candidates = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, label: str, fn):
        nid = self.name_id.setdefault(label, len(self.names))
        if nid == len(self.names):
            self.names.append(label)
        counter = COUNTERS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.current_op)
            self.candidates.append(counter(args, kwargs) if counter else 0.0)
            self.end.append(0.0)
            self.stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self.stack.pop()

        return wrapper

    def install(self) -> None:
        mods = {k: m for k, m in sys.modules.items()
                if k == "skewbounds" or k.startswith("skewbounds.")}
        for modname, qual in TARGETS:
            home = mods.get(f"skewbounds.{modname}")
            label = f"{modname}.{qual.split('.')[-1]}"
            if home is None:
                continue
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(home, cls_name, None)
                raw = getattr(cls, "__dict__", {}).get(attr)
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(label, raw.__func__))
                else:
                    new = self._wrap(label, raw)
                self._saved.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            fn = getattr(home, qual, None)
            if fn is None:
                continue
            wrapped = self._wrap(label, fn)
            for m in mods.values():
                for attr, val in list(vars(m).items()):
                    if val is fn:
                        self._saved.append((m, attr, val))
                        setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "candidates": np.frombuffer(self.candidates, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


class SpanStats:
    """Per-name totals over the spans of the operations that succeeded."""

    def __init__(self, tracer: Tracer, good_ops: set[int]):
        a = tracer.arrays()
        self.names = tracer.names
        keep = np.isin(a["op"], np.fromiter(good_ops, dtype=np.int32, count=len(good_ops)))
        dur = a["end"] - a["start"]
        n = len(dur)
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self.keep = keep
        self.dur = dur
        self.self_time = dur - child
        self.name = a["name"]
        self.parent = a["parent"]
        self.candidates = a["candidates"]

    def _mask(self, label: str) -> np.ndarray | None:
        if label not in self.names:
            return None
        return self.keep & (self.name == self.names.index(label))

    def present(self, label: str) -> bool:
        return label in self.names

    def count(self, label: str) -> float:
        m = self._mask(label)
        return float(m.sum()) if m is not None else 0.0

    def ms(self, label: str, self_only: bool = False) -> float:
        m = self._mask(label)
        if m is None:
            return 0.0
        src = self.self_time if self_only else self.dur
        return 1000.0 * float(src[m].sum())

    def outer_ms(self, labels: list[str]) -> float:
        """Time in spans of these names that are not nested in one another."""
        ids = [self.names.index(lb) for lb in labels if lb in self.names]
        if not ids:
            return 0.0
        inside = np.isin(self.name, ids)
        parent_inside = np.zeros_like(inside)
        has = self.parent >= 0
        parent_inside[has] = inside[self.parent[has]]
        m = self.keep & inside & ~parent_inside
        return 1000.0 * float(self.dur[m].sum())

    def sum_candidates(self, label: str) -> float:
        m = self._mask(label)
        return float(self.candidates[m].sum()) if m is not None else 0.0
