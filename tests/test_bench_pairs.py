"""The verdicts and the record handling of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def lower(parent, change, bound=0.25):
    return bench_pairs.summarize_metric(parent, change, "lower", bound)


class TestVerdict:
    def test_within_and_worse_than_the_bound(self):
        parent = [1.0, 1.01, 0.99, 1.02, 0.98]
        assert lower(parent, [1.1, 0.97, 1.2, 1.0, 1.1])["verdict"] == "within_bound"
        assert lower(parent, [1.3, 0.97, 1.4, 1.3, 1.3])["verdict"] == "worse_than_bound"

    def test_parent_spread_beyond_the_bound_is_unresolved(self):
        # parent IQR 0.5 over a median of 1.0, against a bound of 0.25
        parent = [0.5, 0.75, 1.0, 1.25, 1.5]
        m = lower(parent, [1.0, 1.1, 0.9, 1.0, 1.4])
        assert m["parent_iqr"] == pytest.approx(0.5)
        assert m["worse_by"] <= 0.25
        assert m["verdict"] == "unresolved"
        # the same spread cannot hide a loss either
        assert lower(parent, [1.5, 1.2, 1.6, 1.3, 1.4])["verdict"] == "unresolved"

    def test_better_in_every_run_settles_a_wide_spread(self):
        parent = [0.5, 0.75, 1.0, 1.25, 1.5]
        assert lower(parent, [0.4, 0.3, 0.45, 0.2, 0.1])["verdict"] == "better_in_every_run"
        higher = bench_pairs.summarize_metric(parent, [1.6, 2.0, 1.7, 1.9, 1.8], "higher", 0.25)
        assert higher["verdict"] == "better_in_every_run"
        # one change run no better than the best parent run leaves it unresolved
        assert lower(parent, [0.4, 0.3, 0.5, 0.2, 0.1])["verdict"] == "unresolved"


class TestClaim:
    PARENT = [1.0, 0.96, 1.04, 1.0, 0.98, 1.02, 1.0, 0.96, 1.04, 1.0]  # IQR 0.03

    @pytest.mark.parametrize(
        "change, met",
        [
            ([0.90] * 10, True),
            ([0.90] * 9 + [1.10], True),
            ([0.90] * 8 + [1.10] * 2, False),  # 8 of 10 pairs
            ([p - 0.001 for p in PARENT], False),  # every pair, but within the IQR
        ],
        ids=["all-pairs", "nine-of-ten", "eight-of-ten", "within-iqr"],
    )
    def test_nine_of_ten_and_beyond_the_parent_iqr(self, change, met):
        m = lower(self.PARENT, change)
        assert m["parent_iqr"] == pytest.approx(0.03)
        assert bench_pairs.claim_verdict(m, "lower")["met"] is met


class TestRecord:
    def test_a_new_record_starts_empty_at_seed_one(self, tmp_path):
        batches = bench_pairs.load_batches(tmp_path / "BENCH_x.json")
        assert batches == []
        assert bench_pairs.last_seed(batches) + 1 == 1

    def test_batches_are_kept_and_seeds_continue(self, tmp_path):
        out = tmp_path / "BENCH_x.json"
        runs = {"compute_batch": {"parent": [{"seed": 4}, {"seed": 5}],
                                  "change": [{"seed": 4}, {"seed": 5}]}}
        out.write_text(json.dumps({"batches": [{"runs": runs}, {}]}), encoding="utf-8")
        batches = bench_pairs.load_batches(out)
        assert len(batches) == 2
        assert bench_pairs.last_seed(batches) == 5

    def test_refuses_to_overwrite_another_file(self, tmp_path):
        out = tmp_path / "BENCH_x.json"
        out.write_text(json.dumps({"summary": {}}), encoding="utf-8")
        with pytest.raises(SystemExit, match="not overwriting"):
            bench_pairs.load_batches(out)
        assert json.loads(out.read_text(encoding="utf-8")) == {"summary": {}}
