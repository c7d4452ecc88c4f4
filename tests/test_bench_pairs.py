"""Verdicts of tools/bench_pairs.py on paired benchmark medians."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tools"))
from bench_pairs import claim_verdict, quartiles, regression_verdict, summarize  # noqa: E402

# sweep-small iter_ms.p50 of ten alternated pairs: the change wins 9 of 10, but its
# median gap (0.0059 ms) is below the parent's interquartile range (0.0069 ms)
PARENT = [0.0489, 0.035, 0.03666, 0.03842, 0.04662, 0.03524, 0.03618, 0.03769, 0.03406,
          0.04057]
CHANGE = [0.03143, 0.02909, 0.03132, 0.03017, 0.03794, 0.03445, 0.03108, 0.03948, 0.03127,
          0.029]


def test_nine_wins_within_the_parents_spread_is_not_a_claim():
    q1, q3 = quartiles(PARENT)
    assert q3 - q1 == pytest.approx(0.0069, abs=5e-5)
    assert claim_verdict(PARENT, CHANGE, "lower") == "not met"
    assert regression_verdict(PARENT, CHANGE, "lower", 0.25) == "none"


def test_a_clear_win_is_met_in_either_direction():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]
    change = [x * 0.8 for x in parent]
    assert claim_verdict(parent, change, "lower") == "met"
    assert claim_verdict(change, parent, "higher") == "met"
    assert claim_verdict(parent, change, "higher") == "not met"


def test_a_regression_beyond_the_bound():
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.0, 1.01, 0.99]
    assert regression_verdict(parent, [x * 1.3 for x in parent], "lower", 0.25) == "regression"
    assert regression_verdict(parent, [x * 0.7 for x in parent], "higher", 0.25) == "regression"
    assert regression_verdict(parent, [x * 1.2 for x in parent], "lower", 0.25) == "none"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better():
    parent = [1.0, 2.0, 1.0, 2.0, 1.5]
    assert regression_verdict(parent, [1.6, 1.0, 2.0, 1.0, 2.0], "lower", 0.25) == "unresolved"
    assert regression_verdict(parent, [0.5, 0.6, 0.7, 0.8, 0.9], "lower", 0.25) == "none"


def test_summarize_counts_pairs_and_failed_runs():
    def run(value):
        return {"correct": True, "failed": 0, "metrics": {"iter_ms.p50": {"value": value}}}

    runs = {"sweep-small": {
        "parent": {str(s): run(p) for s, p in enumerate(PARENT)},
        "change": {**{str(s): run(c) for s, c in enumerate(CHANGE)},
                   "10": {"correct": False, "exit_code": 1}}}}
    block = summarize(runs, [{"name": "iter_ms.p50", "better": "lower", "bound": 0.25}])
    s = block["sweep-small"]
    assert s["seeds"] == list(range(10))
    assert s["failed_runs"] == {"parent": 0, "change": 1}
    assert s["iter_ms.p50"]["change_better_pairs"] == 9
    assert (s["iter_ms.p50"]["claim"], s["iter_ms.p50"]["regression"]) == ("not met", "none")
