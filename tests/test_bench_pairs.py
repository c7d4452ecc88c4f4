"""Verdicts of tools/bench_pairs.py on paired benchmark medians."""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
from bench_pairs import (  # noqa: E402
    claim_verdict,
    main,
    quartiles,
    regression_verdict,
    report,
    summarize,
)

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
    assert s["failed_runs"] == {"parent": [], "change": [10]}
    assert s["iter_ms.p50"]["change_better_pairs"] == 9
    assert (s["iter_ms.p50"]["claim"], s["iter_ms.p50"]["regression"]) == ("not met", "none")


def test_a_failed_run_leaves_the_other_pairs_judged_and_fails_the_report(tmp_path, monkeypatch,
                                                                          capsys):
    def run(value):
        return {"correct": True, "failed": 0, "metrics": {"solve_s": {"value": value}}}

    runs = {"fig3-stoch": {
        "parent": {str(s): run(1.0 + 0.01 * s) for s in range(10)},
        "change": {**{str(s): run(2.0) for s in range(9)}, "9": {"correct": False}}}}
    summary = summarize(runs, [{"name": "solve_s", "better": "lower", "bound": 0.25}])
    s = summary["fig3-stoch"]["solve_s"]
    assert (s["pairs"], s["regression"]) == (9, "regression")
    assert "FAILED fig3-stoch seed 9 change" in report(summary).splitlines()

    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"runs": runs}))
    monkeypatch.chdir(ROOT)  # the report reads the bounds from BENCHMARK.json
    assert main(["--report", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAILED fig3-stoch seed 9 change" in out
    assert "regression (bound 0.25)" in out
