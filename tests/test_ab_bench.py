"""The pair summary of tools/ab_bench.py, on hand-made benchmark results."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", _path)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)


def pairs_of(parent, change, name="retrain_s"):
    return [{"parent": {name: p}, "change": {name: c}} for p, c in zip(parent, change)]


def test_lower_is_better_counts_wins_losses_and_ties():
    pairs = pairs_of([1.0, 1.2, 1.1, 1.0, 0.9], [0.7, 1.3, 1.1, 0.8, 0.6])
    row = ab_bench.summarize(pairs, {"retrain_s": "lower"})["retrain_s"]
    assert row["pairs"] == 5
    assert (row["won"], row["lost"]) == (3, 1)  # the tie counts for neither side
    assert row["parent"] == {"q1": 1.0, "median": 1.0, "q3": 1.1}
    assert row["change"]["median"] == pytest.approx(0.8)
    assert row["delta"] == pytest.approx(-0.2)
    assert row["beyond_parent_iqr"]  # 0.2 apart, quartiles 0.1 apart


def test_higher_is_better_and_a_gap_inside_the_parent_spread():
    pairs = pairs_of([0.50, 0.70, 0.60, 0.40], [0.55, 0.60, 0.65, 0.50], name="mrr")
    row = ab_bench.summarize(pairs, {"mrr": "higher"})["mrr"]
    assert (row["won"], row["lost"]) == (3, 1)
    assert row["parent"]["median"] == pytest.approx(0.55)
    assert row["change"]["median"] == pytest.approx(0.575)
    assert not row["beyond_parent_iqr"]  # 0.025 apart, quartiles 0.15 apart


def test_one_pair_and_metrics_missing_from_a_run():
    pairs = [{"parent": {"a": 2.0, "b": 1.0}, "change": {"a": 1.0}}]
    summary = ab_bench.summarize(pairs, {"a": "lower", "b": "lower", "c": "lower"})
    assert list(summary) == ["a"]  # b lacks the change's value, c both
    assert summary["a"]["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert summary["a"]["won"] == 1 and summary["a"]["beyond_parent_iqr"]
    assert ab_bench.format_summary(summary)[1].split()[:4] == ["a", "2.0000", "1.0000",
                                                                "-50.0%"]


def test_directions_are_read_from_the_benchmark(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "setup_s", "better": "lower"}, {"name": "mrr", "better": "higher"}]}))
    assert ab_bench.end_to_end_directions(path) == {"setup_s": "lower", "mrr": "higher"}
    repo = ab_bench.end_to_end_directions(ab_bench.REPO / "BENCHMARK.json")
    assert repo["retrain_s"] == "lower" and "peak_rss_mb" in repo


def test_src_lines_counts_the_package_modules(tmp_path):
    package = tmp_path / "src" / "numur"
    package.mkdir(parents=True)
    (package / "a.py").write_text("import os\n\nx = 1\n")
    (package / "b.py").write_text("y = 2\nz = 3")  # no final newline
    (package / "notes.txt").write_text("not code\n")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    assert ab_bench.src_lines(tmp_path) == 5
    assert ab_bench.src_lines(ab_bench.REPO) > 0
