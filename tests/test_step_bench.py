"""tools/step_bench.py times every step shape of a source tree in a subprocess."""

import importlib.util
import json
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "step_bench.py"
_spec = importlib.util.spec_from_file_location("step_bench", _path)
step_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_bench)


def test_one_run_times_every_shape_of_this_tree(capsys):
    assert step_bench.main(["--runs", "1", "--number", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    (run,) = result["runs"]
    (times,) = run.values()
    assert list(times) == list(step_bench.SHAPES)
    for timing in times.values():
        assert timing["step"] > 0 and timing["step+apply"] > 0
    # one table row per shape and timing, one column per tree
    rows = [line for line in lines if line.startswith(tuple(step_bench.SHAPES))]
    assert len(rows) == 2 * len(step_bench.SHAPES)


def test_a_tree_without_the_package_is_refused(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        step_bench.main([str(tmp_path), "--runs", "1"])
    assert exit_info.value.code == 2
