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
    assert list(times) == [*step_bench.SHAPES, *step_bench.HINGE_RUNS]
    for name in step_bench.SHAPES:
        assert list(times[name]) == ["step", "step+apply"]
    for name in step_bench.HINGE_RUNS:
        assert list(times[name]) == ["run"]
    assert all(t > 0 for timing in times.values() for t in timing.values())
    # one table row per shape or hinge run and timing, one column per tree
    names = (*step_bench.SHAPES, *step_bench.HINGE_RUNS)
    rows = [line for line in lines if line.startswith(names)]
    assert len(rows) == 2 * len(step_bench.SHAPES) + len(step_bench.HINGE_RUNS)


def test_a_tree_without_the_package_is_refused(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        step_bench.main([str(tmp_path), "--runs", "1"])
    assert exit_info.value.code == 2
