"""The artifact comparison of tools/golden_diff.py, on hand-made artifact trees."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
_spec = importlib.util.spec_from_file_location("golden_diff", _path)
golden_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_diff)


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def trees(tmp_path):
    a = tmp_path / "a"
    run = a / "unlearn" / "cocol_spec_delta0.001"
    _write(run / "report.json", json.dumps(
        {"mrr_forget": 0.25, "normalized_epoch_duration": 1.5, "total_unlearn_time": 3.0}))
    _write(run / "trajectory.csv", "epoch,mrr_forget,wall_time_s\n0,0.5,0.0\n1,0.25,0.0123\n")
    (run / "model.bin").write_bytes(b"NUMR\x00\x01")
    _write(a / "eval" / "train_model_spec" / "report.json",
           json.dumps({"model": str(a / "train" / "model.bin"), "mrr_test": 0.5}))
    _write(a / "specs" / "spec.json", '{"ids": ["d1"], "kind": "document"}\n')
    b = tmp_path / "b"
    shutil.copytree(a, b)
    return a, b, run.relative_to(a)


def test_identical_trees_are_clean(trees):
    a, b, _ = trees
    assert golden_diff.diff_trees(a, b) == []


def test_a_changed_mrr_is_reported(trees):
    a, b, run = trees
    _write(b / run / "report.json", json.dumps(
        {"mrr_forget": 0.2500000000000001, "normalized_epoch_duration": 1.5,
         "total_unlearn_time": 3.0}))
    _write(b / run / "trajectory.csv", "epoch,mrr_forget,wall_time_s\n0,0.5,0.0\n1,0.2,0.0123\n")
    assert golden_diff.diff_trees(a, b) == [
        f"{run / 'report.json'}: differs outside the wall-time fields",
        f"{run / 'trajectory.csv'}: differs outside the wall-time fields"]


def test_changed_wall_times_and_model_paths_are_ignored(trees):
    a, b, run = trees
    _write(b / run / "report.json", json.dumps(
        {"total_unlearn_time": 9.0, "mrr_forget": 0.25, "normalized_epoch_duration": 4.5}))
    _write(b / run / "trajectory.csv", "epoch,mrr_forget,wall_time_s\n0,0.5,0.0\n1,0.25,0.5\n")
    _write(b / "eval" / "train_model_spec" / "report.json",
           json.dumps({"model": str(b / "train" / "model.bin"), "mrr_test": 0.5}))
    assert golden_diff.diff_trees(a, b) == []


def test_bytes_must_match_for_models_and_specs_and_files_in_one_tree(trees):
    a, b, run = trees
    (b / run / "model.bin").write_bytes(b"NUMR\x00\x02")
    _write(b / "specs" / "spec.json", '{"kind": "document", "ids": ["d1"]}\n')
    (a / "report").mkdir()
    (a / "report" / "chart.svg").write_bytes(b"<svg/>")
    assert golden_diff.diff_trees(a, b) == [
        f"{Path('report') / 'chart.svg'}: only in {a}",
        f"{Path('specs') / 'spec.json'}: bytes differ",
        f"{run / 'model.bin'}: bytes differ"]


def test_every_variant_reads_only_keys_of_its_method():
    from numur.unlearn_engine import PARAM_KEYS, Method

    for method, params in golden_diff.VARIANTS.values():
        assert set(params) <= PARAM_KEYS[Method(method)]
    hinge = {method for method, params in golden_diff.VARIANTS.values()
             if params is golden_diff.HINGE_PARAMS}
    assert hinge == {"cf", "amnesiac", "neggrad", "ssd"}


def test_every_workload_unlearns_with_every_method_under_both_removal_kinds():
    from perfbench.workloads import WORKLOADS

    for workload in WORKLOADS.values():
        commands = golden_diff._commands(workload, "0.001", Path("runs"))
        specs = [args[2] for args in commands
                 if args[0] == "unlearn" and args[3:] == ["--method", "all", "--delta", "0.001"]]
        assert sorted(golden_diff._kind(s) for s in specs) == ["document", "query"]


def test_every_workload_partitions_under_both_removal_kinds():
    from perfbench.workloads import WORKLOADS

    for workload in WORKLOADS.values():
        commands = golden_diff._commands(workload, "0.001", Path("runs"))
        specs = [args[2] for args in commands if args[0] == "partition"]
        assert specs[0] == workload.spec
        assert sorted(golden_diff._kind(s) for s in specs) == ["document", "query"]
