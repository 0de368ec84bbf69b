import json
import shutil
import xml.etree.ElementTree as ET
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from numur import (CorpusSplit, ForgetSpec, Method, RemovalKind, TrainConfig,
                   UnlearnConfig, cli, compute_destinations, init_model, load_forget_spec,
                   load_dataset, load_model, mrr_forget, mrr_set, partition, pool_split, ranker,
                   save_forget_spec, save_model, train, unlearn)
from numur.cli import _load_split, _write_csv, _write_json, main
from numur.corpus import atomic_write
from numur.unlearn_engine import _mrrs

from conftest import every, samples_of, spy

SMALL_CONFIG = {
    "corpus": {"n_queries": 12, "n_docs": 48, "vocab_size": 128,
               "positives_per_query": 2, "pool_size": 16,
               "entanglement_rate": 0.5, "test_fraction": 0.25, "seed": 5},
    "train": {"learning_rate": 0.1, "epochs": 8, "margin": 1.0, "seed": 5,
              "negatives_per_positive": 4, "dim": 8},
    "unlearn": {"delta_target": 0.5, "max_epochs": 40, "learning_rate": 0.5,
                "seed": 5, "method": "cocol"},
    "removal_fractions": [0.25],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli")
    config = out / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    run = lambda *args: main(["--config", str(config), "--out", str(out / "runs"),
                              *args])
    assert run("gen") == 0
    assert run("train") == 0
    assert run("retrain", "--spec", "spec_document_25") == 0
    assert run("partition", "--spec", "spec_document_25") == 0
    assert run("unlearn", "--spec", "spec_document_25", "--method", "cocol",
               "--dest", "d2") == 0
    assert run("unlearn", "--spec", "spec_document_25", "--method", "ssd",
               "--delta", "0.4") == 0
    assert run("eval", "--spec", "spec_document_25",
               "--model", str(out / "runs" / "train" / "model.bin")) == 0
    assert run("report") == 0
    return out


def test_gen_outputs(workdir):
    corpus = workdir / "runs" / "corpus"
    for name in ("train_queries.jsonl", "docs.jsonl", "train_qrels.tsv",
                 "train_pools.tsv", "test_queries.jsonl", "test_qrels.tsv",
                 "test_pools.tsv", "stats.json"):
        assert (corpus / name).exists()
    stats = json.loads((corpus / "stats.json").read_text())
    assert stats["train"]["mean_positives_per_query"] == pytest.approx(2.0)
    assert (workdir / "runs" / "specs" / "spec_document_25.json").exists()
    assert (workdir / "runs" / "specs" / "spec_query_25.json").exists()


def test_gen_fraction_coverage(workdir):
    spec = json.loads((workdir / "runs" / "specs" / "spec_document_25.json").read_text())
    qrels = (workdir / "runs" / "corpus" / "train_qrels.tsv").read_text().splitlines()[1:]
    positives = [line.split("\t") for line in qrels if line.split("\t")[2] == "1"]
    covered = sum(1 for _, did, _ in positives if did in set(spec["ids"]))
    target = round(0.25 * len(positives))
    assert target <= covered <= target + 2


def test_train_outputs(workdir):
    train_dir = workdir / "runs" / "train"
    assert (train_dir / "model.bin").exists()
    rows = (train_dir / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "epoch,loss,mrr_train,wall_time_s"
    assert len(rows) == 1 + SMALL_CONFIG["train"]["epochs"]


def test_retrain_report_has_destinations(workdir):
    report = json.loads((workdir / "runs" / "retrain" / "spec_document_25"
                         / "report.json").read_text())
    d = report["destinations"]
    assert d["d3"] == pytest.approx(d["d2"] / 2)


def test_partition_artifact(workdir):
    payload = json.loads((workdir / "runs" / "partition" / "spec_document_25"
                          / "partition.json").read_text())
    sizes = payload["sizes"]
    total_docs = sizes["forget"] + sizes["entangled"] + sizes["disjoint"]
    qrels = (workdir / "runs" / "corpus" / "train_qrels.tsv").read_text().splitlines()[1:]
    assert total_docs == len(qrels)


def test_unlearn_run_artifacts(workdir):
    run_dir = workdir / "runs" / "unlearn" / "cocol_spec_document_25_d2"
    assert (run_dir / "model.bin").exists()
    rows = (run_dir / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0] == "epoch,mrr_forget,mrr_entangled,mrr_disjoint,mrr_test,wall_time_s"
    report = json.loads((run_dir / "report.json").read_text())
    assert report["normalized_forget"] is not None
    run_config = json.loads((run_dir / "run_config.json").read_text())
    assert run_config["method"] == "cocol"
    assert run_config["target"] == "d2"


def test_ssd_trajectory_single_row(workdir):
    rows = (workdir / "runs" / "unlearn" / "ssd_spec_document_25_delta0.4"
            / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 2  # header plus the single post-edit evaluation


def test_eval_outputs(workdir):
    eval_dir = workdir / "runs" / "eval" / "train_model_spec_document_25"
    report = json.loads((eval_dir / "report.json").read_text())
    assert 0.0 <= report["mrr_forget"] <= 1.0
    rows = (eval_dir / "distributions.csv").read_text().strip().splitlines()
    assert rows[0].startswith("model,set,count,min,max,mean,p10")
    assert len(rows) == 1 + 4  # forget, entangled, disjoint, test


def test_report_csv_recomputation(workdir):
    report_csv = (workdir / "runs" / "report" / "report.csv").read_text().strip()
    header, *rows = report_csv.splitlines()
    cols = header.split(",")
    retrain_test = json.loads((workdir / "runs" / "retrain" / "spec_document_25"
                               / "report.json").read_text())["mrr_test"]
    for row in rows:
        values = dict(zip(cols, row.split(",")))
        recomputed = 1.0 - abs(float(values["mrr_forget"]) - retrain_test)
        assert float(values["normalized_forget"]) == pytest.approx(recomputed)


def test_charts_are_wellformed_svg(workdir):
    for name in ("methods_radar.svg", "forget_trajectories.svg"):
        path = workdir / "runs" / "report" / "charts" / name
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert len(list(root)) > 3


def test_gen_is_reproducible(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    for sub in ("a", "b"):
        assert main(["--config", str(config), "--out", str(tmp_path / sub), "gen"]) == 0
    for rel in ("corpus/train_qrels.tsv", "corpus/docs.jsonl",
                "specs/spec_document_25.json"):
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_delta_one_stops_immediately(workdir, capsys):
    out = workdir / "runs"
    code = main(["--out", str(out), "unlearn", "--spec", "spec_document_25",
                 "--method", "cocol", "--delta", "1.0"])
    assert code == 0
    assert "after 0 epochs" in capsys.readouterr().out
    rows = (out / "unlearn" / "cocol_spec_document_25_delta1" / "trajectory.csv"
            ).read_text().strip().splitlines()
    assert len(rows) == 2  # header plus the pre-check evaluation


# The benchmark times each command by replacing cli.cmd_<name> after import,
# so main must look every command up on the module when it runs.
@pytest.mark.parametrize("argv", [["gen"], ["train"], ["retrain", "--spec", "s"],
                                  ["partition", "--spec", "s"], ["unlearn", "--spec", "s"],
                                  ["eval", "--spec", "s", "--model", "m"], ["report"]],
                         ids=lambda argv: argv[0])
def test_main_reaches_each_command_through_the_cli_module(tmp_path, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda *args: calls.append(args))
    assert main(["--out", str(tmp_path / "runs"), *argv]) == 0
    assert len(calls) == 1
    assert not (tmp_path / "runs").exists()


class TestErrors:
    def test_empty_fraction_list_rejected(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"removal_fractions": []}', encoding="utf-8")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == 1
        assert "ERROR:config:" in capsys.readouterr().err

    def test_train_without_corpus(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "empty"), "train"]) == 1
        assert "ERROR:" in capsys.readouterr().err

    def test_unknown_method(self, workdir, capsys):
        out = workdir / "runs"
        code = main(["--out", str(out), "unlearn", "--spec", "spec_document_25",
                     "--method", "magic"])
        assert code == 1
        assert "ERROR:config:" in capsys.readouterr().err

    def test_dest_without_retrain(self, workdir, capsys):
        out = workdir / "runs"
        code = main(["--out", str(out), "unlearn", "--spec", "spec_query_25",
                     "--method", "cocol", "--dest", "d1"])
        assert code == 1
        assert "ERROR:config:" in capsys.readouterr().err

    def test_missing_spec(self, workdir, capsys):
        out = workdir / "runs"
        code = main(["--out", str(out), "partition", "--spec", "nope"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR:config:")
        assert "nope" in err

    def test_unknown_config_key(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"corpus": {"n_quieries": 3}}', encoding="utf-8")
        code = main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"])
        assert code == 1
        assert "n_quieries" in capsys.readouterr().err

    # log_touched, once a key of both sections, is gone
    @pytest.mark.parametrize("section", ["train", "unlearn"])
    def test_log_touched_is_an_unknown_key(self, tmp_path, capsys, section):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({section: {"log_touched": True}}), encoding="utf-8")
        code = main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:config: unknown {section} config keys") and \
            "log_touched" in err, err
        assert not (tmp_path / "o").exists()

    # numpy's generators take no negative seed; each place a seed is set
    # refuses one before anything is written
    @pytest.mark.parametrize("config, args", [
        ({}, ["--seed", "-1"]), ({"seed": -5}, []), ({"corpus": {"seed": -5}}, []),
        ({"train": {"seed": -5}}, []), ({"unlearn": {"seed": -5}}, []),
    ], ids=["--seed", "seed", "corpus", "train", "unlearn"])
    def test_negative_seed(self, tmp_path, capsys, config, args):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code = main(["--config", str(path), *args, "--out", str(tmp_path / "o"), "gen"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR:config:") and "seed must be non-negative" in err, err
        assert not (tmp_path / "o").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b'{"seed": 3, "x\xff": 1}')
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == 1
        assert capsys.readouterr().err == \
            f"ERROR:data: {config}: not UTF-8 (invalid start byte at byte 14)\n"
        assert not (tmp_path / "o").exists()

    def test_config_nested_too_deep(self, tmp_path, capsys):
        # json.loads raises RecursionError here, which once ended in a traceback
        config = tmp_path / "c.json"
        config.write_text("[" * 100_000)
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == 1
        assert capsys.readouterr().err == f"ERROR:data: {config}: JSON nested too deeply\n"
        assert not (tmp_path / "o").exists()

    # the per-line decoder raised RecursionError, which once ended in a traceback
    @pytest.mark.parametrize("corpus_file, args", [
        ("train_queries.jsonl", ["partition", "--spec", "spec_document_25"]),
        ("docs.jsonl", ["train"]),
    ], ids=["queries", "docs"])
    def test_corpus_line_nested_too_deep(self, workdir, tmp_path, capsys, corpus_file, args):
        runs = tmp_path / "runs"
        for part in ("corpus", "specs"):
            shutil.copytree(workdir / "runs" / part, runs / part)
        path = runs / "corpus" / corpus_file
        lines = path.read_text().split("\n")
        path.write_text("\n".join([lines[0], "[" * 100_000, *lines[2:]]))
        assert main(["--out", str(runs), *args]) == 1
        assert capsys.readouterr().err == f"ERROR:data: {path}:2: JSON nested too deeply\n"
        assert not (runs / args[0]).exists()

    # json raises a plain ValueError past int()'s 4,300 digits, which once ended in a traceback
    def test_config_integer_too_long(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"seed": %s}' % ("1" * 5001))
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == 1
        assert capsys.readouterr().err == \
            f"ERROR:data: {config}: JSON integer with too many digits\n"
        assert not (tmp_path / "o").exists()

    def test_corpus_integer_too_long(self, workdir, tmp_path, capsys):
        runs = tmp_path / "runs"
        for part in ("corpus", "specs"):
            shutil.copytree(workdir / "runs" / part, runs / part)
        path = runs / "corpus" / "train_queries.jsonl"
        lines = path.read_text().split("\n")
        path.write_text("\n".join([lines[0], '{"id": "q", "tokens": [%s]}' % ("1" * 5000),
                                   *lines[2:]]))
        assert main(["--out", str(runs), "partition", "--spec", "spec_document_25"]) == 1
        assert capsys.readouterr().err == \
            f"ERROR:data: {path}:2: JSON integer with too many digits\n"
        assert not (runs / "partition").exists()

    def test_retrain_on_an_empty_forget_set_writes_nothing(self, workdir, tmp_path, capsys):
        # a pooled doc with no sample: the spec is valid, but forgets no sample
        split = _load_split(workdir / "runs")
        sampled = {s.doc_id for s in samples_of(split.train)}
        unsampled = next(d for pool in split.train.pools.values() for d in pool
                         if d not in sampled)
        spec = tmp_path / "spec.json"
        save_forget_spec(ForgetSpec(RemovalKind.DOCUMENT, frozenset({unsampled})), spec)
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs" / "corpus", runs / "corpus")
        assert main(["--out", str(runs), "retrain", "--spec", str(spec)]) == 1
        assert capsys.readouterr().err == "ERROR:config: forget set is empty\n"
        assert not (runs / "retrain").exists()

    def test_forget_spec_not_utf8(self, workdir, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{"kind": "query", "ids": ["q\xff"]}')
        code = main(["--out", str(workdir / "runs"), "partition", "--spec", str(spec)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"ERROR:data: {spec}: not UTF-8 (invalid start byte at byte 28)\n"

    def test_delta_and_dest_conflict(self, workdir, capsys):
        out = workdir / "runs"
        code = main(["--out", str(out), "unlearn", "--spec", "spec_document_25",
                     "--method", "cocol", "--delta", "0.5", "--dest", "d1"])
        assert code == 1
        assert "ERROR:config:" in capsys.readouterr().err

    # A wall time of 0 once ended in a ZeroDivisionError after the run
    # directory was made, and a negative one wrote negative timing metrics.
    @pytest.mark.parametrize("wall", ["0.0", "-1.0"])
    def test_train_wall_time_not_above_zero(self, workdir, tmp_path, capsys, wall):
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs", runs)
        shutil.rmtree(runs / "unlearn")
        path = runs / "train" / "trajectory.csv"
        lines = path.read_text().splitlines()
        lines[1:] = [",".join(line.split(",")[:3] + [wall]) for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        code = main(["--out", str(runs), "unlearn", "--spec", "spec_document_25",
                     "--method", "cocol", "--delta", "0.001"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"ERROR:data: {path}:2: expected a wall time above 0 in column 4, got {wall}\n")
        assert not (runs / "unlearn").exists()

    # 0.051 and 0.049 both round to 5 percent, and gen once wrote the
    # second pair of specs over the first
    @pytest.mark.parametrize("fractions", [[0.051, 0.049], [0.25, 0.25]], ids=repr)
    def test_removal_fractions_naming_one_spec(self, tmp_path, capsys, fractions):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"removal_fractions": fractions}), encoding="utf-8")
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == 1
        suffix = f"{round(fractions[0] * 100):02d}"
        assert capsys.readouterr().err == (
            f"ERROR:config: removal_fractions {fractions[0]!r} and {fractions[1]!r} both name "
            f"spec_document_{suffix}.json and spec_query_{suffix}.json\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("params, code",[({"margin": 2.0, "phase2": False}, 0),
                                           ({"entangeld_term": False}, 1)])
def test_method_params_with_all_methods(workdir, tmp_path, capsys, params, code):
    runs = tmp_path / "runs"
    shutil.copytree(workdir / "runs", runs)
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "unlearn": {
        **SMALL_CONFIG["unlearn"], "method_params": params}}), encoding="utf-8")
    assert main(["--config", str(config), "--out", str(runs), "unlearn", "--spec",
                 "spec_document_25", "--method", "all", "--delta", "1.0"]) == code
    if code:
        assert "ERROR:config:" in capsys.readouterr().err
        return
    for method, keys in (("cocol", {"phase2"}), ("cf", {"margin"}), ("badt", set())):
        run_config = json.loads((runs / "unlearn" / f"{method}_spec_document_25_delta1"
                                 / "run_config.json").read_text())
        assert set(run_config["method_params"]) == keys


def test_all_methods_load_the_model_and_partition_once(workdir, tmp_path, monkeypatch):
    runs = tmp_path / "runs"
    shutil.copytree(workdir / "runs", runs)
    shutil.rmtree(runs / "unlearn")
    loads, parts = spy(monkeypatch, cli, "load_model"), spy(monkeypatch, cli, "partition")
    assert main(["--out", str(runs), "unlearn", "--spec", "spec_document_25",
                 "--method", "all", "--delta", "0.001"]) == 0
    assert len(loads) == len(parts) == 1
    assert len(list((runs / "unlearn").iterdir())) == len(Method)


@pytest.mark.parametrize("method", ["cf", "amnesiac", "neggrad", "ssd"])
@pytest.mark.parametrize("params", [
    *({"negatives_per_positive": value} for value in (0, -1, 2.7, "x")),
    {"margin": "x"}, {"margin": None}, {"margin": float("nan")},
], ids=repr)
def test_bad_method_param_values_are_config_errors(workdir, tmp_path, capsys, method, params):
    runs = tmp_path / "runs"
    shutil.copytree(workdir / "runs", runs)
    shutil.rmtree(runs / "unlearn")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**SMALL_CONFIG, "unlearn": {
        **SMALL_CONFIG["unlearn"], "method_params": params}}), encoding="utf-8")
    assert main(["--config", str(config), "--out", str(runs), "unlearn", "--spec",
                 "spec_document_25", "--method", method, "--delta", "0.001"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:config:") and repr(next(iter(params))) in err, err
    assert not (runs / "unlearn").exists()


@pytest.mark.parametrize("params", [{"alpha": None}, {"lambda": "x"}, {"alpha": True}])
def test_bad_ssd_param_values_are_config_errors(workdir, tmp_path, capsys, params):
    test_bad_method_param_values_are_config_errors(workdir, tmp_path, capsys, "ssd", params)


# cocol's ablation switches are JSON booleans: "false" would read as true
@pytest.mark.parametrize("params", [{key: value} for key in ("entangled_term", "phase2")
                                    for value in ("false", 0, None)], ids=repr)
def test_bad_cocol_switch_values_are_config_errors(workdir, tmp_path, capsys, params):
    test_bad_method_param_values_are_config_errors(workdir, tmp_path, capsys, "cocol", params)


# Config values of the wrong type. Each once ended in a traceback, except
# two that passed the check: epochs true trained "True" epochs, and a NaN
# learning rate failed only later, as ERROR:diverged.
@pytest.mark.parametrize("config", [
    {"train": {"epochs": "5"}},
    {"train": {"negatives_per_positive": 2.5}},
    5,
    {"seed": "abc"},
    {"removal_fractions": 0.5},
    {"corpus": {"n_queries": "64"}},
    {"train": {"dim": 2.5}},
    {"train": {"epochs": True}},
    {"train": {"learning_rate": float("nan")}},
], ids=repr)
def test_config_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, config):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    runs = tmp_path / "runs"
    assert main(["--config", str(path), "--out", str(runs), "gen"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ERROR:config:") and "Traceback" not in err, err
    assert not runs.exists()


class TestDocPooling:
    """Each model state is pooled once and passed on. On a loaded split the
    test index borrows the train split's doc rows, so the docs of a state
    are pooled once for both splits and only the test queries are pooled
    apart."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        """The datasets of every later doc pooling and of every query pooling."""
        return (spy(monkeypatch, ranker, "doc_vectors"),
                spy(monkeypatch, ranker, "query_vectors"))

    @staticmethod
    def counts(calls, split):
        """How many of ``calls`` pooled the train split and the test split."""
        return (sum(args[1] is split.train for args in calls),
                sum(args[1] is split.test for args in calls))

    @staticmethod
    def world(workdir):
        runs = workdir / "runs"
        split = _load_split(runs)
        part = partition(split.train, load_forget_spec(runs / "specs" / "spec_document_25.json"))
        return split, part, load_model(runs / "train" / "model.bin")

    def test_eval_pools_once(self, workdir, tmp_path, pooled):
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs", runs)
        assert main(["--out", str(runs), "eval", "--spec", "spec_document_25",
                     "--model", str(runs / "train" / "model.bin")]) == 0
        docs, queries = pooled
        assert len(docs) == 1 and len(queries) == 2
        assert queries[0][1] is docs[0][1] and queries[1][1] is not docs[0][1]
        report = json.loads((runs / "eval" / "train_model_spec_document_25" / "report.json")
                            .read_text())
        split, part, model = self.world(workdir)
        train, test = pool_split(model, split)
        assert report["mrr_test"] == mrr_set(test, every(split.test)).value
        assert report["mrr_forget"] == mrr_forget(train, part).value

    def test_checkpoints_and_destinations_pool_once_on_loaded_splits(self, workdir, pooled):
        docs, queries = pooled
        split, part, model = self.world(workdir)
        assert split.test.docs is split.train.docs
        record = _mrrs(*pool_split(model, split), part)
        assert len(docs) == 1
        assert self.counts(queries, split) == (1, 1)
        dest = compute_destinations(*pool_split(model, split), part)
        assert len(docs) == 2
        assert self.counts(queries, split) == (2, 2)
        # a hand-assembled test split holds a doc side of its own, and pools its docs
        own = CorpusSplit(train=split.train,
                          test=replace(split.test, docs=replace(split.test.docs)))
        assert own.test.docs is not own.train.docs
        assert _mrrs(*pool_split(model, own), part) == record
        assert len(docs) == 4
        assert compute_destinations(*pool_split(model, own), part) == dest
        assert len(docs) == 6
        assert [args[1] for args in docs[-2:]] == [own.train, own.test]
        assert self.counts(queries, own) == (4, 2)

    def test_retrain_pools_the_final_model_once(self, workdir, tmp_path, pooled):
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs", runs)
        assert main(["--config", str(workdir / "config.json"), "--out", str(runs), "retrain",
                     "--spec", "spec_document_25"]) == 0
        # the fresh model and each epoch's end (its MRR, the next epoch's
        # mining, and after the last epoch the final model's destinations)
        epochs = SMALL_CONFIG["train"]["epochs"]
        docs, queries = pooled
        assert len(docs) == epochs + 1
        assert len(queries) == epochs + 2
        assert queries[-1][1] is not docs[-1][1]  # the test queries, last
        report = json.loads((runs / "retrain" / "spec_document_25" / "report.json")
                            .read_text())
        split, part, _ = self.world(workdir)
        model = load_model(runs / "retrain" / "spec_document_25" / "model.bin")
        train, test = pool_split(model, split)
        dest = compute_destinations(train, test, part)
        assert report == {
            "mrr_forget": dest.d1,
            "mrr_entangled": mrr_set(train, part.entangled).value,
            "mrr_disjoint": mrr_set(train, part.disjoint).value,
            "mrr_test": dest.d2,
            "destinations": {"d1": dest.d1, "d2": dest.d2, "d3": dest.d3},
        }

    def test_fit_pools_once_per_epoch_and_once_more(self, workdir, pooled):
        split, _, _ = self.world(workdir)
        epochs = 3
        train(split, TrainConfig(**{**SMALL_CONFIG["train"], "epochs": epochs}))
        docs, queries = pooled
        assert self.counts(docs, split) == (epochs + 1, 0)
        assert self.counts(queries, split) == (epochs + 1, 0)

    def test_cocol_pools_the_train_split_once_per_checkpoint(self, workdir, pooled):
        split, part, model = self.world(workdir)
        run = unlearn(model, split, part, UnlearnConfig(method=Method.COCOL, max_epochs=4,
                                                        check_every=2, delta_target=0.001))
        checkpoints = len(run.trajectory)
        assert checkpoints == 3
        # the teacher's scores share the first checkpoint's pooling
        docs, queries = pooled
        assert self.counts(docs, split) == (checkpoints, 0)
        assert self.counts(queries, split) == (checkpoints, checkpoints)

    @pytest.mark.parametrize("check_every, checkpoints, unchecked", [(1, 5, 0), (2, 3, 2)])
    def test_cf_pools_once_per_checkpoint_and_per_epoch_after_no_checkpoint(
            self, workdir, pooled, check_every, checkpoints, unchecked):
        split, part, model = self.world(workdir)
        run = unlearn(model, split, part, UnlearnConfig(method=Method.CF, max_epochs=4,
                                                        check_every=check_every,
                                                        delta_target=0.001))
        assert len(run.trajectory) == checkpoints
        # an epoch mines on the pooling of the checkpoint before it, if there is one
        docs, queries = pooled
        assert self.counts(docs, split) == (checkpoints + unchecked, 0)
        assert self.counts(queries, split) == (checkpoints + unchecked, checkpoints)

    def test_badt_pools_once_per_checkpoint_and_once_for_the_random_teacher(self, workdir,
                                                                            pooled):
        split, part, model = self.world(workdir)
        run = unlearn(model, split, part, UnlearnConfig(method=Method.BADT, max_epochs=2,
                                                        delta_target=0.001))
        checkpoints = len(run.trajectory)
        assert checkpoints == 3
        docs, queries = pooled
        assert self.counts(docs, split) == (checkpoints + 1, 0)
        assert self.counts(queries, split) == (checkpoints + 1, checkpoints)

    def test_ssd_pools_the_trained_model_once(self, workdir, pooled):
        split, part, model = self.world(workdir)
        unlearn(model, split, part, UnlearnConfig(method=Method.SSD))
        # once for both importance passes, once for the edited model's checkpoint
        docs, queries = pooled
        assert len(docs) == 2
        assert self.counts(queries, split) == (2, 1)


class TestOffsetTables:
    """An SGD command builds the train split's step tables once for
    its model shape, and a read-only command builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        real = ranker._step_tables

        def counted(dataset, shape):
            calls.append(shape)
            return real(dataset, shape)

        monkeypatch.setattr(ranker, "_step_tables", counted)
        return calls

    @pytest.mark.parametrize("command", [
        ["train"],
        ["retrain", "--spec", "spec_document_25"],
        ["unlearn", "--spec", "spec_document_25", "--method", "cocol", "--delta", "0.001"],
    ], ids=lambda command: command[0])
    def test_sgd_command_builds_one_table(self, workdir, tmp_path, built, command):
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs", runs)
        config = tmp_path / "c.json"  # two unlearning epochs, so steps are taken
        config.write_text(json.dumps({**SMALL_CONFIG, "unlearn": {
            **SMALL_CONFIG["unlearn"], "max_epochs": 2}}), encoding="utf-8")
        assert main(["--config", str(config), "--out", str(runs), *command]) == 0
        vocab, dim = SMALL_CONFIG["corpus"]["vocab_size"], SMALL_CONFIG["train"]["dim"]
        assert built == [(2 * vocab, dim)]

    def test_eval_builds_none(self, workdir, tmp_path, built):
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs", runs)
        assert main(["--out", str(runs), "eval", "--spec", "spec_document_25",
                     "--model", str(runs / "train" / "model.bin")]) == 0
        assert built == []


UNLEARN_SSD = ["unlearn", "--spec", "spec_document_25", "--method", "ssd", "--delta", "0.4"]


class TestMalformedArtifacts:
    """A damaged run artifact ends in ERROR:data and exit 1, never a traceback."""

    @pytest.fixture
    def runs(self, workdir, tmp_path):
        copy = tmp_path / "runs"
        shutil.copytree(workdir / "runs", copy)
        return copy

    @staticmethod
    def fails_with_data_error(capsys, runs, *args):
        code = main(["--out", str(runs), *args])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("ERROR:data:"), err
        return err

    def unlearn(self, capsys, runs):
        return self.fails_with_data_error(capsys, runs, "unlearn", "--spec", "spec_document_25",
                                          "--method", "ssd", "--delta", "0.4")

    @pytest.mark.parametrize("name, token", [("train_queries.jsonl", 2**63),
                                             ("docs.jsonl", -2**63 - 1)])
    def test_token_outside_int64(self, runs, capsys, name, token):
        path = runs / "corpus" / name
        lines = path.read_text(encoding="utf-8").split("\n")
        item = json.loads(lines[1])
        item["tokens"][0] = token
        lines[1] = json.dumps(item)
        path.write_text("\n".join(lines), encoding="utf-8")
        err = self.fails_with_data_error(capsys, runs, "partition", "--spec", "spec_document_25")
        assert err == f"ERROR:data: {path}:2: token {token} outside the 64-bit integer range\n"

    def test_short_row_in_train_trajectory(self, runs, capsys):
        path = runs / "train" / "trajectory.csv"
        path.write_text(path.read_text() + "9,0.5\n")
        shutil.rmtree(runs / "unlearn")
        err = self.unlearn(capsys, runs)
        assert f"trajectory.csv:{1 + SMALL_CONFIG['train']['epochs'] + 1}:" in err
        assert not (runs / "unlearn").exists()

    def test_bad_json_in_retrain_report(self, runs, capsys):
        (runs / "retrain" / "spec_document_25" / "report.json").write_text("{\"mrr_test\": ")
        assert "malformed JSON" in self.unlearn(capsys, runs)

    def test_retrain_report_without_test_mrr(self, runs, capsys):
        path = runs / "retrain" / "spec_document_25" / "report.json"
        report = json.loads(path.read_text())
        del report["mrr_test"]
        path.write_text(json.dumps(report))
        assert "mrr_test" in self.unlearn(capsys, runs)

    def test_run_report_without_a_key(self, runs, capsys):
        path = runs / "unlearn" / "cocol_spec_document_25_d2" / "report.json"
        report = json.loads(path.read_text())
        del report["mrr_entangled"]
        path.write_text(json.dumps(report))
        assert "mrr_entangled" in self.fails_with_data_error(capsys, runs, "report")

    def test_bad_json_in_run_report(self, runs, capsys):
        (runs / "unlearn" / "cocol_spec_document_25_d2" / "report.json").write_text("[1, 2")
        assert "malformed JSON" in self.fails_with_data_error(capsys, runs, "report")

    def test_run_report_not_an_object(self, runs, capsys):
        (runs / "unlearn" / "cocol_spec_document_25_d2" / "report.json").write_text("[1, 2]")
        self.fails_with_data_error(capsys, runs, "report")

    # the first four once ended in a traceback from the charts, the rest
    # in a report.csv that copied the bad value
    @pytest.mark.parametrize("changes", [
        {"mrr_test": "bad"},
        {"mrr_forget": None, "normalized_forget": None},
        {"mrr_disjoint": float("nan")},
        {"normalized_forget": "x"},
        {"epochs_run": "x"},
        {"epochs_run": 2.0},
        {"stopped_early": [1]},
        {"stopped_early": 1},
        {"delta_target": None},
        {"delta_target": float("inf")},
        {"normalized_epoch_duration": "fast"},
        {"total_unlearn_time": "slow"},
        {"method": 3},
        {"spec": ["spec_document_25"]},
        {"edited_params": 1.5},
    ], ids=repr)
    def test_bad_values_in_run_report(self, runs, capsys, changes):
        path = runs / "unlearn" / "cocol_spec_document_25_d2" / "report.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
        shutil.rmtree(runs / "report")
        err = self.fails_with_data_error(capsys, runs, "report")
        assert str(path) in err and next(iter(changes)) in err, err
        assert not (runs / "report").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_wall_time_in_train_trajectory(self, runs, capsys, value):
        path = runs / "train" / "trajectory.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:3] + [value])
        path.write_text("\n".join(lines) + "\n")
        shutil.rmtree(runs / "unlearn")
        err = self.unlearn(capsys, runs)
        assert f"{path}:2: expected a finite number in column 4" in err
        assert not (runs / "unlearn").exists()

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_forget_mrr_in_run_trajectory(self, runs, capsys, value):
        path = runs / "unlearn" / "cocol_spec_document_25_d2" / "trajectory.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        lines[1] = ",".join([cells[0], value, *cells[2:]])
        path.write_text("\n".join(lines) + "\n")
        shutil.rmtree(runs / "report")
        err = self.fails_with_data_error(capsys, runs, "report")
        assert f"{path}:2: expected a finite number in column 2" in err
        assert not (runs / "report").exists()

    def test_bad_json_in_corpus_stats(self, runs, capsys):
        (runs / "corpus" / "stats.json").write_text("{vocab_size: 128}")
        assert "stats.json" in self.fails_with_data_error(
            capsys, runs, "partition", "--spec", "spec_document_25")

    @pytest.mark.parametrize("vocab, dim, words", [(4, 8, "smaller than the corpus"),
                                                   (128, 0, "embedding dim 0")])
    def test_model_that_does_not_fit_the_corpus(self, runs, capsys, vocab, dim, words):
        small = runs / "small.bin"
        save_model(init_model(vocab, dim, seed=0), small)
        err = self.fails_with_data_error(capsys, runs, "eval", "--spec", "spec_document_25",
                                         "--model", str(small))
        assert words in err
        small.replace(runs / "train" / "model.bin")
        assert words in self.unlearn(capsys, runs)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_model_with_a_non_finite_parameter(self, runs, capsys, value):
        model_path = runs / "train" / "model.bin"
        model = load_model(model_path)
        model.params[3, 1] = value
        save_model(model, model_path)
        shutil.rmtree(runs / "eval")
        shutil.rmtree(runs / "unlearn")
        err = self.fails_with_data_error(capsys, runs, "eval", "--spec", "spec_document_25",
                                         "--model", str(model_path))
        assert str(model_path) in err and "NaN or infinite" in err
        err = self.unlearn(capsys, runs)
        assert str(model_path) in err and "NaN or infinite" in err
        err = self.fails_with_data_error(capsys, runs, "unlearn", "--spec", "spec_document_25",
                                         "--method", "all", "--delta", "0.4")
        assert str(model_path) in err and "NaN or infinite" in err
        assert not (runs / "eval").exists() and not (runs / "unlearn").exists()

    def test_non_integer_vocab_in_corpus_stats(self, runs, capsys):
        for value in ('"large"', '"600"', "2900.0", "true"):
            (runs / "corpus" / "stats.json").write_text(f'{{"vocab_size": {value}}}')
            assert "vocab_size" in self.fails_with_data_error(
                capsys, runs, "partition", "--spec", "spec_document_25")
        (runs / "corpus" / "stats.json").write_text('{"vocab_size": 128, "train": [], "test": {}}')
        assert "train must be a JSON object" in self.fails_with_data_error(
            capsys, runs, "partition", "--spec", "spec_document_25")

    # a column is found by its declared name, so a header that does not
    # declare it is refused rather than read by position
    @pytest.mark.parametrize("artifact, args, header", [
        ("train/trajectory.csv", UNLEARN_SSD, "epoch,loss,mrr_train,wall_s"),
        ("unlearn/cocol_spec_document_25_d2/trajectory.csv", ["report"],
         "epoch,mrr_entangled,mrr_forget,mrr_disjoint,mrr_test,wall_time_s"),
    ], ids=["train", "run"])
    def test_trajectory_with_another_header(self, runs, capsys, artifact, args, header):
        path = runs / artifact
        lines = path.read_text().splitlines()
        path.write_text("\n".join([header, *lines[1:]]) + "\n")
        shutil.rmtree(runs / args[0])
        err = self.fails_with_data_error(capsys, runs, *args)
        assert err == f"ERROR:data: {path}:1: expected the header {lines[0]}\n"
        assert not (runs / args[0]).exists()

    # the CSV files once ended in a UnicodeDecodeError traceback, the JSON
    # files in "malformed JSON"
    @pytest.mark.parametrize("artifact, args", [
        ("train/trajectory.csv", UNLEARN_SSD),
        ("retrain/spec_document_25/report.json", UNLEARN_SSD),
        ("unlearn/cocol_spec_document_25_d2/trajectory.csv", ["report"]),
        ("unlearn/cocol_spec_document_25_d2/report.json", ["report"]),
        ("corpus/stats.json", ["partition", "--spec", "spec_document_25"]),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_artifact_not_utf8(self, runs, capsys, artifact, args):
        path = runs / artifact
        data = path.read_bytes()
        path.write_bytes(data[:10] + b"\xff" + data[10:])
        shutil.rmtree(runs / args[0])
        assert main(["--out", str(runs), *args]) == 1
        assert capsys.readouterr().err == \
            f"ERROR:data: {path}: not UTF-8 (invalid start byte at byte 10)\n"
        assert not (runs / args[0]).exists()

    @pytest.mark.parametrize("damage", [
        lambda r: r["destinations"].update(d1="x"),
        lambda r: r["destinations"].update(d1=None),
        lambda r: r["destinations"].update(d3=[1]),
        lambda r: r.update(destinations=list(r["destinations"].values())),
        lambda r: r.update(mrr_test="bad"),
        lambda r: r.update(mrr_entangled="0.5"),
    ], ids=["d1 text", "d1 null", "d3 list", "destinations list", "mrr_test text",
            "mrr_entangled text"])
    @pytest.mark.parametrize("target", [["--dest", "d1"], ["--delta", "0.4"]],
                             ids=["dest", "delta"])
    def test_bad_values_in_retrain_report(self, runs, capsys, damage, target):
        path = runs / "retrain" / "spec_document_25" / "report.json"
        report = json.loads(path.read_text())
        damage(report)
        path.write_text(json.dumps(report))
        shutil.rmtree(runs / "unlearn")
        err = self.fails_with_data_error(capsys, runs, "unlearn", "--spec", "spec_document_25",
                                         "--method", "cocol", *target)
        assert str(path) in err
        assert not (runs / "unlearn").exists()


class TestTablesThatCannotExist:
    """A model table that no model file can store, or no array can hold,
    ends in ERROR:<code> and exit 1, never a traceback. Every size here
    fails before a page is touched: a vocabulary or dim of 2**32 or more,
    or a table of 2 PiB, past the 47-bit address space."""

    @pytest.fixture
    def runs(self, workdir, tmp_path):
        copy = tmp_path / "runs"
        shutil.copytree(workdir / "runs" / "corpus", copy / "corpus")
        return copy

    @staticmethod
    def train(capsys, runs, code, dim=SMALL_CONFIG["train"]["dim"], vocab=None):
        if vocab is not None:
            path = runs / "corpus" / "stats.json"
            path.write_text(json.dumps({**json.loads(path.read_text()), "vocab_size": vocab}))
        config = runs / "config.json"
        config.write_text(json.dumps({"train": {**SMALL_CONFIG["train"], "dim": dim}}))
        assert main(["--config", str(config), "--out", str(runs), "train"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR:{code}:") and err.count("\n") == 1, err
        assert not (runs / "train").exists()
        return err

    @pytest.mark.parametrize("vocab", [2**32, 2**40, 10**20])
    def test_vocab_in_corpus_stats(self, runs, capsys, vocab):
        assert f"a model of {vocab} tokens and dim 8 cannot be saved" in \
            self.train(capsys, runs, "config", vocab=vocab)

    def test_huge_token_in_docs(self, runs, capsys):
        path = runs / "corpus" / "docs.jsonl"
        lines = path.read_text(encoding="utf-8").split("\n")
        item = json.loads(lines[1])
        item["tokens"][0] = 2**62
        lines[1] = json.dumps(item)
        path.write_text("\n".join(lines), encoding="utf-8")
        assert f"a model of {2**62 + 1} tokens" in self.train(capsys, runs, "config")

    def test_dim_past_the_model_file(self, runs, capsys):
        assert "dim=4294967296 must be below 2**32" in self.train(capsys, runs, "config",
                                                                  dim=2**32)

    def test_table_past_an_array(self, runs, capsys):
        err = self.train(capsys, runs, "config", dim=2**32 - 1, vocab=2**32 - 1)
        assert "is too large for an array" in err

    def test_table_past_the_address_space(self, runs, capsys):
        assert "2.00 PiB" in self.train(capsys, runs, "memory", dim=2**16, vocab=2**31 - 1)

    def test_gen_vocab_past_the_model_file(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({**SMALL_CONFIG, "corpus": {**SMALL_CONFIG["corpus"],
                                                                 "vocab_size": 2**40}}))
        assert main(["--config", str(config), "--out", str(tmp_path / "o"), "gen"]) == 1
        err = capsys.readouterr().err
        assert err == "ERROR:config: vocab_size=1099511627776 must be below 2**32, the most " \
            "a model file holds\n"
        assert not (tmp_path / "o").exists()


def _declared(payload, fields) -> bool:
    """Whether ``payload`` has exactly the keys of the declaration ``fields``."""
    return sorted(payload) == sorted(fields) and all(
        _declared(payload[key], kind) for key, kind in fields.items() if isinstance(kind, dict))


def test_every_declared_artifact_reads_back_through_its_declaration(workdir):
    runs = workdir / "runs"
    run_dirs = sorted((runs / "unlearn").iterdir())
    for path, fields in [(runs / "corpus" / "stats.json", cli.CORPUS_STATS),
                         (runs / "retrain" / "spec_document_25" / "report.json",
                          cli.RETRAIN_REPORT),
                         *((d / "report.json", cli.RUN_REPORT) for d in run_dirs)]:
        assert _declared(cli._read_artifact(path, fields), fields), path
    for path, columns in [(runs / "train" / "trajectory.csv", cli.TRAIN_TRAJECTORY),
                          *((d / "trajectory.csv", cli.UNLEARN_TRAJECTORY) for d in run_dirs)]:
        header, *rows = path.read_text().splitlines()
        assert header == ",".join(columns)
        table = {name: cli._read_column(path, columns, name) for name in columns}
        assert list(zip(*table.values())) == [tuple(kind(cell) for kind, cell in
                                                    zip(columns.values(), row.split(",")))
                                              for row in rows]


def test_every_method_reports_its_measured_unlearning_time(workdir, tmp_path):
    # ssd edits the model once, with no epoch: its one timed edit (both
    # importance passes and the dampening) is its whole unlearning time
    runs = tmp_path / "runs"
    for part in ("corpus", "specs", "train"):
        shutil.copytree(workdir / "runs" / part, runs / part)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**SMALL_CONFIG,
                                  "unlearn": {**SMALL_CONFIG["unlearn"], "max_epochs": 2}}))
    assert main(["--config", str(config), "--out", str(runs), "unlearn", "--spec",
                 "spec_document_25", "--method", "all", "--delta", "0.001"]) == 0
    reports = {d.name.split("_")[0]: json.loads((d / "report.json").read_text())
               for d in (runs / "unlearn").iterdir()}
    assert sorted(reports) == sorted(m.value for m in Method)
    ssd = reports.pop("ssd")
    assert ssd["epochs_run"] == 0 and ssd["edited_params"] > 0
    assert ssd["total_unlearn_time"] > 0.0
    assert ssd["total_unlearn_time"] == ssd["normalized_epoch_duration"]
    for method, report in reports.items():
        assert report["epochs_run"] == 2, method
        assert report["total_unlearn_time"] == \
            report["normalized_epoch_duration"] * report["epochs_run"], method


def test_docs_file_is_read_once_per_command(workdir, tmp_path, monkeypatch):
    import numur.corpus as corpus

    runs = tmp_path / "runs"
    for part in ("corpus", "specs"):
        shutil.copytree(workdir / "runs" / part, runs / part)
    (runs / "corpus" / cli.CORPUS_IMAGE).unlink()
    reads = []
    read_items = corpus._read_jsonl_items
    monkeypatch.setattr(corpus, "_read_jsonl_items",
                        lambda path: reads.append(path.name) or read_items(path))
    assert main(["--out", str(runs), "partition", "--spec", "spec_document_25"]) == 0
    assert sorted(reads) == ["docs.jsonl", "test_queries.jsonl", "train_queries.jsonl"]
    # that parse wrote the image, and the next command reads no text file
    assert main(["--out", str(runs), "partition", "--spec", "spec_document_25"]) == 0
    assert len(reads) == 3



def test_both_splits_map_every_doc_to_the_same_row(workdir):
    from numur.cli import _corpus_paths, _load_split

    split = _load_split(workdir / "runs")
    train, test = split.train.docs, split.test.docs
    assert test is train  # one doc side, with its row map, groups and id order built once
    # and it is what the test split would load on its own
    alone = load_dataset(*_corpus_paths(workdir / "runs", "test"))
    assert alone.docs.row == test.row and np.array_equal(alone.docs.id_order, test.id_order)
    for (rows, toks), (want_rows, want_toks) in zip(test.groups, alone.docs.groups, strict=True):
        assert np.array_equal(rows, want_rows) and np.array_equal(toks, want_toks)
    assert np.array_equal(split.test.pool_matrix, alone.pool_matrix)
    assert np.array_equal(split.test.pool_len, alone.pool_len)

class _Unprintable:
    def __str__(self):
        raise ValueError("cell cannot be written")


@pytest.mark.parametrize("write", [
    # the header is written before the table fails to convert to float64; a
    # ScoreModel would fail on that table, since it copies it into float64
    lambda path: save_model(SimpleNamespace(vocab_size=1, dim=1, params=np.array(
        [[1.0], [object()]], dtype=object)), path),
    lambda path: _write_json(path, {"a": 1, "b": object()}),
    lambda path: _write_csv(path, ["a"], [[1], [_Unprintable()]]),
    # ids of two types cannot be sorted into the file
    lambda path: save_forget_spec(ForgetSpec(RemovalKind.QUERY, frozenset({"q1", 2})), path),
], ids=["save_model", "_write_json", "_write_csv", "save_forget_spec"])
def test_failed_write_keeps_the_previous_file(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")
    with pytest.raises((TypeError, ValueError)):
        write(path)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]


def test_atomic_write_replaces_only_when_complete(tmp_path):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")
    with pytest.raises(OSError):
        with atomic_write(path) as fh:
            fh.write(b"partial")
            raise OSError("disk full")
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    with atomic_write(path) as fh:
        fh.write(b"new")
    assert path.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    model = init_model(6, 3, seed=1)
    save_model(model, path)
    assert np.array_equal(load_model(path).params, model.params)


def _run_in(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return lambda *args: main(["--config", str(path), "--out", str(tmp_path / "runs"), *args])


def test_unlearning_that_diverges_fails_and_writes_nothing(tmp_path, capsys):
    # At this step size neggrad turns the parameters to NaN within a few epochs.
    run = _run_in(tmp_path, {"train": {"epochs": 3},
                             "unlearn": {"learning_rate": 1e4, "max_epochs": 30}})
    assert run("gen") == 0
    assert run("train") == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = run("unlearn", "--spec", "spec_document_25", "--method", "neggrad",
                   "--delta", "0.001")
    assert code == 1
    assert capsys.readouterr().err.startswith("ERROR:diverged: ")
    assert not (tmp_path / "runs" / "unlearn").exists()


@pytest.mark.parametrize("command", [["train"], ["retrain", "--spec", "spec_document_25"]])
def test_training_that_diverges_fails_and_writes_nothing(tmp_path, capsys, command):
    config = dict(SMALL_CONFIG, train=dict(SMALL_CONFIG["train"], learning_rate=1e12))
    run = _run_in(tmp_path, config)
    assert run("gen") == 0
    capsys.readouterr()
    with np.errstate(all="ignore"):
        assert run(*command) == 1
    assert capsys.readouterr().err.startswith("ERROR:diverged: ")
    assert not (tmp_path / "runs" / command[0]).exists()
