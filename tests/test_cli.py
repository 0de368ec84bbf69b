import json
import shutil
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from numur import (CorpusSplit, ForgetSpec, Method, RemovalKind, ScoreModel, UnlearnConfig,
                   compute_destinations, init_model, load_forget_spec, load_model, mrr_forget,
                   mrr_set, partition, ranker, save_forget_spec, save_model, unlearn,
                   unlearn_engine)
from numur.cli import _load_split, _write_csv, _write_json, main
from numur.corpus import atomic_write
from numur.unlearn_engine import _evaluate

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

    def test_delta_and_dest_conflict(self, workdir, capsys):
        out = workdir / "runs"
        code = main(["--out", str(out), "unlearn", "--spec", "spec_document_25",
                     "--method", "cocol", "--delta", "0.5", "--dest", "d1"])
        assert code == 1
        assert "ERROR:config:" in capsys.readouterr().err


@pytest.mark.parametrize("params, code", [({"margin": 2.0, "phase2": False}, 0),
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


class TestDocPooling:
    """Docs are pooled once per model state when the splits share doc rows."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        calls = []
        real = ranker.doc_vectors

        def counted(model, dataset):
            calls.append(dataset)
            return real(model, dataset)

        monkeypatch.setattr(ranker, "doc_vectors", counted)
        monkeypatch.setattr(unlearn_engine, "doc_vectors", counted)
        return calls

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
        assert len(pooled) == 1
        report = json.loads((runs / "eval" / "train_model_spec_document_25" / "report.json")
                            .read_text())
        split, part, model = self.world(workdir)
        assert report["mrr_test"] == mrr_set(model, split.test, split.test.samples).value
        assert report["mrr_forget"] == mrr_forget(model, split.train, part, part.spec).value

    def test_checkpoints_and_destinations_pool_once_on_loaded_splits(self, workdir, pooled):
        split, part, model = self.world(workdir)
        assert split.test.index.doc_row is split.train.index.doc_row
        record = _evaluate(model, split, part, 0, 0.0)
        assert len(pooled) == 1
        dest = compute_destinations(model, split, part)
        assert len(pooled) == 2
        # a hand-assembled test split indexes its own docs, and pools them
        own = CorpusSplit(train=split.train, test=replace(split.test))
        assert own.test.index.doc_row is not own.train.index.doc_row
        assert _evaluate(model, own, part, 0, 0.0) == record
        assert len(pooled) == 4
        assert compute_destinations(model, own, part) == dest
        assert len(pooled) == 6
        assert pooled[-2:] == [own.train, own.test]

    def test_retrain_pools_the_final_model_once(self, workdir, tmp_path, pooled):
        runs = tmp_path / "runs"
        shutil.copytree(workdir / "runs", runs)
        assert main(["--config", str(workdir / "config.json"), "--out", str(runs), "retrain",
                     "--spec", "spec_document_25"]) == 0
        # each training epoch pools for its hard negatives and its MRR
        assert len(pooled) == 2 * SMALL_CONFIG["train"]["epochs"] + 1
        report = json.loads((runs / "retrain" / "spec_document_25" / "report.json")
                            .read_text())
        split, part, _ = self.world(workdir)
        model = load_model(runs / "retrain" / "spec_document_25" / "model.bin")
        dest = compute_destinations(model, split, part)
        assert report == {
            "mrr_forget": dest.d1,
            "mrr_entangled": mrr_set(model, split.train, part.entangled).value,
            "mrr_disjoint": mrr_set(model, split.train, part.disjoint).value,
            "mrr_test": dest.d2,
            "destinations": {"d1": dest.d1, "d2": dest.d2, "d3": dest.d3},
        }

    def test_ssd_pools_the_trained_model_once(self, workdir, pooled):
        split, part, model = self.world(workdir)
        unlearn(model, split, part, UnlearnConfig(method=Method.SSD))
        # once for both importance passes, once for the edited model's checkpoint
        assert len(pooled) == 2


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

    def test_short_row_in_train_trajectory(self, runs, capsys):
        path = runs / "train" / "trajectory.csv"
        path.write_text(path.read_text() + "9,0.5\n")
        err = self.unlearn(capsys, runs)
        assert f"trajectory.csv:{1 + SMALL_CONFIG['train']['epochs'] + 1}:" in err

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
        assert not (runs / "eval").exists() and not (runs / "unlearn").exists()

    def test_non_integer_vocab_in_corpus_stats(self, runs, capsys):
        (runs / "corpus" / "stats.json").write_text('{"vocab_size": "large"}')
        assert "vocab_size" in self.fails_with_data_error(
            capsys, runs, "partition", "--spec", "spec_document_25")


def test_docs_file_is_read_once_per_command(workdir, monkeypatch):
    import numur.corpus as corpus

    reads = []
    read_items = corpus._read_jsonl_items
    monkeypatch.setattr(corpus, "_read_jsonl_items",
                        lambda path: reads.append(path.name) or read_items(path))
    assert main(["--out", str(workdir / "runs"), "partition", "--spec", "spec_document_25"]) == 0
    assert sorted(reads) == ["docs.jsonl", "test_queries.jsonl", "train_queries.jsonl"]



def test_both_splits_map_every_doc_to_the_same_row(workdir):
    from numur.cli import _load_split
    from numur.corpus import DatasetIndex

    split = _load_split(workdir / "runs")
    train, test = split.train.index, split.test.index
    assert test.doc_row is train.doc_row  # built once, for the train split
    assert test.groups is train.groups and test.id_order is train.id_order
    # and the shared half is what the test split would build on its own
    alone = DatasetIndex.build(split.test)
    assert alone.doc_row == test.doc_row and np.array_equal(alone.id_order, test.id_order)
    for (rows, toks), (want_rows, want_toks) in zip(test.groups, alone.groups, strict=True):
        assert np.array_equal(rows, want_rows) and np.array_equal(toks, want_toks)
    for qid, rows in test.pool_rows.items():
        assert np.array_equal(rows, alone.pool_rows[qid])

class _Unprintable:
    def __str__(self):
        raise ValueError("cell cannot be written")


@pytest.mark.parametrize("write", [
    # the header is written before the table fails to convert to float64
    lambda path: save_model(ScoreModel(np.array([[1.0], [object()]], dtype=object)), path),
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
