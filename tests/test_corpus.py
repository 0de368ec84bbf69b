import hashlib
import json

import pytest

from numur import (ConfigError, DataError, SyntheticConfig, dataset_stats, generate_synthetic,
                   load_dataset, save_dataset)
from numur.cli import main
from numur.corpus import QRELS_HEADER, POOLS_HEADER

from conftest import Label, dataset_of, empty_dataset, figure_case_dataset, samples_of, tokens_of


def write_corpus_files(tmp_path, dataset):
    paths = tuple(tmp_path / name for name in
                  ("queries.jsonl", "docs.jsonl", "qrels.tsv", "pools.tsv"))
    save_dataset(dataset, *paths)
    return paths


class TestLoadDataset:
    def test_round_trip_figure_case(self, tmp_path):
        ds = figure_case_dataset()
        paths = write_corpus_files(tmp_path, ds)
        loaded = load_dataset(*paths)
        assert loaded.n_samples == 7
        assert len(loaded.queries.ids) == 5
        assert len(loaded.docs.ids) == 5
        assert [s.query_id for s in samples_of(loaded)] == [s.query_id for s in samples_of(ds)]
        assert loaded.pools == ds.pools

    def test_round_trip_bytes(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(n_queries=8, n_docs=24, vocab_size=64,
                                                pool_size=10, seed=3)).train
        first = write_corpus_files(tmp_path, ds)
        loaded = load_dataset(*first)
        second = tuple(tmp_path / ("b_" + p.name) for p in first)
        save_dataset(loaded, *second)
        for a, b in zip(first, second):
            assert a.read_bytes().rstrip() == b.read_bytes().rstrip()

    def test_empty_qrels_gives_zero_samples(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        qr.write_text(QRELS_HEADER + "\n", encoding="utf-8")
        loaded = load_dataset(q, d, qr, po)
        assert samples_of(loaded) == []

    def test_dangling_doc_reference(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        qr.write_text(QRELS_HEADER + "\nq1\td9\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="d9"):
            load_dataset(q, d, qr, po)

    def test_malformed_line_reports_line_number(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        q.write_text('{"id": "q1", "tokens": [1]}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match=":2"):
            load_dataset(q, d, qr, po)

    def test_duplicate_pair_rejected(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        qr.write_text(QRELS_HEADER + "\nq1\td1\t1\nq1\td1\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate pair"):
            load_dataset(q, d, qr, po)

    def test_positive_absent_from_pool(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        qr.write_text(QRELS_HEADER + "\nq1\td5\t1\n", encoding="utf-8")
        with pytest.raises(DataError, match="absent from pool"):
            load_dataset(q, d, qr, po)

    def test_bad_header_rejected(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        po.write_text("who\twhat\twhere\n", encoding="utf-8")
        with pytest.raises(DataError, match="header"):
            load_dataset(q, d, qr, po)

    def test_pool_order_follows_rank_hint(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        lines = [POOLS_HEADER] + [f"q1\td2\t5", f"q1\td1\t2"] + [
            f"{qid}\t{did}\t{i}" for qid, pool in ds.pools.items() if qid != "q1"
            for i, did in enumerate(pool)]
        po.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_dataset(q, d, qr, po)
        assert loaded.pools["q1"] == ("d1", "d2")

    def test_pools_keep_the_order_first_listed(self, tmp_path):
        ds = figure_case_dataset()
        q, d, qr, po = write_corpus_files(tmp_path, ds)
        pools = [[f"{qid}\t{did}\t{i}" for i, did in enumerate(pool)]
                 for qid, pool in reversed(ds.pools.items())]
        # one line of the second pool listed before the first pool
        lines = pools[1][:1] + pools[0] + pools[1][1:] + sum(pools[2:], [])
        po.write_text("\n".join([POOLS_HEADER] + lines) + "\n", encoding="utf-8")
        loaded = load_dataset(q, d, qr, po)
        want = list(ds.pools)[::-1]
        assert list(loaded.pools) == [want[1], want[0]] + want[2:]
        save_dataset(loaded, q, d, qr, po)
        assert list(load_dataset(q, d, qr, po).pools) == list(loaded.pools)


class TestGenerateSynthetic:
    def test_acceptance_counts(self):
        split = generate_synthetic(SyntheticConfig())
        assert len(split.train.queries.ids) == 51
        assert len(split.test.queries.ids) == 13
        assert all(len(p) == 100 for p in split.train.pools.values())
        assert all(len(p) == 100 for p in split.test.pools.values())

    def test_determinism(self):
        a = generate_synthetic(SyntheticConfig())
        b = generate_synthetic(SyntheticConfig())
        assert samples_of(a.train) == samples_of(b.train)
        assert tokens_of(a.train.queries) == tokens_of(b.train.queries)
        assert tokens_of(a.train.docs) == tokens_of(b.train.docs)
        assert a.train.pools == b.train.pools
        assert samples_of(a.test) == samples_of(b.test)

    def test_zero_entanglement_no_shared_positives(self):
        split = generate_synthetic(SyntheticConfig(entanglement_rate=0.0))
        owners = {}
        for ds in (split.train, split.test):
            for s in samples_of(ds):
                if s.label is Label.POSITIVE:
                    owners.setdefault(s.doc_id, set()).add(s.query_id)
        assert all(len(qs) == 1 for qs in owners.values())

    def test_positive_entanglement_shares_docs(self):
        split = generate_synthetic(SyntheticConfig())
        owners = {}
        for s in samples_of(split.train):
            if s.label is Label.POSITIVE:
                owners.setdefault(s.doc_id, set()).add(s.query_id)
        assert any(len(qs) >= 2 for qs in owners.values())

    def test_invariants_hold(self):
        split = generate_synthetic(SyntheticConfig(seed=11))
        for ds in (split.train, split.test):  # dataset_of checks every invariant again
            dataset_of(tokens_of(ds.queries), tokens_of(ds.docs), samples_of(ds), ds.pools,
                       ds.vocab_size)
        split.check_disjoint()

    def test_splits_share_one_doc_side(self):
        # as a test split loaded with docs_from does, so pool_split pools the docs once
        split = generate_synthetic(SyntheticConfig())
        assert split.test.docs is split.train.docs

    def test_test_queries_disjoint(self):
        split = generate_synthetic(SyntheticConfig())
        assert not set(split.train.queries.ids) & set(split.test.queries.ids)

    def test_infeasible_pool_size(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(n_docs=40, pool_size=80))

    def test_infeasible_vocab(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticConfig(vocab_size=30))


class TestDatasetStats:
    def test_figure_case_counts(self):
        stats = dataset_stats(figure_case_dataset())
        # brute-force: q1 has positives d1 and d2, q4 has d3 and d4
        assert stats.queries_with_multiple_positives == 2
        assert stats.n_samples == 7
        assert stats.mean_positives_per_query == pytest.approx(7 / 5)

    def test_empty_dataset(self):
        stats = dataset_stats(empty_dataset(1))
        assert stats.n_samples == 0
        assert stats.mean_positives_per_query == 0.0
        assert stats.mean_pool_size == 0.0
        assert stats.queries_with_multiple_positives == 0

    def test_an_empty_pool_counts_as_a_pool(self):
        ds = dataset_of(queries={"q1": (1,), "q2": (2,)}, docs={"d1": (3,)},
                        samples=[], pools={"q2": ("d1",), "q1": ()}, vocab_size=4)
        assert list(ds.pools.items()) == [("q2", ("d1",)), ("q1", ())]
        assert dataset_stats(ds).mean_pool_size == 0.5

    def test_synthetic_mean_positives(self):
        split = generate_synthetic(SyntheticConfig())
        stats = dataset_stats(split.train)
        assert stats.mean_positives_per_query == pytest.approx(2.0)
        assert stats.mean_pool_size == pytest.approx(100.0)


# The sha256 of every file ``gen`` writes, for corpus configs at the edges of
# the generator that the golden-diff workloads do not reach, recorded before
# the generator built its arrays from integer rows. Any change to a
# generated byte shows here.
GEN_BYTES = {
    # entanglement 0, one positive per query, no test split, pools of every doc
    "no-entanglement-one-positive-no-test": (
        {"n_queries": 10, "n_docs": 24, "vocab_size": 64, "positives_per_query": 1,
         "pool_size": 24, "entanglement_rate": 0.0, "test_fraction": 0.0, "seed": 2},
        {
            "corpus/docs.jsonl":
                "fb4e3a794a1d7ced6192a69c99f755ddf10ef8ce691fda7be9af8f6257a3a389",
            "corpus/stats.json":
                "0a931f24f32ba82b85e76126c535a3538c06e5dc93478455989d8ef35598e489",
            "corpus/test_pools.tsv":
                "5fe241baad73126d6c3236b8200b5cc94937488c5a72a29b475073dc542325b0",
            "corpus/test_qrels.tsv":
                "fb12645a8675e4543da42e63d85e038134456345b4a293ca78d4c51167f896cd",
            "corpus/test_queries.jsonl":
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "corpus/train_pools.tsv":
                "5048054450006caea098a9c97c20d1a9f8b6c7397d65f0c9e973c8ef65e126cc",
            "corpus/train_qrels.tsv":
                "a120713779ad49264bc40c49c4ce72d9047acd38f0c36f8bbee1963681140edf",
            "corpus/train_queries.jsonl":
                "52b06ab6e7b0f594db61c3c3eeb6743edd4860d5faad784c85b0b718dc367c7e",
            "specs/spec_document_25.json":
                "39e26854814478f2aeac49c2188324ff78e8343475152c5484ecfb15dad0be97",
            "specs/spec_query_25.json":
                "f795b0efa6ee81a172b53c5ff75a0640605b381201e8db76f021c4fcf5a410b1",
        }),
    # entanglement 1 and four positives: docs are shared on both sides
    "full-entanglement-four-positives": (
        {"n_queries": 16, "n_docs": 80, "vocab_size": 96, "positives_per_query": 4,
         "pool_size": 12, "entanglement_rate": 1.0, "test_fraction": 0.3, "seed": 4},
        {
            "corpus/docs.jsonl":
                "63dee7b48266f8e8f3a8c5d2411bc248eaff60a6b4fbfeec32c96865e5b7880a",
            "corpus/stats.json":
                "731dc4f88bdda4d953bbd3a3952bc2ea346b3ab09db494556b3a44db50deaae3",
            "corpus/test_pools.tsv":
                "880b1326f4d8859e2dbcf104c52ba1c35f8c9cf3f50d315e8fd7284c56393364",
            "corpus/test_qrels.tsv":
                "9b15f7804b68d0911800dff1818ef0f4ba18ee84915ce9b3dbe7d6df48408f36",
            "corpus/test_queries.jsonl":
                "7ff3dbd786dd698280a3e6539f64510af8cfdfb53f13f59f46b584b13e813460",
            "corpus/train_pools.tsv":
                "8469487bf70e8676d72a60f520122fb9d25de9fe96124b23cd1285f81b61c3ad",
            "corpus/train_qrels.tsv":
                "60d305ccbcd17174ed6351f36063edba3dcc0d54c2738281cf2033175a521704",
            "corpus/train_queries.jsonl":
                "0f8722efd8a82adf9f23a9dbf5b98908e13b8ddfda2fb54bcb60c6362d8fdf9f",
            "specs/spec_document_25.json":
                "de119c30f2bd148de3896db5cb62ed848be5970f7396d117c13818af638b573f",
            "specs/spec_query_25.json":
                "b1203505a4c9eee18c389ee6daee78ae5b2b552f156c5dc92da188ea20b26e5d",
        }),
    # n_docs is the number of positive docs, so no doc is plain noise
    "only-positive-docs": (
        {"n_queries": 20, "n_docs": 31, "vocab_size": 96, "positives_per_query": 2,
         "pool_size": 8, "entanglement_rate": 0.5, "test_fraction": 0.25, "seed": 13},
        {
            "corpus/docs.jsonl":
                "77091c281df8301b568fe36b347f773c8b0919bb967696e150eea2d7a812dbee",
            "corpus/stats.json":
                "997709511649e63d95ac60ad55d8eb7ef53b5384debf4d3c600d292a35ab5131",
            "corpus/test_pools.tsv":
                "7186a3764714fdfa7b474a2e1906d4275fbceba3c77e2811508973d4a997bb03",
            "corpus/test_qrels.tsv":
                "e266b33a23512c326c1b155397b87ed45c76c82a89fb589a3153fd03e5f1206c",
            "corpus/test_queries.jsonl":
                "02ab54f2adc07b8c76a182faa67542edf8edda74c31b6670c07383728ea490fc",
            "corpus/train_pools.tsv":
                "156c6b519c52b60a3025a300edc8f7d1375235a46cb1bc5f9293251697a282f4",
            "corpus/train_qrels.tsv":
                "aafff9614980e71cc6119aca473fd578bd20f8055b5daf9296f73d7ad21f3ed1",
            "corpus/train_queries.jsonl":
                "3d7a984bb71fcd2c4ed07f025c8ce2fe4045bc1faf235354ed840acb080c5cbb",
            "specs/spec_document_25.json":
                "c031d2d88042c775d8324b17a0bab08c0af607a11a6daecd2cb27aa82707b98d",
            "specs/spec_query_25.json":
                "8c5579668ccc4a895b84cdf61cba8b3f0f46ceadecd9bfb7874bab6588da02cd",
        }),
    # entanglement 0, four positives, pools of every doc
    "no-entanglement-four-positives-full-pools": (
        {"n_queries": 12, "n_docs": 50, "vocab_size": 80, "positives_per_query": 4,
         "pool_size": 50, "entanglement_rate": 0.0, "test_fraction": 0.2, "seed": 6},
        {
            "corpus/docs.jsonl":
                "570cef0497d98ae99871d98b1b25b901174175a1c6dd4bf0bc05dfb885b12f67",
            "corpus/stats.json":
                "145748979d38a6bf29fe08e05661756b3c87f9275ed543a4d1b71420b2c97222",
            "corpus/test_pools.tsv":
                "031784fda76b6b25712abb73b8718736a84db1574b24deb6ca18dcfef0c11a72",
            "corpus/test_qrels.tsv":
                "9c8cdcbabb226afe9b53b625237546a17367ffe5927fa35492166d02e9af4c35",
            "corpus/test_queries.jsonl":
                "c386029b260b9e0087314181f7e4e0e48a3facf1d6739b3d458dbb297e3dbdd9",
            "corpus/train_pools.tsv":
                "c03fb6f06ed9a6b886229052c71d0084b91cdf34d4f4d8d5762c4fdeb2bdbf98",
            "corpus/train_qrels.tsv":
                "938475942fcc5447aafca214d1a00d866e8e14b54550b7fabc27038db419c821",
            "corpus/train_queries.jsonl":
                "5f377dde7cd83947ef78d9ef4429f99d23de88e81f44f580814122cefd209165",
            "specs/spec_document_25.json":
                "1c6b2cabbd04bace1a38d1b5ec1b22819b24837ef5804c5a0e994383ceddfc31",
            "specs/spec_query_25.json":
                "485822bc9f84cc6e987f6a6cda0801d1d8ecbc61d0a6d07664e433a44f6f5b9c",
        }),
}


@pytest.mark.parametrize("name", list(GEN_BYTES))
def test_gen_writes_pinned_bytes(tmp_path, name):
    corpus, digests = GEN_BYTES[name]
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"corpus": corpus, "removal_fractions": [0.25]}),
                      encoding="utf-8")
    run = tmp_path / "run"
    assert main(["--config", str(config), "--out", str(run), "gen"]) == 0
    written = {path.relative_to(run).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(run.rglob("*")) if path.is_file()}
    assert written == digests
