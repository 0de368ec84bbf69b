import pytest

from numur import (ConfigError, DataError, Dataset, Label, SyntheticConfig, dataset_stats,
                   generate_synthetic, load_dataset, save_dataset)
from numur.corpus import QRELS_HEADER, POOLS_HEADER

from conftest import empty_dataset, figure_case_dataset, samples_of, tokens_of


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
        for ds in (split.train, split.test):  # Dataset.of checks every invariant again
            Dataset.of(tokens_of(ds.queries), tokens_of(ds.docs), samples_of(ds), ds.pools,
                       ds.vocab_size)
        split.check_disjoint()

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
        ds = Dataset.of(queries={"q1": (1,), "q2": (2,)}, docs={"d1": (3,)},
                        samples=[], pools={"q2": ("d1",), "q1": ()}, vocab_size=4)
        assert list(ds.pools.items()) == [("q2", ("d1",)), ("q1", ())]
        assert dataset_stats(ds).mean_pool_size == 0.5

    def test_synthetic_mean_positives(self):
        split = generate_synthetic(SyntheticConfig())
        stats = dataset_stats(split.train)
        assert stats.mean_positives_per_query == pytest.approx(2.0)
        assert stats.mean_pool_size == pytest.approx(100.0)
