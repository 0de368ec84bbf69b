import numpy as np
import pytest

from numur import (ConfigError, DataError, ForgetSpec, Label, RemovalKind,
                   SyntheticConfig, forward, generate_synthetic, init_model, mrr_forget, mrr_set, normalized_forget_score,
                   partition, rank, score_distribution, timing_metrics)

from conftest import build_dataset
from test_ranker import tiny_dataset


def set_scores(ds, model, qid, scores_by_doc):
    """Pin per-doc logits so softplus scores are ordered exactly as requested."""
    model.embed_q[:] = 0.0
    model.embed_d[:] = 0.0
    model.embed_q[ds.query_tokens(qid)] = [1.0, 0.0]
    for did, z in scores_by_doc.items():
        model.embed_d[ds.doc_tokens(did)] = [z, 0.0]


def brute_force_first_rank(model, ds, qid, targets):
    """Oracle: full score table, stable sort, linear scan."""
    pool = ds.pools[qid]
    scored = sorted(((forward(model, ds, qid, did), did) for did in pool),
                    key=lambda t: (-t[0], t[1]))
    for position, (_, did) in enumerate(scored, start=1):
        if did in targets:
            return position
    return None


class TestRank:
    def test_single_doc_pool(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=0)
        assert rank(m, ds, "q0").doc_ids == ("d0",)

    def test_tie_break_by_doc_id(self):
        ds = build_dataset([("q0", "d0", 1)],
                           {"q0": ["d2", "d0", "d1"]}, vocab_size=16)
        m = init_model(16, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        assert rank(m, ds, "q0").doc_ids == ("d0", "d1", "d2")

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            ds = tiny_dataset(rng, vocab=20, n_queries=2, n_docs=10)
            m = init_model(20, 3, seed=int(rng.integers(1 << 31)))
            ranked = rank(m, ds, "q0")
            pool = ds.pools["q0"]
            oracle = sorted(((forward(m, ds, "q0", did), did) for did in pool),
                            key=lambda t: (-t[0], t[1]))
            assert ranked.doc_ids == tuple(did for _, did in oracle)
            assert sorted(ranked.doc_ids) == sorted(pool)

    def test_unknown_query(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        with pytest.raises(DataError):
            rank(init_model(4, 2, seed=0), ds, "q9")

    def test_read_only(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=0)
        before = (m.embed_q.copy(), m.embed_d.copy())
        rank(m, ds, "q0")
        assert np.array_equal(m.embed_q, before[0])
        assert np.array_equal(m.embed_d, before[1])


class TestMrrForget:
    def make_marked_ranking_case(self):
        """Docs ranked [d1, d3, d4, d2, d5]; d2 is the first marked for removal."""
        triples = [("q0", "d1", 1), ("q0", "d2", 1)]
        pools = {"q0": ["d1", "d2", "d3", "d4", "d5"]}
        ds = build_dataset(triples, pools, vocab_size=32)
        m = init_model(32, 2, seed=0)
        set_scores(ds, m, "q0", {"d1": 5.0, "d3": 4.0, "d4": 3.0, "d2": 2.0, "d5": 1.0})
        return ds, m

    def test_marked_doc_fourth_gives_quarter(self):
        ds, m = self.make_marked_ranking_case()
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2"}))
        part = partition(ds, spec)
        result = mrr_forget(m, ds, part, spec)
        assert result.value == pytest.approx(0.25)
        assert result.evaluated == 1

    def test_first_ranked_positive_gives_one(self):
        triples = [("q0", "d1", 1), ("q0", "d2", 1), ("q1", "d9", 1)]
        pools = {"q0": ["d1", "d2", "d3"], "q1": ["d9"]}
        ds = build_dataset(triples, pools, vocab_size=32)
        m = init_model(32, 2, seed=0)
        set_scores(ds, m, "q0", {"d1": 5.0, "d2": 3.0, "d3": 1.0})
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q0"}))
        part = partition(ds, spec)
        assert mrr_forget(m, ds, part, spec).value == pytest.approx(1.0)

    def test_three_queries_mixed_ranks(self):
        # positives land at ranks 1, 2, and 4 of their pools
        tables = {"q0": {"q0_d0": 8.0, "q0_d1": 6.0, "q0_d2": 4.0, "q0_d3": 2.0},
                  "q1": {"q1_d0": 6.0, "q1_d1": 8.0, "q1_d2": 4.0, "q1_d3": 2.0},
                  "q2": {"q2_d0": 2.0, "q2_d1": 8.0, "q2_d2": 6.0, "q2_d3": 4.0}}
        triples = [(qi, f"{qi}_d0", 1) for qi in tables] + [("q3", "q3_d0", 1)]
        pools = {qi: sorted(tables[qi]) for qi in tables}
        pools["q3"] = ["q3_d0"]
        ds = build_dataset(triples, pools, vocab_size=64)
        m = init_model(64, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        for qi, table in tables.items():
            m.embed_q[ds.query_tokens(qi)] = [1.0, 0.0]
            for did, z in table.items():
                m.embed_d[ds.doc_tokens(did)] = [z, 0.0]
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset(tables))
        part = partition(ds, spec)
        result = mrr_forget(m, ds, part, spec)
        assert result.value == pytest.approx((1 + 0.5 + 0.25) / 3)

    def test_target_missing_from_pool_is_skipped(self):
        triples = [("q0", "d0", 1), ("q1", "d1", 1), ("q1", "d0", 0)]
        pools = {"q0": ["d0", "d2"], "q1": ["d1", "d0"]}
        ds = build_dataset(triples, pools, vocab_size=16)
        m = init_model(16, 2, seed=0)
        # remove d0: q0's pool has it, q1's pool has it; craft a query whose
        # pool lacks any marked doc by marking d2 instead for q1 only
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d1"}))
        part = partition(ds, spec)
        result = mrr_forget(m, ds, part, spec)
        assert result.evaluated == 1
        assert result.skipped == 0

    def test_empty_forget_queries_rejected(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 1)],
                           {"q0": ["d0"], "q1": ["d1"]}, vocab_size=8)
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d0"}))
        part = partition(ds, spec)
        part.forget_queries = frozenset()
        with pytest.raises(ConfigError):
            mrr_forget(init_model(8, 2, seed=0), ds, part, spec)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            ds = tiny_dataset(rng, vocab=24, n_queries=3, n_docs=6)
            m = init_model(24, 3, seed=int(rng.integers(1 << 31)))
            docs = sorted({s.doc_id for s in ds.samples})
            marked = frozenset(d for d in docs[:int(rng.integers(1, len(docs)))])
            spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=marked)
            try:
                part = partition(ds, spec)
            except ConfigError:
                continue
            if not part.forget_queries:
                continue
            result = mrr_forget(m, ds, part, spec)
            recips = []
            for qid in part.forget_queries:
                r = brute_force_first_rank(m, ds, qid,
                                           {d for d in ds.pools[qid] if d in marked})
                if r is not None:
                    recips.append(1.0 / r)
            want = sum(recips) / len(recips) if recips else 0.0
            assert result.value == pytest.approx(want)


class TestMrrSet:
    def test_perfect_model_gives_one(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        set_scores(ds, m, "q0", {"d0": 5.0, "d1": 1.0})
        assert mrr_set(m, ds, ds.samples).value == pytest.approx(1.0)

    def test_all_negative_samples_skipped(self):
        ds = build_dataset([("q0", "d0", 0), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        result = mrr_set(m, ds, ds.samples)
        assert result.value == 0.0
        assert result.evaluated == 0
        assert result.skipped == 1

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ds = tiny_dataset(rng, vocab=24, n_queries=3, n_docs=6)
            m = init_model(24, 3, seed=int(rng.integers(1 << 31)))
            k = int(rng.integers(1, len(ds.samples) + 1))
            subset = [ds.samples[int(i)] for i in rng.permutation(len(ds.samples))[:k]]
            result = mrr_set(m, ds, subset)
            positives = {}
            for s in subset:
                if s.label is Label.POSITIVE:
                    positives.setdefault(s.query_id, set()).add(s.doc_id)
            recips = []
            for qid, targets in positives.items():
                r = brute_force_first_rank(m, ds, qid, targets)
                if r is not None:
                    recips.append(1.0 / r)
            want = sum(recips) / len(recips) if recips else 0.0
            assert result.value == pytest.approx(want)

    def test_nan_model_ranks_by_doc_id_not_perfectly(self):
        # every score is NaN; rank() sorts NaN after every number, so the
        # order is ascending doc id and the first positive is not always first
        split = generate_synthetic(SyntheticConfig(n_queries=16, n_docs=64, vocab_size=128,
                                                   pool_size=20, seed=3))
        ds = split.train
        m = init_model(ds.vocab_size, 4, seed=0)
        m.embed_d[:] = np.nan
        positives = {}
        for s in ds.samples:
            if s.label is Label.POSITIVE:
                positives.setdefault(s.query_id, set()).add(s.doc_id)
        recips = []
        with np.errstate(invalid="ignore"):
            for qid, targets in positives.items():
                ranking = sorted(ds.pools[qid])
                assert list(rank(m, ds, qid).doc_ids) == ranking
                recips.append(1.0 / next(p for p, did in enumerate(ranking, 1) if did in targets))
            want = sum(recips) / len(recips)
            assert want < 1.0
            assert mrr_set(m, ds, ds.samples).value == want

    def test_relabelling_nontargets_is_irrelevant_for_document_removal(self):
        ds, m = TestMrrForget().make_marked_ranking_case()
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2"}))
        base = mrr_forget(m, ds, partition(ds, spec), spec).value
        flipped = build_dataset([("q0", "d1", 0), ("q0", "d2", 1)],
                                {"q0": ["d1", "d2", "d3", "d4", "d5"]}, vocab_size=32)
        m2 = init_model(32, 2, seed=0)
        set_scores(flipped, m2, "q0", {"d1": 5.0, "d3": 4.0, "d4": 3.0,
                                       "d2": 2.0, "d5": 1.0})
        part2 = partition(flipped, spec)
        assert mrr_forget(m2, flipped, part2, spec).value == pytest.approx(base)


class TestNormalizedForget:
    def test_equal_values_give_one(self):
        assert normalized_forget_score(0.42, 0.42) == pytest.approx(1.0)

    def test_formula(self):
        assert normalized_forget_score(0.42, 0.44) == pytest.approx(0.98)

    def test_not_clamped(self):
        assert normalized_forget_score(1.9, 0.1) == pytest.approx(-0.8)

    def test_reads_run_and_report(self):
        # as cmd_unlearn calls it: the last forget MRR of the run's trajectory
        # against the test MRR of the retrained model's report
        forget_mrrs, retrain_report = [0.9, 0.42], {"mrr_test": 0.44}
        assert normalized_forget_score(forget_mrrs[-1], retrain_report["mrr_test"]) == \
            pytest.approx(0.98)


class TestTimingMetrics:
    def test_identical_times(self):
        out = timing_metrics([1.0, 1.0], [1.0], epochs_run=3)
        assert out["normalized_epoch_duration"] == pytest.approx(1.0)
        assert out["total_unlearn_time"] == pytest.approx(3.0)

    def test_twice_as_slow_three_epochs(self):
        out = timing_metrics([1.0], [2.0, 2.0], epochs_run=3)
        assert out["normalized_epoch_duration"] == pytest.approx(2.0)
        assert out["total_unlearn_time"] == pytest.approx(6.0)

    def test_zero_epochs(self):
        out = timing_metrics([1.0], [0.5], epochs_run=0)
        assert out["total_unlearn_time"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            timing_metrics([], [1.0], 1)


class TestScoreDistribution:
    def test_zero_model_has_zero_spread(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        dist, = score_distribution([("init", m)], ds, [("all", ds.samples)])
        assert dist.max - dist.min == pytest.approx(0.0)
        assert dist.mean == pytest.approx(np.log(2))

    def test_deciles_monotone(self):
        rng = np.random.default_rng(31)
        ds = tiny_dataset(rng, vocab=24, n_queries=3, n_docs=6)
        m = init_model(24, 3, seed=1)
        dist, = score_distribution([("m", m)], ds, [("all", ds.samples)])
        assert list(dist.deciles) == sorted(dist.deciles)
        assert dist.min <= dist.deciles[0]
        assert dist.deciles[-1] <= dist.max

    def test_trained_spread_exceeds_init(self, accept_split, accept_model):
        ds = accept_split.train
        init = init_model(ds.vocab_size, 16, seed=7)
        dists = score_distribution([("init", init), ("trained", accept_model)],
                                   ds, [("train", ds.samples)])
        by_name = {d.model_name: d for d in dists}
        assert (by_name["trained"].max - by_name["trained"].min) > \
            (by_name["init"].max - by_name["init"].min)

    def test_empty_set(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=0)
        dist, = score_distribution([("m", m)], ds, [("none", [])])
        assert dist.count == 0
