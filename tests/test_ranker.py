import math

import numpy as np
import pytest

from numur import (DataError, ForgetSpec, Method, RemovalKind, ScoreModel,
                   TrainConfig, UnlearnConfig, consistent_loss, contrastive_loss, init_model,
                   load_model, partition, retrain, save_model, train, unlearn)
from numur.ranker import HingeDraws, HingeSet, PairStep, Sgd, pool, sample_scores

from conftest import (Label, build_dataset, dataset_of, empty_dataset, every, pair_rows,
                      samples_at, samples_of, spy)
from scoring_reference import (Accumulate, doc_tokens, forward, hinge_loss_and_grad,
                               query_tokens, score_pool)

FD_STEP = 1e-5
FD_RTOL = 1e-4


def tiny_dataset(rng, vocab=12, n_queries=2, n_docs=4):
    triples = []
    for qi in range(n_queries):
        for di in range(n_docs):
            triples.append((f"q{qi}", f"d{di}", int(rng.integers(2))))
    pools = {f"q{qi}": [f"d{di}" for di in range(n_docs)] for qi in range(n_queries)}
    ds = build_dataset(triples, pools, vocab_size=vocab)
    return ds


def random_model(rng, vocab, dim=3):
    return init_model(vocab, dim, seed=int(rng.integers(1 << 31)))


def finite_difference(fn, model) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of a scalar function over every model parameter."""
    grads = []
    for table in (model.embed_q, model.embed_d):
        grad = np.zeros_like(table)
        for idx in np.ndindex(table.shape):
            orig = table[idx]
            table[idx] = orig + FD_STEP
            up = fn()
            table[idx] = orig - FD_STEP
            down = fn()
            table[idx] = orig
            grad[idx] = (up - down) / (2 * FD_STEP)
        grads.append(grad)
    return grads[0], grads[1]


def assert_close_grads(analytic, numeric):
    scale = max(1e-8, float(np.abs(numeric).max()))
    np.testing.assert_allclose(analytic, numeric, rtol=FD_RTOL, atol=FD_RTOL * scale)


class TestForward:
    def test_zero_parameters_give_log_two(self):
        ds = tiny_dataset(np.random.default_rng(0))
        m = init_model(ds.vocab_size, 4, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        assert forward(m, ds, "q0", "d0") == pytest.approx(math.log(2))

    def test_orthogonal_vectors_give_log_two(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        m.embed_q[query_tokens(ds, "q0")] = [1.0, 0.0]
        m.embed_d[doc_tokens(ds, "d0")] = [0.0, 1.0]
        assert forward(m, ds, "q0", "d0") == pytest.approx(math.log(2))

    def test_dot_two_matches_softplus(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        m.embed_q[query_tokens(ds, "q0")] = [2.0, 0.0]
        m.embed_d[doc_tokens(ds, "d0")] = [1.0, 0.0]
        assert forward(m, ds, "q0", "d0") == pytest.approx(math.log(1 + math.exp(2.0)))
        assert forward(m, ds, "q0", "d0") == pytest.approx(2.126928, abs=1e-6)

    def test_always_positive(self):
        rng = np.random.default_rng(5)
        ds = tiny_dataset(rng)
        for seed in range(5):
            m = init_model(ds.vocab_size, 4, seed=seed)
            m.embed_q *= 50
            m.embed_d *= 50
            for s in samples_of(ds):
                assert forward(m, ds, s.query_id, s.doc_id) > 0

    def test_unknown_id(self):
        ds = tiny_dataset(np.random.default_rng(0))
        m = init_model(ds.vocab_size, 4, seed=0)
        with pytest.raises(DataError, match="^unknown query id 'nope'$"):
            forward(m, ds, "nope", "d0")
        with pytest.raises(DataError, match="^unknown doc id 'nope'$"):
            forward(m, ds, "q0", "nope")

    @pytest.mark.parametrize("vocab", [12, 20])  # the corpus's, and a larger model's
    def test_offset_table_is_indexed_by_row(self, vocab):
        ds = tiny_dataset(np.random.default_rng(0))
        m = init_model(vocab, 4, seed=0)
        sgd = Sgd(m, ds, 0.1)
        n_q = len(ds.queries.ids)
        entries = [query_tokens(ds, qid) for qid in ds.queries.ids] + \
            [doc_tokens(ds, did) + vocab for did in ds.docs.ids]
        assert sgd.tokens.shape == (len(entries), max(map(len, entries)))
        assert len(sgd.bounds) == len(entries) + 1 and n_q == sgd.n_queries
        # each entry: its stacked rows, then the spare row past both tables,
        # and dim offsets per token; doc rows lie past the model's query table
        for e, rows in enumerate(entries):
            assert sgd.counts[e] == len(rows)
            pad = [2 * vocab] * (sgd.tokens.shape[1] - len(rows))
            assert sgd.tokens[e].tolist() == rows.tolist() + pad
            want = rows[:, None] * m.dim + np.arange(m.dim)
            assert np.array_equal(sgd.offsets[sgd.bounds[e]:sgd.bounds[e + 1]], want.ravel())

    def test_score_pool_matches_forward(self):
        rng = np.random.default_rng(3)
        ds = tiny_dataset(rng)
        m = random_model(rng, ds.vocab_size)
        scores = score_pool(m, ds, "q0")
        for i, did in enumerate(ds.pools["q0"]):
            assert scores[i] == pytest.approx(forward(m, ds, "q0", did))


class TestBackwardScore:
    def test_zero_upstream_leaves_buffer(self):
        rng = np.random.default_rng(1)
        ds = tiny_dataset(rng)
        m = random_model(rng, ds.vocab_size)
        buf = Accumulate(m, ds)
        buf.apply(PairStep(buf, pair_rows(ds, [0])), [0.0])
        assert not buf.rows
        grad_q, grad_d = np.split(buf.grad, 2)
        assert np.all(grad_q == 0) and np.all(grad_d == 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ds = tiny_dataset(rng)
            m = random_model(rng, ds.vocab_size)
            at = int(rng.integers(ds.n_samples))
            s = samples_of(ds)[at]
            upstream = float(rng.normal())
            buf = Accumulate(m, ds)
            buf.apply(PairStep(buf, pair_rows(ds, [at])), [upstream])
            num_q, num_d = finite_difference(
                lambda: upstream * forward(m, ds, s.query_id, s.doc_id), m)
            grad_q, grad_d = np.split(buf.grad, 2)
            assert_close_grads(grad_q, num_q)
            assert_close_grads(grad_d, num_d)

    def test_locality_of_token_rows(self):
        rng = np.random.default_rng(4)
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 1)],
                           {"q0": ["d0"], "q1": ["d1"]}, vocab_size=16)
        m = random_model(rng, 16)
        buf = Accumulate(m, ds)
        buf.apply(PairStep(buf, pair_rows(ds, [1])), [1.0])
        grad_q, grad_d = np.split(buf.grad, 2)
        for t in query_tokens(ds, "q0"):
            assert np.all(grad_q[t] == 0)
        for t in doc_tokens(ds, "d0"):
            assert np.all(grad_d[t] == 0)


class TestHinge:
    def test_satisfied_margin_no_gradient(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        m.embed_q[query_tokens(ds, "q0")] = [1.0, 0.0]
        m.embed_d[doc_tokens(ds, "d0")] = [9.0, 0.0]
        m.embed_d[doc_tokens(ds, "d1")] = [-9.0, 0.0]
        buf = Accumulate(m, ds)
        loss = hinge_loss_and_grad(buf, "q0", "d0", "d1", 1.0)
        assert loss == 0.0
        assert not buf.rows

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            m = random_model(rng, ds.vocab_size)
            pos, neg = ds.pools["q0"][0], ds.pools["q0"][1]
            margin = float(rng.uniform(0.5, 2.0))
            raw = margin - forward(m, ds, "q0", pos) + forward(m, ds, "q0", neg)
            if abs(raw) < 1e-3:  # keep clear of the hinge kink
                continue
            buf = Accumulate(m, ds)
            hinge_loss_and_grad(buf, "q0", pos, neg, margin)
            num_q, num_d = finite_difference(
                lambda: max(0.0, margin - forward(m, ds, "q0", pos)
                            + forward(m, ds, "q0", neg)), m)
            grad_q, grad_d = np.split(buf.grad, 2)
            assert_close_grads(grad_q, num_q)
            assert_close_grads(grad_d, num_d)
            checked += 1


class TestTrain:
    def test_acceptance_training_reaches_target(self, accept_split, accept_train_result):
        assert accept_train_result.epoch_mrr[-1] >= 0.9

    def test_zero_epochs_is_initialisation(self, accept_split):
        cfg = TrainConfig(learning_rate=0.05, epochs=0, margin=1.0, seed=7,
                          negatives_per_positive=4, dim=16)
        result = train(accept_split, cfg)
        fresh = init_model(accept_split.train.vocab_size, 16, seed=7)
        assert result.model.params.tobytes() == fresh.params.tobytes()

    def test_same_seed_bitwise_identical(self, accept_split):
        cfg = TrainConfig(learning_rate=0.05, epochs=3, margin=1.0, seed=11,
                          negatives_per_positive=2, dim=8)
        a = train(accept_split, cfg)
        b = train(accept_split, cfg)
        assert a.model.params.tobytes() == b.model.params.tobytes()
        assert a.epoch_losses == b.epoch_losses
        assert a.epoch_mrr == b.epoch_mrr

    def test_loss_non_increasing_on_tiny_task(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        from numur import CorpusSplit
        split = CorpusSplit(train=ds, test=empty_dataset(8))
        cfg = TrainConfig(learning_rate=0.1, epochs=12, margin=1.0, seed=0,
                          negatives_per_positive=1, dim=4)
        result = train(split, cfg)
        diffs = np.diff(result.epoch_losses)
        assert np.all(diffs <= 1e-12)

    def test_query_without_positive_rejected(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 0)],
                           {"q0": ["d0", "d1"], "q1": ["d1", "d0"]}, vocab_size=8)
        from numur import CorpusSplit
        split = CorpusSplit(train=ds, test=empty_dataset(8))
        cfg = TrainConfig(epochs=1, dim=4)
        with pytest.raises(DataError, match="q1"):
            train(split, cfg)


class TestRetrain:
    def test_empty_forget_equals_train(self, accept_split):
        cfg = TrainConfig(learning_rate=0.05, epochs=3, margin=1.0, seed=5,
                          negatives_per_positive=2, dim=8)
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT,
                          ids=frozenset({accept_split.train.docs.ids[0]}))
        # a document with no samples produces an empty forget set
        doc_with_no_samples = next(
            d for d in accept_split.train.docs.ids
            if all(s.doc_id != d for s in samples_of(accept_split.train)))
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({doc_with_no_samples}))
        part = partition(accept_split.train, spec)
        assert not len(part.forget)
        a = train(accept_split, cfg)
        b = retrain(accept_split, cfg, part)
        assert a.model.params.tobytes() == b.model.params.tobytes()

    @staticmethod
    def figure_split_with_fillers():
        from numur import CorpusSplit
        triples = [("q1", "d1", 1), ("q1", "d2", 1), ("q2", "d2", 1), ("q3", "d2", 1),
                   ("q4", "d3", 1), ("q4", "d4", 1), ("q5", "d5", 1)]
        pools = {"q1": ["d1", "d2", "dx"], "q2": ["d2", "dx"], "q3": ["d2", "dx"],
                 "q4": ["d3", "d4", "dx"], "q5": ["d5", "dx"]}
        ds = build_dataset(triples, pools, vocab_size=32)
        return CorpusSplit(train=ds, test=empty_dataset(32))

    @staticmethod
    def trained_positives(monkeypatch, split, spec):
        """The (query id, positive id) of every hinge draw that retraining
        under ``spec`` makes, and the partition."""
        part = partition(split.train, spec)
        draws = spy(monkeypatch, HingeDraws, "run")
        retrain(split, TrainConfig(learning_rate=0.05, epochs=2, margin=1.0, seed=1,
                                   negatives_per_positive=1, dim=4), part)
        qids, dids = split.train.queries.ids, split.train.docs.ids
        return [(qids[q], dids[pos]) for _, q, pos, _ in draws], part

    def test_touches_only_retained_samples(self, monkeypatch):
        split = self.figure_split_with_fillers()
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2", "d3"}))
        touched, part = self.trained_positives(monkeypatch, split, spec)
        retained = {(s.query_id, s.doc_id) for s in samples_at(split.train, part.retained)}
        assert set(touched) <= retained
        assert touched  # something was trained

    def test_fully_forgotten_query_untouched(self, monkeypatch):
        split = self.figure_split_with_fillers()
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q3"}))
        touched, _ = self.trained_positives(monkeypatch, split, spec)
        assert touched
        assert all(q != "q3" for q, _ in touched)


class TestSnapshot:
    """An unlearning teacher is a list of the trained model's scores, taken once."""

    def test_snapshot_unaffected_by_mutation(self, accept_split):
        m = init_model(accept_split.train.vocab_size, 8, seed=2)
        ds = accept_split.train
        s = samples_of(ds)[0]
        teacher = sample_scores(pool(m, ds), every(ds)[:1])
        before = forward(m, ds, s.query_id, s.doc_id)
        m.embed_q += 1.0
        assert teacher == [before]
        assert forward(m, ds, s.query_id, s.doc_id) != pytest.approx(before)

    def test_snapshot_scores_match_at_creation(self, accept_split):
        ds = accept_split.train
        m = init_model(ds.vocab_size, 8, seed=3)
        assert sample_scores(pool(m, ds), every(ds)[:10]) == [
            forward(m, ds, s.query_id, s.doc_id) for s in samples_of(ds)[:10]]

    def test_snapshot_is_read_only(self):
        # the trained model, which teaches cocol and badt, is only ever read
        from test_unlearn_engine import small_unlearn_world
        split, part, model = small_unlearn_world()
        frozen = ScoreModel(model.params)  # a copy: each of its views is made read-only
        for table in (frozen.table, frozen.params, frozen.flat, frozen.embed_q, frozen.embed_d):
            table.setflags(write=False)
        for method in Method:
            run = unlearn(frozen, split, part, UnlearnConfig(delta_target=1e-9, max_epochs=2,
                                                             method=method))
            assert run.method is method and run.final_model.params.flags.writeable
        assert frozen.params.tobytes() == model.params.tobytes()


# Samples are positions past the loader, so an id enters only where a
# dataset is built: dataset_of names the first unknown id, so no entry that
# takes positions can be handed a dataset whose sample names one.
UNKNOWN_ID_CALLS = {
    "index": lambda m, ds: ds,
    "sample_scores": lambda m, ds: sample_scores(pool(m, ds), every(ds)),
    "HingeSet": lambda m, ds: HingeSet(ds, every(ds)),
    "contrastive_loss": lambda m, ds: contrastive_loss(1.0, Sgd(m, ds, 0.1), 1, None),
    "consistent_loss": lambda m, ds: consistent_loss(Sgd(m, ds, 0.1), (1, 1.0), (2, 1.0)),
}


@pytest.mark.parametrize("call", UNKNOWN_ID_CALLS.values(), ids=UNKNOWN_ID_CALLS.keys())
@pytest.mark.parametrize("pair, kind", [(("nope", "d0"), "query"), (("q0", "nope"), "doc")])
def test_unknown_sample_id_is_a_data_error(call, pair, kind):
    # the second sample names an unknown id
    samples = [("q0", "d0", Label.POSITIVE), (*pair, Label.POSITIVE), ("q0", "d1", Label.NEGATIVE)]
    m = init_model(32, 3, seed=0)
    params = m.params.copy()
    with pytest.raises(DataError, match=f"^sample references unknown {kind} id 'nope'$"):
        call(m, dataset_of(queries={"q0": (1, 2)}, docs={"d0": (3, 4), "d1": (5, 6)},
                           samples=samples, pools={"q0": ("d0", "d1")}, vocab_size=32))
    assert np.array_equal(m.params, params)


class TestModelIO:
    def test_round_trip(self, tmp_path):
        m = init_model(32, 6, seed=9)
        path = tmp_path / "model.bin"
        save_model(m, path)
        loaded = load_model(path)
        assert m.params.tobytes() == loaded.params.tobytes()

    def test_header_layout(self, tmp_path):
        m = init_model(8, 2, seed=0)
        path = tmp_path / "model.bin"
        save_model(m, path)
        blob = path.read_bytes()
        assert blob[:4] == b"NUMR"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 8
        assert int.from_bytes(blob[12:16], "little") == 2
        assert len(blob) == 16 + 2 * 8 * 2 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        path.write_bytes(b"JUNKxxxx")
        with pytest.raises(DataError):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        m = init_model(8, 2, seed=0)
        path = tmp_path / "model.bin"
        save_model(m, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError):
            load_model(path)
