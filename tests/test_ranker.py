import math

import numpy as np
import pytest

from numur import (DataError, ForgetSpec, Method, RemovalKind, ScoreModel, TrainConfig,
                   UnlearnConfig, forward, init_model, load_model, new_buffer, partition, retrain,
                   save_model, score_pool, train, unlearn)
from numur.ranker import PairStep, hinge_loss_and_grad, sample_scores

from conftest import build_dataset

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
        m.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
        m.embed_d[ds.doc_tokens("d0")] = [0.0, 1.0]
        assert forward(m, ds, "q0", "d0") == pytest.approx(math.log(2))

    def test_dot_two_matches_softplus(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        m.embed_q[ds.query_tokens("q0")] = [2.0, 0.0]
        m.embed_d[ds.doc_tokens("d0")] = [1.0, 0.0]
        assert forward(m, ds, "q0", "d0") == pytest.approx(math.log(1 + math.exp(2.0)))
        assert forward(m, ds, "q0", "d0") == pytest.approx(2.126928, abs=1e-6)

    def test_always_positive(self):
        rng = np.random.default_rng(5)
        ds = tiny_dataset(rng)
        for seed in range(5):
            m = init_model(ds.vocab_size, 4, seed=seed)
            m.embed_q *= 50
            m.embed_d *= 50
            for s in ds.samples:
                assert forward(m, ds, s.query_id, s.doc_id) > 0

    def test_unknown_id(self):
        ds = tiny_dataset(np.random.default_rng(0))
        m = init_model(ds.vocab_size, 4, seed=0)
        with pytest.raises(DataError):
            forward(m, ds, "q0", "nope")

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
        buf = new_buffer(m)
        PairStep(m, ds, (("q0", "d0"),)).backward([0.0], buf)
        assert not buf.rows
        assert np.all(buf.grad_q == 0) and np.all(buf.grad_d == 0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ds = tiny_dataset(rng)
            m = random_model(rng, ds.vocab_size)
            s = ds.samples[int(rng.integers(len(ds.samples)))]
            upstream = float(rng.normal())
            buf = new_buffer(m)
            PairStep(m, ds, ((s.query_id, s.doc_id),)).backward([upstream], buf)
            num_q, num_d = finite_difference(
                lambda: upstream * forward(m, ds, s.query_id, s.doc_id), m)
            assert_close_grads(buf.grad_q, num_q)
            assert_close_grads(buf.grad_d, num_d)

    def test_locality_of_token_rows(self):
        rng = np.random.default_rng(4)
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 1)],
                           {"q0": ["d0"], "q1": ["d1"]}, vocab_size=16)
        m = random_model(rng, 16)
        buf = new_buffer(m)
        PairStep(m, ds, (("q1", "d1"),)).backward([1.0], buf)
        for t in ds.query_tokens("q0"):
            assert np.all(buf.grad_q[t] == 0)
        for t in ds.doc_tokens("d0"):
            assert np.all(buf.grad_d[t] == 0)


class TestHinge:
    def test_satisfied_margin_no_gradient(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        m.embed_q[:] = 0.0
        m.embed_d[:] = 0.0
        m.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
        m.embed_d[ds.doc_tokens("d0")] = [9.0, 0.0]
        m.embed_d[ds.doc_tokens("d1")] = [-9.0, 0.0]
        buf = new_buffer(m)
        loss = hinge_loss_and_grad(m, ds, "q0", "d0", "d1", 1.0, buf)
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
            buf = new_buffer(m)
            hinge_loss_and_grad(m, ds, "q0", pos, neg, margin, buf)
            num_q, num_d = finite_difference(
                lambda: max(0.0, margin - forward(m, ds, "q0", pos)
                            + forward(m, ds, "q0", neg)), m)
            assert_close_grads(buf.grad_q, num_q)
            assert_close_grads(buf.grad_d, num_d)
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
        from numur import CorpusSplit, Dataset
        split = CorpusSplit(train=ds, test=Dataset(queries={}, documents={},
                                                   samples=[], pools={}, vocab_size=8))
        cfg = TrainConfig(learning_rate=0.1, epochs=12, margin=1.0, seed=0,
                          negatives_per_positive=1, dim=4)
        result = train(split, cfg)
        diffs = np.diff(result.epoch_losses)
        assert np.all(diffs <= 1e-12)

    def test_query_without_positive_rejected(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 0)],
                           {"q0": ["d0", "d1"], "q1": ["d1", "d0"]}, vocab_size=8)
        from numur import CorpusSplit, Dataset
        split = CorpusSplit(train=ds, test=Dataset(queries={}, documents={},
                                                   samples=[], pools={}, vocab_size=8))
        cfg = TrainConfig(epochs=1, dim=4)
        with pytest.raises(DataError, match="q1"):
            train(split, cfg)


class TestRetrain:
    def test_empty_forget_equals_train(self, accept_split):
        cfg = TrainConfig(learning_rate=0.05, epochs=3, margin=1.0, seed=5,
                          negatives_per_positive=2, dim=8)
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT,
                          ids=frozenset({next(iter(accept_split.train.documents))}))
        # a document with no samples produces an empty forget set
        doc_with_no_samples = next(
            d for d in accept_split.train.documents
            if all(s.doc_id != d for s in accept_split.train.samples))
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({doc_with_no_samples}))
        part = partition(accept_split.train, spec)
        assert part.forget == []
        a = train(accept_split, cfg)
        b = retrain(accept_split, cfg, part)
        assert a.model.params.tobytes() == b.model.params.tobytes()

    @staticmethod
    def figure_split_with_fillers():
        from numur import CorpusSplit, Dataset
        triples = [("q1", "d1", 1), ("q1", "d2", 1), ("q2", "d2", 1), ("q3", "d2", 1),
                   ("q4", "d3", 1), ("q4", "d4", 1), ("q5", "d5", 1)]
        pools = {"q1": ["d1", "d2", "dx"], "q2": ["d2", "dx"], "q3": ["d2", "dx"],
                 "q4": ["d3", "d4", "dx"], "q5": ["d5", "dx"]}
        ds = build_dataset(triples, pools, vocab_size=32)
        return CorpusSplit(train=ds, test=Dataset(queries={}, documents={}, samples=[],
                                                  pools={}, vocab_size=32))

    def test_touches_only_retained_samples(self):
        split = self.figure_split_with_fillers()
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2", "d3"}))
        part = partition(split.train, spec)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, margin=1.0, seed=1,
                          negatives_per_positive=1, dim=4, log_touched=True)
        result = retrain(split, cfg, part)
        retained = {(s.query_id, s.doc_id) for s in part.entangled + part.disjoint}
        assert set(result.touched) <= retained
        assert result.touched  # something was trained

    def test_fully_forgotten_query_untouched(self):
        split = self.figure_split_with_fillers()
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q3"}))
        part = partition(split.train, spec)
        cfg = TrainConfig(learning_rate=0.05, epochs=2, margin=1.0, seed=1,
                          negatives_per_positive=1, dim=4, log_touched=True)
        result = retrain(split, cfg, part)
        assert all(q != "q3" for q, _ in result.touched)


class TestSnapshot:
    """An unlearning teacher is a list of the trained model's scores, taken once."""

    def test_snapshot_unaffected_by_mutation(self, accept_split):
        m = init_model(accept_split.train.vocab_size, 8, seed=2)
        ds = accept_split.train
        s = ds.samples[0]
        teacher = sample_scores(m, ds, [s])
        before = forward(m, ds, s.query_id, s.doc_id)
        m.embed_q += 1.0
        assert teacher == [before]
        assert forward(m, ds, s.query_id, s.doc_id) != pytest.approx(before)

    def test_snapshot_scores_match_at_creation(self, accept_split):
        ds = accept_split.train
        m = init_model(ds.vocab_size, 8, seed=3)
        assert sample_scores(m, ds, ds.samples[:10]) == [
            forward(m, ds, s.query_id, s.doc_id) for s in ds.samples[:10]]

    def test_snapshot_is_read_only(self):
        # the trained model, which teaches cocol and badt, is only ever read
        from test_unlearn_engine import small_unlearn_world
        split, part, model = small_unlearn_world()
        params = model.params.copy()
        params.setflags(write=False)  # before ScoreModel takes its views
        frozen = ScoreModel(params)
        for method in Method:
            run = unlearn(frozen, split, part, UnlearnConfig(delta_target=1e-9, max_epochs=2,
                                                             method=method))
            assert run.method is method and run.final_model.params.flags.writeable
        assert frozen.params.tobytes() == model.params.tobytes()


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
