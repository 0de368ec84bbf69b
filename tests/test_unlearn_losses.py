import numpy as np
import pytest

from numur import (ConfigError, Label, abs_delta_loss, build_min_cache,
                   clone_model, consistent_loss, contrastive_loss, delta, delta_min,
                   forward, init_model, new_buffer, snapshot)

from conftest import build_dataset
from test_ranker import assert_close_grads, finite_difference, tiny_dataset


def rigged_pair(teacher_z, student_z):
    """Dataset with one pair whose teacher/student logits are exactly as given."""
    ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
    teacher = init_model(4, 2, seed=0)
    student = init_model(4, 2, seed=0)
    for model, z in ((teacher, teacher_z), (student, student_z)):
        model.embed_q[:] = 0.0
        model.embed_d[:] = 0.0
        model.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
        model.embed_d[ds.doc_tokens("d0")] = [z, 0.0]
    return ds, snapshot(teacher), student


def score_setter(score):
    """Logit that softplus maps to the requested positive score."""
    return float(np.log(np.expm1(score)))


class TestDelta:
    def test_identical_models_give_zero(self, accept_split):
        ds = accept_split.train
        m = init_model(ds.vocab_size, 8, seed=1)
        d = delta(snapshot(m), m, ds, ds.samples[0])
        assert d.value == pytest.approx(0.0)

    def test_formula_thirty_vs_ten(self):
        ds, teacher, student = rigged_pair(score_setter(30.0), score_setter(10.0))
        d = delta(teacher, student, ds, ds.samples[0])
        assert d.teacher_score == pytest.approx(30.0, rel=1e-9)
        assert d.student_score == pytest.approx(10.0, rel=1e-9)
        assert d.value == pytest.approx(0.5, rel=1e-9)

    def test_antisymmetry(self):
        ds, teacher, student = rigged_pair(score_setter(10.0), score_setter(30.0))
        d = delta(teacher, student, ds, ds.samples[0])
        assert d.value == pytest.approx(-0.5, rel=1e-9)

    def test_bounded_open_interval(self):
        rng = np.random.default_rng(0)
        ds = tiny_dataset(rng)
        for seed in range(20):
            teacher = snapshot(init_model(ds.vocab_size, 3, seed=seed))
            student = init_model(ds.vocab_size, 3, seed=seed + 100)
            for s in ds.samples:
                v = delta(teacher, student, ds, s).value
                assert -1.0 < v < 1.0


class TestMinCache:
    def test_single_sample_query(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        teacher = snapshot(init_model(4, 2, seed=1))
        cache = build_min_cache(teacher, ds)
        assert cache.score_floor("q0") == pytest.approx(
            forward(teacher, ds, "q0", "d0"))

    def test_min_of_three(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 1), ("q0", "d2", 0)],
                           {"q0": ["d0", "d1", "d2"]}, vocab_size=16)
        teacher_model = init_model(16, 2, seed=0)
        teacher_model.embed_q[:] = 0.0
        teacher_model.embed_d[:] = 0.0
        teacher_model.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
        for did, score in (("d0", 5.0), ("d1", 2.0), ("d2", 3.0)):
            teacher_model.embed_d[ds.doc_tokens(did)] = [score_setter(score), 0.0]
        cache = build_min_cache(snapshot(teacher_model), ds)
        assert cache.score_floor("q0") == pytest.approx(2.0, rel=1e-9)
        # brute-force oracle over the same samples
        want = min(forward(teacher_model, ds, s.query_id, s.doc_id) for s in ds.samples)
        assert cache.score_floor("q0") == pytest.approx(want)

    def test_queries_cached_independently(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d0", 1)],
                           {"q0": ["d0"], "q1": ["d0"]}, vocab_size=8)
        teacher = snapshot(init_model(8, 2, seed=3))
        cache = build_min_cache(teacher, ds)
        assert cache.score_floor("q0") == pytest.approx(forward(teacher, ds, "q0", "d0"))
        assert cache.score_floor("q1") == pytest.approx(forward(teacher, ds, "q1", "d0"))

    def test_missing_query_rejected(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        cache = build_min_cache(snapshot(init_model(4, 2, seed=0)), ds)
        with pytest.raises(ConfigError):
            cache.score_floor("q9")

    def test_rebuild_is_bitwise_stable(self, accept_split, accept_model):
        teacher = snapshot(accept_model)
        a = build_min_cache(teacher, accept_split.train)
        b = build_min_cache(teacher, accept_split.train)
        assert a.min_scores == b.min_scores


class TestDeltaMin:
    def test_zero_at_floor(self):
        ds, teacher, student = rigged_pair(score_setter(2.0), score_setter(2.0))
        cache = build_min_cache(teacher, ds)
        assert delta_min(cache, student, ds, ds.samples[0]) == pytest.approx(0.0)

    def test_above_floor(self):
        ds, teacher, student = rigged_pair(score_setter(5.0), score_setter(15.0))
        cache = build_min_cache(teacher, ds)
        assert delta_min(cache, student, ds, ds.samples[0]) == pytest.approx(0.5, rel=1e-8)

    def test_below_floor(self):
        ds, teacher, student = rigged_pair(score_setter(5.0), score_setter(3.0))
        cache = build_min_cache(teacher, ds)
        assert delta_min(cache, student, ds, ds.samples[0]) == pytest.approx(-0.25, rel=1e-8)


class TestContrastiveLoss:
    def test_zero_when_below_floor_and_partner_matched(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 1)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        model = init_model(8, 2, seed=0)
        model.embed_q[:] = 0.0
        model.embed_d[:] = 0.0
        model.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
        model.embed_d[ds.doc_tokens("d0")] = [score_setter(1.0), 0.0]
        model.embed_d[ds.doc_tokens("d1")] = [score_setter(4.0), 0.0]
        teacher = snapshot(model)
        cache = build_min_cache(teacher, ds)
        student = clone_model(model)
        buf = new_buffer(student)
        value = contrastive_loss(cache, teacher, student, ds, ds.samples[0],
                                 ds.samples[1], buf)
        assert value == pytest.approx(0.0)
        assert not buf.rows

    def test_forget_term_formula(self):
        # teacher floor 2, student score 5: relu((5-2)/(5+2)) = 3/7
        ds, teacher, student = rigged_pair(score_setter(2.0), score_setter(5.0))
        cache = build_min_cache(teacher, ds)
        value = contrastive_loss(cache, teacher, student, ds, ds.samples[0], None)
        assert value == pytest.approx(3 / 7, rel=1e-8)

    def test_partner_must_be_entangled(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 1)],
                           {"q0": ["d0"], "q1": ["d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        teacher = snapshot(m)
        cache = build_min_cache(teacher, ds)
        with pytest.raises(ConfigError):
            contrastive_loss(cache, teacher, m, ds, ds.samples[0], ds.samples[1])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            teacher = snapshot(init_model(ds.vocab_size, 3,
                                          seed=int(rng.integers(1 << 31))))
            student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            cache = build_min_cache(teacher, ds)
            x = ds.samples[0]
            partner = next((s for s in ds.samples[1:]
                            if s.query_id == x.query_id or s.doc_id == x.doc_id), None)
            adjusted = delta_min(cache, student, ds, x)
            partner_gap = (0.0 if partner is None
                           else delta(teacher, student, ds, partner).value)
            if abs(adjusted) < 1e-3 or (partner is not None and abs(partner_gap) < 1e-3):
                continue
            buf = new_buffer(student)
            contrastive_loss(cache, teacher, student, ds, x, partner, buf)

            def value():
                return contrastive_loss(cache, teacher, student, ds, x, partner)

            num_q, num_d = finite_difference(value, student)
            assert_close_grads(buf.grad_q, num_q)
            assert_close_grads(buf.grad_d, num_d)
            checked += 1


class TestConsistentLoss:
    def test_student_equals_teacher_gives_zero(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 3, seed=4)
        value = consistent_loss(snapshot(m), m, ds, ds.samples[0], ds.samples[1])
        assert value == pytest.approx(0.0)

    def test_sum_of_absolute_gaps(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        teacher_model = init_model(8, 2, seed=0)
        student = init_model(8, 2, seed=0)
        for model, s0, s1 in ((teacher_model, 30.0, 10.0), (student, 10.0, 30.0)):
            model.embed_q[:] = 0.0
            model.embed_d[:] = 0.0
            model.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
            model.embed_d[ds.doc_tokens("d0")] = [score_setter(s0), 0.0]
            model.embed_d[ds.doc_tokens("d1")] = [score_setter(s1), 0.0]
        # delta(pos) = .5, delta(neg) = -.5 -> loss 1.0
        value = consistent_loss(snapshot(teacher_model), student, ds,
                                ds.samples[0], ds.samples[1])
        assert value == pytest.approx(1.0, rel=1e-8)

    def test_label_validation(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        with pytest.raises(ConfigError):
            consistent_loss(snapshot(m), m, ds, ds.samples[1], ds.samples[0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            pos = next((s for s in ds.samples if s.label is Label.POSITIVE), None)
            neg = next((s for s in ds.samples if s.label is Label.NEGATIVE), None)
            if pos is None or neg is None:
                continue
            teacher = snapshot(init_model(ds.vocab_size, 3,
                                          seed=int(rng.integers(1 << 31))))
            student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            gaps = (delta(teacher, student, ds, pos).value,
                    delta(teacher, student, ds, neg).value)
            if min(abs(g) for g in gaps) < 1e-3:
                continue
            buf = new_buffer(student)
            consistent_loss(teacher, student, ds, pos, neg, buf)

            def value():
                return consistent_loss(teacher, student, ds, pos, neg)

            num_q, num_d = finite_difference(value, student)
            assert_close_grads(buf.grad_q, num_q)
            assert_close_grads(buf.grad_d, num_d)
            checked += 1


class TestAbsDelta:
    def test_matches_delta_magnitude(self):
        ds, teacher, student = rigged_pair(score_setter(30.0), score_setter(10.0))
        assert abs_delta_loss(teacher, student, ds, ds.samples[0]) == pytest.approx(
            0.5, rel=1e-8)

    def test_zero_gap_accumulates_nothing(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=5)
        buf = new_buffer(m)
        assert abs_delta_loss(snapshot(m), m, ds, ds.samples[0], buf) == 0.0
        assert not buf.rows
