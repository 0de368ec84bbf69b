import numpy as np
import pytest

from numur import (ConfigError, Label, build_min_cache, clone_model, consistent_loss,
                   contrastive_loss, delta_min, forward, init_model, new_buffer)
from numur.ranker import sample_scores
from numur.unlearn_losses import _abs_delta_loss, _abs_delta_terms

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
    return ds, teacher, student


def score_setter(score):
    """Logit that softplus maps to the requested positive score."""
    return float(np.log(np.expm1(score)))


def score(model, ds, pair):
    return forward(model, ds, pair.query_id, pair.doc_id)


def floors(teacher, ds):
    """The teacher's per-query floors over every sample of ds."""
    return build_min_cache(ds.samples, sample_scores(teacher, ds, ds.samples))


def gap(teacher, student, ds, pair):
    """delta of one pair: (teacher - student) / (teacher + student)."""
    f_m, f_w = score(teacher, ds, pair), score(student, ds, pair)
    return (f_m - f_w) / (f_m + f_w)


class TestDelta:
    """The bounded discrepancy, through the |delta| terms the losses sum."""

    def test_identical_models_give_zero(self, accept_split):
        ds = accept_split.train
        m = init_model(ds.vocab_size, 8, seed=1)
        pair = ds.samples[0]
        assert _abs_delta_terms(sample_scores(m, ds, [pair]), [score(m, ds, pair)]) == (0.0, [0.0])

    def test_formula_thirty_vs_ten(self):
        ds, teacher, student = rigged_pair(score_setter(30.0), score_setter(10.0))
        f_m, f_w = score(teacher, ds, ds.samples[0]), score(student, ds, ds.samples[0])
        assert f_m == pytest.approx(30.0, rel=1e-9)
        assert f_w == pytest.approx(10.0, rel=1e-9)
        value, (upstream,) = _abs_delta_terms([f_m], [f_w])
        assert value == pytest.approx(0.5, rel=1e-9)
        # delta > 0: a higher student score lowers |delta|
        assert upstream == pytest.approx(-2.0 * 30.0 / 40.0 ** 2, rel=1e-8)

    def test_antisymmetry(self):
        ds, teacher, student = rigged_pair(score_setter(10.0), score_setter(30.0))
        f_m, f_w = score(teacher, ds, ds.samples[0]), score(student, ds, ds.samples[0])
        value, (upstream,) = _abs_delta_terms([f_m], [f_w])
        swapped, (swapped_upstream,) = _abs_delta_terms([f_w], [f_m])
        assert value == pytest.approx(0.5, rel=1e-9) and swapped == pytest.approx(value)
        assert upstream > 0.0 > swapped_upstream

    def test_bounded_open_interval(self):
        rng = np.random.default_rng(0)
        ds = tiny_dataset(rng)
        for seed in range(20):
            teacher = sample_scores(init_model(ds.vocab_size, 3, seed=seed), ds, ds.samples)
            student = sample_scores(init_model(ds.vocab_size, 3, seed=seed + 100), ds,
                                    ds.samples)
            for f_m, f_w in zip(teacher, student):
                assert 0.0 <= _abs_delta_terms([f_m], [f_w])[0] < 1.0


class TestMinCache:
    def test_single_sample_query(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        teacher = init_model(4, 2, seed=1)
        assert floors(teacher, ds)["q0"] == pytest.approx(forward(teacher, ds, "q0", "d0"))

    def test_min_of_three(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 1), ("q0", "d2", 0)],
                           {"q0": ["d0", "d1", "d2"]}, vocab_size=16)
        teacher_model = init_model(16, 2, seed=0)
        teacher_model.embed_q[:] = 0.0
        teacher_model.embed_d[:] = 0.0
        teacher_model.embed_q[ds.query_tokens("q0")] = [1.0, 0.0]
        for did, value in (("d0", 5.0), ("d1", 2.0), ("d2", 3.0)):
            teacher_model.embed_d[ds.doc_tokens(did)] = [score_setter(value), 0.0]
        cache = floors(teacher_model, ds)
        assert cache["q0"] == pytest.approx(2.0, rel=1e-9)
        # brute-force oracle over the same samples
        want = min(forward(teacher_model, ds, s.query_id, s.doc_id) for s in ds.samples)
        assert cache["q0"] == pytest.approx(want)

    def test_queries_cached_independently(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d0", 1)],
                           {"q0": ["d0"], "q1": ["d0"]}, vocab_size=8)
        teacher = init_model(8, 2, seed=3)
        cache = floors(teacher, ds)
        assert cache["q0"] == pytest.approx(forward(teacher, ds, "q0", "d0"))
        assert cache["q1"] == pytest.approx(forward(teacher, ds, "q1", "d0"))

    def test_missing_query_rejected(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        assert "q9" not in floors(init_model(4, 2, seed=0), ds)
        with pytest.raises(ValueError):  # a sample without a teacher score
            build_min_cache(ds.samples, [])

    def test_rebuild_is_bitwise_stable(self, accept_split, accept_model):
        assert floors(accept_model, accept_split.train) == \
            floors(accept_model, accept_split.train)


class TestDeltaMin:
    def test_zero_at_floor(self):
        ds, teacher, student = rigged_pair(score_setter(2.0), score_setter(2.0))
        assert delta_min(floors(teacher, ds)["q0"], score(student, ds, ds.samples[0])) == \
            pytest.approx(0.0)

    def test_above_floor(self):
        ds, teacher, student = rigged_pair(score_setter(5.0), score_setter(15.0))
        assert delta_min(floors(teacher, ds)["q0"], score(student, ds, ds.samples[0])) == \
            pytest.approx(0.5, rel=1e-8)

    def test_below_floor(self):
        ds, teacher, student = rigged_pair(score_setter(5.0), score_setter(3.0))
        assert delta_min(floors(teacher, ds)["q0"], score(student, ds, ds.samples[0])) == \
            pytest.approx(-0.25, rel=1e-8)


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
        student = clone_model(model)
        buf = new_buffer(student)
        partner = (ds.samples[1], score(model, ds, ds.samples[1]))
        value = contrastive_loss(floors(model, ds)["q0"], student, ds, ds.samples[0],
                                 partner, buf)
        assert value == pytest.approx(0.0)
        assert not buf.rows

    def test_forget_term_formula(self):
        # teacher floor 2, student score 5: relu((5-2)/(5+2)) = 3/7
        ds, teacher, student = rigged_pair(score_setter(2.0), score_setter(5.0))
        value = contrastive_loss(floors(teacher, ds)["q0"], student, ds, ds.samples[0], None)
        assert value == pytest.approx(3 / 7, rel=1e-8)

    def test_partner_must_be_entangled(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 1)],
                           {"q0": ["d0"], "q1": ["d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        with pytest.raises(ConfigError):
            contrastive_loss(floors(m, ds)["q0"], m, ds, ds.samples[0],
                             (ds.samples[1], score(m, ds, ds.samples[1])))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            teacher = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            x = ds.samples[0]
            floor = floors(teacher, ds)[x.query_id]
            partner = next(((s, score(teacher, ds, s)) for s in ds.samples[1:]
                            if s.query_id == x.query_id or s.doc_id == x.doc_id), None)
            adjusted = delta_min(floor, score(student, ds, x))
            partner_gap = 0.0 if partner is None else gap(teacher, student, ds, partner[0])
            if abs(adjusted) < 1e-3 or (partner is not None and abs(partner_gap) < 1e-3):
                continue
            buf = new_buffer(student)
            contrastive_loss(floor, student, ds, x, partner, buf)

            def value():
                return contrastive_loss(floor, student, ds, x, partner)

            num_q, num_d = finite_difference(value, student)
            assert_close_grads(buf.grad_q, num_q)
            assert_close_grads(buf.grad_d, num_d)
            checked += 1


class TestConsistentLoss:
    def test_student_equals_teacher_gives_zero(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 3, seed=4)
        pos, neg = ((s, score(m, ds, s)) for s in ds.samples)
        assert consistent_loss(m, ds, pos, neg) == pytest.approx(0.0)

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
        pos, neg = ((s, score(teacher_model, ds, s)) for s in ds.samples)
        assert consistent_loss(student, ds, pos, neg) == pytest.approx(1.0, rel=1e-8)

    def test_label_validation(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        pos, neg = ((s, score(m, ds, s)) for s in ds.samples)
        with pytest.raises(ConfigError):
            consistent_loss(m, ds, neg, pos)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            pos = next((s for s in ds.samples if s.label is Label.POSITIVE), None)
            neg = next((s for s in ds.samples if s.label is Label.NEGATIVE), None)
            if pos is None or neg is None:
                continue
            teacher = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            gaps = (gap(teacher, student, ds, pos), gap(teacher, student, ds, neg))
            if min(abs(g) for g in gaps) < 1e-3:
                continue
            pos_pair, neg_pair = (pos, score(teacher, ds, pos)), (neg, score(teacher, ds, neg))
            buf = new_buffer(student)
            consistent_loss(student, ds, pos_pair, neg_pair, buf)

            def value():
                return consistent_loss(student, ds, pos_pair, neg_pair)

            num_q, num_d = finite_difference(value, student)
            assert_close_grads(buf.grad_q, num_q)
            assert_close_grads(buf.grad_d, num_d)
            checked += 1


class TestAbsDelta:
    def test_matches_delta_magnitude(self):
        ds, teacher, student = rigged_pair(score_setter(30.0), score_setter(10.0))
        pair = (ds.samples[0], score(teacher, ds, ds.samples[0]))
        assert _abs_delta_loss(student, ds, [pair], None) == pytest.approx(0.5, rel=1e-8)

    def test_zero_gap_accumulates_nothing(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=5)
        buf = new_buffer(m)
        pair = (ds.samples[0], score(m, ds, ds.samples[0]))
        assert _abs_delta_loss(m, ds, [pair], buf) == 0.0
        assert not buf.rows
