import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_scoring_properties import datasets

from numur import (ConfigError, build_min_cache, clone_model, consistent_loss,
                   contrastive_loss, delta_min, init_model)
from numur.ranker import pool, sample_scores
from numur.unlearn_losses import _abs_delta_loss, _abs_delta_terms

from conftest import Label, build_dataset, every, samples_of
from scoring_reference import Accumulate, doc_tokens, forward, query_tokens
from test_ranker import assert_close_grads, finite_difference, tiny_dataset


def rigged_pair(teacher_z, student_z):
    """Dataset with one pair whose teacher/student logits are exactly as given."""
    ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
    teacher = init_model(4, 2, seed=0)
    student = init_model(4, 2, seed=0)
    for model, z in ((teacher, teacher_z), (student, student_z)):
        model.embed_q[:] = 0.0
        model.embed_d[:] = 0.0
        model.embed_q[query_tokens(ds, "q0")] = [1.0, 0.0]
        model.embed_d[doc_tokens(ds, "d0")] = [z, 0.0]
    return ds, teacher, student


def score_setter(score):
    """Logit that softplus maps to the requested positive score."""
    return float(np.log(np.expm1(score)))


def score(model, ds, pair):
    return forward(model, ds, pair.query_id, pair.doc_id)


def floors(teacher, ds):
    """The teacher's per-query floors over every sample of ds, by query id."""
    by_row = build_min_cache(ds, sample_scores(pool(teacher, ds), every(ds)))
    return {qid: float(by_row[row]) for qid, row in ds.queries.row.items()}


def gap(teacher, student, ds, pair):
    """delta of one pair: (teacher - student) / (teacher + student)."""
    f_m, f_w = score(teacher, ds, pair), score(student, ds, pair)
    return (f_m - f_w) / (f_m + f_w)


class TestDelta:
    """The bounded discrepancy, through the |delta| terms the losses sum."""

    def test_identical_models_give_zero(self, accept_split):
        ds = accept_split.train
        m = init_model(ds.vocab_size, 8, seed=1)
        pair = samples_of(ds)[0]
        assert _abs_delta_terms(sample_scores(pool(m, ds), np.array([0])),
                                [score(m, ds, pair)]) == (0.0, [0.0])

    def test_formula_thirty_vs_ten(self):
        ds, teacher, student = rigged_pair(score_setter(30.0), score_setter(10.0))
        f_m, f_w = score(teacher, ds, samples_of(ds)[0]), score(student, ds, samples_of(ds)[0])
        assert f_m == pytest.approx(30.0, rel=1e-9)
        assert f_w == pytest.approx(10.0, rel=1e-9)
        value, (upstream,) = _abs_delta_terms([f_m], [f_w])
        assert value == pytest.approx(0.5, rel=1e-9)
        # delta > 0: a higher student score lowers |delta|
        assert upstream == pytest.approx(-2.0 * 30.0 / 40.0 ** 2, rel=1e-8)

    def test_antisymmetry(self):
        ds, teacher, student = rigged_pair(score_setter(10.0), score_setter(30.0))
        f_m, f_w = score(teacher, ds, samples_of(ds)[0]), score(student, ds, samples_of(ds)[0])
        value, (upstream,) = _abs_delta_terms([f_m], [f_w])
        swapped, (swapped_upstream,) = _abs_delta_terms([f_w], [f_m])
        assert value == pytest.approx(0.5, rel=1e-9) and swapped == pytest.approx(value)
        assert upstream > 0.0 > swapped_upstream

    def test_bounded_open_interval(self):
        rng = np.random.default_rng(0)
        ds = tiny_dataset(rng)
        for seed in range(20):
            teacher = sample_scores(pool(init_model(ds.vocab_size, 3, seed=seed), ds),
                                    every(ds))
            student = sample_scores(pool(init_model(ds.vocab_size, 3, seed=seed + 100), ds),
                                    every(ds))
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
        teacher_model.embed_q[query_tokens(ds, "q0")] = [1.0, 0.0]
        for did, value in (("d0", 5.0), ("d1", 2.0), ("d2", 3.0)):
            teacher_model.embed_d[doc_tokens(ds, did)] = [score_setter(value), 0.0]
        cache = floors(teacher_model, ds)
        assert cache["q0"] == pytest.approx(2.0, rel=1e-9)
        # brute-force oracle over the same samples
        want = min(forward(teacher_model, ds, s.query_id, s.doc_id) for s in samples_of(ds))
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
            build_min_cache(ds, [])

    @settings(max_examples=100, deadline=None)
    @given(datasets(), st.data())
    def test_floors_are_the_running_minimum_in_sample_order(self, ds, data):
        # NaN scores included: a running minimum taken with < keeps a NaN
        # only where it comes first for its query
        scores = data.draw(st.lists(st.floats(0.0, 10.0) | st.just(math.nan),
                                    min_size=ds.n_samples, max_size=ds.n_samples))
        want = {}
        for s, score in zip(samples_of(ds), scores):
            if s.query_id not in want or score < want[s.query_id]:
                want[s.query_id] = score
        floors = build_min_cache(ds, scores)
        for qid, row in ds.queries.row.items():
            w = want.get(qid, math.inf)
            assert floors[row] == w or (math.isnan(floors[row]) and math.isnan(w))

    def test_rebuild_is_bitwise_stable(self, accept_split, accept_model):
        assert floors(accept_model, accept_split.train) == \
            floors(accept_model, accept_split.train)


class TestDeltaMin:
    def test_zero_at_floor(self):
        ds, teacher, student = rigged_pair(score_setter(2.0), score_setter(2.0))
        assert delta_min(floors(teacher, ds)["q0"], score(student, ds, samples_of(ds)[0])) == \
            pytest.approx(0.0)

    def test_above_floor(self):
        ds, teacher, student = rigged_pair(score_setter(5.0), score_setter(15.0))
        assert delta_min(floors(teacher, ds)["q0"], score(student, ds, samples_of(ds)[0])) == \
            pytest.approx(0.5, rel=1e-8)

    def test_below_floor(self):
        ds, teacher, student = rigged_pair(score_setter(5.0), score_setter(3.0))
        assert delta_min(floors(teacher, ds)["q0"], score(student, ds, samples_of(ds)[0])) == \
            pytest.approx(-0.25, rel=1e-8)


class TestContrastiveLoss:
    def test_zero_when_below_floor_and_partner_matched(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 1)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        model = init_model(8, 2, seed=0)
        model.embed_q[:] = 0.0
        model.embed_d[:] = 0.0
        model.embed_q[query_tokens(ds, "q0")] = [1.0, 0.0]
        model.embed_d[doc_tokens(ds, "d0")] = [score_setter(1.0), 0.0]
        model.embed_d[doc_tokens(ds, "d1")] = [score_setter(4.0), 0.0]
        student = clone_model(model)
        buf = Accumulate(student, ds)
        partner = (1, score(model, ds, samples_of(ds)[1]))
        value = contrastive_loss(floors(model, ds)["q0"], buf, 0, partner)
        assert value == pytest.approx(0.0)
        assert not buf.rows

    def test_forget_term_formula(self):
        # teacher floor 2, student score 5: relu((5-2)/(5+2)) = 3/7
        ds, teacher, student = rigged_pair(score_setter(2.0), score_setter(5.0))
        value = contrastive_loss(floors(teacher, ds)["q0"], Accumulate(student, ds), 0, None)
        assert value == pytest.approx(3 / 7, rel=1e-8)

    def test_partner_must_be_entangled(self):
        ds = build_dataset([("q0", "d0", 1), ("q1", "d1", 1)],
                           {"q0": ["d0"], "q1": ["d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        with pytest.raises(ConfigError, match=r"^partner \('q1', 'd1'\) shares no id with "
                                              r"the forget pair \('q0', 'd0'\)$"):
            contrastive_loss(floors(m, ds)["q0"], Accumulate(m, ds), 0,
                             (1, score(m, ds, samples_of(ds)[1])))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            teacher = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            x = samples_of(ds)[0]
            floor = floors(teacher, ds)[x.query_id]
            partner = next(((i, score(teacher, ds, s)) for i, s in enumerate(samples_of(ds))
                            if i and (s.query_id == x.query_id or s.doc_id == x.doc_id)), None)
            adjusted = delta_min(floor, score(student, ds, x))
            partner_gap = 0.0 if partner is None else \
                gap(teacher, student, ds, samples_of(ds)[partner[0]])
            if abs(adjusted) < 1e-3 or (partner is not None and abs(partner_gap) < 1e-3):
                continue
            buf = Accumulate(student, ds)
            contrastive_loss(floor, buf, 0, partner)

            def value():
                return contrastive_loss(floor, Accumulate(student, ds), 0, partner)

            num_q, num_d = finite_difference(value, student)
            grad_q, grad_d = np.split(buf.grad, 2)
            assert_close_grads(grad_q, num_q)
            assert_close_grads(grad_d, num_d)
            checked += 1


class TestConsistentLoss:
    def test_student_equals_teacher_gives_zero(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 3, seed=4)
        pos, neg = ((i, score(m, ds, s)) for i, s in enumerate(samples_of(ds)))
        assert consistent_loss(Accumulate(m, ds), pos, neg) == pytest.approx(0.0)

    def test_sum_of_absolute_gaps(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        teacher_model = init_model(8, 2, seed=0)
        student = init_model(8, 2, seed=0)
        for model, s0, s1 in ((teacher_model, 30.0, 10.0), (student, 10.0, 30.0)):
            model.embed_q[:] = 0.0
            model.embed_d[:] = 0.0
            model.embed_q[query_tokens(ds, "q0")] = [1.0, 0.0]
            model.embed_d[doc_tokens(ds, "d0")] = [score_setter(s0), 0.0]
            model.embed_d[doc_tokens(ds, "d1")] = [score_setter(s1), 0.0]
        # delta(pos) = .5, delta(neg) = -.5 -> loss 1.0
        pos, neg = ((i, score(teacher_model, ds, s)) for i, s in enumerate(samples_of(ds)))
        assert consistent_loss(Accumulate(student, ds), pos, neg) \
            == pytest.approx(1.0, rel=1e-8)

    def test_label_validation(self):
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0)],
                           {"q0": ["d0", "d1"]}, vocab_size=8)
        m = init_model(8, 2, seed=0)
        pos, neg = ((i, score(m, ds, s)) for i, s in enumerate(samples_of(ds)))
        with pytest.raises(ConfigError, match=r"^pos_pair \('q0', 'd1'\) is not positive$"):
            consistent_loss(Accumulate(m, ds), neg, pos)
        with pytest.raises(ConfigError, match=r"^neg_pair \('q0', 'd0'\) is not negative$"):
            consistent_loss(Accumulate(m, ds), pos, pos)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(12)
        checked = 0
        while checked < 100:
            ds = tiny_dataset(rng)
            pos = next((s for s in samples_of(ds) if s.label is Label.POSITIVE), None)
            neg = next((s for s in samples_of(ds) if s.label is Label.NEGATIVE), None)
            if pos is None or neg is None:
                continue
            teacher = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
            gaps = (gap(teacher, student, ds, pos), gap(teacher, student, ds, neg))
            if min(abs(g) for g in gaps) < 1e-3:
                continue
            pos_pair = (samples_of(ds).index(pos), score(teacher, ds, pos))
            neg_pair = (samples_of(ds).index(neg), score(teacher, ds, neg))
            buf = Accumulate(student, ds)
            consistent_loss(buf, pos_pair, neg_pair)

            def value():
                return consistent_loss(Accumulate(student, ds), pos_pair, neg_pair)

            num_q, num_d = finite_difference(value, student)
            grad_q, grad_d = np.split(buf.grad, 2)
            assert_close_grads(grad_q, num_q)
            assert_close_grads(grad_d, num_d)
            checked += 1


class TestAbsDelta:
    def test_matches_delta_magnitude(self):
        ds, teacher, student = rigged_pair(score_setter(30.0), score_setter(10.0))
        pair = (0, score(teacher, ds, samples_of(ds)[0]))
        assert _abs_delta_loss(Accumulate(student, ds), [pair]) \
            == pytest.approx(0.5, rel=1e-8)

    def test_zero_gap_accumulates_nothing(self):
        ds = build_dataset([("q0", "d0", 1)], {"q0": ["d0"]}, vocab_size=4)
        m = init_model(4, 2, seed=5)
        buf = Accumulate(m, ds)
        pair = (0, score(m, ds, samples_of(ds)[0]))
        assert _abs_delta_loss(buf, [pair]) == 0.0
        assert not buf.rows
