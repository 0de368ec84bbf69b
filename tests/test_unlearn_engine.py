from unittest.mock import patch

import numpy as np
import pytest

from numur import (ConfigError, CorpusSplit, Dataset, ForgetSpec, Method, RemovalKind,
                   TrainConfig, UnlearnConfig, clone_model, compute_destinations, init_model,
                   mrr_forget, partition, train, unlearn)
from numur import ranker, unlearn_engine
from numur.ranker import sample_scores
from numur.unlearn_losses import _abs_delta_loss

from conftest import ACCEPT_UNLEARN_LR, build_dataset


def small_unlearn_world(seed=0):
    """A 6-query corpus small enough for per-test unlearning runs."""
    from numur import SyntheticConfig, generate_synthetic
    from numur.partition import sample_forget_spec
    split = generate_synthetic(SyntheticConfig(
        n_queries=12, n_docs=48, vocab_size=128, positives_per_query=2,
        pool_size=16, entanglement_rate=0.5, test_fraction=0.25, seed=seed))
    cfg = TrainConfig(learning_rate=0.1, epochs=15, margin=1.0, seed=seed,
                      negatives_per_positive=4, dim=8)
    result = train(split, cfg)
    spec = sample_forget_spec(split.train, RemovalKind.DOCUMENT, 0.25, seed=seed)
    part = partition(split.train, spec)
    return split, part, result.model


def ucfg(method, **kw):
    base = dict(delta_target=0.5, max_epochs=30, learning_rate=0.3, seed=3,
                check_every=1, method=method)
    base.update(kw)
    return UnlearnConfig(**base)


class TestDriver:
    def test_target_already_met_stops_at_zero_epochs(self):
        split, part, model = small_unlearn_world()
        current = mrr_forget(model, split.train, part, part.spec).value
        run = unlearn(model, split, part,
                      ucfg(Method.COCOL, delta_target=min(1.0, current)))
        assert run.epochs_run <= 1
        assert run.stopped_early
        assert run.trajectory[0].epoch == 0

    def test_budget_exhaustion(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.COCOL, delta_target=1e-9, max_epochs=2))
        assert run.epochs_run == 2
        assert not run.stopped_early

    def test_stopping_soundness(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part, ucfg(Method.COCOL, delta_target=0.4))
        if run.stopped_early:
            assert run.trajectory[-1].mrr_forget <= 0.4
        else:
            assert run.epochs_run == 30

    def test_determinism_including_trajectory(self):
        split, part, model = small_unlearn_world()
        a = unlearn(model, split, part, ucfg(Method.COCOL))
        b = unlearn(model, split, part, ucfg(Method.COCOL))
        assert a.final_model.params.tobytes() == b.final_model.params.tobytes()
        assert [(r.epoch, r.mrr_forget, r.mrr_entangled, r.mrr_disjoint, r.mrr_test)
                for r in a.trajectory] == \
               [(r.epoch, r.mrr_forget, r.mrr_entangled, r.mrr_disjoint, r.mrr_test)
                for r in b.trajectory]

    def test_check_every_skips_intermediate_evaluations(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.COCOL, delta_target=1e-9, max_epochs=5,
                           check_every=2))
        assert [r.epoch for r in run.trajectory] == [0, 2, 4, 5]

    def test_input_model_not_mutated(self):
        split, part, model = small_unlearn_world()
        before = clone_model(model)
        unlearn(model, split, part, ucfg(Method.COCOL, max_epochs=2))
        assert model.params.tobytes() == before.params.tobytes()

    def test_dispatch_routes_by_method(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part, ucfg(Method.SSD))
        assert run.method is Method.SSD

    def test_method_mismatch_rejected(self):
        # a key another strategy reads is not one this strategy reads
        split, part, model = small_unlearn_world()
        with pytest.raises(ConfigError, match="phase2"):
            unlearn(model, split, part, ucfg(Method.CF, method_params={"phase2": False}))


class TestCocol:
    def test_phase_separation(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.COCOL, delta_target=1e-9, max_epochs=2,
                           log_touched=True))
        forget_keys = {(s.query_id, s.doc_id) for s in part.forget}
        disjoint_keys = {(s.query_id, s.doc_id) for s in part.disjoint}
        for phase, qid, did in run.touched:
            if phase == "phase1":
                assert (qid, did) in forget_keys
            else:
                assert (qid, did) in disjoint_keys

    def test_fixed_point_when_already_unlearned(self):
        # Forget pairs at each query's teacher floor and a student equal to
        # the teacher give zero gradients everywhere: parameters do not move.
        triples = [("q0", "d0", 1), ("q0", "d1", 0), ("q1", "d2", 1), ("q1", "d3", 0)]
        pools = {"q0": ["d0", "d1"], "q1": ["d2", "d3"]}
        ds = build_dataset(triples, pools, vocab_size=32)
        model = init_model(32, 2, seed=0)
        model.embed_q[:] = 0.0
        model.embed_d[:] = 0.0
        for qid in ("q0", "q1"):
            model.embed_q[ds.query_tokens(qid)] = [1.0, 0.0]
        for did, z in (("d0", -3.0), ("d1", 2.0), ("d2", 3.0), ("d3", 4.0)):
            model.embed_d[ds.doc_tokens(did)] = [z, 0.0]
        # q0's forget pair (d0) scores below its labelled negative d1: at floor
        split = CorpusSplit(train=ds, test=Dataset(queries={}, documents={},
                                                   samples=[], pools={}, vocab_size=32))
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d0"}))
        part = partition(ds, spec)
        before = clone_model(model)
        run = unlearn(model, split, part,
                      ucfg(Method.COCOL, delta_target=1e-9, max_epochs=3))
        assert run.final_model.params.tobytes() == before.params.tobytes()

    def test_requires_disjoint_positives_and_negatives(self):
        triples = [("q0", "d0", 1), ("q0", "d1", 0), ("q1", "d2", 1)]
        pools = {"q0": ["d0", "d1"], "q1": ["d2", "d3"]}
        ds = build_dataset(triples, pools, vocab_size=32)
        split = CorpusSplit(train=ds, test=Dataset(queries={}, documents={},
                                                   samples=[], pools={}, vocab_size=32))
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q0"}))
        part = partition(ds, spec)  # disjoint = q1's single positive, no negative
        model = init_model(32, 2, seed=0)
        with pytest.raises(ConfigError, match="disjoint"):
            unlearn(model, split, part, ucfg(Method.COCOL))

    def test_empty_forget_rejected(self):
        split, part, model = small_unlearn_world()
        part.forget = []
        with pytest.raises(ConfigError, match="forget"):
            unlearn(model, split, part, ucfg(Method.COCOL))


class TestCf:
    def test_touches_no_forget_sample(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.CF, delta_target=1e-9, max_epochs=2,
                           learning_rate=0.05, log_touched=True))
        forget_keys = {(s.query_id, s.doc_id) for s in part.forget}
        assert run.touched
        assert all((qid, did) not in forget_keys for _, qid, did in run.touched)

    def test_same_seed_determinism(self):
        split, part, model = small_unlearn_world()
        cfg = ucfg(Method.CF, learning_rate=0.05, max_epochs=3, delta_target=1e-9)
        a = unlearn(model, split, part, cfg)
        b = unlearn(model, split, part, cfg)
        assert a.final_model.params.tobytes() == b.final_model.params.tobytes()


class TestAmnesiac:
    def test_forget_mrr_decreases(self):
        split, part, model = small_unlearn_world()
        before = mrr_forget(model, split.train, part, part.spec).value
        run = unlearn(model, split, part,
                      ucfg(Method.AMNESIAC, delta_target=1e-9, max_epochs=5))
        assert run.trajectory[-1].mrr_forget < before

    def test_touches_forget_and_entangled_only(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.AMNESIAC, delta_target=1e-9, max_epochs=1,
                           log_touched=True))
        allowed = {(s.query_id, s.doc_id) for s in part.forget + part.entangled}
        assert all((qid, did) in allowed for _, qid, did in run.touched)


class TestNegGrad:
    def test_zero_learning_rate_is_identity(self):
        split, part, model = small_unlearn_world()
        with pytest.raises(ConfigError):
            ucfg(Method.NEGGRAD, learning_rate=0.0)
        tiny = unlearn(model, split, part,
                       ucfg(Method.NEGGRAD, delta_target=1e-9, max_epochs=1,
                            learning_rate=1e-12))
        assert np.allclose(tiny.final_model.embed_q, model.embed_q, atol=1e-9)

    def test_forget_mrr_trends_down(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.NEGGRAD, delta_target=1e-9, max_epochs=6,
                           learning_rate=0.5))
        series = [r.mrr_forget for r in run.trajectory]
        violations = sum(1 for a, b in zip(series, series[1:]) if b > a + 1e-9)
        assert violations <= 1
        assert series[-1] < series[0]


class TestSsd:
    def test_one_shot_runs_zero_epochs(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part, ucfg(Method.SSD))
        assert run.epochs_run == 0
        assert len(run.trajectory) == 1

    def test_huge_lambda_changes_nothing(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.SSD, method_params={"lambda": 1e12}))
        assert run.final_model.params.tobytes() == model.params.tobytes()

    def test_huge_alpha_changes_nothing(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part,
                      ucfg(Method.SSD, method_params={"alpha": 1e12}))
        assert run.final_model.params.tobytes() == model.params.tobytes()
        assert run.edited_params == 0

    def test_acceptance_corpus_edits_parameters(self, accept_split, accept_partition,
                                                 accept_model):
        run = unlearn(accept_model, accept_split, accept_partition,
                      UnlearnConfig(delta_target=0.5, max_epochs=1,
                                    learning_rate=ACCEPT_UNLEARN_LR, seed=7,
                                    method=Method.SSD))
        assert run.edited_params > 0

    def test_parameters_never_grow(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part, ucfg(Method.SSD))
        assert np.all(np.abs(run.final_model.embed_q) <= np.abs(model.embed_q) + 1e-15)
        assert np.all(np.abs(run.final_model.embed_d) <= np.abs(model.embed_d) + 1e-15)

    def test_bad_params_rejected(self):
        split, part, model = small_unlearn_world()
        with pytest.raises(ConfigError):
            unlearn(model, split, part,
                    ucfg(Method.SSD, method_params={"alpha": 0.5}))


class TestBadT:
    def test_student_at_bad_teacher_has_zero_forget_loss(self):
        split, part, model = small_unlearn_world()
        bad = init_model(model.vocab_size, model.dim, seed=3)
        student = clone_model(bad)
        forget = part.forget[:5]
        for pair in zip(forget, sample_scores(bad, split.train, forget)):
            assert _abs_delta_loss(student, split.train, [pair], None) == pytest.approx(0.0)

    def test_student_at_trained_model_has_zero_retain_loss(self):
        split, part, model = small_unlearn_world()
        retained = (part.entangled + part.disjoint)[:5]
        for pair in zip(retained, sample_scores(model, split.train, retained)):
            assert _abs_delta_loss(model, split.train, [pair], None) == pytest.approx(0.0)

    def test_runs_and_stops(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part, ucfg(Method.BADT, delta_target=0.6))
        if run.stopped_early:
            assert run.trajectory[-1].mrr_forget <= 0.6

    def test_teachers_are_scored_in_one_pass_each(self):
        split, part, model = small_unlearn_world()
        cfg = ucfg(Method.BADT, delta_target=1e-9, max_epochs=3)
        real, calls = ranker.forward, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        def per_pair(model, dataset, samples):
            return [ranker.forward(model, dataset, s.query_id, s.doc_id) for s in samples]

        with patch.object(ranker, "forward", counted):
            run = unlearn(model, split, part, cfg)
            assert not calls
            # teachers that score each pair with its own forward call
            with patch.object(unlearn_engine, "sample_scores", per_pair):
                lazy = unlearn(model, split, part, cfg)
        assert len(calls) == len(split.train.samples)
        assert run.final_model.params.tobytes() == lazy.final_model.params.tobytes()


class TestDestinations:
    def test_d3_is_half_d2(self, accept_split, accept_partition, accept_retrain_result):
        dest = compute_destinations(accept_retrain_result.model, accept_split,
                                    accept_partition)
        assert dest.d3 == pytest.approx(dest.d2 / 2)

    def test_document_removal_semantics_used_for_d1(self):
        split, part, model = small_unlearn_world()
        dest = compute_destinations(model, split, part)
        want = mrr_forget(model, split.train, part, part.spec).value
        assert dest.d1 == pytest.approx(want)

    def test_arithmetic_on_reference_magnitude(self):
        # a retrained test MRR around 0.46 halves to 0.23
        assert 0.46 / 2 == pytest.approx(0.23)


@pytest.mark.parametrize("method", list(Method))
def test_unknown_method_param_rejected(method):
    split, part, model = small_unlearn_world()
    with pytest.raises(ConfigError, match="entangeld_term"):
        unlearn(model, split, part, ucfg(method, method_params={"entangeld_term": False}))
