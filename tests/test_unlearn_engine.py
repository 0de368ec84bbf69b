from dataclasses import fields
from unittest.mock import patch

import numpy as np
import pytest

from numur import (ConfigError, CorpusSplit, DataError, Dataset, ForgetSpec, Method,
                   RemovalKind, TrainConfig, UnlearnConfig, clone_model, compute_destinations,
                   init_model, mrr_forget, partition, retrain, train, unlearn)
from numur import ranker, unlearn_engine
from numur.ranker import Sgd, pool, pool_split, sample_scores
from numur.unlearn_losses import _abs_delta_loss

from conftest import ACCEPT_UNLEARN_LR, build_dataset, empty_dataset, samples_at, spy
import scoring_reference
from scoring_reference import doc_tokens, query_tokens


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


def keys(ds, positions):
    return {(s.query_id, s.doc_id) for s in samples_at(ds, positions)}


def row_keys(ds, positions):
    """The (query row, doc row) of the sample at each of ``positions``, as
    hinge draws see them."""
    return set(zip(ds.sample_query[positions].tolist(), ds.sample_doc[positions].tolist()))


def positives(ds, positions):
    return positions[ds.positive[positions]]


def ucfg(method, **kw):
    base = dict(delta_target=0.5, max_epochs=30, learning_rate=0.3, seed=3,
                check_every=1, method=method)
    base.update(kw)
    return UnlearnConfig(**base)


class TestDriver:
    def test_target_already_met_stops_at_zero_epochs(self):
        split, part, model = small_unlearn_world()
        current = mrr_forget(pool(model, split.train), part).value
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
    def test_phase_separation(self, monkeypatch):
        # phase 1 suppresses forget pairs only; phase 2 pins disjoint pairs only
        split, part, model = small_unlearn_world()
        phase1 = spy(monkeypatch, unlearn_engine, "contrastive_loss")
        phase2 = spy(monkeypatch, unlearn_engine, "consistent_loss")
        unlearn(model, split, part, ucfg(Method.COCOL, delta_target=1e-9, max_epochs=2))
        assert len(phase1) == 2 * len(part.forget)
        assert len(phase2) == 2 * len(part.disjoint)
        forget, disjoint = set(part.forget.tolist()), set(part.disjoint.tolist())
        assert all(x in forget for _, _, x, _ in phase1)
        assert all(d in disjoint for _, (pos, _), (neg, _) in phase2 for d in (pos, neg))

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
            model.embed_q[query_tokens(ds, qid)] = [1.0, 0.0]
        for did, z in (("d0", -3.0), ("d1", 2.0), ("d2", 3.0), ("d3", 4.0)):
            model.embed_d[doc_tokens(ds, did)] = [z, 0.0]
        # q0's forget pair (d0) scores below its labelled negative d1: at floor
        split = CorpusSplit(train=ds, test=empty_dataset(32))
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
        split = CorpusSplit(train=ds, test=empty_dataset(32))
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q0"}))
        part = partition(ds, spec)  # disjoint = q1's single positive, no negative
        model = init_model(32, 2, seed=0)
        with pytest.raises(ConfigError, match="disjoint"):
            unlearn(model, split, part, ucfg(Method.COCOL))

    def test_empty_forget_rejected(self):
        split, part, model = small_unlearn_world()
        part.forget = part.forget[:0]
        with pytest.raises(ConfigError, match="forget"):
            unlearn(model, split, part, ucfg(Method.COCOL))


class TestCf:
    def test_touches_no_forget_sample(self, monkeypatch):
        split, part, model = small_unlearn_world()
        draws = spy(monkeypatch, ranker.HingeDraws, "run")
        unlearn(model, split, part, ucfg(Method.CF, delta_target=1e-9, max_epochs=2,
                                         learning_rate=0.05))
        forget_keys = row_keys(split.train, part.forget)
        assert draws
        assert all((qid, pos) not in forget_keys for _, qid, pos, _ in draws)

    def test_same_seed_determinism(self):
        split, part, model = small_unlearn_world()
        cfg = ucfg(Method.CF, learning_rate=0.05, max_epochs=3, delta_target=1e-9)
        a = unlearn(model, split, part, cfg)
        b = unlearn(model, split, part, cfg)
        assert a.final_model.params.tobytes() == b.final_model.params.tobytes()


class TestAmnesiac:
    def test_forget_mrr_decreases(self):
        split, part, model = small_unlearn_world()
        before = mrr_forget(pool(model, split.train), part).value
        run = unlearn(model, split, part,
                      ucfg(Method.AMNESIAC, delta_target=1e-9, max_epochs=5))
        assert run.trajectory[-1].mrr_forget < before

    def test_touches_forget_and_entangled_only(self, monkeypatch):
        # a forget task promotes one pool negative above the forget positive,
        # which it passes as the draw's negative; a retain task trains an
        # entangled positive against npp negatives
        split, part, model = small_unlearn_world()
        draws = spy(monkeypatch, ranker.HingeDraws, "run")
        unlearn(model, split, part, ucfg(Method.AMNESIAC, delta_target=1e-9, max_epochs=1))
        forget_pos = row_keys(split.train, positives(split.train, part.forget))
        entangled_pos = row_keys(split.train, positives(split.train, part.entangled))
        forgets = [c for c in draws if len(c[3]) == 1 and (c[1], c[3][0]) in forget_pos]
        retains = [c for c in draws if (c[1], c[2]) in entangled_pos]
        assert len(forgets) == len(forget_pos) and len(retains) == len(entangled_pos)
        assert len(forgets) + len(retains) == len(draws)

    def test_a_query_without_pool_negatives(self):
        # q1 shares d0 with q0, and every doc of its pool is positive for it
        ds = build_dataset([("q0", "d0", 1), ("q0", "d1", 0), ("q1", "d0", 1), ("q1", "d2", 1)],
                           {"q0": ["d0", "d1"], "q1": ["d0", "d2"]})
        split, model = CorpusSplit(train=ds, test=ds), init_model(ds.vocab_size, 4, seed=0)
        # removing q0 leaves q1 retained and entangled: amnesiac trains it, as cf does
        part = partition(ds, ForgetSpec(RemovalKind.QUERY, frozenset({"q0"})))
        assert keys(ds, part.entangled) == {("q1", "d0")}
        for method in (Method.AMNESIAC, Method.CF):
            with pytest.raises(DataError) as info:
                unlearn(model, split, part, ucfg(method, delta_target=1e-9, max_epochs=1))
            assert str(info.value) == "query 'q1' has no pool negatives to train against"
        # removing q1 leaves amnesiac no negative to promote above its positives
        part = partition(ds, ForgetSpec(RemovalKind.QUERY, frozenset({"q1"})))
        with pytest.raises(ConfigError, match="forget query 'q1' has no pool negatives"):
            unlearn(model, split, part, ucfg(Method.AMNESIAC, delta_target=1e-9))


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
        for pair in zip(forget.tolist(), sample_scores(pool(bad, split.train), forget)):
            assert _abs_delta_loss(Sgd(student, split.train, 0.5), [pair]) \
                == pytest.approx(0.0)

    def test_student_at_trained_model_has_zero_retain_loss(self):
        split, part, model = small_unlearn_world()
        retained = np.concatenate((part.entangled, part.disjoint))[:5]
        for pair in zip(retained.tolist(), sample_scores(pool(model, split.train), retained)):
            assert _abs_delta_loss(Sgd(model, split.train, 0.5), [pair]) \
                == pytest.approx(0.0)

    def test_runs_and_stops(self):
        split, part, model = small_unlearn_world()
        run = unlearn(model, split, part, ucfg(Method.BADT, delta_target=0.6))
        if run.stopped_early:
            assert run.trajectory[-1].mrr_forget <= 0.6

    def test_teachers_are_scored_in_one_pass_each(self):
        split, part, model = small_unlearn_world()
        cfg = ucfg(Method.BADT, delta_target=1e-9, max_epochs=3)
        real, calls = scoring_reference.forward, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        def per_pair(teacher, samples):  # teacher: what unpooled() returned
            return [scoring_reference.forward(*teacher, s.query_id, s.doc_id)
                    for s in samples_at(teacher[1], samples)]

        def unpooled(model, dataset):
            return model, dataset

        with patch.object(scoring_reference, "forward", counted):
            run = unlearn(model, split, part, cfg)
            assert not calls
            # teachers that score each pair with its own forward call
            with patch.object(unlearn_engine, "pool", unpooled), \
                    patch.object(unlearn_engine, "sample_scores", per_pair):
                lazy = unlearn(model, split, part, cfg)
        assert len(calls) == split.train.n_samples
        assert run.final_model.params.tobytes() == lazy.final_model.params.tobytes()


class TestDestinations:
    def test_d3_is_half_d2(self, accept_split, accept_partition, accept_retrain_result):
        dest = compute_destinations(*pool_split(accept_retrain_result.model, accept_split),
                                    accept_partition)
        assert dest.d3 == pytest.approx(dest.d2 / 2)

    def test_document_removal_semantics_used_for_d1(self):
        split, part, model = small_unlearn_world()
        dest = compute_destinations(*pool_split(model, split), part)
        want = mrr_forget(pool(model, split.train), part).value
        assert dest.d1 == pytest.approx(want)

    def test_arithmetic_on_reference_magnitude(self):
        # a retrained test MRR around 0.46 halves to 0.23
        assert 0.46 / 2 == pytest.approx(0.23)


@pytest.mark.parametrize("method", list(Method))
def test_unknown_method_param_rejected(method):
    split, part, model = small_unlearn_world()
    with pytest.raises(ConfigError, match="entangeld_term"):
        unlearn(model, split, part, ucfg(method, method_params={"entangeld_term": False}))


@pytest.mark.parametrize("method", ["cf", None])
def test_method_that_is_not_a_method_rejected(method):
    # a library caller may pass the name; the CLI parses it into a Method first
    with pytest.raises(ConfigError, match="method"):
        UnlearnConfig(method=method)


@pytest.mark.parametrize("make", [lambda: TrainConfig(learning_rate=float("nan")),
                                  lambda: TrainConfig(margin=float("nan")),
                                  lambda: UnlearnConfig(learning_rate=float("nan"))],
                         ids=["train learning_rate", "train margin", "unlearn learning_rate"])
def test_nan_config_values_rejected(make):
    # nan <= 0 is false, so a check written that way lets NaN through
    with pytest.raises(ConfigError, match="must be positive"):
        make()


def test_fits_and_plans_leave_no_step_state_on_the_dataset():
    # Each fit's and plan's step tables live on its Sgd; a dataset holds
    # its fields and the pool arrays derived from them, and nothing of the ranker's.
    split, part, model = small_unlearn_world()
    retrain(split, TrainConfig(epochs=1, dim=8, seed=0), part)
    for method in Method:
        unlearn(model, split, part, ucfg(method, delta_target=1e-9, max_epochs=1))
    own = {f.name for f in fields(Dataset)} | {"pool_ids", "_pool_entries", "pools"}
    for ds in (split.train, split.test):
        assert set(vars(ds)) <= own
