"""Whole-run oracles: runs of every strategy through ``unlearn``,
checkpoints and stopping rule included, against plain per-pair loops
keyed by string id.

Each reference derives the forget, entangled and disjoint sets from the
removal spec by a linear scan of the samples, and a forget pair's
partners by a scan of the entangled set in sample order. It makes one
scalar ``rng.integers`` call per pick, in the order the plan makes its
picks. cocol and badt score and step each pair with ``Ref``, applying
each loss's step before the next loss; cf, amnesiac, neggrad and ssd
take one ``hinge_loss_and_grad`` per draw through the per-draw loops of
``test_hinge_draws``. The run's final parameters must equal the
reference's bit for bit, and so must its epoch count (and ssd's count of
edited parameters).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_epoch_picks import forgettable_specs
from test_hinge_draws import (Loop, loop_importance, loop_pairwise_epoch, loop_unlearn_epochs,
                              query_negatives)
from test_scoring_properties import (VOCAB, Ref, datasets, models, ref_abs_delta,
                                     ref_consistent, ref_contrastive, token_lists)

from numur import (ConfigError, CorpusSplit, DataError, Method, RemovalKind,
                   UnlearnConfig, clone_model, init_model, partition, unlearn)
from numur.ranker import Sgd

from conftest import Label, Sample, dataset_of, samples_of


@st.composite
def separable_datasets(draw):
    """2 to 5 queries, each with docs of its own, a positive and a negative
    among them, and a few docs shared between pools: a removal request
    then often leaves a disjoint set with both labels, which cocol's
    consistency pass needs."""
    shared = [f"s{i}" for i in range(draw(st.integers(0, 3)))]
    queries, documents, pools, samples = {}, {}, {}, []
    for did in shared:
        documents[did] = draw(token_lists(4))
    for qi in range(draw(st.integers(2, 5))):
        qid = f"q{qi}"
        queries[qid] = draw(token_lists(4))
        own = [f"d{qi}_{k}" for k in range(draw(st.integers(2, 4)))]
        for did in own:
            documents[did] = draw(token_lists(4))
        extra = draw(st.lists(st.sampled_from(shared), unique=True)) if shared else []
        pool = draw(st.permutations(own + extra))
        pools[qid] = tuple(pool)
        for did in pool:
            label = Label.POSITIVE if did == own[0] else Label.NEGATIVE if did == own[1] \
                else draw(st.sampled_from([None, Label.POSITIVE, Label.NEGATIVE]))
            if label is not None:
                samples.append(Sample(qid, did, label))
    return dataset_of(queries=queries, docs=documents, samples=draw(st.permutations(samples)),
                      pools=pools, vocab_size=VOCAB)


corpora = st.one_of(datasets(), separable_datasets())


def scan_sets(ds, spec):
    """F, E and D of ``spec`` over the samples of ``ds``, each in sample order."""
    named = (lambda s: s.query_id in spec.ids) if spec.kind is RemovalKind.QUERY \
        else (lambda s: s.doc_id in spec.ids)
    samples = samples_of(ds)
    forget = [s for s in samples if named(s)]
    shares = lambda s: any(s.query_id == x.query_id or s.doc_id == x.doc_id for x in forget)
    retained = [s for s in samples if not named(s)]
    return (forget, [s for s in retained if shares(s)],
            [s for s in retained if not shares(s)])


def epochs_due(ds, spec, forget, epochs):
    """The epochs a run with an unreachable target makes: none when no forget
    query has a target in its pool, since its forget MRR is then 0."""
    if spec.kind is RemovalKind.DOCUMENT:
        return epochs  # a forget sample's doc is a named doc in its query's pool
    queries = {s.query_id for s in forget}
    has_target = any(s.label is Label.POSITIVE and s.query_id in queries
                     for s in samples_of(ds))
    return epochs if has_target else 0


def ref_cocol(model, ds, spec, seed, lr, epochs, use_entangled, use_phase2):
    forget, entangled, disjoint = scan_sets(ds, spec)
    ref, rng = Ref(model), np.random.default_rng(seed)
    d_pos = [d for d in disjoint if d.label is Label.POSITIVE]
    d_neg = [d for d in disjoint if d.label is Label.NEGATIVE]
    for _ in range(epochs):
        for i in rng.permutation(len(forget)):
            x = forget[int(i)]
            partners = [e for e in entangled
                        if e.query_id == x.query_id or e.doc_id == x.doc_id]
            partner = None
            if use_entangled and partners:
                partner = partners[int(rng.integers(len(partners)))]
            ref_contrastive(ref, model, ds, x, partner)
            ref.apply(lr)
        if not use_phase2:
            continue
        for i in rng.permutation(len(disjoint)):
            d = disjoint[int(i)]
            if d.label is Label.POSITIVE:
                ref_consistent(ref, model, ds, d, d_neg[int(rng.integers(len(d_neg)))])
            else:
                ref_consistent(ref, model, ds, d_pos[int(rng.integers(len(d_pos)))], d)
            ref.apply(lr)
    return ref


def ref_badt(model, ds, spec, seed, lr, epochs):
    forget = scan_sets(ds, spec)[0]
    retained = [s for s in samples_of(ds) if s not in forget]
    bad_teacher = init_model(model.vocab_size, model.dim, seed)
    ref, rng = Ref(model), np.random.default_rng(seed)
    for _ in range(epochs):
        for teacher, pairs in ((bad_teacher, forget), (model, retained)):
            for i in rng.permutation(len(pairs)):
                ref_abs_delta(ref, teacher, ds, pairs[int(i)])
                ref.apply(lr)
    return ref


def assert_params_are(run, ref):
    assert np.array_equal(run.final_model.embed_q, ref.embed_q)
    assert np.array_equal(run.final_model.embed_d, ref.embed_d)


@settings(max_examples=80, deadline=None)
@given(corpora, models, st.booleans(), st.booleans(), st.integers(1, 3),
       st.integers(0, 2**31 - 1), st.data())
def test_cocol_runs_are_the_reference(ds, model, use_entangled, use_phase2, epochs, seed,
                                      data):
    spec = data.draw(forgettable_specs(ds))
    cfg = UnlearnConfig(method=Method.COCOL, max_epochs=epochs, delta_target=1e-9, seed=seed,
                        method_params={"entangled_term": use_entangled,
                                       "phase2": use_phase2})
    forget, _, disjoint = scan_sets(ds, spec)
    split = CorpusSplit(train=ds, test=ds)
    if use_phase2 and {d.label for d in disjoint} != {Label.POSITIVE, Label.NEGATIVE}:
        with pytest.raises(ConfigError, match="disjoint set lacks"):
            unlearn(model, split, partition(ds, spec), cfg)
        return
    run = unlearn(model, split, partition(ds, spec), cfg)
    due = epochs_due(ds, spec, forget, epochs)
    assert run.epochs_run == due
    assert_params_are(run, ref_cocol(model, ds, spec, seed, cfg.learning_rate, due,
                                     use_entangled, use_phase2))


@settings(max_examples=80, deadline=None)
@given(corpora, models, st.integers(1, 3), st.integers(0, 2**31 - 1), st.data())
def test_badt_runs_are_the_reference(ds, model, epochs, seed, data):
    spec = data.draw(forgettable_specs(ds))
    cfg = UnlearnConfig(method=Method.BADT, max_epochs=epochs, delta_target=1e-9, seed=seed)
    run = unlearn(model, CorpusSplit(train=ds, test=ds), partition(ds, spec), cfg)
    due = epochs_due(ds, spec, scan_sets(ds, spec)[0], epochs)
    assert run.epochs_run == due
    assert_params_are(run, ref_badt(model, ds, spec, seed, cfg.learning_rate, due))


def has_negatives(ds, samples, query_id):
    """Whether the pool of ``query_id`` holds a doc that ``samples`` does not
    mark positive for it."""
    positive = {s.doc_id for s in samples if s.query_id == query_id and s.label is Label.POSITIVE}
    return any(d not in positive for d in ds.pools[query_id])


def ref_hinge(model, ds, spec, method, seed, lr, epochs, margin, npp):
    """The final parameters of cf, amnesiac or neggrad; None where the run
    must fail on a query without pool negatives."""
    forget, entangled, disjoint = scan_sets(ds, spec)
    ref, rng = clone_model(model), np.random.default_rng(seed)
    if method is Method.CF:
        retained = [s for s in samples_of(ds) if s not in forget]
        trained = {s.query_id for s in retained if s.label is Label.POSITIVE}
        if epochs and not all(has_negatives(ds, retained, q) for q in trained):
            return None
        loop = Loop(Sgd(ref, ds, lr), margin)
        for _ in range(epochs):
            loop_pairwise_epoch(ds, retained, rng, margin, npp, loop)
        return ref
    drawn = forget + (entangled if method is Method.AMNESIAC else [])
    if method is Method.AMNESIAC and not all(
            has_negatives(ds, samples_of(ds), s.query_id) for s in drawn
            if s.label is Label.POSITIVE):
        return None
    loop = Loop(Sgd(ref, ds, lr if method is Method.AMNESIAC else -lr), margin)
    loop_unlearn_epochs(method, ds, forget, entangled, rng, npp, epochs, loop)
    return ref


@settings(max_examples=120, deadline=None)
@given(corpora, models, st.sampled_from([Method.CF, Method.AMNESIAC, Method.NEGGRAD]),
       st.sampled_from([0.5, 1.0, 4.0]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**31 - 1), st.data())
def test_hinge_runs_are_the_reference(ds, model, method, margin, npp, epochs, seed, data):
    spec = data.draw(forgettable_specs(ds))
    cfg = UnlearnConfig(method=method, max_epochs=epochs, delta_target=1e-9, seed=seed,
                        method_params={"margin": margin, "negatives_per_positive": npp})
    split = CorpusSplit(train=ds, test=ds)
    due = epochs_due(ds, spec, scan_sets(ds, spec)[0], epochs)
    ref = ref_hinge(model, ds, spec, method, seed, cfg.learning_rate, due, margin, npp)
    if ref is None:
        with pytest.raises((ConfigError, DataError), match="has no pool negatives"):
            unlearn(model, split, partition(ds, spec), cfg)
        return
    run = unlearn(model, split, partition(ds, spec), cfg)
    assert run.epochs_run == due
    assert_params_are(run, ref)


@settings(max_examples=80, deadline=None)
@given(corpora, models, st.sampled_from([1.5, 3.0, 10.0]), st.sampled_from([0.5, 1.0]),
       st.sampled_from([0.5, 1.0, 4.0]), st.integers(1, 3), st.integers(0, 2**31 - 1),
       st.data())
def test_ssd_runs_are_the_reference(ds, model, alpha, lam, margin, npp, seed, data):
    spec = data.draw(forgettable_specs(ds))
    cfg = UnlearnConfig(method=Method.SSD, delta_target=1e-9, seed=seed,
                        method_params={"alpha": alpha, "lambda": lam, "margin": margin,
                                       "negatives_per_positive": npp})
    run = unlearn(model, CorpusSplit(train=ds, test=ds), partition(ds, spec), cfg)
    # the forget pass, then the full pass, on one generator; then the edit
    negatives, rng = query_negatives(ds), np.random.default_rng(seed)
    imp_f = loop_importance(model, ds, scan_sets(ds, spec)[0], negatives, margin, npp, rng)
    imp_s = loop_importance(model, ds, samples_of(ds), negatives, margin, npp, rng)
    ref = clone_model(model)
    edit = (imp_f > alpha * imp_s) & (imp_s > 0.0)
    ref.params[edit] *= np.minimum(lam * imp_s[edit] / imp_f[edit], 1.0)
    assert run.epochs_run == 0 and run.edited_params == np.count_nonzero(edit)
    assert_params_are(run, ref)
