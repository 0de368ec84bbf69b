"""Property tests: each SGD epoch's picks, made in whole-array passes,
against the per-query and per-draw loops they replace.

A hinge epoch mines every query's hard negatives from one batched
scoring and one row-wise sort, and every pass draws all of its picks
with one ``rng.integers`` call over an array of bounds. The mining must
pick what sorting each pool on its own picks, and every pass must leave
the model bit for bit where one scalar ``rng.integers`` call per pick
leaves it.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scoring_reference import score_pool
from test_scoring_properties import datasets, models

from numur import (ConfigError, CorpusSplit, ForgetSpec, Method, RemovalKind,
                   SyntheticConfig, UnlearnConfig, build_min_cache, consistent_loss,
                   contrastive_loss, entangled_partners, generate_synthetic, init_model,
                   partition, unlearn)
from numur.partition import sample_forget_spec
from numur.ranker import HARD_NEGATIVES_PER_QUERY, HingeSet, Sgd, pool, sample_scores

from conftest import Label, Sample, dataset_of, every, samples_at, samples_of

# Bounds of one draw each: 1 (a pick that can only be 0), small bounds, and
# bounds at and past 2**32, where numpy draws from 64 bits instead of 32.
BOUNDS = {
    "ones": [1] * 7,
    "small": [2, 3, 5, 7, 1, 9, 100, 4, 2, 2],
    "wide": [2**32, 2**32 + 1, 2**40, 2**63 - 1, 3, 2**33, 1],
    "mixed": [1, 2**32, 5, 1, 2**35 + 7, 6, 1, 1, 2**32 - 1, 17, 2**62],
}


@pytest.mark.parametrize("bounds", BOUNDS.values(), ids=BOUNDS.keys())
@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 - 1])
def test_integers_over_an_array_of_bounds_is_one_call_per_draw(bounds, seed):
    # Every batched pass relies on this numpy behaviour; a numpy release
    # that changes it would change every trained model.
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    got = batched.integers(np.array(bounds, dtype=np.int64))
    want = [int(scalar.integers(b)) for b in bounds]
    assert got.tolist() == want
    assert batched.bit_generator.state == scalar.bit_generator.state
    assert batched.random() == scalar.random()
    # a 2-d array of bounds draws in row-major order
    got = batched.integers(np.array(bounds[:6], dtype=np.int64).reshape(2, 3))
    assert got.ravel().tolist() == [int(scalar.integers(b)) for b in bounds[:6]]
    # an empty array draws nothing
    assert not len(batched.integers(np.zeros(0, dtype=np.int64)))
    assert batched.bit_generator.state == scalar.bit_generator.state


@st.composite
def mining_datasets(draw):
    """Up to 5 queries over up to 24 docs: pools of mixed lengths, so some
    queries have fewer than 8 negatives and some more, and doc ids that sort
    differently as strings than as numbers; docs share token lists so
    scores tie exactly."""
    n_docs = draw(st.integers(2, 24))
    doc_ids = [f"d{i}" for i in range(n_docs)]
    templates = draw(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6)
                              .map(tuple), min_size=1, max_size=4))
    documents = {d: draw(st.sampled_from(templates)) for d in doc_ids}
    queries, pools, samples = {}, {}, []
    for qi in range(draw(st.integers(1, 5))):
        qid = f"q{qi}"
        queries[qid] = tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)))
        pool = draw(st.permutations(doc_ids))[:draw(st.integers(2, n_docs))]
        pools[qid] = tuple(pool)
        n_pos = draw(st.integers(1, len(pool) - 1))  # at least one negative
        for did in pool[:n_pos]:
            samples.append(Sample(qid, did, Label.POSITIVE))
        for did in pool[n_pos:]:
            if draw(st.booleans()):
                samples.append(Sample(qid, did, Label.NEGATIVE))
    samples = draw(st.permutations(samples))
    return dataset_of(queries=queries, docs=documents, samples=samples, pools=pools,
                      vocab_size=10)


def loop_hard_negatives(model, ds, samples):
    """Per query, as mining once did it: score its pool alone, then sort its
    negatives by descending score, NaN last, ties to the smaller doc id."""
    positives = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            positives.setdefault(s.query_id, set()).add(s.doc_id)
    out = {}
    for qid in sorted(positives):
        scored = [(float(score), did) for score, did in zip(score_pool(model, ds, qid),
                                                            ds.pools[qid])
                  if did not in positives[qid]]
        ranked = sorted(scored, key=lambda t: (True, 0.0, t[1]) if math.isnan(t[0])
                        else (False, -t[0], t[1]))
        out[qid] = [did for _, did in ranked[:HARD_NEGATIVES_PER_QUERY]]
    return out


@settings(max_examples=150, deadline=None)
@given(mining_datasets(), models, st.sampled_from([1.0, 40.0]),
       st.lists(st.integers(0, 9), max_size=2), st.booleans(), st.data())
def test_batched_mining_is_the_per_query_sort(ds, model, scale, nan_tokens, subset, data):
    model.params *= scale
    model.embed_d[nan_tokens] = np.nan  # every doc with one of these tokens scores NaN
    positions = every(ds)
    if subset:  # a retained subset, as retrain and cf mine from
        positions = np.array(sorted(data.draw(st.lists(st.sampled_from(range(ds.n_samples)),
                                                       unique=True))), dtype=np.intp)
    samples = samples_at(ds, positions)
    queries = HingeSet(ds, positions)
    query_ids = ds.queries.ids
    qids = [query_ids[row] for row in queries.rows]
    with np.errstate(invalid="ignore"):
        want = loop_hard_negatives(model, ds, samples)
        assert qids == sorted(want)
        if not qids:
            return
        hard = queries.hard(pool(model, ds))
    doc_ids = ds.docs.ids
    for i, qid in enumerate(qids):
        negatives = queries.all_negatives[queries.neg_start[i]:][:queries.n_neg[i]]
        assert [doc_ids[negatives[p]] for p in hard[i, :queries.n_hard[i]]] == want[qid]


def loop_cocol_epochs(student, ds, part, rng, epochs, use_entangled, use_phase2):
    """cocol's epochs with one scalar ``rng.integers`` call per pick, and the
    losses called on each item in turn."""
    teacher = sample_scores(pool(student, ds), every(ds))
    floors = build_min_cache(ds, teacher)
    disjoint = [(int(s), teacher[s]) for s in part.disjoint]
    samples = samples_of(ds)
    d_pos = [d for d in disjoint if samples[d[0]].label is Label.POSITIVE]
    d_neg = [d for d in disjoint if samples[d[0]].label is Label.NEGATIVE]
    sgd = Sgd(student, ds, UnlearnConfig().learning_rate)
    partners = entangled_partners(part, part.forget)
    for _ in range(epochs):
        for i in rng.permutation(len(part.forget)):
            x = int(part.forget[int(i)])
            options = [(int(e), teacher[e]) for e in partners[int(i)]]
            partner = None
            if options and use_entangled:
                partner = options[int(rng.integers(len(options)))]
            floor = float(floors[ds.queries.row[samples[x].query_id]])
            contrastive_loss(floor, sgd, x, partner)
        if not use_phase2:
            continue
        for i in rng.permutation(len(disjoint)):
            d = disjoint[int(i)]
            if samples[d[0]].label is Label.POSITIVE:
                consistent_loss(sgd, d, d_neg[int(rng.integers(len(d_neg)))])
            else:
                consistent_loss(sgd, d_pos[int(rng.integers(len(d_pos)))], d)


@st.composite
def forgettable_specs(draw, ds):
    """A removal spec naming some, but not all, of the ids of its kind that
    have samples: its forget set is neither empty nor every sample."""
    samples = samples_of(ds)
    ids = {RemovalKind.QUERY: sorted({s.query_id for s in samples}),
           RemovalKind.DOCUMENT: sorted({s.doc_id for s in samples})}
    kinds = [kind for kind in RemovalKind if len(ids[kind]) > 1]
    assume(kinds)
    kind = draw(st.sampled_from(kinds))
    named = draw(st.lists(st.sampled_from(ids[kind]), min_size=1,
                          max_size=len(ids[kind]) - 1, unique=True))
    return ForgetSpec(kind=kind, ids=frozenset(named))


@settings(max_examples=80, deadline=None)
@given(datasets(), models, st.booleans(), st.booleans(), st.integers(0, 2**31 - 1),
       st.data())
def test_cocol_epochs_are_the_per_item_loop(ds, model, use_entangled, use_phase2, seed, data):
    part = partition(ds, data.draw(forgettable_specs(ds)))
    cfg = UnlearnConfig(method=Method.COCOL, max_epochs=3, delta_target=1e-9, seed=seed,
                        method_params={"entangled_term": use_entangled,
                                       "phase2": use_phase2})
    ref = type(model)(model.params.copy())
    labels = {s.label for s in samples_at(ds, part.disjoint)}
    if use_phase2 and labels != {Label.POSITIVE, Label.NEGATIVE}:
        with pytest.raises(ConfigError, match="disjoint set lacks"):
            unlearn(model, CorpusSplit(train=ds, test=ds), part, cfg)
        return
    run = unlearn(model, CorpusSplit(train=ds, test=ds), part, cfg)
    loop_cocol_epochs(ref, ds, part, np.random.default_rng(seed), run.epochs_run,
                      use_entangled, use_phase2)
    assert np.array_equal(run.final_model.params, ref.params)


def test_cocol_epochs_of_a_generated_corpus_are_the_per_item_loop():
    # many partners per forget pair and both labels in the disjoint set
    split = generate_synthetic(SyntheticConfig(n_queries=24, n_docs=96, vocab_size=192,
                                               positives_per_query=4, pool_size=16, seed=4))
    ds = split.train
    part = partition(ds, sample_forget_spec(ds, RemovalKind.DOCUMENT, 0.25, seed=3))
    model = init_model(ds.vocab_size, 8, 3)
    ref = type(model)(model.params.copy())
    cfg = UnlearnConfig(method=Method.COCOL, max_epochs=2, delta_target=1e-9, seed=3)
    run = unlearn(model, CorpusSplit(train=ds, test=ds), part, cfg)
    assert run.epochs_run == 2
    loop_cocol_epochs(ref, ds, part, np.random.default_rng(3), 2, True, True)
    assert np.array_equal(run.final_model.params, ref.params)
