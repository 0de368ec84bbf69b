"""Property tests: hinge draws scored ahead against the per-draw loop.

``HingeDraws`` scores the draws of a positive ahead while the parameters
cannot move, and ssd's importance pass scores and differentiates all of
its draws in one batched pass. Every caller must leave the parameters,
the gradient buffer, the mean loss and the importance bit for bit where
one ``hinge_loss_and_grad`` call per draw, in draw order, leaves them.
Each test runs in four regimes of the model and margin: every hinge of
the pools closed at the start, every one open, a mix, and a model with a
NaN doc row, whose NaN losses count as active.
"""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_roundtrip_properties import specs
from test_scoring_properties import VOCAB, datasets, models, wide_models

from numur import (ConfigError, CorpusSplit, Label, Method, SyntheticConfig, UnlearnConfig,
                   generate_synthetic, init_model, new_buffer, partition, ranker, score_pool,
                   unlearn)
from numur.ranker import (HingeDraws, doc_vectors, hinge_loss_and_grad, pairwise_epoch,
                          query_vectors)
from numur.unlearn_engine import _importance

REGIMES = ("none", "all", "some", "nan")


def apply_regime(model, ds, regime, data):
    """Scale or poison ``model`` for ``regime`` and return the margin to use."""
    if regime == "some":  # large logits, and a margin among the score gaps of a pool
        model.params *= 40.0
        gaps = sorted(float(a - b) for qid in ds.pools for scores in [score_pool(model, ds, qid)]
                      for a in scores for b in scores)
        return data.draw(st.sampled_from(gaps))
    if regime == "nan":
        model.embed_d[data.draw(st.integers(0, VOCAB - 1))] = np.nan
        return 1.0
    # scores start near log 2, so a margin of 4 opens every hinge of the
    # pools, and one of -4 closes them all (and no step ever opens one)
    margin = 4.0 if regime == "all" else -4.0
    for qid in ds.pools:
        scores = score_pool(model, ds, qid)
        assert abs(margin) > scores.max() - scores.min()
    return margin


def same(a, b):
    """Bitwise equal floats or arrays, NaN equal to NaN."""
    return np.array_equal(a, b, equal_nan=True)


def query_negatives(ds):
    """Pool docs, in pool order, not positive for the query in ds.samples."""
    pos = {}
    for s in ds.samples:
        if s.label is Label.POSITIVE:
            pos.setdefault(s.query_id, set()).add(s.doc_id)
    return {q: [d for d in ds.pools.get(q, ()) if d not in p] for q, p in pos.items()}


def pooled(model, ds):
    """The vectors ``_importance`` takes: every query and every doc pooled."""
    return query_vectors(model, ds), doc_vectors(model, ds)


class Loop:
    """One ``hinge_loss_and_grad`` call per draw."""

    def __init__(self, model, ds, margin, buf):
        self.model, self.ds, self.margin, self.buf = model, ds, margin, buf
        self.total, self.draws = 0.0, 0

    def step(self, qid, pos, neg):
        loss = hinge_loss_and_grad(self.model, self.ds, qid, pos, neg, self.margin, self.buf)
        self.total += loss
        self.draws += 1
        return loss


def draw_tasks(data, ds):
    """Positives with runs of negatives drawn from their query's pool, repeats allowed."""
    qids = sorted(ds.pools)
    return [(qid, data.draw(st.sampled_from(ds.pools[qid])),
             data.draw(st.lists(st.sampled_from(ds.pools[qid]), min_size=1, max_size=5)))
            for qid in data.draw(st.lists(st.sampled_from(qids), min_size=1, max_size=8))]


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.sampled_from(REGIMES), st.sampled_from([1.0, -1.0]),
       st.floats(0.01, 2.0), st.data())
def test_run_is_the_per_draw_loop(ds, model, regime, sign, lr, data):
    margin = apply_regime(model, ds, regime, data)
    tasks = draw_tasks(data, ds)
    ref_model = type(model)(model.params.copy())
    buf, ref_buf = new_buffer(model, sign * lr), new_buffer(ref_model, sign * lr)
    draws, loop = HingeDraws(model, ds, margin, buf), Loop(ref_model, ds, margin, ref_buf)
    with np.errstate(all="ignore"):
        for qid, pos, negs in tasks:
            draws.run(qid, pos, negs)
            for neg in negs:
                loop.step(qid, pos, neg)
    assert same(model.params, ref_model.params)
    assert same(draws.total, loop.total) and draws.draws == loop.draws
    assert same(buf.grad, ref_buf.grad)


def loop_pairwise_epoch(ds, samples, rng, margin, npp, loop):
    """pairwise_epoch with one hinge_loss_and_grad call per draw."""
    positives = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            positives.setdefault(s.query_id, []).append(s.doc_id)
    qids = sorted(positives)
    uniform, hard = {}, {}
    for qid in qids:
        # mined as pairwise_epoch mines them, so that NaN scores sort alike
        is_neg = np.array([d not in positives[qid] for d in ds.pools[qid]])
        uniform[qid] = [d for d in ds.pools[qid] if d not in positives[qid]]
        scores = score_pool(loop.model, ds, qid)[is_neg]
        ids = ds.index.id_order[ds.index.pool_rows[qid][is_neg]]
        hard[qid] = [uniform[qid][i] for i in np.lexsort((ids, -scores))[:8]]
    total, steps = 0.0, 0
    for qi in rng.permutation(len(qids)):
        qid = qids[int(qi)]
        for pos in positives[qid]:
            for draw in range(npp):
                source = hard[qid] if draw % 2 else uniform[qid]
                total += loop.step(qid, pos, source[int(rng.integers(len(source)))])
                steps += 1
    return total / steps if steps else 0.0


@settings(max_examples=60, deadline=None)
@given(datasets(), models, st.sampled_from(REGIMES), st.integers(0, 2**31 - 1),
       st.floats(0.01, 2.0), st.integers(1, 4), st.data())
def test_pairwise_epochs_are_the_per_draw_loop(ds, model, regime, seed, lr, npp, data):
    negatives = query_negatives(ds)
    assume(negatives and all(negatives.values()))
    margin = apply_regime(model, ds, regime, data)
    ref_model = type(model)(model.params.copy())
    loop = Loop(ref_model, ds, margin, new_buffer(ref_model, lr))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"):
        for _ in range(3):
            want = loop_pairwise_epoch(ds, ds.samples, ref_rng, margin, npp, loop)
            assert same(pairwise_epoch(model, ds, ds.samples, rng, lr, margin, npp), want)
            assert same(model.params, ref_model.params)


def loop_unlearn_epochs(method, ds, part, rng, npp, epochs, loop):
    """amnesiac's or neggrad's epochs with one hinge_loss_and_grad call per draw."""
    negatives = query_negatives(ds)
    forget_pos = [s for s in part.forget if s.label is Label.POSITIVE]
    tasks = [(False, s) for s in forget_pos]  # (promote a negative above s?, s)
    if method is Method.AMNESIAC:
        tasks = [(True, s) for s in forget_pos] + [
            (False, s) for s in part.entangled if s.label is Label.POSITIVE]
    for _ in range(epochs):
        for i in rng.permutation(len(tasks)):
            promote, s = tasks[int(i)]
            negs = negatives[s.query_id]
            if not negs:
                continue
            if promote:
                loop.step(s.query_id, negs[int(rng.integers(len(negs)))], s.doc_id)
                continue
            for _ in range(npp):
                loop.step(s.query_id, s.doc_id, negs[int(rng.integers(len(negs)))])


# A NaN model ends an unlearning run in DivergedError after its first epoch,
# so the NaN regime is left to the tests above.
@settings(max_examples=80, deadline=None)
@given(datasets(), models, st.sampled_from([Method.AMNESIAC, Method.NEGGRAD]),
       st.sampled_from(REGIMES[:3]), st.floats(0.01, 2.0), st.integers(1, 4), st.data())
def test_amnesiac_and_neggrad_are_the_per_draw_loop(ds, model, method, regime, lr, npp,
                                                    data):
    spec = data.draw(specs(ds))
    try:
        part = partition(ds, spec)
    except ConfigError:
        assume(False)
    margin = apply_regime(model, ds, regime, data)
    cfg = UnlearnConfig(method=method, learning_rate=lr, max_epochs=2, delta_target=1e-9,
                        method_params={"margin": margin, "negatives_per_positive": npp})
    ref_model = type(model)(model.params.copy())
    with np.errstate(all="ignore"):
        try:
            run = unlearn(model, CorpusSplit(train=ds, test=ds), part, cfg)
        except ConfigError:  # a forget query with no pool negatives, or an empty F
            assume(False)
        # the driver draws from its generator only inside the epochs
        rate = lr if method is Method.AMNESIAC else -lr
        loop = Loop(ref_model, ds, margin, new_buffer(ref_model, rate))
        loop_unlearn_epochs(method, ds, part, np.random.default_rng(cfg.seed), npp,
                            run.epochs_run, loop)
    assert same(run.final_model.params, ref_model.params)


@settings(max_examples=80, deadline=None)
@given(datasets(), models, st.sampled_from(REGIMES), st.integers(0, 2**31 - 1),
       st.integers(1, 4), st.data())
def test_importance_is_the_per_draw_loop(ds, model, regime, seed, npp, data):
    margin = apply_regime(model, ds, regime, data)
    negatives = query_negatives(ds)
    split = CorpusSplit(train=ds, test=ds)
    ref_model = type(model)(model.params.copy())
    with np.errstate(all="ignore"):
        got = _importance(model, split, ds.samples, negatives, margin, npp,
                          np.random.default_rng(seed), pooled(model, ds))
        # the per-draw loop: each positive's gradient accumulates, then is squared
        rng = np.random.default_rng(seed)
        sq, count = np.zeros_like(ref_model.params), 0
        buf = new_buffer(ref_model)
        loop = Loop(ref_model, ds, margin, buf)
        for s in ds.samples:
            if s.label is not Label.POSITIVE or not negatives[s.query_id]:
                continue
            negs = negatives[s.query_id]
            for _ in range(npp):
                loop.step(s.query_id, s.doc_id, negs[int(rng.integers(len(negs)))])
            if buf.rows:
                rows = np.concatenate(buf.rows)
                sq[rows] += (buf.grad[rows] / npp) ** 2
                buf.grad[rows] = 0.0
                buf.rows.clear()
            count += 1
        if count:
            sq /= count
    assert same(got, sq)
    assert same(model.params, ref_model.params)


def loop_importance(model, ds, samples, negatives, margin, npp, rng):
    """_importance with one hinge_loss_and_grad call per draw into a buffer
    without a learning rate; each positive's gradient is squared once."""
    sq, count = np.zeros_like(model.params), 0
    buf = new_buffer(model)
    loop = Loop(model, ds, margin, buf)
    for s in samples:
        if s.label is not Label.POSITIVE or not negatives[s.query_id]:
            continue
        negs = negatives[s.query_id]
        for _ in range(npp):
            loop.step(s.query_id, s.doc_id, negs[int(rng.integers(len(negs)))])
        if buf.rows:
            rows = np.concatenate(buf.rows)
            sq[rows] += (buf.grad[rows] / npp) ** 2
            buf.grad[rows] = 0.0
            buf.rows.clear()
        count += 1
    return sq / count if count else sq


# Blocks of 1 and 2 positives carry sq from block to block; the default
# block holds all the positives of almost every such small dataset. Up to
# 8 draws per positive make query rows with 16 or more terms to sum.
@settings(max_examples=150, deadline=None)
@given(datasets(), st.one_of(models, wide_models), st.sampled_from(REGIMES),
       st.integers(0, 2**31 - 1), st.integers(1, 8), st.sampled_from([1, 2, ranker.GRAD_BLOCK]),
       st.data())
def test_forget_and_full_importance_are_the_per_draw_loop(ds, model, regime, seed, npp,
                                                          block, data):
    spec = data.draw(specs(ds))
    try:
        part = partition(ds, spec)
    except ConfigError:
        assume(False)
    margin = apply_regime(model, ds, regime, data)
    negatives = query_negatives(ds)
    split = CorpusSplit(train=ds, test=ds)
    ref_model = type(model)(model.params.copy())
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with np.errstate(all="ignore"), patch.object(ranker, "GRAD_BLOCK", block):
        # as ssd runs them: the forget pass, then the full pass, on one generator
        for samples in (part.forget, ds.samples):
            got = _importance(model, split, samples, negatives, margin, npp, rng,
                              pooled(model, ds))
            want = loop_importance(ref_model, ds, samples, negatives, margin, npp, ref_rng)
            assert same(got, want)
    assert same(model.params, ref_model.params)
    assert rng.random() == ref_rng.random()  # the same number of draws


# A generated corpus: positives of one query and topic tokens shared by
# many docs put the same rows in many positives, so sq sums many squares
# per row, across blocks and inside them.
@pytest.mark.parametrize("block", [1, 2, ranker.GRAD_BLOCK])
@pytest.mark.parametrize("margin", [1.0, 0.05])
def test_importance_of_a_generated_corpus_is_the_per_draw_loop(block, margin):
    split = generate_synthetic(SyntheticConfig(n_queries=24, n_docs=96, vocab_size=192,
                                               positives_per_query=4, pool_size=16, seed=4))
    ds = split.train
    model = init_model(ds.vocab_size, 16, 4)
    model.params *= 12.0  # logits of a few units, so some draws are inactive at margin 0.05
    negatives = query_negatives(ds)
    rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
    with patch.object(ranker, "GRAD_BLOCK", block):
        got = _importance(model, split, ds.samples, negatives, margin, 4, rng,
                          pooled(model, ds))
    want = loop_importance(model, ds, ds.samples, negatives, margin, 4, ref_rng)
    assert same(got, want) and np.count_nonzero(got)


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_vector_sigmoid_is_the_scalar_sigmoid(zs):
    want = np.array([ranker._sigmoid(z) for z in zs], dtype=float)
    assert same(ranker._sigmoids(np.array(zs, dtype=float)), want)
