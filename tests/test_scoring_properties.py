"""Property tests: the pooled scoring core against per-doc reference loops.

Random small datasets are built to be hard for a vectorised scorer:
docs of 1 to 9 tokens with repeated tokens, pools in shuffled order
with ids that sort differently as strings than as numbers, and docs
sharing one token list so that their scores tie exactly. Every check
is exact: the references below are the straightforward per-doc and
per-pair loops, and results must match them bit for bit.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from numur import (ConfigError, Dataset, Document, ForgetSpec, Label, Query,
                   RemovalKind, Sample, build_min_cache, contrastive_loss,
                   init_model, mrr_forget, mrr_set, new_buffer, partition, rank,
                   score_pool, snapshot)
from numur.ranker import doc_vectors, hinge_loss_and_grad

VOCAB = 10


@st.composite
def token_lists(draw, max_len):
    n = draw(st.integers(1, max_len))  # uniform, so long docs are as common as short
    return tuple(draw(st.lists(st.integers(0, VOCAB - 1), min_size=n, max_size=n)))


@st.composite
def datasets(draw):
    templates = draw(st.lists(token_lists(9), min_size=1, max_size=5))
    n_docs = draw(st.integers(2, 12))
    doc_ids = [f"d{i}" for i in range(n_docs)]
    documents = {did: Document(did, draw(st.sampled_from(templates))) for did in doc_ids}
    queries, pools, samples = {}, {}, []
    for qi in range(draw(st.integers(1, 3))):
        qid = f"q{qi}"
        queries[qid] = Query(qid, draw(token_lists(5)))
        pool = draw(st.permutations(doc_ids))[:draw(st.integers(1, n_docs))]
        pools[qid] = tuple(pool)
        for did in pool:
            label = draw(st.sampled_from([None, Label.POSITIVE, Label.NEGATIVE]))
            if label is not None:
                samples.append(Sample(qid, did, label))
    ds = Dataset(queries=queries, documents=documents, samples=samples, pools=pools,
                 vocab_size=VOCAB)
    ds.validate()
    return ds


models = st.builds(init_model, st.just(VOCAB), st.integers(1, 5),
                   st.integers(0, 2**31 - 1))


def ref_score_pool(model, ds, qid):
    u = model.embed_q[ds.query_tokens(qid)].mean(axis=0)
    mat = np.stack([model.embed_d[ds.doc_tokens(did)].mean(axis=0) for did in ds.pools[qid]])
    return np.logaddexp(0.0, mat @ u)


def oracle_ranking(model, ds, qid):
    scores = ref_score_pool(model, ds, qid)
    return [did for _, did in sorted(zip(scores, ds.pools[qid]), key=lambda t: (-t[0], t[1]))]


def oracle_mrr(model, ds, targets):
    recips = []
    for qid in sorted(targets):
        ranking = oracle_ranking(model, ds, qid)
        hits = [pos for pos, did in enumerate(ranking, start=1) if did in targets[qid]]
        if hits:
            recips.append(1.0 / hits[0])
    return sum(recips) / len(recips) if recips else 0.0


def positives(samples):
    out = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            out.setdefault(s.query_id, set()).add(s.doc_id)
    return out


@settings(max_examples=150, deadline=None)
@given(datasets(), models)
def test_score_pool_is_bitwise_the_per_doc_loop(ds, model):
    # Softplus absorbs a last-bit change in a small logit, so the pooled
    # rows are compared too.
    dvec = doc_vectors(model, ds)
    for did, row in ds.index.doc_row.items():
        assert np.array_equal(dvec[row], model.embed_d[ds.doc_tokens(did)].mean(axis=0))
    for qid in ds.pools:
        assert np.array_equal(score_pool(model, ds, qid), ref_score_pool(model, ds, qid))


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.booleans())
def test_rank_and_mrrs_match_the_sorting_oracle(ds, model, flat):
    if flat:  # every score ties; the order is decided by doc id alone
        model.embed_q[:] = 0.0
    for qid in ds.pools:
        assert list(rank(model, ds, qid).doc_ids) == oracle_ranking(model, ds, qid)

    assert mrr_set(model, ds, ds.samples).value == oracle_mrr(model, ds, positives(ds.samples))

    forget_docs = sorted({s.doc_id for s in ds.samples})[:2]
    forget_queries = sorted({s.query_id for s in ds.samples})[:1]
    assume(forget_docs)
    for kind, ids in ((RemovalKind.DOCUMENT, forget_docs),
                      (RemovalKind.QUERY, forget_queries)):
        spec = ForgetSpec(kind=kind, ids=frozenset(ids))
        try:
            part = partition(ds, spec)
        except ConfigError:  # the request would forget every sample
            continue
        if kind is RemovalKind.DOCUMENT:
            targets = {q: {d for d in ds.pools[q] if d in spec.ids} for q in part.forget_queries}
        else:
            pos = positives(ds.samples)
            targets = {q: pos.get(q, set()) for q in part.forget_queries}
        assert mrr_forget(model, ds, part, spec).value == oracle_mrr(model, ds, targets)


def nan_last_oracle_mrr(model, ds, targets):
    """oracle_mrr with NaN scores placed after every number, ties by doc id."""
    recips = []
    for qid in sorted(targets):
        scores = ref_score_pool(model, ds, qid)
        ranking = [did for *_, did in sorted(
            (np.isnan(s), 0.0 if np.isnan(s) else -s, did)
            for s, did in zip(scores, ds.pools[qid]))]
        hits = [pos for pos, did in enumerate(ranking, start=1) if did in targets[qid]]
        if hits:
            recips.append(1.0 / hits[0])
    return sum(recips) / len(recips) if recips else 0.0


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.sets(st.integers(0, VOCAB - 1), min_size=1))
def test_nan_scores_rank_after_numbers(ds, model, nan_tokens):
    model.embed_d[sorted(nan_tokens)] = np.nan  # every doc with such a token scores NaN
    targets = positives(ds.samples)
    with np.errstate(invalid="ignore"):
        want = nan_last_oracle_mrr(model, ds, targets)
        assert mrr_set(model, ds, ds.samples).value == want
        for qid in targets:
            ranked = list(rank(model, ds, qid).doc_ids)
            first = next(p for p, did in enumerate(ranked, start=1) if did in targets[qid])
            assert 1.0 / first == nan_last_oracle_mrr(model, ds, {qid: targets[qid]})


def _sigmoid(z):
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return float(e / (1.0 + e))


def ref_pooled(model, ds, qid, did):
    qt, dt = ds.query_tokens(qid), ds.doc_tokens(did)
    return qt, dt, model.embed_q[qt].mean(axis=0), model.embed_d[dt].mean(axis=0)


def ref_forward(model, ds, qid, did):
    _, _, u, v = ref_pooled(model, ds, qid, did)
    return float(np.logaddexp(0.0, float(u @ v)))


def ref_backward(model, ds, qid, did, upstream, buf):
    if upstream == 0.0:
        return
    qt, dt, u, v = ref_pooled(model, ds, qid, did)
    g = _sigmoid(float(u @ v)) * upstream
    np.add.at(buf.grad_q, qt, g * v / len(qt))
    np.add.at(buf.grad_d, dt, g * u / len(dt))
    buf.rows_q.append(qt)
    buf.rows_d.append(dt)


def ref_hinge(model, ds, qid, pos, neg, margin, buf):
    loss = margin - ref_forward(model, ds, qid, pos) + ref_forward(model, ds, qid, neg)
    if loss <= 0.0:
        return 0.0
    ref_backward(model, ds, qid, pos, -1.0, buf)
    ref_backward(model, ds, qid, neg, 1.0, buf)
    return loss


def ref_contrastive(cache, teacher, student, ds, x, partner, buf):
    floor = cache.score_floor(x.query_id)
    f_w = ref_forward(student, ds, x.query_id, x.doc_id)
    adjusted = (f_w - floor) / (f_w + floor)
    value = max(0.0, adjusted)
    if adjusted > 0.0:
        denom = f_w + floor
        ref_backward(student, ds, x.query_id, x.doc_id, 2.0 * floor / (denom * denom), buf)
    if partner is not None:
        f_m = ref_forward(teacher, ds, partner.query_id, partner.doc_id)
        f_p = ref_forward(student, ds, partner.query_id, partner.doc_id)
        d = (f_m - f_p) / (f_m + f_p)
        if d != 0.0:
            total = f_m + f_p
            sign = 1.0 if d > 0.0 else -1.0
            ref_backward(student, ds, partner.query_id, partner.doc_id,
                         sign * (-2.0 * f_m / (total * total)), buf)
        value += abs(d)
    return value


def assert_same_buffers(a, b):
    assert np.array_equal(a.grad_q, b.grad_q) and np.array_equal(a.grad_d, b.grad_d)
    assert [r.tolist() for r in a.rows_q] == [r.tolist() for r in b.rows_q]
    assert [r.tolist() for r in a.rows_d] == [r.tolist() for r in b.rows_d]


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.integers(0, 2**31 - 1), st.floats(0.0, 2.0), st.data())
def test_fused_pair_steps_match_the_unfused_reference(ds, student, teacher_seed,
                                                      margin, data):
    qid = data.draw(st.sampled_from(sorted(ds.pools)))
    pos = data.draw(st.sampled_from(ds.pools[qid]))
    neg = data.draw(st.sampled_from(ds.pools[qid]))
    fused, ref = new_buffer(student), new_buffer(student)
    assert (hinge_loss_and_grad(student, ds, qid, pos, neg, margin, fused)
            == ref_hinge(student, ds, qid, pos, neg, margin, ref))
    assert_same_buffers(fused, ref)

    assume(ds.samples)
    teacher = snapshot(init_model(VOCAB, student.dim, teacher_seed))
    cache = build_min_cache(teacher, ds)
    x = data.draw(st.sampled_from(ds.samples))
    partner = data.draw(st.sampled_from(
        [None] + [s for s in ds.samples
                  if s != x and (s.query_id == x.query_id or s.doc_id == x.doc_id)]))
    fused, ref = new_buffer(student), new_buffer(student)
    assert (contrastive_loss(cache, teacher, student, ds, x, partner, fused)
            == ref_contrastive(cache, teacher, student, ds, x, partner, ref))
    assert_same_buffers(fused, ref)
