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
                   RemovalKind, Sample, build_min_cache, consistent_loss, contrastive_loss,
                   forward, init_model, mrr_forget, mrr_set, new_buffer, partition, rank,
                   score_distribution, score_pool)
from numur.ranker import (doc_vectors, hinge_loss_and_grad, pairwise_epoch,
                          query_vectors, sample_scores, score_pools)
from numur.unlearn_losses import _abs_delta_loss

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


# Dims of 8 and more, where BLAS sums a matrix row in an order that depends
# on the matrix's height, so a pool scored inside a taller padded matrix
# can differ from the same pool scored alone.
wide_models = st.builds(init_model, st.just(VOCAB), st.integers(6, 64),
                        st.integers(0, 2**31 - 1))


@settings(max_examples=150, deadline=None)
@given(datasets(), st.one_of(models, wide_models), st.sampled_from([1.0, 40.0]))
def test_batched_query_vectors_and_scores_are_bitwise_score_pool(ds, model, scale):
    # Softplus keeps a logit's last bit only away from 0, hence the scaled model.
    model.params *= scale
    index = ds.index
    qvec = query_vectors(model, ds)
    for qid, row in index.query_row.items():
        tokens = model.embed_q[ds.query_tokens(qid)]
        assert np.array_equal(qvec[row], np.add.reduce(tokens) / len(tokens))
    qids = sorted(ds.pools, reverse=True)  # any order of query rows
    scores = score_pools(model, ds, np.array([index.query_row[q] for q in qids]))
    for qid, row in zip(qids, scores):
        pool = score_pool(model, ds, qid)
        assert np.array_equal(row[:len(pool)], pool)
        assert (row[len(pool):] == -np.inf).all()


@given(datasets())
def test_pool_columns_find_each_doc_in_each_pool(ds):
    index = ds.index
    docs = np.arange(len(index.doc_row))
    for qid, row in index.query_row.items():
        pool = index.pool_rows.get(qid, np.array([], dtype=np.intp)).tolist()
        cols = index.pool_columns(np.full(len(docs), row), docs)
        assert cols.tolist() == [pool.index(d) if d in pool else -1 for d in docs.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(token_lists(24), min_size=1, max_size=12), st.one_of(models, wide_models))
def test_long_docs_pool_bitwise_at_every_dim(doc_tokens, model):
    # numpy sums a (tokens, 1) slice pairwise from 8 tokens on, and a wider
    # one token by token; the grouped pooling must follow both.
    documents = {f"d{i}": Document(f"d{i}", toks) for i, toks in enumerate(doc_tokens)}
    ds = Dataset(queries={"q": Query("q", doc_tokens[0])}, documents=documents,
                 samples=[], pools={"q": tuple(documents)}, vocab_size=VOCAB)
    dvec, qvec = doc_vectors(model, ds), query_vectors(model, ds)
    for did, row in ds.index.doc_row.items():
        assert np.array_equal(dvec[row], model.embed_d[ds.doc_tokens(did)].mean(axis=0))
    assert np.array_equal(qvec[0], model.embed_q[ds.query_tokens("q")].mean(axis=0))


@settings(max_examples=150, deadline=None)
@given(datasets(), models)
def test_score_distribution_is_bitwise_the_per_pair_forward(ds, model):
    assume(ds.samples)
    dist, = score_distribution([("m", model)], ds, [("all", ds.samples)])
    scores = np.array([forward(model, ds, s.query_id, s.doc_id) for s in ds.samples])
    assert (dist.min, dist.max, dist.mean) == (scores.min(), scores.max(), scores.mean())
    assert dist.deciles == tuple(np.percentile(scores, np.arange(10, 100, 10)))


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


@settings(max_examples=150, deadline=None)
@given(datasets(), st.one_of(models, wide_models))
def test_stored_teacher_scores_are_bitwise_forward(ds, model):
    teacher = sample_scores(model, ds, ds.samples)
    floors = build_min_cache(ds.samples, teacher)
    assert len(teacher) == len(ds.samples)
    for s, score in zip(ds.samples, teacher):
        want = forward(model, ds, s.query_id, s.doc_id)
        assert score == want
        assert floors[s.query_id] <= want


@settings(max_examples=150, deadline=None)
@given(datasets(), wide_models)
def test_mrrs_match_the_sorting_oracle_at_wide_dims(ds, model):
    assert mrr_set(model, ds, ds.samples).value == oracle_mrr(model, ds, positives(ds.samples))


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


class Ref:
    """The per-pair arithmetic of separate query and doc tables.

    Each pair is pooled on its own with ``mean``; its backward pass is one
    ``np.add.at`` per table; a step subtracts ``lr`` times the gradient on
    the touched rows of each table and zeroes them. The stacked table's
    one-gather, one-scatter step must match it bit for bit.
    """

    def __init__(self, model):
        self.embed_q, self.embed_d = model.embed_q.copy(), model.embed_d.copy()
        self.grad_q, self.grad_d = np.zeros_like(self.embed_q), np.zeros_like(self.embed_d)
        self.rows_q, self.rows_d = [], []

    def pooled(self, ds, qid, did):
        qt, dt = ds.query_tokens(qid), ds.doc_tokens(did)
        return qt, dt, self.embed_q[qt].mean(axis=0), self.embed_d[dt].mean(axis=0)

    def forward(self, ds, qid, did):
        _, _, u, v = self.pooled(ds, qid, did)
        return float(np.logaddexp(0.0, float(u @ v)))

    def backward(self, ds, qid, did, upstream):
        if upstream == 0.0:
            return
        qt, dt, u, v = self.pooled(ds, qid, did)
        g = _sigmoid(float(u @ v)) * upstream
        np.add.at(self.grad_q, qt, g * v / len(qt))
        np.add.at(self.grad_d, dt, g * u / len(dt))
        self.rows_q.append(qt)
        self.rows_d.append(dt)

    def apply(self, lr):
        for table, grad, rows in ((self.embed_q, self.grad_q, self.rows_q),
                                  (self.embed_d, self.grad_d, self.rows_d)):
            if rows:
                touched = np.concatenate(rows)
                table[touched] -= lr * grad[touched]
                grad[touched] = 0.0
                rows.clear()


def ref_hinge(ref, ds, qid, pos, neg, margin):
    loss = margin - ref.forward(ds, qid, pos) + ref.forward(ds, qid, neg)
    if loss <= 0.0:
        return 0.0
    ref.backward(ds, qid, pos, -1.0)
    ref.backward(ds, qid, neg, 1.0)
    return loss


def ref_abs_delta(ref, teacher, ds, pair):
    f_m = Ref(teacher).forward(ds, pair.query_id, pair.doc_id)
    f_w = ref.forward(ds, pair.query_id, pair.doc_id)
    d = (f_m - f_w) / (f_m + f_w)
    if d != 0.0:
        total = f_m + f_w
        sign = 1.0 if d > 0.0 else -1.0
        ref.backward(ds, pair.query_id, pair.doc_id, sign * (-2.0 * f_m / (total * total)))
    return abs(d)


def ref_contrastive(ref, teacher, ds, x, partner):
    floor = min(Ref(teacher).forward(ds, s.query_id, s.doc_id) for s in ds.samples
                if s.query_id == x.query_id)
    f_w = ref.forward(ds, x.query_id, x.doc_id)
    adjusted = (f_w - floor) / (f_w + floor)
    value = max(0.0, adjusted)
    if adjusted > 0.0:
        denom = f_w + floor
        ref.backward(ds, x.query_id, x.doc_id, 2.0 * floor / (denom * denom))
    if partner is not None:
        value += ref_abs_delta(ref, teacher, ds, partner)
    return value


def ref_consistent(ref, teacher, ds, pos, neg):
    return ref_abs_delta(ref, teacher, ds, pos) + ref_abs_delta(ref, teacher, ds, neg)


def scored(teacher, ds, pair):
    """``pair`` with its teacher score, as the losses take it."""
    return None if pair is None else (pair, forward(teacher, ds, pair.query_id, pair.doc_id))


def ref_pairwise_epoch(ref, ds, samples, rng, lr, margin, npp):
    """pairwise_epoch with sorting for the hard negatives and Ref for each step."""
    positives = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            positives.setdefault(s.query_id, []).append(s.doc_id)
    qids = sorted(positives)
    uniform, hard = {}, {}
    for qid in qids:
        uniform[qid] = [d for d in ds.pools[qid] if d not in positives[qid]]
        scores = dict(zip(ds.pools[qid], ref_score_pool(ref, ds, qid)))
        hard[qid] = sorted(uniform[qid], key=lambda d: (-scores[d], d))[:8]
    total, steps = 0.0, 0
    for qi in rng.permutation(len(qids)):
        qid = qids[int(qi)]
        for pos in positives[qid]:
            for draw in range(npp):
                source = hard[qid] if draw % 2 else uniform[qid]
                neg = source[int(rng.integers(len(source)))]
                total += ref_hinge(ref, ds, qid, pos, neg, margin)
                ref.apply(lr)
                steps += 1
    return total / steps if steps else 0.0


def assert_same_gradients(buf, ref):
    assert np.array_equal(buf.grad_q, ref.grad_q) and np.array_equal(buf.grad_d, ref.grad_d)
    rows = np.concatenate(buf.rows) if buf.rows else np.zeros(0, dtype=int)
    vocab = len(buf.grad_q)
    want_q = np.concatenate(ref.rows_q) if ref.rows_q else []
    want_d = np.concatenate(ref.rows_d) if ref.rows_d else []
    assert rows[rows < vocab].tolist() == list(want_q)
    assert (rows[rows >= vocab] - vocab).tolist() == list(want_d)


def assert_same_params(model, ref):
    assert np.array_equal(model.embed_q, ref.embed_q)
    assert np.array_equal(model.embed_d, ref.embed_d)


def draw_contrastive_case(data, ds):
    x = data.draw(st.sampled_from(ds.samples))
    partner = data.draw(st.sampled_from(
        [None] + [s for s in ds.samples
                  if s != x and (s.query_id == x.query_id or s.doc_id == x.doc_id)]))
    return x, partner


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.integers(0, 2**31 - 1), st.floats(0.0, 2.0), st.data())
def test_fused_pair_steps_match_the_unfused_reference(ds, student, teacher_seed,
                                                      margin, data):
    # Without a learning rate the buffer accumulates: the gradients and the
    # touched rows must be those of one backward pass per pair.
    qid = data.draw(st.sampled_from(sorted(ds.pools)))
    pos = data.draw(st.sampled_from(ds.pools[qid]))
    neg = data.draw(st.sampled_from(ds.pools[qid]))
    fused, ref = new_buffer(student), Ref(student)
    assert (hinge_loss_and_grad(student, ds, qid, pos, neg, margin, fused)
            == ref_hinge(ref, ds, qid, pos, neg, margin))
    assert_same_gradients(fused, ref)

    assume(ds.samples)
    teacher = init_model(VOCAB, student.dim, teacher_seed)
    floors = build_min_cache(ds.samples, sample_scores(teacher, ds, ds.samples))
    x, partner = draw_contrastive_case(data, ds)
    fused, ref = new_buffer(student), Ref(student)
    assert (contrastive_loss(floors[x.query_id], student, ds, x, scored(teacher, ds, partner),
                             fused)
            == ref_contrastive(ref, teacher, ds, x, partner))
    assert_same_gradients(fused, ref)


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.integers(0, 2**31 - 1), st.floats(0.0, 2.0),
       st.floats(0.01, 5.0), st.data())
def test_sgd_steps_match_the_per_table_reference(ds, student, teacher_seed, margin, lr,
                                                 data):
    # One step of each loss with a learning rate: the parameters must equal
    # the per-table reference bit for bit, and the buffer is zero again.
    sgd, ref = new_buffer(student, lr), Ref(student)
    qid = data.draw(st.sampled_from(sorted(ds.pools)))
    pos = data.draw(st.sampled_from(ds.pools[qid]))
    neg = data.draw(st.sampled_from(ds.pools[qid]))
    assert (hinge_loss_and_grad(student, ds, qid, pos, neg, margin, sgd)
            == ref_hinge(ref, ds, qid, pos, neg, margin))
    ref.apply(lr)
    assert_same_params(student, ref)

    assume(ds.samples)
    teacher = init_model(VOCAB, student.dim, teacher_seed)
    floors = build_min_cache(ds.samples, sample_scores(teacher, ds, ds.samples))
    x, partner = draw_contrastive_case(data, ds)
    assert (contrastive_loss(floors[x.query_id], student, ds, x, scored(teacher, ds, partner),
                             sgd)
            == ref_contrastive(ref, teacher, ds, x, partner))
    ref.apply(lr)
    assert_same_params(student, ref)

    pair = data.draw(st.sampled_from(ds.samples))
    assert (_abs_delta_loss(student, ds, [scored(teacher, ds, pair)], sgd)
            == ref_abs_delta(ref, teacher, ds, pair))
    ref.apply(lr)
    assert_same_params(student, ref)

    pos_pairs = [s for s in ds.samples if s.label is Label.POSITIVE]
    neg_pairs = [s for s in ds.samples if s.label is Label.NEGATIVE]
    if pos_pairs and neg_pairs:
        p, n = data.draw(st.sampled_from(pos_pairs)), data.draw(st.sampled_from(neg_pairs))
        assert (consistent_loss(student, ds, scored(teacher, ds, p), scored(teacher, ds, n), sgd)
                == ref_consistent(ref, teacher, ds, p, n))
        ref.apply(lr)
        assert_same_params(student, ref)
    assert not sgd.grad.any() and not sgd.rows


@settings(max_examples=60, deadline=None)
@given(datasets(), models, st.integers(0, 2**31 - 1), st.floats(0.01, 2.0),
       st.floats(0.1, 2.0), st.integers(1, 4))
def test_pairwise_epochs_match_the_reference_loop(ds, model, seed, lr, margin, npp):
    positives = {}
    for s in ds.samples:
        if s.label is Label.POSITIVE:
            positives.setdefault(s.query_id, set()).add(s.doc_id)
    assume(positives)
    assume(all(set(ds.pools[q]) - p for q, p in positives.items()))
    ref = Ref(model)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert (pairwise_epoch(model, ds, ds.samples, rng, lr, margin, npp)
                == ref_pairwise_epoch(ref, ds, ds.samples, ref_rng, lr, margin, npp))
        assert_same_params(model, ref)
