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

from numur import (ConfigError, ForgetSpec, RemovalKind, build_min_cache,
                   consistent_loss, contrastive_loss,
                   init_model, mrr_forget, mrr_set, partition, score_distribution)
from numur.ranker import (HingeSet, PairStep, Sgd, doc_vectors, pair_scores, pairwise_epoch,
                          pool, query_vectors, sample_scores, score_pools)
from numur.unlearn_losses import _abs_delta_loss
from scoring_reference import (Accumulate, doc_tokens, forward, hinge_loss_and_grad,
                               pool_rows, query_tokens, rank, score_pool)

from conftest import (Label, Sample, dataset_of, every, forget_query_ids, position_of,
                      samples_of)

VOCAB = 10


@st.composite
def token_lists(draw, max_len):
    n = draw(st.integers(1, max_len))  # uniform, so long docs are as common as short
    return tuple(draw(st.lists(st.integers(0, VOCAB - 1), min_size=n, max_size=n)))


@st.composite
def datasets(draw, doc_len=9, query_len=5):
    templates = draw(st.lists(token_lists(doc_len), min_size=1, max_size=5))
    n_docs = draw(st.integers(2, 12))
    doc_ids = [f"d{i}" for i in range(n_docs)]
    documents = {did: draw(st.sampled_from(templates)) for did in doc_ids}
    queries, pools, samples = {}, {}, []
    for qi in range(draw(st.integers(1, 3))):
        qid = f"q{qi}"
        queries[qid] = draw(token_lists(query_len))
        pool = draw(st.permutations(doc_ids))[:draw(st.integers(1, n_docs))]
        pools[qid] = tuple(pool)
        for did in pool:
            label = draw(st.sampled_from([None, Label.POSITIVE, Label.NEGATIVE]))
            if label is not None:
                samples.append(Sample(qid, did, label))
    return dataset_of(queries=queries, docs=documents, samples=samples, pools=pools,
                      vocab_size=VOCAB)


models = st.builds(init_model, st.just(VOCAB), st.integers(1, 5),
                   st.integers(0, 2**31 - 1))


def ref_score_pool(model, ds, qid):
    u = model.embed_q[query_tokens(ds, qid)].mean(axis=0)
    mat = np.stack([model.embed_d[doc_tokens(ds, did)].mean(axis=0) for did in ds.pools[qid]])
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
    for did, row in ds.docs.row.items():
        assert np.array_equal(dvec[row], model.embed_d[doc_tokens(ds, did)].mean(axis=0))
    for qid in ds.pools:
        assert np.array_equal(score_pool(model, ds, qid), ref_score_pool(model, ds, qid))


# Dims of 8 and more, where BLAS sums a matrix row in an order that depends
# on the matrix's height, so a pool scored inside a taller padded matrix
# can differ from the same pool scored alone.
wide_models = st.builds(init_model, st.just(VOCAB), st.integers(6, 64),
                        st.integers(0, 2**31 - 1))

# Models with more tokens than the corpus, which check_model_fits allows:
# a doc token's row lies past the model's query table, not the corpus's.
roomy_models = st.builds(init_model, st.integers(VOCAB + 1, 4 * VOCAB), st.integers(1, 64),
                         st.integers(0, 2**31 - 1))

# Queries and docs of up to 24 tokens: numpy sums a (tokens, 1) slice
# pairwise from 8 tokens on, and a wider one token by token.
long_datasets = datasets(24, 24)

# Every input the SGD step properties run on.
sgd_datasets = st.one_of(datasets(), long_datasets)
sgd_models = st.one_of(models, wide_models, roomy_models)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.one_of(models, wide_models), st.sampled_from([1.0, 40.0]))
def test_batched_query_vectors_and_scores_are_bitwise_score_pool(ds, model, scale):
    # Softplus keeps a logit's last bit only away from 0, hence the scaled model.
    model.params *= scale
    qvec = query_vectors(model, ds)
    for qid, row in ds.queries.row.items():
        tokens = model.embed_q[query_tokens(ds, qid)]
        assert np.array_equal(qvec[row], np.add.reduce(tokens) / len(tokens))
    qids = sorted(ds.pools, reverse=True)  # any order of query rows
    scores = score_pools(pool(model, ds), np.array([ds.queries.row[q] for q in qids]))
    for qid, row in zip(qids, scores):
        want = score_pool(model, ds, qid)
        assert np.array_equal(row[:len(want)], want)
        assert (row[len(want):] == -np.inf).all()


@given(datasets())
def test_pool_columns_find_each_doc_in_each_pool(ds):
    docs = np.arange(len(ds.docs.ids))
    for qid, row in ds.queries.row.items():
        pool = pool_rows(ds, qid).tolist() if qid in ds.pools else []
        cols = ds.pool_columns(np.full(len(docs), row), docs)
        assert cols.tolist() == [pool.index(d) if d in pool else -1 for d in docs.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(token_lists(24), min_size=1, max_size=12), st.one_of(models, wide_models))
def test_long_docs_pool_bitwise_at_every_dim(doc_lists, model):
    # numpy sums a (tokens, 1) slice pairwise from 8 tokens on, and a wider
    # one token by token; the grouped pooling must follow both.
    documents = {f"d{i}": toks for i, toks in enumerate(doc_lists)}
    ds = dataset_of(queries={"q": doc_lists[0]}, docs=documents,
                    samples=[], pools={"q": tuple(documents)}, vocab_size=VOCAB)
    dvec, qvec = doc_vectors(model, ds), query_vectors(model, ds)
    for did, row in ds.docs.row.items():
        assert np.array_equal(dvec[row], model.embed_d[doc_tokens(ds, did)].mean(axis=0))
    assert np.array_equal(qvec[0], model.embed_q[query_tokens(ds, "q")].mean(axis=0))


@settings(max_examples=150, deadline=None)
@given(datasets(), models)
def test_score_distribution_is_bitwise_the_per_pair_forward(ds, model):
    assume(ds.n_samples)
    dist, = score_distribution("m", pool(model, ds), [("all", every(ds))])
    scores = np.array([forward(model, ds, s.query_id, s.doc_id) for s in samples_of(ds)])
    assert (dist.min, dist.max, dist.mean) == (scores.min(), scores.max(), scores.mean())
    assert dist.deciles == tuple(np.percentile(scores, np.arange(10, 100, 10)))


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.booleans())
def test_rank_and_mrrs_match_the_sorting_oracle(ds, model, flat):
    if flat:  # every score ties; the order is decided by doc id alone
        model.embed_q[:] = 0.0
    for qid in ds.pools:
        assert list(rank(model, ds, qid).doc_ids) == oracle_ranking(model, ds, qid)

    assert mrr_set(pool(model, ds), every(ds)).value == \
        oracle_mrr(model, ds, positives(samples_of(ds)))

    forget_docs = sorted({s.doc_id for s in samples_of(ds)})[:2]
    forget_queries = sorted({s.query_id for s in samples_of(ds)})[:1]
    assume(forget_docs)
    for kind, ids in ((RemovalKind.DOCUMENT, forget_docs),
                      (RemovalKind.QUERY, forget_queries)):
        spec = ForgetSpec(kind=kind, ids=frozenset(ids))
        try:
            part = partition(ds, spec)
        except ConfigError:  # the request would forget every sample
            continue
        if kind is RemovalKind.DOCUMENT:
            targets = {q: {d for d in ds.pools[q] if d in spec.ids}
                       for q in forget_query_ids(ds, part)}
        else:
            pos = positives(samples_of(ds))
            targets = {q: pos.get(q, set()) for q in forget_query_ids(ds, part)}
        assert mrr_forget(pool(model, ds), part).value == oracle_mrr(model, ds, targets)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.one_of(models, wide_models))
def test_stored_teacher_scores_are_bitwise_forward(ds, model):
    teacher = sample_scores(pool(model, ds), every(ds))
    floors = build_min_cache(ds, teacher)
    assert len(teacher) == ds.n_samples
    for s, score in zip(samples_of(ds), teacher):
        want = forward(model, ds, s.query_id, s.doc_id)
        assert score == want
        assert floors[ds.queries.row[s.query_id]] <= want


@settings(max_examples=150, deadline=None)
@given(datasets(), wide_models)
def test_mrrs_match_the_sorting_oracle_at_wide_dims(ds, model):
    assert mrr_set(pool(model, ds), every(ds)).value == \
        oracle_mrr(model, ds, positives(samples_of(ds)))


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
    targets = positives(samples_of(ds))
    with np.errstate(invalid="ignore"):
        want = nan_last_oracle_mrr(model, ds, targets)
        assert mrr_set(pool(model, ds), every(ds)).value == want
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
        qt, dt = query_tokens(ds, qid), doc_tokens(ds, did)
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
    floor = min(Ref(teacher).forward(ds, s.query_id, s.doc_id) for s in samples_of(ds)
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
    """``pair``'s position with its teacher score, as the losses take it."""
    return None if pair is None else (position_of(ds, pair.query_id, pair.doc_id),
                                      forward(teacher, ds, pair.query_id, pair.doc_id))


def teacher_floor(teacher, ds, x):
    """The floor of ``x``'s query under ``teacher`` (``build_min_cache``)."""
    floors = build_min_cache(ds, sample_scores(pool(teacher, ds), every(ds)))
    return floors[ds.queries.row[x.query_id]]


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
    grad_q, grad_d = np.split(buf.grad, 2)
    assert np.array_equal(grad_q, ref.grad_q) and np.array_equal(grad_d, ref.grad_d)
    rows = np.concatenate(buf.rows) if buf.rows else np.zeros(0, dtype=int)
    vocab = len(grad_q)
    want_q = np.concatenate(ref.rows_q) if ref.rows_q else []
    want_d = np.concatenate(ref.rows_d) if ref.rows_d else []
    assert rows[rows < vocab].tolist() == list(want_q)
    assert (rows[rows >= vocab] - vocab).tolist() == list(want_d)


def assert_same_params(model, ref):
    assert np.array_equal(model.embed_q, ref.embed_q)
    assert np.array_equal(model.embed_d, ref.embed_d)


def draw_contrastive_case(data, ds):
    x = data.draw(st.sampled_from(samples_of(ds)))
    partner = data.draw(st.sampled_from(
        [None] + [s for s in samples_of(ds)
                  if s != x and (s.query_id == x.query_id or s.doc_id == x.doc_id)]))
    return x, partner


@settings(max_examples=150, deadline=None)
@given(datasets(), models, st.integers(0, 2**31 - 1), st.floats(0.0, 2.0), st.data())
def test_fused_pair_steps_match_the_unfused_reference(ds, student, teacher_seed,
                                                      margin, data):
    # A stepper that accumulates: the gradients and the touched rows must be
    # those of one backward pass per pair.
    qid = data.draw(st.sampled_from(sorted(ds.pools)))
    pos = data.draw(st.sampled_from(ds.pools[qid]))
    neg = data.draw(st.sampled_from(ds.pools[qid]))
    fused, ref = Accumulate(student, ds), Ref(student)
    assert (hinge_loss_and_grad(fused, qid, pos, neg, margin)
            == ref_hinge(ref, ds, qid, pos, neg, margin))
    assert_same_gradients(fused, ref)

    assume(ds.n_samples)
    teacher = init_model(VOCAB, student.dim, teacher_seed)
    x, partner = draw_contrastive_case(data, ds)
    fused, ref = Accumulate(student, ds), Ref(student)
    assert (contrastive_loss(teacher_floor(teacher, ds, x), fused,
                             position_of(ds, x.query_id, x.doc_id), scored(teacher, ds, partner))
            == ref_contrastive(ref, teacher, ds, x, partner))
    assert_same_gradients(fused, ref)


@settings(max_examples=150, deadline=None)
@given(sgd_datasets, sgd_models, st.floats(-5.0, 5.0), st.data())
def test_sgd_apply_is_the_accumulated_gradient_times_lr(ds, model, lr, data):
    # The runtime stepper and the accumulating one of the tests add a step's
    # gradient alike: where the step touches, Sgd.apply leaves exactly
    # params - lr * grad; it leaves every other parameter as it was, and
    # its scratch zero.
    rows = st.tuples(st.integers(0, len(ds.queries.ids) - 1),
                     st.integers(0, len(ds.docs.ids) - 1))
    pairs = data.draw(st.lists(rows, min_size=1, max_size=4))
    upstream = data.draw(st.lists(st.just(0.0) | st.floats(-3.0, 3.0),
                                  min_size=len(pairs), max_size=len(pairs)))
    before = model.params.copy()
    acc = Accumulate(type(model)(before.copy()), ds)
    acc.apply(PairStep(acc, pairs), upstream)
    sgd = Sgd(model, ds, lr)
    sgd.apply(PairStep(sgd, pairs), upstream)
    want = before.copy()
    if acc.rows:
        touched = np.concatenate(acc.rows)
        want[touched] = before[touched] - lr * acc.grad[touched]
    assert np.array_equal(model.params, want)
    assert not sgd.scratch.any()
    assert np.array_equal(acc.model.params, before)


STEP_SHAPES = ("one pair", "one query", "two queries", "one doc twice")


def draw_step(data, ds):
    """The (query row, doc row) pairs of one step of a drawn shape: one pair,
    2-5 pairs of one query, pairs of different queries, or one doc in two pairs."""
    shape = data.draw(st.sampled_from(STEP_SHAPES))
    query = st.integers(0, len(ds.queries.ids) - 1)
    doc = st.integers(0, len(ds.docs.ids) - 1)
    if shape == "one pair":
        return [(data.draw(query), data.draw(doc))]
    if shape == "one query":
        q = data.draw(query)
        return [(q, d) for d in data.draw(st.lists(doc, min_size=2, max_size=5))]
    if shape == "two queries":
        return data.draw(st.lists(st.tuples(query, doc), min_size=2, max_size=5))
    d = data.draw(doc)
    return [(data.draw(query), d), (data.draw(query), d)]


def with_signed_zeros(data, model):
    """``model`` with a drawn share of its entries set to -0.0: a token row
    whose column holds only -0.0 pools to -0.0 there, and 0.0 + -0.0 is 0.0."""
    share = data.draw(st.sampled_from([0.0, 0.3, 0.8]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
    model.params[rng.random(model.params.shape) < share] = -0.0
    return model


def ref_gradient(model, ds, pairs, upstream):
    """The (index, terms) of ``PairStep.gradient``, one pair at a time with
    ``Ref``'s pooling: each pair's query offsets, then its doc's, ``dim``
    per token row, and ``g * v / len(query)`` and ``g * u / len(doc)`` on them."""
    ref, dim, vocab = Ref(model), model.dim, model.vocab_size
    index, terms = [], []
    for (q, d), up in zip(pairs, upstream):
        if up == 0.0:
            continue
        qt, dt, u, v = ref.pooled(ds, ds.queries.ids[q], ds.docs.ids[d])
        g = _sigmoid(float(u @ v)) * up
        for rows, along in ((qt, v), (dt + vocab, u)):
            index.append((rows[:, None] * dim + np.arange(dim)).ravel())
            terms.append(np.tile(g * along / len(rows), len(rows)))
    return (np.concatenate(index), np.concatenate(terms)) if index else None


# dim 1 as often as every other dim together: a step pads its parts to its
# longest, and numpy sums a part of 8 or more tokens pairwise there
unit_models = st.builds(init_model, st.just(VOCAB), st.just(1), st.integers(0, 2**31 - 1))


@settings(max_examples=200, deadline=None)
@given(sgd_datasets, st.one_of(unit_models, sgd_models), st.floats(0.01, 5.0), st.data())
def test_pair_steps_are_bitwise_the_per_pair_reference(ds, model, lr, data):
    # Every step shape against a fresh pool, each pair alone, the per-pair
    # gradient and one Ref step. Parameters are compared as bytes, which
    # tell -0.0 from 0.0 where np.array_equal does not.
    model = with_signed_zeros(data, model)
    pairs = draw_step(data, ds)
    upstream = data.draw(st.lists(st.just(0.0) | st.floats(-3.0, 3.0),
                                  min_size=len(pairs), max_size=len(pairs)))
    sgd = Sgd(model, ds, lr)
    step = PairStep(sgd, pairs)
    query_rows, doc_rows = (np.array(rows) for rows in zip(*pairs))
    logits, scores = pair_scores(pool(model, ds), query_rows, doc_rows)
    # softplus absorbs a last-bit change in a small logit, so logits are compared too
    assert np.array(step.logits).tobytes() == logits.tobytes()
    assert np.array(step.scores).tobytes() == scores.tobytes()
    alone = [PairStep(sgd, [pair]) for pair in pairs]
    assert [each.logits[0] for each in alone] == step.logits
    assert [each.scores[0] for each in alone] == step.scores

    got, want = step.gradient(upstream), ref_gradient(model, ds, pairs, upstream)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()

    ref = Ref(model)
    for (q, d), up in zip(pairs, upstream):
        ref.backward(ds, ds.queries.ids[q], ds.docs.ids[d], up)
    ref.apply(lr)
    sgd.apply(step, upstream)
    assert model.params.tobytes() == np.concatenate((ref.embed_q, ref.embed_d)).tobytes()
    assert not sgd.scratch.any()


@settings(max_examples=150, deadline=None)
@given(sgd_datasets, sgd_models, st.integers(0, 2**31 - 1), st.floats(0.0, 2.0),
       st.floats(0.01, 5.0), st.data())
def test_sgd_steps_match_the_per_table_reference(ds, student, teacher_seed, margin, lr,
                                                 data):
    # One step of each loss: the parameters must equal the per-table
    # reference bit for bit, and the stepper's scratch is zero again.
    sgd, ref = Sgd(student, ds, lr), Ref(student)
    qid = data.draw(st.sampled_from(sorted(ds.pools)))
    pos = data.draw(st.sampled_from(ds.pools[qid]))
    neg = data.draw(st.sampled_from(ds.pools[qid]))
    assert (hinge_loss_and_grad(sgd, qid, pos, neg, margin)
            == ref_hinge(ref, ds, qid, pos, neg, margin))
    ref.apply(lr)
    assert_same_params(student, ref)

    assume(ds.n_samples)
    teacher = init_model(VOCAB, student.dim, teacher_seed)
    x, partner = draw_contrastive_case(data, ds)
    assert (contrastive_loss(teacher_floor(teacher, ds, x), sgd,
                             position_of(ds, x.query_id, x.doc_id), scored(teacher, ds, partner))
            == ref_contrastive(ref, teacher, ds, x, partner))
    ref.apply(lr)
    assert_same_params(student, ref)

    pair = data.draw(st.sampled_from(samples_of(ds)))
    assert (_abs_delta_loss(sgd, [scored(teacher, ds, pair)])
            == ref_abs_delta(ref, teacher, ds, pair))
    ref.apply(lr)
    assert_same_params(student, ref)

    pos_pairs = [s for s in samples_of(ds) if s.label is Label.POSITIVE]
    neg_pairs = [s for s in samples_of(ds) if s.label is Label.NEGATIVE]
    if pos_pairs and neg_pairs:
        p, n = data.draw(st.sampled_from(pos_pairs)), data.draw(st.sampled_from(neg_pairs))
        assert (consistent_loss(sgd, scored(teacher, ds, p), scored(teacher, ds, n))
                == ref_consistent(ref, teacher, ds, p, n))
        ref.apply(lr)
        assert_same_params(student, ref)
    assert not sgd.scratch.any()


@settings(max_examples=60, deadline=None)
@given(sgd_datasets, sgd_models, st.integers(0, 2**31 - 1), st.floats(0.01, 2.0),
       st.floats(0.1, 2.0), st.integers(1, 4))
def test_pairwise_epochs_match_the_reference_loop(ds, model, seed, lr, margin, npp):
    positives = {}
    for s in samples_of(ds):
        if s.label is Label.POSITIVE:
            positives.setdefault(s.query_id, set()).add(s.doc_id)
    assume(positives)
    assume(all(set(ds.pools[q]) - p for q, p in positives.items()))
    ref, sgd = Ref(model), Sgd(model, ds, lr)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert (pairwise_epoch(sgd, HingeSet(ds, every(ds)), pool(model, ds), rng, margin,
                               npp)
                == ref_pairwise_epoch(ref, ds, samples_of(ds), ref_rng, lr, margin, npp))
        assert_same_params(model, ref)
