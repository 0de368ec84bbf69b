"""Differentiable relevance scorer with hand-written gradients.

The model keeps two embedding tables, one for query tokens and one for
document tokens, stacked in one array. A pair's relevance score is

    score = softplus(mean(embed_q[query tokens]) . mean(embed_d[doc tokens]))

which is strictly positive, so the ratio-form discrepancy losses used
during unlearning always have positive denominators. Training minimises
a pairwise hinge over (positive, sampled pool negative) pairs with plain
SGD, one pair per step, in a seeded order so runs are bit-reproducible.
Every per-pair update, in training and in unlearning, is one
``PairStep``.
"""

from __future__ import annotations

import struct
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .corpus import CorpusSplit, Dataset, atomic_write
from .errors import ConfigError, DataError, DivergedError

MODEL_MAGIC = b"NUMR"
MODEL_VERSION = 1
MODEL_FIELD_LIMIT = 2**32  # save_model's header stores vocab_size and dim in 32 bits


class ScoreModel:
    """Both embedding tables as one (2 * vocab_size, dim) float64 array.

    Rows ``[0, vocab_size)`` embed query tokens and rows
    ``[vocab_size, 2 * vocab_size)`` embed document tokens; ``embed_q``
    and ``embed_d`` are views of the two halves. One gather over the
    stacked table pools every part of an SGD step, and one scatter covers
    every row it touches. ``params`` is a view of ``table``, a copy of the
    given array with one more row, of -0.0, which pads that gather:
    ``x + -0.0`` is ``x`` bit for bit, signed zeros included.
    """

    def __init__(self, params: np.ndarray):
        self.table = np.empty((len(params) + 1, np.shape(params)[1]))
        self.table[-1] = -0.0
        self.params = self.table[:-1]
        self.params[...] = params
        self.embed_q, self.embed_d = np.split(self.params, 2)
        self.flat = self.params.reshape(-1)  # the offsets of a PairStep index it

    @property
    def vocab_size(self) -> int:
        return self.embed_q.shape[0]

    @property
    def dim(self) -> int:
        return self.params.shape[1]

    def check_finite(self, after: str) -> None:
        """DivergedError when a parameter is NaN or infinite ``after`` some step."""
        if not np.isfinite(self.params).all():
            raise DivergedError(f"parameters diverged to NaN or infinity after {after}; "
                                "lower the learning rate")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 30
    margin: float = 1.0
    seed: int = 7
    negatives_per_positive: int = 4
    dim: int = 16

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0 and self.margin > 0):  # NaN too
            raise ConfigError("learning_rate and margin must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.negatives_per_positive < 1 or self.dim < 1:
            raise ConfigError("negatives_per_positive and dim must be positive")
        if self.dim >= MODEL_FIELD_LIMIT:
            raise ConfigError(f"dim={self.dim} must be below 2**32, the most a model file holds")


@dataclass
class TrainResult:
    model: ScoreModel
    epoch_losses: list[float]
    epoch_mrr: list[float]
    epoch_times: list[float]


def init_model(vocab_size: int, dim: int, seed: int) -> ScoreModel:
    """Fresh model with entries uniform in [-0.1, 0.1], query table drawn
    first; ConfigError for a table that a model file or numpy cannot hold."""
    if vocab_size >= MODEL_FIELD_LIMIT or dim >= MODEL_FIELD_LIMIT:
        raise ConfigError(f"a model of {vocab_size} tokens and dim {dim} cannot be saved: "
                          "a model file holds each below 2**32")
    rng = np.random.default_rng(seed)
    try:
        return ScoreModel(rng.uniform(-0.1, 0.1, size=(2 * vocab_size, dim)))
    except ValueError:  # more bytes than an array can index
        raise ConfigError(f"a model of {vocab_size} tokens and dim {dim} is too large for "
                          "an array") from None


def clone_model(model: ScoreModel) -> ScoreModel:
    return ScoreModel(model.params)


def _sigmoids(z: np.ndarray) -> np.ndarray:
    """The logistic function of each entry, bitwise the scalar form of
    ``PairStep.gradient``: ``1 / (1 + exp(-z))`` where ``z >= 0``, else
    ``e / (1 + e)`` with ``e = exp(z)``."""
    e = np.exp(np.where(z >= 0, -z, z))  # NaN takes the second branch, as in gradient
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _stacked_tokens(dataset: Dataset, vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The token rows of every query, then of every doc, in the stacked table
    of a model with ``vocab_size``: one flat array, and where each entry
    starts in it, plus its end. Query row r is entry r and doc row r entry
    ``len(dataset.queries.ids) + r``; doc tokens are shifted by ``vocab_size``."""
    qtok, dtok = dataset.queries, dataset.docs
    return (np.concatenate((qtok.flat, dtok.flat + vocab_size)),
            np.concatenate((qtok.starts[:-1], dtok.starts + len(qtok.flat))))


def _step_tables(dataset: Dataset, shape: tuple[int, int]) -> tuple:
    """The step tables of ``dataset`` under a stacked parameter table of
    ``shape``, each built with whole-array operations. Entry e is query row
    e, and entry ``n_q + r`` doc row r, with ``n_q`` queries.

    Row e of ``tokens`` holds entry e's rows of the stacked table, token by
    token, padded to the longest entry with row ``shape[0]``, the spare
    row of ``ScoreModel.table``; ``counts`` holds each entry's token
    count. Token ``t`` is row ``t`` of the query half and row
    ``vocab_size + t`` of the doc half, with the model's ``vocab_size``,
    not the corpus's. ``offsets`` lists the flat offsets of every entry's
    rows in turn, ``dim`` per row, entry e's from ``bounds[e]`` to
    ``bounds[e + 1]``.
    """
    dim = shape[1]
    rows, starts = _stacked_tokens(dataset, shape[0] // 2)
    counts = np.diff(starts)
    real = np.arange(counts.max(initial=0)) < counts[:, None]
    tokens = np.full(real.shape, shape[0])
    tokens[real] = rows
    offsets = (rows[:, None] * dim + np.arange(dim)).ravel()
    return tokens, counts, offsets, (starts * dim).tolist()


class Sgd:
    """Plain SGD on ``model`` over the pairs of ``dataset``: one per fit or
    unlearning plan, holding all that its steps read and write.

    ``tokens``, ``counts``, ``offsets`` and ``bounds`` are the dataset's
    step tables under the model's shape (``_step_tables``), built once
    here; ``lengths`` is ``counts`` as a list. ``apply`` adds a step's
    gradient into ``scratch``, a flat gradient of the stacked table that
    is all zeros between steps, moves the offsets it touched by ``-lr``
    times it and zeroes them again. ``pairs`` holds the (query row, doc
    row) of each sample of ``dataset``, by position.
    """

    def __init__(self, model: ScoreModel, dataset: Dataset, lr: float):
        self.model, self.dataset, self.lr = model, dataset, lr
        self.shape, self.flat = model.params.shape, model.flat
        self.scratch = np.zeros(model.params.size)
        self.tokens, self.counts, self.offsets, self.bounds = _step_tables(dataset, self.shape)
        self.lengths, self.n_queries = self.counts.tolist(), len(dataset.queries.ids)
        self.pairs = list(zip(dataset.sample_query.tolist(), dataset.sample_doc.tolist()))

    def apply(self, step: "PairStep", upstream: Sequence[float]) -> None:
        """One SGD step along ``step.gradient(upstream)``, summed with one
        ``np.add.at``; nothing when every upstream is 0."""
        grad = step.gradient(upstream)
        if grad is None:
            return
        index, terms = grad
        np.add.at(self.scratch, index, terms)
        # an offset listed twice is gathered before the scatter, so it steps once
        stepped = self.flat[index]
        stepped -= self.lr * self.scratch[index]
        self.flat[index] = stepped
        self.scratch[index] = 0.0


class PairStep:
    """Scores of a few (query row, doc row) pairs under the model of an
    ``Sgd``, and their gradient.

    The constructor pools every part of the step (each pair's query, then
    its doc) at once: one gather of the parts' rows of the stepper's token
    table, cut to the step's longest part, one gather of those rows of
    ``ScoreModel.table`` as a (parts, tokens, dim) block, padded with its
    -0.0 row, and one reduction over the token axis. numpy sums each part
    of that block token by token, as ``mean(axis=0)`` sums its (tokens,
    dim) slice, and the padding changes no sum. At dim 1 numpy sums a
    slice pairwise from 8 tokens on; there the reduction skips the padding
    (``where``), and numpy then sums each part's run of tokens pairwise
    too. One divide by the token counts gives ``means``, each pair's query
    vector then its doc vector; one ``np.vecdot`` gives the logits, as
    ``pair_scores`` does, and one ``logaddexp`` the scores. ``gradient``
    reads its vectors from ``means``. The parameters must not change
    between the constructor and the ``Sgd.apply`` of the step.
    """

    __slots__ = ("sgd", "parts", "counts", "means", "logits", "scores")

    def __init__(self, sgd: Sgd, pairs: Sequence[tuple[int, int]]):
        self.sgd, n_q = sgd, sgd.n_queries
        self.parts = parts = [e for q, d in pairs for e in (q, n_q + d)]
        at = np.array(parts)
        rows = sgd.tokens.take(at, axis=0)[:, :max(map(sgd.lengths.__getitem__, parts))]
        real = rows[:, :, None] < sgd.shape[0] if sgd.shape[1] == 1 else True
        sums = np.add.reduce(sgd.model.table.take(rows, axis=0), axis=1, where=real)
        self.counts = counts = sgd.counts[at].reshape(-1, 2, 1)
        self.means = means = sums.reshape(counts.shape[0], 2, -1) / counts
        logits = np.vecdot(means[:, 0], means[:, 1])
        self.logits, self.scores = logits.tolist(), np.logaddexp(0.0, logits).tolist()

    def gradient(self, upstream: Sequence[float]) -> tuple[np.ndarray, np.ndarray] | None:
        """The flat offsets of the parts of the pairs with a nonzero
        upstream, in pair order, each pair's query offsets before its doc
        offsets, and each offset's term of ``upstream[i] * d(score_i)/d(params)``;
        None when every upstream is 0. An offset listed twice has a term
        per listing, for the caller to sum."""
        gs, active = [], []
        for i, (z, up) in enumerate(zip(self.logits, upstream)):
            if up == 0.0:
                continue
            if z >= 0:  # the logistic function of z, in the form that cannot overflow
                g = 1.0 / (1.0 + float(np.exp(-z))) * up
            else:
                e = float(np.exp(z))
                g = e / (1.0 + e) * up
            gs.append(g)
            active.append(i)
        if not gs:
            return None
        means, counts, parts = self.means, self.counts, self.parts
        if len(active) < len(means):
            means, counts = means[active], counts[active]
            parts = [e for i in active for e in parts[2 * i:2 * i + 2]]
        # (g * vector) / count, the arithmetic of one backward pass per pair:
        # a query part runs along its doc's vector, a doc part along its query's
        grads = means[:, ::-1] * np.array(gs)[:, None, None]
        grads /= counts
        offsets, bounds = self.sgd.offsets, self.sgd.bounds
        index = np.concatenate([offsets[bounds[e]:bounds[e + 1]] for e in parts])
        return index, grads.reshape(-1, means.shape[2]).repeat(counts.ravel(), axis=0).ravel()


# Rows pooled per gather in doc_vectors and query_vectors; keeps the
# (tokens, rows, dim) temporary near the size of the output block.
POOL_BLOCK_ROWS = 256


def _pooled(table: np.ndarray, groups, n: int) -> np.ndarray:
    """The mean of each row's token vectors, every row bitwise
    ``table[tokens].mean(axis=0)``.

    A block of equal-length rows is gathered token-major, (count, rows,
    dim), and summed over its first axis: one token vector after another,
    the order in which ``mean(axis=0)`` sums a (count, dim) slice. At dim
    1 numpy sums such a slice pairwise, and so does the reduction over the
    token axis of a (rows, count, 1) gather, which is used there instead.
    """
    out = np.empty((n, table.shape[1]))
    for rows, toks in groups:
        for start in range(0, len(rows), POOL_BLOCK_ROWS):
            block = toks[:, start:start + POOL_BLOCK_ROWS]
            if table.shape[1] == 1:
                total = np.add.reduce(table.take(block.T, axis=0), axis=1)
            else:
                total = np.add.reduce(table.take(block, axis=0), axis=0)
            out[rows[start:start + POOL_BLOCK_ROWS]] = total / len(toks)
    return out


def doc_vectors(model: ScoreModel, dataset: Dataset) -> np.ndarray:
    """Mean-pooled vector of every doc, one row per doc row; bitwise each
    doc pooled on its own."""
    return _pooled(model.embed_d, dataset.docs.groups, len(dataset.docs.ids))


def query_vectors(model: ScoreModel, dataset: Dataset) -> np.ndarray:
    """Mean-pooled vector of every query, one row per query row; pooled as
    ``doc_vectors`` pools docs, so bitwise each query pooled alone."""
    return _pooled(model.embed_q, dataset.queries.groups, len(dataset.queries.ids))


@dataclass(frozen=True)
class Pooled:
    """The mean-pooled vectors of one model state over one dataset, built
    once and passed to every reader of that state: ``query_vecs`` has one
    row per query row of ``dataset`` and ``doc_vecs`` one per doc row."""

    dataset: Dataset
    query_vecs: np.ndarray
    doc_vecs: np.ndarray


def pool(model: ScoreModel, dataset: Dataset) -> Pooled:
    """Every query and every doc of ``dataset`` pooled under ``model``."""
    return Pooled(dataset, query_vectors(model, dataset), doc_vectors(model, dataset))


def pool_split(model: ScoreModel, split: CorpusSplit) -> tuple[Pooled, Pooled]:
    """``pool`` of the train split and of the test split. A test split loaded
    with ``docs_from`` holds the train split's doc side, so its value
    shares the train doc vectors and the docs are pooled once for both."""
    train, test = pool(model, split.train), split.test
    docs = train.doc_vecs if test.docs is split.train.docs else doc_vectors(model, test)
    return train, Pooled(test, query_vectors(model, test), docs)


def score_pools(pooled: Pooled, query_rows: np.ndarray) -> np.ndarray:
    """``score_pool`` (``tests/scoring_reference.py``) of many queries: row i
    scores the pool of query row ``query_rows[i]`` in pool order, padded
    with -inf past its end.

    Pools of one length are scored with one ``np.matmul`` over a
    (queries, length, dim) gather of the doc vectors, which runs the same
    matrix-vector product per pool as ``score_pool`` and so gives the same
    bits. A gather padded to the longest pool would not: BLAS sums a row
    in an order that depends on the height of the matrix.
    """
    dataset = pooled.dataset
    qvec = pooled.query_vecs[query_rows]
    lengths = dataset.pool_len[query_rows]
    out = np.full((len(query_rows), dataset.pool_matrix.shape[1]), -np.inf)
    # the queries grouped by pool length with one stable sort
    order = np.argsort(lengths, kind="stable")
    starts = np.flatnonzero(np.diff(lengths[order])) + 1
    for at in np.split(order, starts) if len(order) else ():
        length = int(lengths[at[0]])
        docs = pooled.doc_vecs.take(dataset.pool_matrix[query_rows[at], :length], axis=0)
        out[at, :length] = np.logaddexp(0.0, np.matmul(docs, qvec[at, :, None])[:, :, 0])
    return out


def pair_scores(pooled: Pooled, query_rows, doc_rows) -> tuple[np.ndarray, np.ndarray]:
    """The logit ``u . v`` and the score ``softplus(u . v)`` of each pair of
    a pooled query row and a pooled doc row.

    One ``np.vecdot`` of two (pairs, dim) gathers runs one dot product per
    pair, bitwise ``float(u @ v)``, as ``PairStep`` does, so each score is
    bitwise the score a ``PairStep`` of the pair gives.
    """
    logits = np.vecdot(pooled.query_vecs[query_rows], pooled.doc_vecs[doc_rows])
    return logits, np.logaddexp(0.0, logits)


def sample_scores(pooled: Pooled, samples: np.ndarray) -> list[float]:
    """The ``PairStep`` score of the sample at each position of ``samples``
    under the pooled model state (``pair_scores``)."""
    dataset = pooled.dataset
    return pair_scores(pooled, dataset.sample_query[samples],
                       dataset.sample_doc[samples])[1].tolist()


class HingeDraws:
    """Hinge draws served one positive at a time, each bitwise one
    ``hinge_loss_and_grad`` (``tests/scoring_reference.py``), in draw order.

    ``run`` takes a positive and the negatives already drawn for it; the
    caller draws them, every draw of a pass in one ``rng.integers`` call.
    A draw whose hinge is not positive leaves the parameters as they
    are, so the draws after it can be scored under the same parameters.
    ``run`` is one walk: each ``PairStep`` scores the positive and a
    window of the draws left, and the walk goes through them up to the
    first active draw (a NaN loss counts as active), which steps through
    ``sgd.apply`` with a zero upstream on the other pairs. After an
    inactive draw the window is every remaining draw of the positive;
    after an active draw, and at the start of a pass, it is the next draw
    alone. The window carries over from one positive to the next, so a
    run whose draws are all active makes the steps of the per-draw loop
    and no more.

    ``total`` sums the losses in draw order, inactive draws as 0.0;
    ``draws`` counts the draws.
    """

    def __init__(self, sgd: Sgd, margin: float):
        self.sgd, self.margin = sgd, margin
        self.wide = False  # the last draw was inactive
        self.total, self.draws = 0.0, 0

    def run(self, query_row: int, pos_row: int, neg_rows: Sequence[int]) -> None:
        """One draw of ``(pos_row, neg)`` for each doc row of ``neg_rows`` in order."""
        pos_pair, pairs = (query_row, pos_row), [(query_row, neg) for neg in neg_rows]
        self.draws += len(pairs)
        sgd, margin = self.sgd, self.margin
        at, n = 0, len(pairs)
        while at < n:
            step = PairStep(sgd, [pos_pair, *pairs[at:n if self.wide else at + 1]])
            scores = step.scores
            for k in range(1, len(scores)):
                loss = margin - scores[0] + scores[k]
                at += 1
                if loss <= 0.0:
                    continue
                upstream = [0.0] * len(scores)
                upstream[0], upstream[k] = -1.0, 1.0
                sgd.apply(step, upstream)
                self.total += loss
                self.wide = False
                break  # the parameters moved: score the rest again
            else:
                self.wide = True


# Positives per block of hinge_grad_squares. A block's largest temporary
# holds four vectors per active draw: 64 KB at dim 16 and 4 draws each.
GRAD_BLOCK = 32


def hinge_grad_squares(pooled: Pooled, query_rows: np.ndarray, pos_rows: np.ndarray,
                       neg_rows: np.ndarray, margin: float, sq: np.ndarray) -> None:
    """For each positive, in order, add ``(grad / n) ** 2`` into ``sq`` on the
    stacked rows its draws touch, where ``grad`` is the hinge gradient of its
    n draws: the doc rows ``neg_rows[i]`` against ``pos_rows[i]`` for the
    query row ``query_rows[i]``.

    Bitwise the per-draw loop under parameters that never move: one
    ``hinge_loss_and_grad`` (``tests/scoring_reference.py``) per draw
    into a stepper that only accumulates, then ``sq[rows] +=
    (grad[rows] / n) ** 2`` over the rows touched and those rows zeroed,
    once per positive. A draw is active unless its loss is ``<= 0.0``,
    so a NaN loss is active. Each active draw adds, as
    ``PairStep.gradient`` does: the query rows ``v_pos * g_pos / lq``, the
    positive's rows ``u * g_pos / lp``, the query rows ``v_neg * g_neg / lq``
    and the negative's rows ``u * g_neg / ln``. Each (positive, row)
    gradient is summed in that order from 0.0 by ``np.bincount``, and
    ``np.add.at`` adds the squares into ``sq`` in positive order.
    Positives go ``GRAD_BLOCK`` at a time; ``sq`` is of the stacked table's shape.
    """
    n, draws = neg_rows.shape
    stacked, dim = sq.shape
    # query row r is entry r, doc row r entry n_q + r
    flat, starts = _stacked_tokens(pooled.dataset, stacked // 2)
    n_q, lengths = len(pooled.query_vecs), np.diff(starts)
    for at in range(0, n, GRAD_BLOCK):
        q, p, negs = query_rows[at:at + GRAD_BLOCK], pos_rows[at:at + GRAD_BLOCK], \
            neg_rows[at:at + GRAD_BLOCK]
        logits, scores = pair_scores(pooled, np.concatenate((q, q.repeat(draws))),
                                     np.concatenate((p, negs.ravel())))
        m = len(q)
        loss = margin - scores[:m, None] + scores[m:].reshape(m, draws)
        s, k = np.nonzero(~(loss <= 0.0))  # the active draws, in draw order
        if not len(s):
            continue
        g_pos = (_sigmoids(logits[:m]) * -1.0)[s, None]
        g_neg = _sigmoids(logits[m:].reshape(m, draws)[s, k])[:, None]
        qe, pe, ne = q[s], n_q + p[s], n_q + negs[s, k]
        lq, lp, ln = (lengths[e][:, None] for e in (qe, pe, ne))
        u = pooled.query_vecs[q[s]]
        v_pos, v_neg = pooled.doc_vecs[p[s]], pooled.doc_vecs[negs[s, k]]
        # each active draw's four terms, each spread over its entry's token rows
        terms = np.stack((v_pos * g_pos / lq, u * g_pos / lp, v_neg * g_neg / lq,
                          u * g_neg / ln), axis=1).reshape(-1, dim)
        entries = np.stack((qe, pe, qe, ne), axis=1).ravel()
        spans = lengths[entries]
        ends = np.cumsum(spans)
        rows = flat[np.arange(ends[-1]) + (starts[entries] - ends + spans).repeat(spans)]
        # one group per (positive, row); its key orders the groups by positive
        groups, slot = np.unique(s.repeat(4).repeat(spans) * stacked + rows,
                                 return_inverse=True)
        group_rows = groups % stacked
        for col in range(dim):  # column by column, so no temporary holds a vector per entry
            grad = np.bincount(slot, terms[:, col].repeat(spans), len(groups))
            grad /= draws
            np.add.at(sq[:, col], group_rows, np.square(grad, out=grad))


HARD_NEGATIVES_PER_QUERY = 8


class HingeSet:
    """The queries with a positive among the samples at positions
    ``samples``, and what every hinge epoch over them reads; built once per fit.

    ``rows`` are those queries' rows, sorted by query id, ``slot`` each
    query row's place in ``rows`` (-1 for a query not held) and
    ``positives[i]`` the doc rows of the positives of ``rows[i]`` in sample
    order. A query's hinge negatives are the docs of its pool, in pool
    order, that ``samples`` does not mark positive for it. One row per
    query, over the columns of its pool in ``Dataset.pool_matrix``:
    ``ids`` orders score ties by doc id, ``not_negative`` marks the
    positives (found by ``Dataset.pool_columns``) and the padding past
    the pool, and ``position`` is a negative column's position among the
    query's negatives. ``n_pos``, ``n_neg`` and ``n_hard`` count each
    query's positives, its negatives and the negatives it mines;
    ``all_negatives`` holds the doc rows of every query's negatives in
    turn, those of query i from ``neg_start[i]``; ``uniform`` draws from
    it. ``bare`` is the id of the first query without a negative, if any.
    """

    def __init__(self, dataset: Dataset, samples: np.ndarray):
        positive = samples[dataset.positive[samples]]
        query, doc = dataset.sample_query[positive], dataset.sample_doc[positive]
        # the positives by query, queries in id order, each query's in sample order
        id_order = dataset.queries.id_order
        by_id = np.argsort(id_order[query], kind="stable")
        query, doc = query[by_id], doc[by_id]
        _, first, self.n_pos = np.unique(id_order[query], return_index=True, return_counts=True)
        self.rows = query[first]
        self.slot = np.full(len(dataset.queries.ids), -1, dtype=np.intp)
        self.slot[self.rows] = np.arange(len(self.rows))
        self.positives = [d.tolist() for d in np.split(doc, first[1:])] if len(doc) else []
        self.not_negative = np.arange(dataset.pool_matrix.shape[1]) \
            >= dataset.pool_len[self.rows][:, None]
        at = np.arange(len(self.rows)).repeat(self.n_pos)
        cols = dataset.pool_columns(query, doc)
        found = cols >= 0
        self.not_negative[at[found], cols[found]] = True
        is_negative = ~self.not_negative
        self.n_neg = np.count_nonzero(is_negative, axis=1)
        self.bare = next((dataset.queries.ids[r] for r in self.rows[self.n_neg == 0]), None)
        self.position = np.cumsum(is_negative, axis=1) - 1
        self.ids = dataset.pool_ids[self.rows]
        self.n_hard = np.minimum(self.n_neg, HARD_NEGATIVES_PER_QUERY)
        self.neg_start = np.concatenate(([0], np.cumsum(self.n_neg)[:-1]))
        self.all_negatives = dataset.pool_matrix[self.rows][is_negative]

    def hard(self, pooled: Pooled) -> np.ndarray:
        """Row i: the positions among query i's hinge negatives of those the
        pooled model state scores highest, best first, ties to the smaller
        doc id and NaN scores last; only the first ``n_hard[i]`` are negatives.

        All pools are scored in one ``score_pools`` call and sorted row by
        row in one ``np.lexsort``, whose first key puts every column that
        is not a negative last.
        """
        scores = score_pools(pooled, self.rows)
        order = np.lexsort((self.ids, -scores, self.not_negative), axis=-1)
        return np.take_along_axis(self.position, order[:, :HARD_NEGATIVES_PER_QUERY], axis=1)

    def uniform(self, rng: np.random.Generator, at: np.ndarray, counts) -> np.ndarray:
        """The doc rows of ``counts[i]`` uniform picks among the negatives of
        query ``at[i]``, i in turn, from one ``rng.integers`` call with one
        bound per pick: the stream of one call per pick."""
        at = at.repeat(counts)
        return self.all_negatives[self.neg_start[at] + rng.integers(self.n_neg[at])]


def pairwise_epoch(sgd: Sgd, queries: HingeSet, pooled: Pooled, rng: np.random.Generator,
                   margin: float, negatives_per_positive: int) -> float:
    """One epoch of pairwise hinge over the positives of ``queries``, each
    step taken by ``sgd``.

    Negatives come from the query's pool, excluding docs positive for it
    among the samples ``queries`` was built from. A positive's draws
    alternate between uniform picks from all its query's negatives and
    uniform picks from the query's ``HARD_NEGATIVES_PER_QUERY`` negatives
    that the model as the epoch starts, pooled in ``pooled``, scores
    highest, so high-scoring irrelevant docs get corrected instead of
    lingering above rarely-sampled positives. The queries go in the order of one
    ``rng.permutation``, each with its positives in sample order; every
    pick of the epoch then comes from one ``rng.integers`` call with one
    bound per draw, the stream of one call per draw. ``HingeDraws``
    serves the draws. Returns the mean hinge loss.
    """
    if queries.bare is not None:
        raise DataError(f"query {queries.bare!r} has no pool negatives to train against")
    order = rng.permutation(len(queries.rows))
    if not len(order):
        return 0.0
    hard = queries.hard(pooled)
    # one row per positive in draw order, one column per draw; odd draws are hard
    at = order.repeat(queries.n_pos[order])
    odd = np.arange(negatives_per_positive) % 2 == 1
    picks = rng.integers(np.where(odd, queries.n_hard[at, None], queries.n_neg[at, None]))
    chosen = np.where(odd, hard[at[:, None], np.minimum(picks, hard.shape[1] - 1)], picks)
    negs = queries.all_negatives[chosen + queries.neg_start[at, None]].ravel().tolist()

    draws = HingeDraws(sgd, margin)
    rows, k = queries.rows.tolist(), 0
    for qi in order.tolist():
        for pos in queries.positives[qi]:
            draws.run(rows[qi], pos, negs[k:k + negatives_per_positive])
            k += negatives_per_positive
    return draws.total / draws.draws if draws.draws else 0.0


def _fit(dataset: Dataset, samples: np.ndarray, cfg: TrainConfig,
         require_positives: bool) -> TrainResult:
    from .evaluation import mrr_set  # local import: evaluation depends on this module

    queries = HingeSet(dataset, samples)
    if require_positives:
        untrained = samples[queries.slot[dataset.sample_query[samples]] < 0]
        if len(untrained):
            query_id = dataset.sample_ids(untrained[0])[0]
            raise DataError(f"query {query_id!r} has samples but no positive")

    model = init_model(dataset.vocab_size, cfg.dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    result = TrainResult(model=model, epoch_losses=[], epoch_mrr=[], epoch_times=[])
    sgd, pooled = Sgd(model, dataset, cfg.learning_rate), pool(model, dataset)
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        loss = pairwise_epoch(sgd, queries, pooled, rng, cfg.margin,
                              cfg.negatives_per_positive)
        pooled = pool(model, dataset)  # for this epoch's MRR and the next epoch's mining
        result.epoch_times.append(time.perf_counter() - t0)
        model.check_finite(f"training epoch {epoch}")
        result.epoch_losses.append(loss)
        result.epoch_mrr.append(mrr_set(pooled, samples).value)
    return result


def train(split: CorpusSplit, cfg: TrainConfig) -> TrainResult:
    """Fit a fresh model on the full training set."""
    return _fit(split.train, np.arange(split.train.n_samples), cfg, require_positives=True)


def retrain(split: CorpusSplit, cfg: TrainConfig, part) -> TrainResult:
    """Fit a fresh model on the retained samples only (entangled + disjoint).

    Queries whose positives all fell into the forget set simply
    contribute no gradient steps.
    """
    return _fit(split.train, part.retained, cfg, require_positives=False)


# ---------------------------------------------------------------------------
# Serialization: "NUMR" magic, u32 version/vocab/dim header, then the two
# embedding tables as row-major little-endian float64: the stacked table.


def save_model(model: ScoreModel, path) -> None:
    """Write the model file; ``path`` is replaced only once it is complete."""
    header = MODEL_MAGIC + struct.pack("<III", MODEL_VERSION, model.vocab_size, model.dim)
    with atomic_write(path) as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.params, dtype="<f8").tobytes())


def load_model(path) -> ScoreModel:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != MODEL_MAGIC:
        raise DataError(f"{path}: not a model file (bad magic)")
    version, vocab_size, dim = struct.unpack("<III", blob[4:16])
    if version != MODEL_VERSION:
        raise DataError(f"{path}: unsupported model version {version}")
    expected = 16 + 2 * vocab_size * dim * 8
    if len(blob) != expected:
        raise DataError(f"{path}: truncated model file ({len(blob)} of {expected} bytes)")
    return ScoreModel(np.frombuffer(blob, dtype="<f8", offset=16).reshape(2 * vocab_size, dim))


def check_model_fits(model: ScoreModel, dataset: Dataset, path) -> None:
    """DataError unless every token of ``dataset`` has a row in each table
    and every parameter is finite.

    A query token past the query table would otherwise read a doc row of
    the stacked table instead of failing, and a NaN or infinite parameter
    would be scored, or edited by ssd, and reported as if it were a model.
    """
    if model.dim < 1:
        raise DataError(f"{path}: model has embedding dim {model.dim}")
    if model.vocab_size < dataset.vocab_size:
        raise DataError(f"{path}: model vocabulary of {model.vocab_size} tokens is smaller "
                        f"than the corpus vocabulary of {dataset.vocab_size}")
    if not np.isfinite(model.params).all():
        raise DataError(f"{path}: model has a NaN or infinite parameter")

