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

from .corpus import CorpusSplit, Dataset, Label, Sample, atomic_write
from .errors import ConfigError, DataError, DivergedError

MODEL_MAGIC = b"NUMR"
MODEL_VERSION = 1


class ScoreModel:
    """Both embedding tables as one (2 * vocab_size, dim) float64 array.

    Rows ``[0, vocab_size)`` embed query tokens and rows
    ``[vocab_size, 2 * vocab_size)`` embed document tokens; ``embed_q``
    and ``embed_d`` are views of the two halves. One gather or scatter
    over the stacked table therefore covers every row an SGD step touches.
    """

    def __init__(self, params: np.ndarray):
        self.params = np.ascontiguousarray(params)  # so flat views share its memory
        self.embed_q, self.embed_d = np.split(self.params, 2)

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
    log_touched: bool = False

    def __post_init__(self) -> None:
        if self.learning_rate <= 0 or self.margin <= 0:
            raise ConfigError("learning_rate and margin must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be non-negative")
        if self.negatives_per_positive < 1 or self.dim < 1:
            raise ConfigError("negatives_per_positive and dim must be positive")


class GradientBuffer:
    """Gradient of the stacked parameter table, and what a backward pass does with it.

    With a learning rate ``lr``, every backward pass is one SGD step: its
    gradient is added here, subtracted (times ``lr``) from the rows it
    touched, and those rows are zeroed again, so the buffer is all zeros
    between steps. Without one, gradients accumulate and ``rows`` lists
    the stacked rows each pass touched, for the caller to read and zero.
    """

    def __init__(self, shape: tuple[int, int], lr: float | None = None):
        self.grad = np.zeros(shape)
        self.grad_q, self.grad_d = np.split(self.grad, 2)
        self.lr = lr
        self.rows: list[np.ndarray] = []
        self.cols = np.arange(shape[1])  # a row's offsets in the flattened table


@dataclass
class TrainResult:
    model: ScoreModel
    epoch_losses: list[float]
    epoch_mrr: list[float]
    epoch_times: list[float]
    touched: list[tuple[str, str]]


def init_model(vocab_size: int, dim: int, seed: int) -> ScoreModel:
    """Fresh model with entries uniform in [-0.1, 0.1], query table drawn first."""
    rng = np.random.default_rng(seed)
    return ScoreModel(rng.uniform(-0.1, 0.1, size=(2 * vocab_size, dim)))


def clone_model(model: ScoreModel) -> ScoreModel:
    return ScoreModel(model.params.copy())


def new_buffer(model: ScoreModel, lr: float | None = None) -> GradientBuffer:
    """A zeroed buffer for ``model``; with ``lr``, each backward pass is an SGD step."""
    return GradientBuffer(model.params.shape, lr)


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return float(e / (1.0 + e))


def _sigmoids(z: np.ndarray) -> np.ndarray:
    """``_sigmoid`` of each entry, bitwise."""
    e = np.exp(np.where(z >= 0, -z, z))  # NaN takes the second branch, as in _sigmoid
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _mean_rows(x: np.ndarray) -> np.ndarray:
    # The arithmetic of x.mean(axis=0), a sum over rows then one division,
    # without mean's Python-level bookkeeping: bitwise the same result.
    return np.add.reduce(x) / len(x)


class PairStep:
    """Scores of a few (query, doc) pairs under one model, and their gradient.

    Every parameter row the pairs touch is gathered with one ``take``
    from the stacked table, pair by pair: the query's token rows, then
    the doc's token rows offset by ``vocab_size``. Each pooled vector is
    the mean of its slice of that gather; a pair with the same query as
    the pair before it reuses that pair's query vector. The parameters
    must not change between the constructor and ``backward``.
    """

    __slots__ = ("params", "rows", "x", "terms", "scores")

    def __init__(self, model: ScoreModel, dataset: Dataset,
                 pairs: Sequence[tuple[str, str]]):
        offset = model.vocab_size
        segments = []
        for query_id, doc_id in pairs:
            segments += (dataset.query_tokens(query_id), dataset.doc_tokens(doc_id) + offset)
        self.params = model.params
        self.rows = np.concatenate(segments)
        self.x = x = self.params.take(self.rows, axis=0)
        self.terms = []  # (start, mid, end, u, v, z) per pair
        end, last_query, u = 0, None, None
        for i, (query_id, _) in enumerate(pairs):
            start = end
            mid = start + len(segments[2 * i])
            end = mid + len(segments[2 * i + 1])
            if query_id != last_query:
                u, last_query = _mean_rows(x[start:mid]), query_id
            v = _mean_rows(x[mid:end])
            self.terms.append((start, mid, end, u, v, float(u @ v)))
        # softplus, elementwise: the same values as one logaddexp call per pair
        self.scores = np.logaddexp(0.0, [term[5] for term in self.terms]).tolist()

    def backward(self, upstream: list[float], buf: GradientBuffer) -> None:
        """Add each ``upstream[i] * d(score_i)/d(params)`` into ``buf``.

        The rows of the pairs with a nonzero upstream are accumulated with
        one ``np.add.at`` in pair order, each pair's query rows before its
        doc rows. With ``buf.lr`` set, the step is then applied to those
        rows and they are zeroed; otherwise they are appended to ``buf.rows``.
        """
        active = [(term, up) for term, up in zip(self.terms, upstream) if up != 0.0]
        if not active:
            return
        rows, x = self.rows, self.x
        if len(active) < len(self.terms):
            rows = np.concatenate([rows[term[0]:term[2]] for term, _ in active])
            x = None
        vectors, scales, counts = [], [], []
        for (start, mid, end, u, v, z), up in active:
            g = _sigmoid(z) * up
            vectors += (v, u)
            scales += ((g, mid - start), (g, end - mid))
            counts += (mid - start, end - mid)
        # (g * vector) / length, the arithmetic of one backward pass per pair
        grads = np.array(vectors)
        scales = np.array(scales)
        grads *= scales[:, :1]
        grads /= scales[:, 1:]
        # one index per parameter, row by row: np.add.at is fastest on a flat array
        index = (rows[:, None] * len(buf.cols) + buf.cols).ravel()
        grad = buf.grad.reshape(-1)
        np.add.at(grad, index, grads.repeat(counts, axis=0).ravel())
        if buf.lr is None:
            buf.rows.append(rows)
            return
        # a row listed twice is gathered before the scatter, so it steps once
        stepped = (self.params.take(rows, axis=0) if x is None else x).ravel()
        stepped -= buf.lr * grad[index]
        self.params.reshape(-1)[index] = stepped
        grad[index] = 0.0


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
    """Mean-pooled vector of every doc, one row per ``dataset.index.doc_row``;
    bitwise each doc pooled on its own."""
    index = dataset.index
    return _pooled(model.embed_d, index.groups, len(index.doc_row))


def split_doc_vectors(model: ScoreModel, split: CorpusSplit) -> tuple[np.ndarray, np.ndarray]:
    """``doc_vectors`` of the train split and of the test split. A test split
    loaded with ``docs_from`` indexes the train split's doc rows, so the
    docs are pooled once for both."""
    train = doc_vectors(model, split.train)
    if split.test.index.doc_row is split.train.index.doc_row:
        return train, train
    return train, doc_vectors(model, split.test)


def query_vectors(model: ScoreModel, dataset: Dataset) -> np.ndarray:
    """Mean-pooled vector of every query, one row per ``dataset.index.query_row``;
    pooled as ``doc_vectors`` pools docs, so bitwise each query pooled alone."""
    index = dataset.index
    return _pooled(model.embed_q, index.query_groups, len(index.query_row))


def forward(model: ScoreModel, dataset: Dataset, query_id: str, doc_id: str) -> float:
    """Relevance score of one pair; always > 0."""
    return PairStep(model, dataset, ((query_id, doc_id),)).scores[0]


def score_pool(model: ScoreModel, dataset: Dataset, query_id: str,
               dvec: np.ndarray | None = None) -> np.ndarray:
    """Scores for every doc in the query's pool, in pool order.

    ``dvec`` is ``doc_vectors(model, dataset)``; callers scoring many
    pools under one model pass it in so the docs are pooled once.
    """
    rows = dataset.index.pool_rows.get(query_id)
    if rows is None or not len(rows):
        raise DataError(f"query {query_id!r} has no pool")
    u = _mean_rows(model.embed_q[dataset.query_tokens(query_id)])
    if dvec is None:
        dvec = doc_vectors(model, dataset)
    return np.logaddexp(0.0, dvec[rows] @ u)


def score_pools(model: ScoreModel, dataset: Dataset, query_rows: np.ndarray,
                dvec: np.ndarray | None = None) -> np.ndarray:
    """``score_pool`` of many queries: row i scores the pool of query row
    ``query_rows[i]`` in pool order, padded with -inf past its end;
    ``dvec`` is as for ``score_pool``.

    Pools of one length are scored with one ``np.matmul`` over a
    (queries, length, dim) gather of the doc vectors, which runs the same
    matrix-vector product per pool as ``score_pool`` and so gives the same
    bits. A gather padded to the longest pool would not: BLAS sums a row
    in an order that depends on the height of the matrix.
    """
    index = dataset.index
    if dvec is None:
        dvec = doc_vectors(model, dataset)
    qvec = query_vectors(model, dataset)[query_rows]
    lengths = index.pool_len[query_rows]
    out = np.full((len(query_rows), index.pool_matrix.shape[1]), -np.inf)
    # the queries grouped by pool length with one stable sort
    order = np.argsort(lengths, kind="stable")
    starts = np.flatnonzero(np.diff(lengths[order])) + 1
    for at in np.split(order, starts) if len(order) else ():
        length = int(lengths[at[0]])
        docs = dvec.take(index.pool_matrix[query_rows[at], :length], axis=0)
        out[at, :length] = np.logaddexp(0.0, np.matmul(docs, qvec[at, :, None])[:, :, 0])
    return out


def pair_scores(qvec: np.ndarray, dvec: np.ndarray, query_rows,
                doc_rows) -> tuple[np.ndarray, np.ndarray]:
    """The logit ``u . v`` and the score ``softplus(u . v)`` of each pair of
    a ``query_vectors`` row and a ``doc_vectors`` row.

    One ``np.matmul`` of (pairs, 1, dim) by (pairs, dim, 1) runs one dot
    product per pair, the one ``float(u @ v)`` runs, so each score is
    bitwise the score ``forward`` gives.
    """
    logits = np.matmul(qvec[query_rows][:, None, :], dvec[doc_rows][:, :, None])[:, 0, 0]
    return logits, np.logaddexp(0.0, logits)


def sample_scores(model: ScoreModel, dataset: Dataset, samples: Sequence[Sample],
                  dvec: np.ndarray | None = None) -> list[float]:
    """``forward`` of every sample, with each doc and each query pooled once
    (``pair_scores``); ``dvec`` is as for ``score_pool``."""
    index = dataset.index
    try:
        rows = [(index.query_row[s.query_id], index.doc_row[s.doc_id]) for s in samples]
    except KeyError as exc:
        raise DataError(f"sample references unknown id {exc.args[0]!r}") from None
    rows = np.array(rows, dtype=np.intp).reshape(-1, 2)
    if dvec is None:
        dvec = doc_vectors(model, dataset)
    return pair_scores(query_vectors(model, dataset), dvec, rows[:, 0], rows[:, 1])[1].tolist()


def hinge_loss_and_grad(model: ScoreModel, dataset: Dataset, query_id: str,
                        pos_id: str, neg_id: str, margin: float,
                        buf: GradientBuffer | None) -> float:
    """max(0, margin - f(q, pos) + f(q, neg)); its gradient goes to buf if given."""
    step = PairStep(model, dataset, ((query_id, pos_id), (query_id, neg_id)))
    pos_score, neg_score = step.scores
    loss = margin - pos_score + neg_score
    if loss <= 0.0:
        return 0.0
    if buf is not None:
        step.backward([-1.0, 1.0], buf)
    return loss


def _positives_by_query(samples: list[Sample]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            out.setdefault(s.query_id, []).append(s.doc_id)
    return out


def hinge_negatives(dataset: Dataset, samples: list[Sample]) -> dict[str, list[str]]:
    """Hinge negatives of every query with a positive in ``samples``: its
    pool docs, in pool order, that ``samples`` does not mark positive for it."""
    out = {}
    for qid, pos in _positives_by_query(samples).items():
        pos_set = set(pos)
        out[qid] = [did for did in dataset.pools.get(qid, ()) if did not in pos_set]
    return out


class HingeDraws:
    """Hinge draws served one positive at a time, each bitwise one
    ``hinge_loss_and_grad`` call, in draw order.

    A draw whose hinge is not positive leaves the parameters as they
    are, so the draws after it can be scored under the same parameters.
    After such an inactive draw, every remaining draw of the positive is
    scored in one ``PairStep``; after an active draw (a NaN loss counts
    as active), only the next one is, which is ``hinge_loss_and_grad``'s
    two-pair step. An active draw steps through ``backward`` with a zero
    upstream on the other pairs. The window carries over from one
    positive to the next, so a run whose draws are all active makes the
    steps of the per-draw loop and no more.

    ``total`` sums the losses in draw order, inactive draws as 0.0;
    ``draws`` counts the draws.
    """

    def __init__(self, model: ScoreModel, dataset: Dataset, margin: float,
                 buf: GradientBuffer):
        self.model, self.dataset, self.margin, self.buf = model, dataset, margin, buf
        self.wide = False  # the last draw was inactive
        self.total, self.draws = 0.0, 0

    def draw(self, rng: np.random.Generator, query_id: str, pos_id: str,
             sources: Sequence[Sequence[str]], n: int) -> None:
        """``n`` draws against ``pos_id``, draw d a uniform pick from
        ``sources[d % len(sources)]``, all taken from ``rng`` up front."""
        pairs = []
        for d in range(n):
            source = sources[d % len(sources)]
            pairs.append((query_id, source[int(rng.integers(len(source)))]))
        self._serve((query_id, pos_id), pairs)

    def run(self, query_id: str, pos_id: str, neg_ids: Sequence[str]) -> None:
        """One draw of ``(pos_id, neg)`` for each of ``neg_ids`` in order."""
        self._serve((query_id, pos_id), [(query_id, neg) for neg in neg_ids])

    def _serve(self, pos_pair: tuple[str, str], pairs: list[tuple[str, str]]) -> None:
        if not pairs:
            return
        self.draws += len(pairs)
        model, dataset, margin, buf = self.model, self.dataset, self.margin, self.buf
        at, n = 0, len(pairs)
        while at < n:
            if not self.wide:  # hinge_loss_and_grad's step
                step = PairStep(model, dataset, (pos_pair, pairs[at]))
                pos_score, neg_score = step.scores
                loss = margin - pos_score + neg_score
                at += 1
                if loss <= 0.0:
                    self.wide = True
                else:
                    step.backward([-1.0, 1.0], buf)
                    self.total += loss
                continue
            step = PairStep(model, dataset, [pos_pair, *pairs[at:]])
            scores = step.scores
            for k in range(1, len(scores)):
                loss = margin - scores[0] + scores[k]
                at += 1
                if loss <= 0.0:
                    continue
                upstream = [0.0] * len(scores)
                upstream[0], upstream[k] = -1.0, 1.0
                step.backward(upstream, buf)
                self.total += loss
                self.wide = False
                break  # the parameters moved: score the rest again


# Positives per block of hinge_grad_squares. A block's largest temporary
# holds four vectors per active draw: 64 KB at dim 16 and 4 draws each.
GRAD_BLOCK = 32


def hinge_grad_squares(model: ScoreModel, dataset: Dataset, qvec: np.ndarray,
                       dvec: np.ndarray, query_rows: np.ndarray, pos_rows: np.ndarray,
                       neg_rows: np.ndarray, margin: float, sq: np.ndarray) -> None:
    """For each positive, in order, add ``(grad / n) ** 2`` into ``sq`` on the
    stacked rows its draws touch, where ``grad`` is the hinge gradient of its
    n draws: the doc rows ``neg_rows[i]`` against ``pos_rows[i]`` for the
    query row ``query_rows[i]``.

    Bitwise the per-draw loop under parameters that never move: one
    ``hinge_loss_and_grad`` call per draw into a buffer without a learning
    rate, then ``sq[rows] += (grad[rows] / n) ** 2`` over the rows touched
    and those rows zeroed, once per positive. A draw is active unless its
    loss is ``<= 0.0``, so a NaN loss is active. Each active draw adds, as
    ``PairStep.backward`` does: the query rows ``v_pos * g_pos / lq``, the
    positive's rows ``u * g_pos / lp``, the query rows ``v_neg * g_neg / lq``
    and the negative's rows ``u * g_neg / ln``. Each (positive, row)
    gradient is summed in that order from 0.0 by ``np.bincount``, and
    ``np.add.at`` adds the squares into ``sq`` in positive order.
    Positives go ``GRAD_BLOCK`` at a time. ``qvec`` and ``dvec`` are
    ``query_vectors`` and ``doc_vectors`` of ``model``.
    """
    n, draws = neg_rows.shape
    dim, stacked = model.dim, 2 * model.vocab_size
    # token rows of the stacked table: query row r is entry r, doc row r entry n_q + r
    qtok, dtok = dataset.token_rows()
    n_q = len(qtok.starts) - 1
    flat = np.concatenate((qtok.flat, dtok.flat + model.vocab_size))
    starts = np.concatenate((qtok.starts[:-1], dtok.starts + len(qtok.flat)))
    lengths = np.diff(starts)
    for at in range(0, n, GRAD_BLOCK):
        q, p, negs = query_rows[at:at + GRAD_BLOCK], pos_rows[at:at + GRAD_BLOCK], \
            neg_rows[at:at + GRAD_BLOCK]
        logits, scores = pair_scores(qvec, dvec, np.concatenate((q, q.repeat(draws))),
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
        u, v_pos, v_neg = qvec[q[s]], dvec[p[s]], dvec[negs[s, k]]
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


def pairwise_epoch(model: ScoreModel, dataset: Dataset, samples: list[Sample],
                   rng: np.random.Generator, lr: float, margin: float,
                   negatives_per_positive: int,
                   touched: list[tuple[str, str]] | None = None) -> float:
    """One SGD epoch of pairwise hinge over the positives in `samples`.

    Negatives come from the query's pool, excluding docs positive for
    that query within `samples`: half of each positive's draws are
    uniform, half are mined from the pool docs the current model scores
    highest, so high-scoring irrelevant docs get corrected instead of
    lingering above rarely-sampled positives. Returns the mean hinge loss.
    """
    positives = _positives_by_query(samples)
    negatives = hinge_negatives(dataset, samples)
    qids = sorted(positives)

    index = dataset.index
    dvec = doc_vectors(model, dataset)
    sources: dict[str, tuple[list[str], list[str]]] = {}  # uniform, hard
    for qid in qids:
        uniform = negatives[qid]
        if not uniform:
            raise DataError(f"query {qid!r} has no pool negatives to train against")
        scores = score_pool(model, dataset, qid, dvec)
        pos_set = set(positives[qid])
        is_neg = np.array([did not in pos_set for did in dataset.pools[qid]])
        ids = index.id_order[index.pool_rows[qid][is_neg]]
        top = np.lexsort((ids, -scores[is_neg]))[:HARD_NEGATIVES_PER_QUERY]
        sources[qid] = (uniform, [uniform[i] for i in top])

    draws = HingeDraws(model, dataset, margin, new_buffer(model, lr))
    for qi in rng.permutation(len(qids)):
        qid = qids[int(qi)]
        for pos_id in positives[qid]:
            if touched is not None:
                touched.append((qid, pos_id))
            draws.draw(rng, qid, pos_id, sources[qid], negatives_per_positive)
    return draws.total / draws.draws if draws.draws else 0.0


def _fit(dataset: Dataset, samples: list[Sample], cfg: TrainConfig,
         require_positives: bool) -> TrainResult:
    from .evaluation import mrr_set  # local import: evaluation depends on this module

    if require_positives:
        positives = _positives_by_query(samples)
        for s in samples:
            if s.query_id not in positives:
                raise DataError(f"query {s.query_id!r} has samples but no positive")

    model = init_model(dataset.vocab_size, cfg.dim, cfg.seed)
    rng = np.random.default_rng(cfg.seed)
    touched: list[tuple[str, str]] = []
    losses: list[float] = []
    mrrs: list[float] = []
    times: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        t0 = time.perf_counter()
        loss = pairwise_epoch(model, dataset, samples, rng, cfg.learning_rate,
                              cfg.margin, cfg.negatives_per_positive,
                              touched if cfg.log_touched else None)
        times.append(time.perf_counter() - t0)
        model.check_finite(f"training epoch {epoch}")
        losses.append(loss)
        mrrs.append(mrr_set(model, dataset, samples).value)
    return TrainResult(model=model, epoch_losses=losses, epoch_mrr=mrrs,
                       epoch_times=times, touched=touched)


def train(split: CorpusSplit, cfg: TrainConfig) -> TrainResult:
    """Fit a fresh model on the full training set."""
    return _fit(split.train, split.train.samples, cfg, require_positives=True)


def retrain(split: CorpusSplit, cfg: TrainConfig, part) -> TrainResult:
    """Fit a fresh model on the retained samples only (entangled + disjoint).

    Queries whose positives all fell into the forget set simply
    contribute no gradient steps.
    """
    retained = [s for s in split.train.samples if not part.is_forgotten(s)]
    return _fit(split.train, retained, cfg, require_positives=False)


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
    params = np.frombuffer(blob, dtype="<f8", offset=16).reshape(2 * vocab_size, dim)
    return ScoreModel(params.astype(np.float64))


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

