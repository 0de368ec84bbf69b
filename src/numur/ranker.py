"""Differentiable relevance scorer with hand-written gradients.

The model keeps two embedding tables, one for query tokens and one for
document tokens. A pair's relevance score is

    score = softplus(mean(embed_q[query tokens]) . mean(embed_d[doc tokens]))

which is strictly positive, so the ratio-form discrepancy losses used
during unlearning always have positive denominators. Training minimises
a pairwise hinge over (positive, sampled pool negative) pairs with plain
SGD, one pair per step, in a seeded order so runs are bit-reproducible.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusSplit, Dataset, Label, Sample
from .errors import ConfigError, DataError

MODEL_MAGIC = b"NUMR"
MODEL_VERSION = 1


@dataclass
class ScoreModel:
    embed_q: np.ndarray  # (vocab_size, dim) float64
    embed_d: np.ndarray
    dim: int

    @property
    def vocab_size(self) -> int:
        return self.embed_q.shape[0]


class TeacherSnapshot(ScoreModel):
    """Frozen deep copy of a ScoreModel; the arrays are read-only."""


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


@dataclass
class GradientBuffer:
    """Gradients of both tables, and the token arrays whose rows they touch.

    A row may sit in several arrays; updates gather before they scatter,
    so a repeated row is written twice with the same value.
    """

    grad_q: np.ndarray
    grad_d: np.ndarray
    rows_q: list[np.ndarray] = field(default_factory=list)
    rows_d: list[np.ndarray] = field(default_factory=list)

    def zero(self) -> None:
        if self.rows_q:
            self.grad_q[np.concatenate(self.rows_q)] = 0.0
            self.rows_q.clear()
        if self.rows_d:
            self.grad_d[np.concatenate(self.rows_d)] = 0.0
            self.rows_d.clear()


@dataclass
class TrainResult:
    model: ScoreModel
    epoch_losses: list[float]
    epoch_mrr: list[float]
    epoch_times: list[float]
    touched: list[tuple[str, str]]


def init_model(vocab_size: int, dim: int, seed: int) -> ScoreModel:
    """Fresh model with entries uniform in [-0.1, 0.1]."""
    rng = np.random.default_rng(seed)
    return ScoreModel(
        embed_q=rng.uniform(-0.1, 0.1, size=(vocab_size, dim)),
        embed_d=rng.uniform(-0.1, 0.1, size=(vocab_size, dim)),
        dim=dim,
    )


def clone_model(model: ScoreModel) -> ScoreModel:
    return ScoreModel(embed_q=model.embed_q.copy(), embed_d=model.embed_d.copy(),
                      dim=model.dim)


def snapshot(model: ScoreModel) -> TeacherSnapshot:
    """Deep copy whose parameters cannot be mutated afterwards."""
    frozen = TeacherSnapshot(embed_q=model.embed_q.copy(), embed_d=model.embed_d.copy(),
                             dim=model.dim)
    frozen.embed_q.setflags(write=False)
    frozen.embed_d.setflags(write=False)
    return frozen


def new_buffer(model: ScoreModel) -> GradientBuffer:
    return GradientBuffer(grad_q=np.zeros_like(model.embed_q),
                          grad_d=np.zeros_like(model.embed_d))


def _softplus(z: float) -> float:
    return float(np.logaddexp(0.0, z))


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return float(e / (1.0 + e))


def _mean_rows(x: np.ndarray) -> np.ndarray:
    # The arithmetic of x.mean(axis=0), a sum over rows then one division,
    # without mean's Python-level bookkeeping: bitwise the same result.
    return np.add.reduce(x) / len(x)


class PairForward:
    """Pooled vectors, logit and score of one (query, doc) pair under one model.

    A loss pools each pair it touches once and reuses the result for its
    gradient; the parameters must not change in between.
    """

    __slots__ = ("qt", "dt", "u", "v", "z", "score")

    def __init__(self, model: ScoreModel, dataset: Dataset, query_id: str, doc_id: str,
                 same_query: "PairForward | None" = None):
        # same_query: a pass on another doc of this query under this model,
        # whose pooled query vector is reused
        if same_query is None:
            self.qt = dataset.query_tokens(query_id)
            self.u = _mean_rows(model.embed_q[self.qt])
        else:
            self.qt, self.u = same_query.qt, same_query.u
        self.dt = dataset.doc_tokens(doc_id)
        self.v = _mean_rows(model.embed_d[self.dt])
        self.z = float(self.u @ self.v)
        self.score = _softplus(self.z)

    def backward(self, upstream: float, buf: GradientBuffer) -> None:
        """Accumulate upstream * d(score)/d(params) into buf."""
        if upstream == 0.0:
            return
        g = _sigmoid(self.z) * upstream
        np.add.at(buf.grad_q, self.qt, g * self.v / len(self.qt))
        np.add.at(buf.grad_d, self.dt, g * self.u / len(self.dt))
        buf.rows_q.append(self.qt)
        buf.rows_d.append(self.dt)


# Docs pooled per gather in doc_vectors; keeps the (rows, tokens, dim)
# temporary near the size of the output block.
POOL_BLOCK_ROWS = 256


def doc_vectors(model: ScoreModel, dataset: Dataset) -> np.ndarray:
    """Mean-pooled vector of every doc, one row per ``dataset.index.doc_row``.

    Each block of equal-length docs is gathered as one (rows, tokens, dim)
    array and averaged over its token axis, which reduces every doc in the
    same order as ``embed_d[tokens].mean(axis=0)``: the rows are bitwise
    equal to pooling each doc on its own.
    """
    index = dataset.index
    out = np.empty((len(index.doc_row), model.dim))
    for rows, toks in index.groups:
        for start in range(0, len(rows), POOL_BLOCK_ROWS):
            block = slice(start, start + POOL_BLOCK_ROWS)
            out[rows[block]] = model.embed_d[toks[block]].mean(axis=1)
    return out


def forward(model: ScoreModel, dataset: Dataset, query_id: str, doc_id: str) -> float:
    """Relevance score of one pair; always > 0."""
    return PairForward(model, dataset, query_id, doc_id).score


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


def backward_score(model: ScoreModel, dataset: Dataset, query_id: str, doc_id: str,
                   upstream: float, buf: GradientBuffer) -> None:
    """Accumulate upstream * d(score)/d(params) into buf."""
    PairForward(model, dataset, query_id, doc_id).backward(upstream, buf)


def apply_gradients(model: ScoreModel, buf: GradientBuffer, lr: float) -> None:
    """SGD step: subtract lr * grad on the touched rows only."""
    if buf.rows_q:
        rows = np.concatenate(buf.rows_q)
        model.embed_q[rows] -= lr * buf.grad_q[rows]
    if buf.rows_d:
        rows = np.concatenate(buf.rows_d)
        model.embed_d[rows] -= lr * buf.grad_d[rows]


def hinge_loss_and_grad(model: ScoreModel, dataset: Dataset, query_id: str,
                        pos_id: str, neg_id: str, margin: float,
                        buf: GradientBuffer | None) -> float:
    """max(0, margin - f(q, pos) + f(q, neg)); gradient wrt params if buf given."""
    pos = PairForward(model, dataset, query_id, pos_id)
    neg = PairForward(model, dataset, query_id, neg_id, same_query=pos)
    loss = margin - pos.score + neg.score
    if loss <= 0.0:
        return 0.0
    if buf is not None:
        pos.backward(-1.0, buf)
        neg.backward(1.0, buf)
    return loss


def _positives_by_query(samples: list[Sample]) -> dict[str, list[str]]:
    out: dict[str, list[str]] = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            out.setdefault(s.query_id, []).append(s.doc_id)
    return out


def pool_negatives(dataset: Dataset, query_id: str, positive_ids: set[str]) -> list[str]:
    """Pool docs usable as hinge negatives: everything not positive for the query."""
    return [did for did in dataset.pools.get(query_id, ()) if did not in positive_ids]


HARD_NEGATIVES_PER_QUERY = 8


def pairwise_epoch(model: ScoreModel, dataset: Dataset, samples: list[Sample],
                   rng: np.random.Generator, lr: float, margin: float,
                   negatives_per_positive: int, buf: GradientBuffer,
                   touched: list[tuple[str, str]] | None = None) -> float:
    """One SGD epoch of pairwise hinge over the positives in `samples`.

    Negatives come from the query's pool, excluding docs positive for
    that query within `samples`: half of each positive's draws are
    uniform, half are mined from the pool docs the current model scores
    highest, so high-scoring irrelevant docs get corrected instead of
    lingering above rarely-sampled positives. Returns the mean hinge loss.
    """
    positives = _positives_by_query(samples)
    qids = sorted(positives)

    index = dataset.index
    dvec = doc_vectors(model, dataset)
    uniform: dict[str, list[str]] = {}
    hard: dict[str, list[str]] = {}
    for qid in qids:
        pos_set = set(positives[qid])
        negatives = pool_negatives(dataset, qid, pos_set)
        if not negatives:
            raise DataError(f"query {qid!r} has no pool negatives to train against")
        scores = score_pool(model, dataset, qid, dvec)
        is_neg = np.array([did not in pos_set for did in dataset.pools[qid]])
        ids = index.id_order[index.pool_rows[qid][is_neg]]
        top = np.lexsort((ids, -scores[is_neg]))[:HARD_NEGATIVES_PER_QUERY]
        uniform[qid] = negatives
        hard[qid] = [negatives[i] for i in top]

    order = rng.permutation(len(qids))
    total, steps = 0.0, 0
    for qi in order:
        qid = qids[int(qi)]
        negatives = uniform[qid]
        hard_negs = hard[qid]
        for pos_id in positives[qid]:
            if touched is not None:
                touched.append((qid, pos_id))
            for draw in range(negatives_per_positive):
                source = hard_negs if draw % 2 else negatives
                neg_id = source[int(rng.integers(len(source)))]
                buf.zero()
                total += hinge_loss_and_grad(model, dataset, qid, pos_id, neg_id,
                                             margin, buf)
                apply_gradients(model, buf, lr)
                steps += 1
    return total / steps if steps else 0.0


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
    buf = new_buffer(model)
    touched: list[tuple[str, str]] = []
    losses: list[float] = []
    mrrs: list[float] = []
    times: list[float] = []
    for _ in range(cfg.epochs):
        t0 = time.perf_counter()
        loss = pairwise_epoch(model, dataset, samples, rng, cfg.learning_rate,
                              cfg.margin, cfg.negatives_per_positive, buf,
                              touched if cfg.log_touched else None)
        times.append(time.perf_counter() - t0)
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
# embedding tables as row-major little-endian float64.


def save_model(model: ScoreModel, path) -> None:
    header = MODEL_MAGIC + struct.pack("<III", MODEL_VERSION, model.vocab_size, model.dim)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(model.embed_q, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(model.embed_d, dtype="<f8").tobytes())


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
    table = vocab_size * dim * 8
    embed_q = np.frombuffer(blob[16:16 + table], dtype="<f8").reshape(vocab_size, dim).copy()
    embed_d = np.frombuffer(blob[16 + table:], dtype="<f8").reshape(vocab_size, dim).copy()
    return ScoreModel(embed_q=embed_q, embed_d=embed_d, dim=dim)


def models_equal(a: ScoreModel, b: ScoreModel) -> bool:
    return (a.dim == b.dim and np.array_equal(a.embed_q, b.embed_q)
            and np.array_equal(a.embed_d, b.embed_d))
