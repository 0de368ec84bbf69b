"""The per-pair and per-query scoring entries that ``numur`` replaced with
batched passes, kept as the references the runtime paths are compared
against.

``forward`` scores one pair and ``hinge_loss_and_grad`` takes one hinge
draw, each with its own ``PairStep``, and map their ids to rows
themselves; ``score_pool`` scores one query's pool and ``rank`` sorts
it. ``query_tokens`` and ``doc_tokens`` are one item's token row, and
``pool_rows`` one query's pool as doc rows. ``Accumulate`` is a stepper
that sums gradients instead of stepping, for the tests that read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from numur.corpus import Dataset
from numur.errors import DataError
from numur.ranker import PairStep, ScoreModel, Sgd, doc_vectors


def _row(row_of: dict[str, int], kind: str, ident: str) -> int:
    row = row_of.get(ident)
    if row is None:
        raise DataError(f"unknown {kind} id {ident!r}")
    return row


def _query_row(dataset: Dataset, query_id: str) -> int:
    return _row(dataset.queries.row, "query", query_id)


def _doc_row(dataset: Dataset, doc_id: str) -> int:
    return _row(dataset.docs.row, "doc", doc_id)


def _check_pool(dataset: Dataset, query_id: str) -> None:
    """DataError unless ``query_id`` is a query of ``dataset`` with a non-empty pool."""
    if query_id not in dataset.queries.row:
        raise DataError(f"unknown query id {query_id!r}")
    if not dataset.pools.get(query_id):
        raise DataError(f"query {query_id!r} has an empty pool")


def _token_row(items, row: int) -> np.ndarray:
    return items.flat[items.starts[row]:items.starts[row + 1]]


def query_tokens(dataset: Dataset, query_id: str) -> np.ndarray:
    """The query's tokens, a view of the dataset's query token table."""
    return _token_row(dataset.queries, _query_row(dataset, query_id))


def doc_tokens(dataset: Dataset, doc_id: str) -> np.ndarray:
    """The doc's tokens, a view of the dataset's doc token table."""
    return _token_row(dataset.docs, _doc_row(dataset, doc_id))


def pool_rows(dataset: Dataset, query_id: str) -> np.ndarray:
    """The doc rows of the query's pool, in pool order, mapped id by id."""
    return np.array([dataset.docs.row[did] for did in dataset.pools[query_id]],
                    dtype=np.intp)


class Accumulate(Sgd):
    """An ``Sgd`` whose ``apply`` adds a step's gradient into ``grad``, of
    the model's shape, with the one ``np.add.at`` of ``Sgd.apply``, and
    appends the stacked rows it touched to ``rows``; the parameters never
    move, and the caller reads and zeroes ``grad``."""

    def __init__(self, model: ScoreModel, dataset: Dataset):
        super().__init__(model, dataset, float("nan"))
        self.grad = np.zeros(model.params.shape)
        self.rows: list[np.ndarray] = []

    def apply(self, step: PairStep, upstream) -> None:
        grad = step.gradient(upstream)
        if grad is None:
            return
        index, terms = grad
        np.add.at(self.grad.reshape(-1), index, terms)
        dim = self.shape[1]
        self.rows.append(index[::dim] // dim)


def forward(model: ScoreModel, dataset: Dataset, query_id: str, doc_id: str) -> float:
    """Relevance score of one pair; always > 0."""
    pair = (_query_row(dataset, query_id), _doc_row(dataset, doc_id))
    return PairStep(Accumulate(model, dataset), (pair,)).scores[0]


def score_pool(model: ScoreModel, dataset: Dataset, query_id: str) -> np.ndarray:
    """Scores for every doc in the query's pool, in pool order."""
    if not dataset.pools.get(query_id):
        raise DataError(f"query {query_id!r} has no pool")
    rows = pool_rows(dataset, query_id)
    tokens = model.embed_q[query_tokens(dataset, query_id)]
    u = np.add.reduce(tokens) / len(tokens)  # the arithmetic of mean(axis=0), bitwise
    return np.logaddexp(0.0, doc_vectors(model, dataset)[rows] @ u)


def hinge_loss_and_grad(sgd: Sgd, query_id: str, pos_id: str, neg_id: str,
                        margin: float) -> float:
    """max(0, margin - f(q, pos) + f(q, neg)) under ``sgd``'s model, which
    ``sgd`` steps along its gradient while the hinge is open."""
    dataset, query = sgd.dataset, _query_row(sgd.dataset, query_id)
    step = PairStep(sgd, ((query, _doc_row(dataset, pos_id)),
                          (query, _doc_row(dataset, neg_id))))
    pos_score, neg_score = step.scores
    loss = margin - pos_score + neg_score
    if loss <= 0.0:
        return 0.0
    sgd.apply(step, [-1.0, 1.0])
    return loss


@dataclass(frozen=True)
class RankedList:
    query_id: str
    doc_ids: tuple[str, ...]


def rank(model: ScoreModel, dataset: Dataset, query_id: str) -> RankedList:
    """The query's pool sorted by descending score, ties by ascending doc id."""
    _check_pool(dataset, query_id)
    rows = pool_rows(dataset, query_id)
    scores = score_pool(model, dataset, query_id)
    order = np.lexsort((dataset.docs.id_order[rows], -scores))
    pool = dataset.pools[query_id]
    return RankedList(query_id=query_id, doc_ids=tuple(pool[i] for i in order))
