"""Ranking evaluation: reciprocal-rank metrics, timings, score summaries.

Reciprocal ranks are computed against each query's full candidate pool,
sorted by descending score with ties broken by ascending doc id. Under
query removal the target is the first relevant (positive) document;
under document removal it is the first document named for removal,
whatever its label. Queries whose target never appears in their pool
are excluded from the mean and counted separately.

An MRR call ranks all of its queries in one batched pass over the
vectors of one model state, pooled once by its caller (``ranker.pool``)
and shared by every MRR and score summary of that state. It scores
every pool with one matrix product per pool length (``score_pools``),
and then finds each query's best-placed target with whole-matrix
operations: the target with the highest score, ties to the smaller doc
id, NaN after every number. Its rank is 1 plus the number of pool
entries placed before it, which is the rank sorting the pool gives. The
reciprocal ranks are summed in query-id order, so the mean is the same
float as a per-query loop's.
Sample targets are looked up among the pool entries' sorted keys
(``Dataset.pool_columns``), so no step grows with the number of docs
outside the pools.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DataError
from .partition import Partition, RemovalKind
from .ranker import Pooled, sample_scores, score_pools

MRR_EMPTY = 0.0


@dataclass(frozen=True)
class MrrResult:
    value: float
    evaluated: int
    skipped: int


@dataclass(frozen=True)
class ScoreDistribution:
    model_name: str
    set_name: str
    count: int
    min: float
    max: float
    mean: float
    deciles: tuple[float, ...]  # 10th through 90th percentile


def _queries(pooled: Pooled, query_rows: np.ndarray) -> np.ndarray:
    """The distinct ``query_rows``, ascending; DataError for the first by id with an empty pool."""
    queries, items = np.unique(query_rows), pooled.dataset.queries
    empty = queries[pooled.dataset.pool_len[queries] == 0]
    if len(empty):
        query_id = items.ids[empty[items.id_order[empty].argmin()]]
        raise DataError(f"query {query_id!r} has an empty pool")
    return queries


def _sample_hits(pooled: Pooled, queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Row i marks the columns of the pool of ``queries[i]`` holding a sample of ``targets``."""
    dataset = pooled.dataset
    query, doc = dataset.sample_query[targets], dataset.sample_doc[targets]
    cols = dataset.pool_columns(query, doc)
    hit = np.zeros((len(queries), dataset.pool_matrix.shape[1]), dtype=bool)
    hit[np.searchsorted(queries, query[cols >= 0]), cols[cols >= 0]] = True
    return hit


def _mean_reciprocal(pooled: Pooled, queries: np.ndarray, hit: np.ndarray) -> MrrResult:
    dataset = pooled.dataset
    found = hit.any(axis=1)
    skipped = len(queries) - int(found.sum())
    if skipped == len(queries):
        return MrrResult(value=MRR_EMPTY, evaluated=0, skipped=skipped)
    query_rows, hit = queries[found], hit[found]
    scores = score_pools(pooled, query_rows)
    # NaN ranks after every number, as in a sort of the pool; softplus is never -inf,
    # so -inf does the same, and padding (-inf, id past every doc) is never ahead
    np.fmax(scores, -np.inf, out=scores)
    ids, pad = dataset.pool_ids[query_rows], len(dataset.docs.ids)
    best = np.where(hit, scores, -np.inf).max(axis=1, keepdims=True)
    best_id = np.where(hit & (scores == best), ids, pad).min(axis=1, keepdims=True)
    ahead = (scores > best) | ((scores == best) & (ids < best_id))
    by_id = np.argsort(dataset.queries.id_order[query_rows])
    reciprocals = [1.0 / (1 + n) for n in ahead.sum(axis=1)[by_id].tolist()]
    return MrrResult(value=sum(reciprocals) / len(reciprocals),
                     evaluated=len(reciprocals), skipped=skipped)


def mrr_forget(pooled: Pooled, part: Partition) -> MrrResult:
    """Mean reciprocal rank over the distinct queries of the forget set,
    under the pooled model state of the dataset ``part`` splits.

    Query removal targets the first positive document of the query;
    document removal targets the first document named for removal
    (``part.spec``). Each reciprocal rank is that of the pool sorted by
    ``rank`` in ``tests/scoring_reference.py``.
    """
    if not len(part.forget):
        raise ConfigError("forget set contains no queries")
    dataset = pooled.dataset
    queries = _queries(pooled, dataset.sample_query[part.forget])
    if part.spec.kind is RemovalKind.DOCUMENT:
        hit = np.isin(dataset.pool_matrix[queries], part.named)
    else:
        positives = dataset.positive & np.isin(dataset.sample_query, queries)
        hit = _sample_hits(pooled, queries, np.flatnonzero(positives))
    return _mean_reciprocal(pooled, queries, hit)


def mrr_set(pooled: Pooled, samples: np.ndarray) -> MrrResult:
    """Mean reciprocal rank of the first positive doc, per query, within the
    samples at positions ``samples``, under the pooled model state.

    Relevance is restricted to the positive-labelled docs a query has in
    `samples`; the ranking is over the query's full pool. Queries with
    no positive in `samples` are skipped.
    """
    dataset = pooled.dataset
    positives = samples[dataset.positive[samples]]
    queries = _queries(pooled, dataset.sample_query[positives])
    skipped_no_positive = len(np.unique(dataset.sample_query[samples])) - len(queries)
    result = _mean_reciprocal(pooled, queries, _sample_hits(pooled, queries, positives))
    return replace(result, skipped=result.skipped + skipped_no_positive)


def normalized_forget_score(mrr_forget_unlearn: float, mrr_test_retrain: float) -> float:
    """1 - |forget MRR of the unlearned model - test MRR of the retrained model|."""
    return 1.0 - abs(mrr_forget_unlearn - mrr_test_retrain)


def timing_metrics(train_epoch_times: list[float],
                   unlearn_epoch_times: list[float]) -> dict[str, float]:
    """Unlearn epoch duration relative to a training epoch, and the total cost."""
    if not train_epoch_times or not unlearn_epoch_times:
        raise ConfigError("timing metrics need at least one epoch time on each side")
    normalized = (sum(unlearn_epoch_times) / len(unlearn_epoch_times)) / \
        (sum(train_epoch_times) / len(train_epoch_times))
    return {
        "normalized_epoch_duration": normalized,
        "total_unlearn_time": normalized * len(unlearn_epoch_times),
    }


def score_distribution(model_name: str, pooled: Pooled,
                       sets: list[tuple[str, np.ndarray]]) -> list[ScoreDistribution]:
    """Per sample set, given as positions: min/max/mean and deciles of the
    pair scores of the pooled model state, named ``model_name``.

    The pairs of every set are scored in one ``sample_scores`` pass,
    bitwise the scores a ``PairStep`` of each pair gives.
    """
    every = sample_scores(pooled, np.concatenate([samples for _, samples in sets]))
    out: list[ScoreDistribution] = []
    end = 0
    for set_name, samples in sets:
        start, end = end, end + len(samples)
        scores = np.array(every[start:end])
        if scores.size == 0:
            out.append(ScoreDistribution(model_name, set_name, 0, 0.0, 0.0, 0.0,
                                         tuple(0.0 for _ in range(9))))
            continue
        deciles = np.percentile(scores, np.arange(10, 100, 10))
        out.append(ScoreDistribution(
            model_name=model_name, set_name=set_name, count=int(scores.size),
            min=float(scores.min()), max=float(scores.max()),
            mean=float(scores.mean()), deciles=tuple(float(x) for x in deciles)))
    return out
