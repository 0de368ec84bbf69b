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
Targets are looked up among the pool entries' sorted keys
(``DatasetIndex.pool_columns``), so no step grows with the number of
docs outside the pools.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Dataset, Label, Sample
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


def _check_pool(dataset: Dataset, query_id: str) -> None:
    """DataError unless ``query_id`` is a query of ``dataset`` with a non-empty pool."""
    if query_id not in dataset.queries:
        raise DataError(f"unknown query id {query_id!r}")
    if not dataset.pools.get(query_id):
        raise DataError(f"query {query_id!r} has an empty pool")


def _mean_reciprocal(per_query_targets: dict[str, set[str]], pooled: Pooled) -> MrrResult:
    dataset = pooled.dataset
    index = dataset.index
    qids = sorted(per_query_targets)
    query_rows = np.array([index.query_row.get(qid, -1) for qid in qids], dtype=np.intp)
    bad = (query_rows < 0) | (index.pool_len[query_rows] == 0)
    if bad.any():
        _check_pool(dataset, qids[int(bad.argmax())])  # raises for the query
    # which pool entries are targets, found by looking each target up in its pool
    at_query, at_doc = [], []
    for i, qid in enumerate(qids):
        for did in per_query_targets[qid]:
            row = index.doc_row.get(did)
            if row is not None:
                at_query.append(i)
                at_doc.append(row)
    at_query = np.asarray(at_query, dtype=np.intp)
    cols = index.pool_columns(query_rows[at_query], np.asarray(at_doc, dtype=np.intp))
    hit = np.zeros((len(qids), index.pool_matrix.shape[1]), dtype=bool)
    hit[at_query[cols >= 0], cols[cols >= 0]] = True
    found = hit.any(axis=1)
    skipped = len(qids) - int(found.sum())
    if skipped == len(qids):
        return MrrResult(value=MRR_EMPTY, evaluated=0, skipped=skipped)
    query_rows, hit = query_rows[found], hit[found]
    scores = score_pools(pooled, query_rows)
    # NaN ranks after every number, as in a sort of the pool; softplus is never -inf,
    # so -inf does the same, and padding (-inf, id past every doc) is never ahead
    np.fmax(scores, -np.inf, out=scores)
    ids, pad = index.pool_ids[query_rows], len(index.doc_row)
    best = np.where(hit, scores, -np.inf).max(axis=1, keepdims=True)
    best_id = np.where(hit & (scores == best), ids, pad).min(axis=1, keepdims=True)
    ahead = (scores > best) | ((scores == best) & (ids < best_id))
    reciprocals = [1.0 / (1 + n) for n in ahead.sum(axis=1).tolist()]
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
    if not part.forget_queries:
        raise ConfigError("forget set contains no queries")
    dataset, spec, qids = pooled.dataset, part.spec, part.forget_queries
    if spec.kind is RemovalKind.DOCUMENT:
        targets = {q: spec.ids.intersection(dataset.pools.get(q, ())) for q in qids}
    else:
        targets = {q: set(dataset.index.positives.get(q, ())) for q in qids}
    return _mean_reciprocal(targets, pooled)


def mrr_set(pooled: Pooled, samples: list[Sample]) -> MrrResult:
    """Mean reciprocal rank of the first positive doc, per query, within `samples`,
    under the pooled model state.

    Relevance is restricted to the positive-labelled docs a query has in
    `samples`; the ranking is over the query's full pool. Queries with
    no positive in `samples` are skipped.
    """
    positives: dict[str, set[str]] = {}
    for s in samples:
        if s.label is Label.POSITIVE:
            positives.setdefault(s.query_id, set()).add(s.doc_id)
    queries_seen = {s.query_id for s in samples}
    skipped_no_positive = len(queries_seen - set(positives))
    if not positives:
        return MrrResult(value=MRR_EMPTY, evaluated=0, skipped=skipped_no_positive)
    result = _mean_reciprocal(positives, pooled)
    return replace(result, skipped=result.skipped + skipped_no_positive)


def normalized_forget_score(mrr_forget_unlearn: float, mrr_test_retrain: float) -> float:
    """1 - |forget MRR of the unlearned model - test MRR of the retrained model|."""
    return 1.0 - abs(mrr_forget_unlearn - mrr_test_retrain)


def timing_metrics(train_epoch_times: list[float], unlearn_epoch_times: list[float],
                   epochs_run: int) -> dict[str, float]:
    """Unlearn epoch duration relative to a training epoch, and the total cost."""
    if not train_epoch_times or not unlearn_epoch_times:
        raise ConfigError("timing metrics need at least one epoch time on each side")
    normalized = (sum(unlearn_epoch_times) / len(unlearn_epoch_times)) / \
        (sum(train_epoch_times) / len(train_epoch_times))
    return {
        "normalized_epoch_duration": normalized,
        "total_unlearn_time": normalized * epochs_run,
    }


def score_distribution(model_name: str, pooled: Pooled,
                       sets: list[tuple[str, list[Sample]]]) -> list[ScoreDistribution]:
    """Per sample set: min/max/mean and deciles of the pair scores of the
    pooled model state, named ``model_name``.

    The pairs of every set are scored in one ``sample_scores`` pass,
    bitwise the scores a ``PairStep`` of each pair gives.
    """
    every = sample_scores(pooled, [s for _, samples in sets for s in samples])
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
