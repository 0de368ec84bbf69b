"""Ranking evaluation: reciprocal-rank metrics, timings, score summaries.

Reciprocal ranks are computed against each query's full candidate pool,
sorted by descending score with ties broken by ascending doc id. Under
query removal the target is the first relevant (positive) document;
under document removal it is the first document named for removal,
whatever its label. Queries whose target never appears in their pool
are excluded from the mean and counted separately.

An MRR pass pools every doc once (``doc_vectors``) and finds each
target's position by counting the pool entries placed before it, which
gives the same rank as sorting the pool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Dataset, Label, Sample
from .errors import ConfigError, DataError
from .partition import ForgetSpec, Partition, RemovalKind
from .ranker import ScoreModel, doc_vectors, score_pool

MRR_EMPTY = 0.0


@dataclass(frozen=True)
class RankedList:
    query_id: str
    doc_ids: tuple[str, ...]


@dataclass(frozen=True)
class MrrResult:
    value: float
    evaluated: int
    skipped: int

    def __float__(self) -> float:
        return self.value


@dataclass
class MetricsReport:
    mrr_forget: float
    mrr_entangled: float
    mrr_disjoint: float
    mrr_test: float
    normalized_forget: float | None = None
    normalized_epoch_duration: float | None = None
    total_unlearn_time: float | None = None
    epochs_run: int = 0
    stopped_early: bool = False
    edited_params: int = 0
    skipped_forget_queries: int = 0


@dataclass(frozen=True)
class ScoreDistribution:
    model_name: str
    set_name: str
    count: int
    min: float
    max: float
    mean: float
    deciles: tuple[float, ...]  # 10th through 90th percentile


def _pool_rows(dataset: Dataset, query_id: str) -> np.ndarray:
    if query_id not in dataset.queries:
        raise DataError(f"unknown query id {query_id!r}")
    if not dataset.pools.get(query_id):
        raise DataError(f"query {query_id!r} has an empty pool")
    return dataset.index.pool_rows[query_id]


def rank(model: ScoreModel, dataset: Dataset, query_id: str) -> RankedList:
    """The query's pool sorted by descending score, ties by ascending doc id."""
    rows = _pool_rows(dataset, query_id)
    scores = score_pool(model, dataset, query_id)
    order = np.lexsort((dataset.index.id_order[rows], -scores))
    pool = dataset.pools[query_id]
    return RankedList(query_id=query_id, doc_ids=tuple(pool[i] for i in order))


def _first_rank(scores: np.ndarray, ids: np.ndarray, hit: np.ndarray) -> int:
    """1-based rank of the best-placed hit, by descending score then ascending id.

    A hit's rank is one plus the number of entries with a higher score
    or an equal score and a smaller id; the first rank is the smallest.
    A NaN score ranks after every number, as in ``rank``'s sort; -inf
    does the same here because softplus scores are never below 0.
    """
    scores = np.where(np.isnan(scores), -np.inf, scores)
    s, i = scores[hit][:, None], ids[hit][:, None]
    ahead = (scores > s) | ((scores == s) & (ids < i))
    return 1 + int(ahead.sum(axis=1).min())


def _mean_reciprocal(per_query_targets: dict[str, set[str]], model: ScoreModel,
                     dataset: Dataset) -> MrrResult:
    index = dataset.index
    dvec = doc_vectors(model, dataset)
    reciprocals: list[float] = []
    skipped = 0
    for qid in sorted(per_query_targets):
        rows = _pool_rows(dataset, qid)
        targets = [index.doc_row.get(did, -1) for did in per_query_targets[qid]]
        hit = (rows[:, None] == np.asarray(targets, dtype=np.intp)).any(axis=1)
        if not hit.any():
            skipped += 1
            continue
        scores = score_pool(model, dataset, qid, dvec)
        reciprocals.append(1.0 / _first_rank(scores, index.id_order[rows], hit))
    if not reciprocals:
        return MrrResult(value=MRR_EMPTY, evaluated=0, skipped=skipped)
    return MrrResult(value=sum(reciprocals) / len(reciprocals),
                     evaluated=len(reciprocals), skipped=skipped)


def mrr_forget(model: ScoreModel, dataset: Dataset, part: Partition,
               spec: ForgetSpec) -> MrrResult:
    """Mean reciprocal rank over the distinct queries of the forget set.

    Query removal targets the first positive document of the query;
    document removal targets the first document named for removal.
    """
    if not part.forget_queries:
        raise ConfigError("forget set contains no queries")
    targets: dict[str, set[str]] = {}
    for qid in part.forget_queries:
        if spec.kind is RemovalKind.DOCUMENT:
            targets[qid] = {did for did in dataset.pools.get(qid, ()) if did in spec.ids}
        else:
            targets[qid] = set(dataset.positives_of(qid))
    return _mean_reciprocal(targets, model, dataset)


def mrr_set(model: ScoreModel, dataset: Dataset, samples: list[Sample]) -> MrrResult:
    """Mean reciprocal rank of the first positive doc, per query, within `samples`.

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
    result = _mean_reciprocal(positives, model, dataset)
    return MrrResult(value=result.value, evaluated=result.evaluated,
                     skipped=result.skipped + skipped_no_positive)


def normalized_forget_score(mrr_forget_unlearn: float, mrr_test_retrain: float) -> float:
    """1 - |forget MRR of the unlearned model - test MRR of the retrained model|."""
    return 1.0 - abs(mrr_forget_unlearn - mrr_test_retrain)


def normalized_forget(run, retrain_report: MetricsReport) -> float:
    """Closeness of an unlearning run's final forget MRR to the retrained test MRR."""
    final = run.trajectory[-1].mrr_forget
    return normalized_forget_score(final, retrain_report.mrr_test)


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


def score_distribution(models: list[tuple[str, ScoreModel]], dataset: Dataset,
                       sets: list[tuple[str, list[Sample]]]) -> list[ScoreDistribution]:
    """Per (model, sample set): min/max/mean and deciles of pair scores.

    Each doc is pooled once (``doc_vectors``) and each query once; a
    pair's score is then one dot product and a softplus, bitwise the
    score ``forward`` gives it.
    """
    out: list[ScoreDistribution] = []
    doc_row = dataset.index.doc_row
    for model_name, model in models:
        dvec = doc_vectors(model, dataset)
        queries: dict[str, np.ndarray] = {}
        for set_name, samples in sets:
            logits = []
            for s in samples:
                u = queries.get(s.query_id)
                if u is None:
                    u = queries[s.query_id] = \
                        model.embed_q[dataset.query_tokens(s.query_id)].mean(axis=0)
                logits.append(float(u @ dvec[doc_row[s.doc_id]]))
            scores = np.logaddexp(0.0, logits)
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
