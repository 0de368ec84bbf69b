"""Ratio-form teacher-student losses driving the unlearning updates.

All losses compare a frozen teacher's relevance scores with the mutable
student's through the bounded discrepancy

    delta = (teacher - student) / (teacher + student)   in (-1, 1)

which is well defined because the scorer is strictly positive. The
teacher's scores never change during a run, so they are computed once
before it starts (``sample_scores``) and every loss takes them as floats:
a pair is a sample's position with its teacher's score. The contrastive
loss pushes a forget pair's score down toward the teacher's per-query
minimum while pinning one entangled partner to the teacher; the
consistent loss pins a (positive, negative) pair of untouched samples.
Gradients are exact, with subgradient 0 at the ReLU and absolute-value
kinks so the zero-loss state is a fixed point.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .corpus import Dataset
from .errors import ConfigError
from .ranker import PairStep, Sgd


def build_min_cache(dataset: Dataset, scores: Sequence[float]) -> np.ndarray:
    """Minimum teacher score per query row over all of the query's samples,
    inf for a query without one; ``scores[i]`` is the teacher's score of
    the sample at position i. As in a running minimum taken with ``<`` in
    sample order, a NaN score is passed over unless it is the query's first."""
    query = dataset.sample_query
    scores = np.asarray(scores, dtype=float).reshape(len(query))  # ValueError unless one each
    floors = np.full(len(dataset.queries.ids), np.inf)
    np.fmin.at(floors, query, scores)
    rows, first = np.unique(query, return_index=True)
    floors[rows[np.isnan(scores[first])]] = np.nan
    return floors


def delta_min(floor: float, student_score: float) -> float:
    """(student - floor) / (student + floor): positive while the score sits above it."""
    return (student_score - floor) / (student_score + floor)


def _abs_delta_terms(teacher_scores: Sequence[float],
                     student_scores: Sequence[float]) -> tuple[float, list[float]]:
    """Sum of |delta| over pairs with these teacher and student scores, and
    the derivative of each term by its student score (0 at the kink)."""
    total, upstream = 0.0, []
    for f_m, f_w in zip(teacher_scores, student_scores):
        denom = f_m + f_w
        d = (f_m - f_w) / denom
        total += abs(d)
        upstream.append(0.0 if d == 0.0 else
                        (1.0 if d > 0.0 else -1.0) * (-2.0 * f_m / (denom * denom)))
    return total, upstream


def contrastive_loss(floor: float, sgd: Sgd, forget_pair: int,
                     partner: tuple[int, float] | None) -> float:
    """relu(delta_min(floor, f(forget_pair))) + |delta(partner)|, partner term 0
    when absent; ``sgd`` steps the student along its gradient.

    ``floor`` is the teacher's minimum score over the forget pair's query
    (``build_min_cache``). Suppresses the forget pair toward that floor
    while keeping the sampled entangled partner at its teacher score.
    """
    rows = [sgd.pairs[forget_pair]]
    if partner is not None:
        rows.append(sgd.pairs[partner[0]])
        if not (rows[1][0] == rows[0][0] or rows[1][1] == rows[0][1]):
            raise ConfigError(f"partner {sgd.dataset.sample_ids(partner[0])!r} shares no id "
                              f"with the forget pair {sgd.dataset.sample_ids(forget_pair)!r}")

    step = PairStep(sgd, rows)
    f_w = step.scores[0]
    adjusted = delta_min(floor, f_w)
    value = max(0.0, adjusted)
    upstream = [0.0]
    if adjusted > 0.0:
        denom = f_w + floor
        upstream[0] = 2.0 * floor / (denom * denom)
    partner_value, partner_upstream = (0.0, []) if partner is None else \
        _abs_delta_terms((partner[1],), step.scores[1:])
    sgd.apply(step, upstream + partner_upstream)
    return value + partner_value


def consistent_loss(sgd: Sgd, pos_pair: tuple[int, float], neg_pair: tuple[int, float]) -> float:
    """|delta(pos_pair)| + |delta(neg_pair)|: pins both pairs to the teacher."""
    dataset = sgd.dataset
    if not dataset.positive[pos_pair[0]]:
        raise ConfigError(f"pos_pair {dataset.sample_ids(pos_pair[0])!r} is not positive")
    if dataset.positive[neg_pair[0]]:
        raise ConfigError(f"neg_pair {dataset.sample_ids(neg_pair[0])!r} is not negative")
    return _abs_delta_loss(sgd, (pos_pair, neg_pair))


def _abs_delta_loss(sgd: Sgd, pairs: Sequence[tuple[int, float]]) -> float:
    """Sum of |delta| over ``pairs``, with one step of ``sgd`` along its
    gradient: the distillation term of the consistent loss and of Bad Teacher."""
    step = PairStep(sgd, [sgd.pairs[p] for p, _ in pairs])
    value, upstream = _abs_delta_terms([t for _, t in pairs], step.scores)
    sgd.apply(step, upstream)
    return value
