"""Ratio-form teacher-student losses driving the unlearning updates.

All losses compare a frozen teacher's relevance scores with the mutable
student's through the bounded discrepancy

    delta = (teacher - student) / (teacher + student)   in (-1, 1)

which is well defined because the scorer is strictly positive. The
teacher's scores never change during a run, so they are computed once
before it starts (``sample_scores``) and every loss takes them as floats:
a ``Scored`` pair is a sample with its teacher's score. The contrastive
loss pushes a forget pair's score down toward the teacher's per-query
minimum while pinning one entangled partner to the teacher; the
consistent loss pins a (positive, negative) pair of untouched samples.
Gradients are exact, with subgradient 0 at the ReLU and absolute-value
kinks so the zero-loss state is a fixed point.
"""

from __future__ import annotations

from collections.abc import Sequence

from .corpus import Dataset, Label, Sample
from .errors import ConfigError
from .ranker import GradientBuffer, PairStep, ScoreModel

Scored = tuple[Sample, float]  # a sample and its teacher's score


def build_min_cache(samples: Sequence[Sample], scores: Sequence[float]) -> dict[str, float]:
    """Minimum teacher score per query over all of the query's samples;
    ``scores[i]`` is the teacher's score of ``samples[i]``."""
    mins: dict[str, float] = {}
    for s, score in zip(samples, scores, strict=True):
        if s.query_id not in mins or score < mins[s.query_id]:
            mins[s.query_id] = score
    return mins


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


def _pair_keys(samples) -> tuple[tuple[str, str], ...]:
    return tuple((s.query_id, s.doc_id) for s in samples)


def contrastive_loss(floor: float, student: ScoreModel, dataset: Dataset,
                     forget_pair: Sample, partner: Scored | None,
                     buf: GradientBuffer | None = None) -> float:
    """relu(delta_min(floor, f(forget_pair))) + |delta(partner)|, partner term 0
    when absent.

    ``floor`` is the teacher's minimum score over the forget pair's query
    (``build_min_cache``). Suppresses the forget pair toward that floor
    while keeping the sampled entangled partner at its teacher score.
    """
    if partner is not None and not (partner[0].query_id == forget_pair.query_id
                                    or partner[0].doc_id == forget_pair.doc_id):
        raise ConfigError(
            f"partner ({partner[0].query_id!r}, {partner[0].doc_id!r}) shares no id with "
            f"the forget pair ({forget_pair.query_id!r}, {forget_pair.doc_id!r})")

    pairs = [forget_pair] if partner is None else [forget_pair, partner[0]]
    step = PairStep(student, dataset, _pair_keys(pairs))
    f_w = step.scores[0]
    adjusted = delta_min(floor, f_w)
    value = max(0.0, adjusted)
    upstream = [0.0]
    if adjusted > 0.0:
        denom = f_w + floor
        upstream[0] = 2.0 * floor / (denom * denom)
    partner_value, partner_upstream = (0.0, []) if partner is None else \
        _abs_delta_terms((partner[1],), step.scores[1:])
    if buf is not None:
        step.backward(upstream + partner_upstream, buf)
    return value + partner_value


def consistent_loss(student: ScoreModel, dataset: Dataset, pos_pair: Scored,
                    neg_pair: Scored, buf: GradientBuffer | None = None) -> float:
    """|delta(pos_pair)| + |delta(neg_pair)|: pins both pairs to the teacher."""
    if pos_pair[0].label is not Label.POSITIVE:
        raise ConfigError(
            f"pos_pair ({pos_pair[0].query_id!r}, {pos_pair[0].doc_id!r}) is not positive")
    if neg_pair[0].label is not Label.NEGATIVE:
        raise ConfigError(
            f"neg_pair ({neg_pair[0].query_id!r}, {neg_pair[0].doc_id!r}) is not negative")
    return _abs_delta_loss(student, dataset, (pos_pair, neg_pair), buf)


def _abs_delta_loss(student: ScoreModel, dataset: Dataset, pairs: Sequence[Scored],
                    buf: GradientBuffer | None) -> float:
    """Sum of |delta| over ``pairs``, with its gradient into ``buf`` if given:
    the distillation term of the consistent loss and of Bad Teacher."""
    step = PairStep(student, dataset, _pair_keys(s for s, _ in pairs))
    value, upstream = _abs_delta_terms([t for _, t in pairs], step.scores)
    if buf is not None:
        step.backward(upstream, buf)
    return value
