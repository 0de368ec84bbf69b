"""Ratio-form teacher-student losses driving the unlearning updates.

All losses compare a frozen teacher's relevance scores with the mutable
student's through the bounded discrepancy

    delta = (teacher - student) / (teacher + student)   in (-1, 1)

which is well defined because the scorer is strictly positive. The
contrastive loss pushes a forget pair's score down toward the teacher's
per-query minimum while pinning one entangled partner to the teacher;
the consistent loss pins a (positive, negative) pair of untouched
samples. Gradients are exact, with subgradient 0 at the ReLU and
absolute-value kinks so the zero-loss state is a fixed point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Dataset, Label, Sample
from .errors import ConfigError
from .ranker import GradientBuffer, PairStep, ScoreModel, TeacherSnapshot


@dataclass(frozen=True)
class DeltaValue:
    value: float
    teacher_score: float
    student_score: float


@dataclass(frozen=True)
class TeacherMinCache:
    """Per-query minimum of the teacher's scores over that query's samples."""

    min_scores: dict[str, float]

    def score_floor(self, query_id: str) -> float:
        try:
            return self.min_scores[query_id]
        except KeyError:
            raise ConfigError(f"no cached teacher minimum for query {query_id!r}") from None


def delta(teacher: TeacherSnapshot, student: ScoreModel, dataset: Dataset,
          pair: Sample) -> DeltaValue:
    """Bounded discrepancy between teacher and student on one pair."""
    f_m = teacher.score(dataset, pair.query_id, pair.doc_id)
    f_w = PairStep(student, dataset, ((pair.query_id, pair.doc_id),)).scores[0]
    return DeltaValue(value=(f_m - f_w) / (f_m + f_w), teacher_score=f_m, student_score=f_w)


def build_min_cache(teacher: TeacherSnapshot, dataset: Dataset) -> TeacherMinCache:
    """Minimum teacher score per query over all of the query's samples.

    Every sample is scored in one pass, which also fills the teacher's
    score table, so the losses look these scores up instead of computing
    them again.
    """
    mins: dict[str, float] = {}
    for s, score in zip(dataset.samples, teacher.score_samples(dataset, dataset.samples)):
        if s.query_id not in mins or score < mins[s.query_id]:
            mins[s.query_id] = score
    return TeacherMinCache(min_scores=mins)


def delta_min(cache: TeacherMinCache, student: ScoreModel, dataset: Dataset,
              forget_pair: Sample, student_score: float | None = None) -> float:
    """(student - floor) / (student + floor): positive while the score sits above it.

    ``student_score`` is the student's score of ``forget_pair`` when the
    caller already has it.
    """
    floor = cache.score_floor(forget_pair.query_id)
    if student_score is None:
        student_score = PairStep(student, dataset,
                                 ((forget_pair.query_id, forget_pair.doc_id),)).scores[0]
    return (student_score - floor) / (student_score + floor)


def _abs_delta_terms(teacher: TeacherSnapshot, dataset: Dataset, pairs,
                     scores: list[float]) -> tuple[float, list[float]]:
    """Sum of |delta| over ``pairs``, whose student scores are ``scores``, and
    the derivative of each term by its student score (0 at the kink)."""
    total, upstream = 0.0, []
    for pair, f_w in zip(pairs, scores):
        f_m = teacher.score(dataset, pair.query_id, pair.doc_id)
        denom = f_m + f_w
        d = (f_m - f_w) / denom
        total += abs(d)
        upstream.append(0.0 if d == 0.0 else
                        (1.0 if d > 0.0 else -1.0) * (-2.0 * f_m / (denom * denom)))
    return total, upstream


def _pair_keys(samples) -> tuple[tuple[str, str], ...]:
    return tuple((s.query_id, s.doc_id) for s in samples)


def contrastive_loss(cache: TeacherMinCache, teacher: TeacherSnapshot,
                     student: ScoreModel, dataset: Dataset, forget_pair: Sample,
                     partner: Sample | None, buf: GradientBuffer | None = None) -> float:
    """relu(delta_min(forget_pair)) + |delta(partner)|, partner term 0 when absent.

    Suppresses the forget pair toward the teacher's per-query floor
    while keeping the sampled entangled partner at its teacher score.
    """
    if partner is not None and not (partner.query_id == forget_pair.query_id
                                    or partner.doc_id == forget_pair.doc_id):
        raise ConfigError(
            f"partner ({partner.query_id!r}, {partner.doc_id!r}) shares no id with "
            f"the forget pair ({forget_pair.query_id!r}, {forget_pair.doc_id!r})")

    partners = [] if partner is None else [partner]
    step = PairStep(student, dataset, _pair_keys([forget_pair, *partners]))
    f_w = step.scores[0]
    adjusted = delta_min(cache, student, dataset, forget_pair, f_w)
    value = max(0.0, adjusted)
    upstream = [0.0]
    if adjusted > 0.0:
        floor = cache.score_floor(forget_pair.query_id)
        denom = f_w + floor
        upstream[0] = 2.0 * floor / (denom * denom)
    partner_value, partner_upstream = _abs_delta_terms(teacher, dataset, partners,
                                                       step.scores[1:])
    if buf is not None:
        step.backward(upstream + partner_upstream, buf)
    return value + partner_value


def consistent_loss(teacher: TeacherSnapshot, student: ScoreModel, dataset: Dataset,
                    pos_pair: Sample, neg_pair: Sample,
                    buf: GradientBuffer | None = None) -> float:
    """|delta(pos_pair)| + |delta(neg_pair)|: pins both pairs to the teacher."""
    if pos_pair.label is not Label.POSITIVE:
        raise ConfigError(
            f"pos_pair ({pos_pair.query_id!r}, {pos_pair.doc_id!r}) is not positive")
    if neg_pair.label is not Label.NEGATIVE:
        raise ConfigError(
            f"neg_pair ({neg_pair.query_id!r}, {neg_pair.doc_id!r}) is not negative")
    return _abs_delta_loss(teacher, student, dataset, (pos_pair, neg_pair), buf)


def abs_delta_loss(teacher: TeacherSnapshot, student: ScoreModel, dataset: Dataset,
                   pair: Sample, buf: GradientBuffer | None = None) -> float:
    """|delta(pair)| with gradients; the single-pair distillation building block."""
    return _abs_delta_loss(teacher, student, dataset, (pair,), buf)


def _abs_delta_loss(teacher: TeacherSnapshot, student: ScoreModel, dataset: Dataset,
                    pairs: tuple[Sample, ...], buf: GradientBuffer | None) -> float:
    step = PairStep(student, dataset, _pair_keys(pairs))
    value, upstream = _abs_delta_terms(teacher, dataset, pairs, step.scores)
    if buf is not None:
        step.backward(upstream, buf)
    return value
