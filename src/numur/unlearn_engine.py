"""Unlearning strategies with a shared rank-targeted stopping rule.

``unlearn`` is the one entry point. It checks the request, copies the
trained model into the student and runs the setup plan of the strategy
that ``cfg.method`` names. A plan validates the strategy's method_params,
computes what stays fixed for the whole run (teacher scores, partners,
negatives) and returns the epoch function that the driver repeats until
the forget-set mean reciprocal rank drops to the target, or the epoch
budget runs out. The target is checked before the first epoch too, so an
already-satisfied request costs zero epochs.

Strategies:

- cocol: contrastive suppression of forget pairs toward the teacher's
  per-query score floor, each paired with a sampled entangled partner,
  then a consistency pass pinning disjoint pairs to the teacher.
- cf: keep training on the retained samples only and let the forget
  pairs decay on their own.
- amnesiac: for each forget positive, push a sampled pool negative
  above it; keep ordinary training on the entangled set.
- neggrad: gradient ascent of the training loss on the forget samples.
- ssd: one-shot dampening of parameters far more important to the
  forget set than to the full training set; its plan edits the student
  and runs no epoch.
- badt: distill the forget set toward a randomly initialised teacher
  and everything else toward the trained teacher.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusSplit, Label, Sample
from .errors import ConfigError
from .evaluation import mrr_forget, mrr_set
from .partition import Partition, entangled_partners
from .ranker import (HingeDraws, ScoreModel, clone_model, doc_vectors, hinge_grad_squares,
                     hinge_negatives, init_model, new_buffer, pairwise_epoch, query_vectors,
                     sample_scores, split_doc_vectors)
from .unlearn_losses import _abs_delta_loss, build_min_cache, consistent_loss, contrastive_loss


class Method(enum.Enum):
    COCOL = "cocol"
    CF = "cf"
    AMNESIAC = "amnesiac"
    NEGGRAD = "neggrad"
    SSD = "ssd"
    BADT = "badt"


@dataclass(frozen=True)
class UnlearnConfig:
    delta_target: float = 0.5
    max_epochs: int = 200
    learning_rate: float = 0.5
    seed: int = 7
    check_every: int = 1
    method: Method = Method.COCOL
    method_params: dict = field(default_factory=dict)
    log_touched: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_target <= 1.0:
            raise ConfigError("delta_target must lie in (0, 1]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.check_every < 1:
            raise ConfigError("check_every must be at least 1")


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mrr_forget: float
    mrr_entangled: float
    mrr_disjoint: float
    mrr_test: float
    epoch_wall_time: float


@dataclass
class UnlearnRun:
    final_model: ScoreModel
    epochs_run: int
    stopped_early: bool
    trajectory: list[EpochRecord]
    method: Method
    epoch_times: list[float] = field(default_factory=list)
    edited_params: int = 0
    touched: list[tuple[str, str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class Destinations:
    d1: float  # retrained model's forget-set MRR
    d2: float  # retrained model's test MRR
    d3: float  # half of d2


# The method_params keys each strategy reads; any other key is rejected.
PARAM_KEYS = {
    Method.COCOL: {"entangled_term", "phase2"},
    Method.CF: {"margin", "negatives_per_positive"},
    Method.AMNESIAC: {"margin", "negatives_per_positive"},
    Method.NEGGRAD: {"margin", "negatives_per_positive"},
    Method.SSD: {"alpha", "lambda", "margin", "negatives_per_positive"},
    Method.BADT: set(),
}


def _param(cfg: UnlearnConfig, key: str, default: float) -> float:
    """A number from method_params; ConfigError unless it is a finite int or float."""
    value = cfg.method_params.get(key, default)
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"method_params {key!r} must be a finite number, got {value!r}")
    return number


def _switch(cfg: UnlearnConfig, key: str) -> bool:
    """An on/off switch from method_params, on by default; ConfigError unless a bool."""
    value = cfg.method_params.get(key, True)
    if type(value) is not bool:
        raise ConfigError(f"method_params {key!r} must be true or false, got {value!r}")
    return value


def _negatives_per_positive(cfg: UnlearnConfig) -> int:
    value = cfg.method_params.get("negatives_per_positive", 4)
    if type(value) is not int or value < 1:
        raise ConfigError("method_params 'negatives_per_positive' must be an integer >= 1, "
                          f"got {value!r}")
    return value


def _evaluate(student: ScoreModel, split: CorpusSplit, part: Partition,
              epoch: int, wall: float) -> EpochRecord:
    dvec, test_dvec = split_doc_vectors(student, split)
    return EpochRecord(
        epoch=epoch,
        mrr_forget=mrr_forget(student, split.train, part, part.spec, dvec).value,
        mrr_entangled=mrr_set(student, split.train, part.entangled, dvec).value,
        mrr_disjoint=mrr_set(student, split.train, part.disjoint, dvec).value,
        mrr_test=mrr_set(student, split.test, split.test.samples, test_dvec).value,
        epoch_wall_time=wall,
    )


def _drive(run: UnlearnRun, split: CorpusSplit, part: Partition, cfg: UnlearnConfig,
           epoch_fn) -> UnlearnRun:
    """Run epoch_fn until the forget MRR reaches the target or the budget ends.

    The first checkpoint scores the student as its plan left it, with the
    plan's edit time if it timed one (ssd, whose ``epoch_fn`` is None).
    An epoch that leaves a parameter NaN or infinite ends the run with a
    DivergedError.
    """
    student = run.final_model
    rng = np.random.default_rng(cfg.seed)
    record = _evaluate(student, split, part, 0, run.epoch_times[-1] if run.epoch_times else 0.0)
    run.trajectory.append(record)
    run.stopped_early = record.mrr_forget <= cfg.delta_target
    if run.stopped_early or epoch_fn is None:
        return run
    for epoch in range(1, cfg.max_epochs + 1):
        t0 = time.perf_counter()
        epoch_fn(rng)
        run.epoch_times.append(time.perf_counter() - t0)
        student.check_finite(f"{cfg.method.value} unlearning epoch {epoch}")
        run.epochs_run = epoch
        if epoch % cfg.check_every == 0 or epoch == cfg.max_epochs:
            record = _evaluate(student, split, part, epoch, run.epoch_times[-1])
            run.trajectory.append(record)
            if record.mrr_forget <= cfg.delta_target:
                run.stopped_early = True
                break
    return run


# Each plan takes (m_train, run, split, part, cfg), where run.final_model is
# the student, and returns the epoch function ``epoch(rng)`` for the driver,
# or None once it has edited the student itself (ssd).


def _cocol(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
           cfg: UnlearnConfig):
    """Contrastive pass over the forget set, consistency pass over the disjoint set.

    method_params: entangled_term / phase2 (JSON booleans, true by default)
    switch the partner term and the consistency pass off for ablation runs.
    """
    use_entangled = _switch(cfg, "entangled_term")
    use_phase2 = _switch(cfg, "phase2")

    # every pair the teacher scores is a train sample: score them all once
    train = split.train
    teacher = sample_scores(m_train, train, train.samples)
    floors = build_min_cache(train.samples, teacher)
    score_of = dict(zip(train.samples, teacher))
    partners = [[(e, score_of[e]) for e in entangled_partners(part, x)] for x in part.forget]
    disjoint = [(s, score_of[s]) for s in part.disjoint]
    d_pos = [d for d in disjoint if d[0].label is Label.POSITIVE]
    d_neg = [d for d in disjoint if d[0].label is Label.NEGATIVE]
    if use_phase2 and (not d_pos or not d_neg):
        raise ConfigError("disjoint set lacks positives or negatives for the "
                          "consistency pass")

    student = run.final_model
    sgd = new_buffer(student, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        for i in rng.permutation(len(part.forget)):
            x = part.forget[int(i)]
            options = partners[int(i)]
            partner = None
            if options and use_entangled:
                partner = options[int(rng.integers(len(options)))]
            contrastive_loss(floors[x.query_id], student, train, x, partner, sgd)
            if cfg.log_touched:
                run.touched.append(("phase1", x.query_id, x.doc_id))
        if not use_phase2:
            return
        for i in rng.permutation(len(disjoint)):
            d = disjoint[int(i)]
            if d[0].label is Label.POSITIVE:
                pos, neg = d, d_neg[int(rng.integers(len(d_neg)))]
            else:
                pos, neg = d_pos[int(rng.integers(len(d_pos)))], d
            consistent_loss(student, train, pos, neg, sgd)
            if cfg.log_touched:
                run.touched.append(("phase2", d[0].query_id, d[0].doc_id))

    return epoch


def _cf(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
        cfg: UnlearnConfig):
    """Keep training on retained samples; forgetting happens only by drift."""
    margin = _param(cfg, "margin", 1.0)
    npp = _negatives_per_positive(cfg)
    retained = [s for s in split.train.samples if not part.is_forgotten(s)]

    def epoch(rng: np.random.Generator) -> None:
        raw: list[tuple[str, str]] | None = [] if cfg.log_touched else None
        pairwise_epoch(run.final_model, split.train, retained, rng, cfg.learning_rate,
                       margin, npp, raw)
        if raw is not None:
            run.touched.extend(("retain", q, d) for q, d in raw)

    return epoch


def _amnesiac(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
              cfg: UnlearnConfig):
    """Push sampled pool negatives above each forget positive; train the entangled set."""
    margin = _param(cfg, "margin", 1.0)
    npp = _negatives_per_positive(cfg)

    negatives = hinge_negatives(split.train, split.train.samples)
    forget_pos = [s for s in part.forget if s.label is Label.POSITIVE]
    ent_pos = [s for s in part.entangled if s.label is Label.POSITIVE]
    for s in forget_pos + ent_pos:
        if not negatives[s.query_id]:
            raise ConfigError(f"forget query {s.query_id!r} has no pool negatives "
                              "to promote")

    tasks = [("forget", s) for s in forget_pos] + [("retain", s) for s in ent_pos]
    sgd = new_buffer(run.final_model, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        draws = HingeDraws(run.final_model, split.train, margin, sgd)
        for i in rng.permutation(len(tasks)):
            tag, s = tasks[int(i)]
            negs = negatives[s.query_id]
            if tag == "forget":
                promoted = negs[int(rng.integers(len(negs)))]
                draws.run(s.query_id, promoted, [s.doc_id])
            else:
                draws.draw(rng, s.query_id, s.doc_id, (negs,), npp)
            if cfg.log_touched:
                run.touched.append((tag, s.query_id, s.doc_id))

    return epoch


def _neggrad(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
             cfg: UnlearnConfig):
    """Ascend the pairwise training loss on the forget samples."""
    margin = _param(cfg, "margin", 1.0)
    npp = _negatives_per_positive(cfg)

    negatives = hinge_negatives(split.train, split.train.samples)
    forget_pos = [s for s in part.forget if s.label is Label.POSITIVE]
    ascent = new_buffer(run.final_model, -cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        draws = HingeDraws(run.final_model, split.train, margin, ascent)
        for i in rng.permutation(len(forget_pos)):
            s = forget_pos[int(i)]
            negs = negatives[s.query_id]
            if not negs:
                continue
            draws.draw(rng, s.query_id, s.doc_id, (negs,), npp)
            if cfg.log_touched:
                run.touched.append(("ascent", s.query_id, s.doc_id))

    return epoch


def _ssd(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
         cfg: UnlearnConfig) -> None:
    """One-shot dampening of parameters whose forget-set importance dominates.

    Importance is the mean squared training-loss gradient per parameter.
    Where the forget importance exceeds alpha times the full-set
    importance, the parameter is scaled by min(lambda * ratio, 1). The
    edit's time is the run's one epoch time; no epoch runs.
    """
    alpha = _param(cfg, "alpha", 10.0)
    lam = _param(cfg, "lambda", 1.0)
    if alpha <= 1.0 or lam <= 0.0:
        raise ConfigError("ssd needs alpha > 1 and lambda > 0")
    margin = _param(cfg, "margin", 1.0)
    npp = _negatives_per_positive(cfg)

    rng = np.random.default_rng(cfg.seed)
    negatives = hinge_negatives(split.train, split.train.samples)
    # the trained model pooled once for both passes
    vectors = query_vectors(m_train, split.train), doc_vectors(m_train, split.train)
    imp_f = _importance(m_train, split, part.forget, negatives, margin, npp, rng, vectors)
    imp_s = _importance(m_train, split, split.train.samples, negatives, margin, npp, rng,
                        vectors)

    t0 = time.perf_counter()
    # one table at a time, which halves the temporaries
    for table, f_table, s_table in zip(np.split(run.final_model.params, 2),
                                       np.split(imp_f, 2), np.split(imp_s, 2)):
        # Zero full-set importance gives no evidence for a ratio; leave
        # those parameters alone so a huge lambda is exactly the identity.
        mask = (f_table > alpha * s_table) & (s_table > 0.0)
        factors = np.ones_like(table)
        factors[mask] = np.minimum(lam * s_table[mask] / f_table[mask], 1.0)
        table *= factors
        run.edited_params += int(mask.sum())
    run.epoch_times.append(time.perf_counter() - t0)


def _importance(model: ScoreModel, split: CorpusSplit, samples: list[Sample],
                negatives: dict[str, list[str]], margin: float, npp: int,
                rng: np.random.Generator, vectors: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Mean squared per-sample gradient of the pairwise loss, per parameter
    of the stacked table; ``negatives`` is ``hinge_negatives`` of the train
    set and ``vectors`` is ``query_vectors`` and ``doc_vectors`` of ``model``.

    Every negative is drawn first, ``npp`` per positive in sample order;
    the parameters never move, so ``hinge_grad_squares`` then scores and
    differentiates all the draws in one batched pass.
    """
    index = split.train.index
    drawn = [s for s in samples if s.label is Label.POSITIVE and negatives[s.query_id]]
    sq = np.zeros_like(model.params)
    if not drawn:
        return sq
    # one call with an array of bounds makes the draws of one
    # rng.integers(len(negs)) call per draw, in the same order
    picks = rng.integers(np.repeat([len(negatives[s.query_id]) for s in drawn], npp))
    neg_rows = [[index.doc_row[negatives[s.query_id][j]] for j in row]
                for s, row in zip(drawn, picks.reshape(-1, npp).tolist())]
    hinge_grad_squares(model, split.train, *vectors,
                       np.array([index.query_row[s.query_id] for s in drawn]),
                       np.array([index.doc_row[s.doc_id] for s in drawn]), np.array(neg_rows),
                       margin, sq)
    sq /= len(drawn)
    return sq


def _badt(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
          cfg: UnlearnConfig):
    """Distill the forget set toward a random teacher, the rest toward the trained one."""
    bad_teacher = init_model(m_train.vocab_size, m_train.dim, cfg.seed)
    retained = [s for s in split.train.samples if not part.is_forgotten(s)]
    # each teacher scores the pairs it teaches in one pass
    bad = list(zip(part.forget, sample_scores(bad_teacher, split.train, part.forget)))
    good = list(zip(retained, sample_scores(m_train, split.train, retained)))
    sgd = new_buffer(run.final_model, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        for tag, pairs in (("bad", bad), ("good", good)):
            for i in rng.permutation(len(pairs)):
                pair = pairs[int(i)]
                _abs_delta_loss(run.final_model, split.train, (pair,), sgd)
                if cfg.log_touched:
                    run.touched.append((tag, pair[0].query_id, pair[0].doc_id))

    return epoch


_PLANS = {
    Method.COCOL: _cocol,
    Method.CF: _cf,
    Method.AMNESIAC: _amnesiac,
    Method.NEGGRAD: _neggrad,
    Method.SSD: _ssd,
    Method.BADT: _badt,
}


def unlearn(m_train: ScoreModel, split: CorpusSplit, part: Partition,
            cfg: UnlearnConfig) -> UnlearnRun:
    """Unlearn ``part.forget`` from ``m_train`` with the strategy named by
    cfg.method; ``m_train`` itself is left as it is."""
    unknown = set(cfg.method_params) - PARAM_KEYS[cfg.method]
    if unknown:
        raise ConfigError(f"unknown method_params for {cfg.method.value}: {sorted(unknown)}; "
                          f"it reads {sorted(PARAM_KEYS[cfg.method])}")
    if not part.forget:
        raise ConfigError("forget set is empty")
    run = UnlearnRun(final_model=clone_model(m_train), epochs_run=0, stopped_early=False,
                     trajectory=[], method=cfg.method)
    return _drive(run, split, part, cfg, _PLANS[cfg.method](m_train, run, split, part, cfg))


def compute_destinations(m_retrain: ScoreModel, split: CorpusSplit, part: Partition,
                         dvecs: tuple[np.ndarray, np.ndarray] | None = None) -> Destinations:
    """Stopping targets derived from the retrained model; ``dvecs`` is
    ``split_doc_vectors(m_retrain, split)`` when the caller has it."""
    dvec, test_dvec = split_doc_vectors(m_retrain, split) if dvecs is None else dvecs
    d1 = mrr_forget(m_retrain, split.train, part, part.spec, dvec).value
    d2 = mrr_set(m_retrain, split.test, split.test.samples, test_dvec).value
    return Destinations(d1=d1, d2=d2, d3=d2 / 2.0)
