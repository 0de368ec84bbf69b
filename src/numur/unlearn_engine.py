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
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import CorpusSplit
from .errors import ConfigError, DataError, checked
from .evaluation import mrr_forget, mrr_set
from .partition import Partition, entangled_partners
from .ranker import (HingeDraws, HingeSet, Pooled, ScoreModel, Sgd, clone_model,
                     hinge_grad_squares, init_model, pairwise_epoch, pool, pool_split,
                     sample_scores)
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

    def __post_init__(self) -> None:
        if not 0.0 < self.delta_target <= 1.0:
            raise ConfigError("delta_target must lie in (0, 1]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be at least 1")
        if not self.learning_rate > 0:  # NaN too
            raise ConfigError("learning_rate must be positive")
        if self.check_every < 1:
            raise ConfigError("check_every must be at least 1")
        if not isinstance(self.method, Method):
            raise ConfigError(f"method must be a Method, got {self.method!r}")


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
    return float(checked(f"method_params {key!r}", cfg.method_params.get(key, default), float))


def _switch(cfg: UnlearnConfig, key: str) -> bool:
    """An on/off switch from method_params, on by default; ConfigError unless a bool."""
    return checked(f"method_params {key!r}", cfg.method_params.get(key, True), bool)


def _hinge(cfg: UnlearnConfig) -> tuple[float, int]:
    """The margin and negatives_per_positive of a hinge strategy (cf,
    amnesiac, neggrad, ssd), checked in that order."""
    margin = _param(cfg, "margin", 1.0)
    npp = cfg.method_params.get("negatives_per_positive", 4)
    if checked("method_params 'negatives_per_positive'", npp, int) < 1:
        raise ConfigError("method_params 'negatives_per_positive' must be at least 1, "
                          f"got {npp!r}")
    return margin, npp


def _evaluate(student: ScoreModel, split: CorpusSplit, part: Partition,
              epoch: int, wall: float) -> EpochRecord:
    train, test = pool_split(student, split)
    return EpochRecord(
        epoch=epoch,
        mrr_forget=mrr_forget(train, part).value,
        mrr_entangled=mrr_set(train, part.entangled).value,
        mrr_disjoint=mrr_set(train, part.disjoint).value,
        mrr_test=mrr_set(test, np.arange(split.test.n_samples)).value,
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
    teacher = sample_scores(pool(m_train, train), np.arange(train.n_samples))
    forget = part.forget.tolist()
    floors = build_min_cache(train, teacher)[train.sample_query[part.forget]].tolist()
    partners = [[(e, teacher[e]) for e in each.tolist()]
                for each in entangled_partners(part, part.forget)] if use_entangled \
        else [[] for _ in forget]
    positive = train.positive[part.disjoint].tolist()
    disjoint = [(d, teacher[d]) for d in part.disjoint.tolist()]
    d_pos = [d for d, p in zip(disjoint, positive) if p]
    d_neg = [d for d, p in zip(disjoint, positive) if not p]
    if use_phase2 and (not d_pos or not d_neg):
        raise ConfigError("disjoint set lacks positives or negatives for the "
                          "consistency pass")

    # the bound of each item's pick: its partners, and for a disjoint pair
    # the pairs of the other label; 0 where an item picks nothing
    n_partners = np.array([len(options) for options in partners], dtype=np.intp)
    n_others = np.where(positive, len(d_neg), len(d_pos))
    sgd = Sgd(run.final_model, train, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        # each phase: one permutation, then every pick of the phase in one call
        order = rng.permutation(len(forget))
        bounds = n_partners[order]
        picks = iter(rng.integers(bounds[bounds > 0]).tolist())
        for i in order.tolist():
            options = partners[i]
            partner = options[next(picks)] if options else None
            contrastive_loss(floors[i], sgd, forget[i], partner)
        if not use_phase2:
            return
        order = rng.permutation(len(disjoint))
        for i, pick in zip(order.tolist(), rng.integers(n_others[order]).tolist()):
            d = disjoint[i]
            if positive[i]:
                pos, neg = d, d_neg[pick]
            else:
                pos, neg = d_pos[pick], d
            consistent_loss(sgd, pos, neg)

    return epoch


def _cf(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
        cfg: UnlearnConfig):
    """Keep training on retained samples; forgetting happens only by drift."""
    margin, npp = _hinge(cfg)
    queries = HingeSet(split.train, part.retained)
    sgd = Sgd(run.final_model, split.train, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        pairwise_epoch(sgd, queries, pool(run.final_model, split.train), rng, margin, npp)

    return epoch


def _amnesiac(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
              cfg: UnlearnConfig):
    """Push sampled pool negatives above each forget positive; train the entangled set."""
    margin, npp = _hinge(cfg)
    train = split.train
    forget = part.forget[train.positive[part.forget]]
    n_forget = len(forget)
    positives = np.concatenate((forget, part.entangled[train.positive[part.entangled]]))
    queries = HingeSet(train, np.arange(train.n_samples))
    at = queries.slot[train.sample_query[positives]]
    bare = np.flatnonzero(queries.n_neg[at] == 0)
    if len(bare):
        query_id = train.sample_ids(positives[bare[0]])[0]
        if bare[0] < n_forget:
            raise ConfigError(f"forget query {query_id!r} has no pool negatives to promote")
        # an entangled positive trains as in pairwise_epoch, and fails as there
        raise DataError(f"query {query_id!r} has no pool negatives to train against")
    query, doc = train.sample_query[positives].tolist(), train.sample_doc[positives].tolist()

    # the first n_forget positives draw the one negative they promote, the rest npp
    n_draws = np.array([1] * n_forget + [npp] * (len(positives) - n_forget), dtype=np.intp)
    sgd = Sgd(run.final_model, train, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        draws = HingeDraws(sgd, margin)
        order = rng.permutation(len(positives))
        negs = queries.uniform(rng, at[order], n_draws[order]).tolist()
        k = 0
        for i in order.tolist():
            if i < n_forget:
                draws.run(query[i], negs[k], [doc[i]])
                k += 1
            else:
                draws.run(query[i], doc[i], negs[k:k + npp])
                k += npp

    return epoch


def _neggrad(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
             cfg: UnlearnConfig):
    """Ascend the pairwise training loss on the forget samples."""
    margin, npp = _hinge(cfg)
    train = split.train
    positives = part.forget[train.positive[part.forget]]
    queries = HingeSet(train, np.arange(train.n_samples))
    at = queries.slot[train.sample_query[positives]]
    has_negs = queries.n_neg[at] > 0
    query, doc = train.sample_query[positives].tolist(), train.sample_doc[positives].tolist()
    ascent = Sgd(run.final_model, train, -cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        draws = HingeDraws(ascent, margin)
        order = rng.permutation(len(positives))
        # npp draws for each positive that has negatives, none for the rest
        order = order[has_negs[order]]
        negs = queries.uniform(rng, at[order], npp).tolist()
        for k, i in enumerate(order.tolist()):
            draws.run(query[i], doc[i], negs[k * npp:(k + 1) * npp])

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
    margin, npp = _hinge(cfg)

    rng = np.random.default_rng(cfg.seed)
    every = np.arange(split.train.n_samples)
    queries = HingeSet(split.train, every)
    pooled = pool(m_train, split.train)  # once for both passes
    imp_f = _importance(m_train, pooled, part.forget, queries, margin, npp, rng)
    imp_s = _importance(m_train, pooled, every, queries, margin, npp, rng)

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


def _importance(model: ScoreModel, pooled: Pooled, samples: np.ndarray,
                queries: HingeSet, margin: float, npp: int,
                rng: np.random.Generator) -> np.ndarray:
    """Mean squared per-sample gradient of the pairwise loss over the samples
    at positions ``samples``, per parameter of the stacked table; ``pooled``
    is ``model`` pooled over the train set and ``queries`` the ``HingeSet``
    of all its samples.

    Every negative is drawn first, ``npp`` per positive in sample order;
    the parameters never move, so ``hinge_grad_squares`` then scores and
    differentiates all the draws in one batched pass.
    """
    dataset = pooled.dataset
    positives = samples[dataset.positive[samples]]
    at = queries.slot[dataset.sample_query[positives]]
    drawn = queries.n_neg[at] > 0
    sq = np.zeros_like(model.params)
    if not drawn.any():
        return sq
    neg_rows = queries.uniform(rng, at[drawn], npp).reshape(-1, npp)
    hinge_grad_squares(pooled, dataset.sample_query[positives[drawn]],
                       dataset.sample_doc[positives[drawn]], neg_rows, margin, sq)
    sq /= np.count_nonzero(drawn)
    return sq


def _badt(m_train: ScoreModel, run: UnlearnRun, split: CorpusSplit, part: Partition,
          cfg: UnlearnConfig):
    """Distill the forget set toward a random teacher, the rest toward the trained one."""
    bad_teacher = init_model(m_train.vocab_size, m_train.dim, cfg.seed)
    retained = part.retained
    # each teacher scores the pairs it teaches in one pass
    bad = list(zip(part.forget.tolist(),
                   sample_scores(pool(bad_teacher, split.train), part.forget)))
    good = list(zip(retained.tolist(), sample_scores(pool(m_train, split.train), retained)))
    sgd = Sgd(run.final_model, split.train, cfg.learning_rate)

    def epoch(rng: np.random.Generator) -> None:
        for pairs in (bad, good):
            for i in rng.permutation(len(pairs)):
                _abs_delta_loss(sgd, (pairs[int(i)],))

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
    if not len(part.forget):
        raise ConfigError("forget set is empty")
    run = UnlearnRun(final_model=clone_model(m_train), epochs_run=0, stopped_early=False,
                     trajectory=[], method=cfg.method)
    return _drive(run, split, part, cfg, _PLANS[cfg.method](m_train, run, split, part, cfg))


def compute_destinations(train: Pooled, test: Pooled, part: Partition) -> Destinations:
    """Stopping targets derived from the retrained model, pooled over the
    train split and the test split (``pool_split``)."""
    d2 = mrr_set(test, np.arange(test.dataset.n_samples)).value
    return Destinations(d1=mrr_forget(train, part).value, d2=d2, d3=d2 / 2.0)
