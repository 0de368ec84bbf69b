"""Unlearning strategies with a shared rank-targeted stopping rule.

``unlearn`` is the one entry point. It checks the request, copies the
trained model into the student and runs the setup plan of the strategy
that ``cfg.method`` names, with the strategy's method_params checked
against its ``PARAMS`` entry and completed from its defaults. A plan
computes what stays fixed for the whole run (teacher scores, partners,
negatives) from the trained model, pooled once, and returns the epoch
function that ``ranker._epochs``, the epoch loop of fits too, repeats
until the forget-set mean reciprocal rank drops to the target, or the
epoch budget runs out. The target is checked before the first epoch
too, so an already-satisfied request costs zero epochs.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import CorpusSplit
from .errors import ConfigError, DataError, checked
from .evaluation import mrr_forget, mrr_set
from .partition import Partition, entangled_partners
from .ranker import (HingeDraws, HingeSet, Pooled, ScoreModel, Sgd, _epochs, clone_model,
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
    method: Method
    epochs_run: int = 0
    stopped_early: bool = False
    trajectory: list[EpochRecord] = field(default_factory=list)
    epoch_times: list[float] = field(default_factory=list)
    edited_params: int = 0


@dataclass(frozen=True)
class Destinations:
    d1: float  # retrained model's forget-set MRR
    d2: float  # retrained model's test MRR
    d3: float  # half of d2
    mrrs: dict[str, float]  # the retrained model's four MRRs (_mrrs), d1 and d2 among them


# The method_params each strategy reads, with their defaults; any other key
# is rejected, and a given value must be of its default's kind (``checked``).
_HINGE = {"margin": 1.0, "negatives_per_positive": 4}
PARAMS = {
    Method.COCOL: {"entangled_term": True, "phase2": True},
    Method.CF: _HINGE,
    Method.AMNESIAC: _HINGE,
    Method.NEGGRAD: _HINGE,
    Method.SSD: {"alpha": 10.0, "lambda": 1.0, **_HINGE},
    Method.BADT: {},
}


def _mrrs(train: Pooled, test: Pooled, part: Partition) -> dict[str, float]:
    """The MRRs of one model state, pooled over the train split and the test
    split (``pool_split``), on the forget, entangled, disjoint and test sets,
    by their names in trajectories and reports.

    Private, so perfbench's tracer, which wraps public functions, counts
    these MRR calls as its caller's own."""
    return {"mrr_forget": mrr_forget(train, part).value,
            "mrr_entangled": mrr_set(train, part.entangled).value,
            "mrr_disjoint": mrr_set(train, part.disjoint).value,
            "mrr_test": mrr_set(test, np.arange(test.dataset.n_samples)).value}


# Each plan takes (trained, run, split, part, cfg): the trained model pooled
# over the train split, run.final_model the student, and every key of the
# method's PARAMS entry, checked, in cfg.method_params. It returns the epoch
# function for ``ranker._epochs``, or None once it has edited the student (ssd).


def _cocol(trained: Pooled, run: UnlearnRun, split: CorpusSplit, part: Partition,
           cfg: UnlearnConfig):
    """Contrastive pass over the forget set, consistency pass over the disjoint set.

    method_params: entangled_term / phase2 (JSON booleans, true by default)
    switch the partner term and the consistency pass off for ablation runs.
    """
    use_entangled = cfg.method_params["entangled_term"]
    use_phase2 = cfg.method_params["phase2"]

    # every pair the teacher scores is a train sample: score them all once
    train = split.train
    teacher = sample_scores(trained, np.arange(train.n_samples))
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

    def epoch(rng: np.random.Generator, pooled) -> None:
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


def _cf(trained: Pooled, run: UnlearnRun, split: CorpusSplit, part: Partition,
        cfg: UnlearnConfig):
    """Keep training on retained samples; forgetting happens only by drift."""
    margin, npp = (cfg.method_params[key] for key in _HINGE)
    queries = HingeSet(split.train, part.retained)
    sgd = Sgd(run.final_model, split.train, cfg.learning_rate)

    def epoch(rng: np.random.Generator, pooled: Pooled | None) -> None:
        if pooled is None:  # no checkpoint ended the epoch before
            pooled = pool(run.final_model, split.train)
        pairwise_epoch(sgd, queries, pooled, rng, margin, npp)

    return epoch


def _amnesiac(trained: Pooled, run: UnlearnRun, split: CorpusSplit, part: Partition,
              cfg: UnlearnConfig):
    """Push sampled pool negatives above each forget positive; train the entangled set."""
    margin, npp = (cfg.method_params[key] for key in _HINGE)
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

    def epoch(rng: np.random.Generator, pooled) -> None:
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


def _neggrad(trained: Pooled, run: UnlearnRun, split: CorpusSplit, part: Partition,
             cfg: UnlearnConfig):
    """Ascend the pairwise training loss on the forget samples."""
    margin, npp = (cfg.method_params[key] for key in _HINGE)
    train = split.train
    positives = part.forget[train.positive[part.forget]]
    queries = HingeSet(train, np.arange(train.n_samples))
    at = queries.slot[train.sample_query[positives]]
    has_negs = queries.n_neg[at] > 0
    query, doc = train.sample_query[positives].tolist(), train.sample_doc[positives].tolist()
    ascent = Sgd(run.final_model, train, -cfg.learning_rate)

    def epoch(rng: np.random.Generator, pooled) -> None:
        draws = HingeDraws(ascent, margin)
        order = rng.permutation(len(positives))
        # npp draws for each positive that has negatives, none for the rest
        order = order[has_negs[order]]
        negs = queries.uniform(rng, at[order], npp).tolist()
        for k, i in enumerate(order.tolist()):
            draws.run(query[i], doc[i], negs[k * npp:(k + 1) * npp])

    return epoch


def _ssd(trained: Pooled, run: UnlearnRun, split: CorpusSplit, part: Partition,
         cfg: UnlearnConfig) -> None:
    """One-shot dampening of parameters whose forget-set importance dominates.

    Importance is the mean squared training-loss gradient per parameter.
    Where the forget importance exceeds alpha times the full-set
    importance, the parameter is scaled by min(lambda * ratio, 1). The
    time of both importance passes and the edit is the run's one epoch
    time; no epoch runs.
    """
    alpha, lam, margin, npp = (cfg.method_params[key] for key in PARAMS[Method.SSD])
    if alpha <= 1.0 or lam <= 0.0:
        raise ConfigError("ssd needs alpha > 1 and lambda > 0")

    t0 = time.perf_counter()
    rng = np.random.default_rng(cfg.seed)
    every = np.arange(split.train.n_samples)
    queries = HingeSet(split.train, every)
    imp_f = _importance(run.final_model, trained, part.forget, queries, margin, npp, rng)
    imp_s = _importance(run.final_model, trained, every, queries, margin, npp, rng)
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


def _badt(trained: Pooled, run: UnlearnRun, split: CorpusSplit, part: Partition,
          cfg: UnlearnConfig):
    """Distill the forget set toward a random teacher, the rest toward the trained one."""
    bad_teacher = init_model(run.final_model.vocab_size, run.final_model.dim, cfg.seed)
    retained = part.retained
    # each teacher scores the pairs it teaches in one pass
    bad = list(zip(part.forget.tolist(),
                   sample_scores(pool(bad_teacher, split.train), part.forget)))
    good = list(zip(retained.tolist(), sample_scores(trained, retained)))
    sgd = Sgd(run.final_model, split.train, cfg.learning_rate)

    def epoch(rng: np.random.Generator, pooled) -> None:
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
    defaults = PARAMS[cfg.method]
    unknown = set(cfg.method_params) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown method_params for {cfg.method.value}: {sorted(unknown)}; "
                          f"it reads {sorted(defaults)}")
    if not len(part.forget):
        raise ConfigError("forget set is empty")
    params = {}
    for key, default in defaults.items():
        kind = type(default)  # float() makes an integer margin, alpha or lambda a float
        params[key] = kind(checked(f"method_params {key!r}",
                                   cfg.method_params.get(key, default), kind))
    if params.get("negatives_per_positive", 1) < 1:
        raise ConfigError("method_params 'negatives_per_positive' must be at least 1, "
                          f"got {params['negatives_per_positive']!r}")
    cfg = replace(cfg, method_params=params)
    student, trained = clone_model(m_train), pool(m_train, split.train)
    run = UnlearnRun(final_model=student, method=cfg.method)
    epoch = _PLANS[cfg.method](trained, run, split, part, cfg)
    # checkpoint 0 scores the student as its plan left it, with ssd's edit time
    start = trained if epoch is not None else pool(student, split.train)

    def checkpoint(n: int, pooled: Pooled, wall: float) -> bool:
        record = EpochRecord(n, **_mrrs(*pool_split(student, split, pooled), part),
                             epoch_wall_time=wall)
        run.trajectory.append(record)
        run.stopped_early = record.mrr_forget <= cfg.delta_target
        return run.stopped_early

    if not checkpoint(0, start, sum(run.epoch_times, 0.0)) and epoch is not None:
        run.epoch_times, _ = _epochs(student, split.train, start, cfg.seed, cfg.max_epochs,
                                     cfg.check_every, f"{cfg.method.value} unlearning",
                                     epoch, checkpoint)
        run.epochs_run = len(run.epoch_times)
    return run


def compute_destinations(train: Pooled, test: Pooled, part: Partition) -> Destinations:
    """Stopping targets derived from the retrained model, pooled over the
    train split and the test split (``pool_split``)."""
    mrrs = _mrrs(train, test, part)
    d2 = mrrs["mrr_test"]
    return Destinations(d1=mrrs["mrr_forget"], d2=d2, d3=d2 / 2.0, mrrs=mrrs)
