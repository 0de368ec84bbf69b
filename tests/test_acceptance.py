"""Acceptance suite: one test per criterion, each printing a PASS line.

Shared artifacts (standard corpus, trained and retrained models) come
from session fixtures in conftest; the corpus is 64 queries, 256 docs,
vocabulary 512, embedding dim 16, pools of 100, entanglement 0.5, seed 7.
"""

import json
import time

import numpy as np
import pytest

from numur import (ConfigError, ForgetSpec, Method, RemovalKind, UnlearnConfig,
                   build_min_cache, compute_destinations, consistent_loss, contrastive_loss,
                   delta_min, init_model, mrr_forget, mrr_set, partition, pool, pool_split,
                   score_distribution, unlearn)
from numur.cli import main as cli_main
from numur.ranker import PairStep, sample_scores

from conftest import (ACCEPT_MAX_EPOCHS, ACCEPT_UNLEARN_LR, Label, build_dataset, every,
                      forget_query_ids, pair_rows, samples_at, samples_of)
from scoring_reference import Accumulate, forward, hinge_loss_and_grad
from test_evaluation import brute_force_first_rank, set_scores
from test_partition import brute_force_partition, keys_at, keyset, random_dataset_and_spec
from test_ranker import assert_close_grads, finite_difference, tiny_dataset
from test_unlearn_engine import small_unlearn_world
from test_unlearn_losses import gap, score

MATCHED_DELTA = 0.2     # matched forgetting level for the baseline contrast
ABLATION_DELTA = 0.03   # deep target where loss-term ablations separate


def _ucfg(method=Method.COCOL, **kw):
    base = dict(delta_target=0.5, max_epochs=ACCEPT_MAX_EPOCHS,
                learning_rate=ACCEPT_UNLEARN_LR, seed=7, method=method)
    base.update(kw)
    return UnlearnConfig(**base)


def test_c01_partition_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    while checked < 500:
        dataset, spec = random_dataset_and_spec(rng)
        try:
            part = partition(dataset, spec)
        except ConfigError:
            forget, _, _ = brute_force_partition(dataset, spec)
            assert len(forget) == dataset.n_samples
            continue
        forget, entangled, disjoint = brute_force_partition(dataset, spec)
        assert keys_at(dataset, part.forget) == keyset(forget)
        assert keys_at(dataset, part.entangled) == keyset(entangled)
        assert keys_at(dataset, part.disjoint) == keyset(disjoint)
        checked += 1

    from conftest import figure_case_dataset
    ds = figure_case_dataset()
    part = partition(ds, ForgetSpec(kind=RemovalKind.DOCUMENT,
                                    ids=frozenset({"d2", "d3"})))
    assert keys_at(ds, part.entangled) == [("q1", "d1"), ("q4", "d4")]
    assert keys_at(ds, part.disjoint) == [("q5", "d5")]

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"acceptance 1: PASS - partition matches oracle on 500 random cases "
          f"and the worked document-removal example ({elapsed:.2f}s)")


def test_c02_gradient_suite():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()

    checked = 0
    while checked < 100:  # forward scores
        ds = tiny_dataset(rng)
        m = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
        at = int(rng.integers(ds.n_samples))
        s = samples_of(ds)[at]
        upstream = float(rng.normal())
        if abs(upstream) < 1e-3:
            continue
        buf = Accumulate(m, ds)
        buf.apply(PairStep(buf, pair_rows(ds, [at])), [upstream])
        num_q, num_d = finite_difference(
            lambda: upstream * forward(m, ds, s.query_id, s.doc_id), m)
        grad_q, grad_d = np.split(buf.grad, 2)
        assert_close_grads(grad_q, num_q)
        assert_close_grads(grad_d, num_d)
        checked += 1

    checked = 0
    while checked < 100:  # pairwise hinge
        ds = tiny_dataset(rng)
        m = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
        pos, neg = ds.pools["q0"][0], ds.pools["q0"][1]
        margin = float(rng.uniform(0.5, 2.0))
        raw = margin - forward(m, ds, "q0", pos) + forward(m, ds, "q0", neg)
        if abs(raw) < 1e-3:
            continue
        buf = Accumulate(m, ds)
        hinge_loss_and_grad(buf, "q0", pos, neg, margin)
        num_q, num_d = finite_difference(
            lambda: max(0.0, margin - forward(m, ds, "q0", pos)
                        + forward(m, ds, "q0", neg)), m)
        grad_q, grad_d = np.split(buf.grad, 2)
        assert_close_grads(grad_q, num_q)
        assert_close_grads(grad_d, num_d)
        checked += 1

    checked = 0
    while checked < 100:  # contrastive loss
        ds = tiny_dataset(rng)
        teacher = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
        student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
        samples = samples_of(ds)
        x = samples[0]
        teacher_scores = sample_scores(pool(teacher, ds), every(ds))
        floor = build_min_cache(ds, teacher_scores)[ds.queries.row[x.query_id]]
        partner = next((i for i, s in enumerate(samples)
                        if i and (s.query_id == x.query_id or s.doc_id == x.doc_id)), None)
        adjusted = delta_min(floor, score(student, ds, x))
        partner_gap = 1.0 if partner is None else \
            gap(teacher, student, ds, samples[partner])
        if abs(adjusted) < 1e-3 or abs(partner_gap) < 1e-3:
            continue
        partner = None if partner is None else \
            (partner, score(teacher, ds, samples[partner]))
        buf = Accumulate(student, ds)
        contrastive_loss(floor, buf, 0, partner)
        num_q, num_d = finite_difference(
            lambda: contrastive_loss(floor, Accumulate(student, ds), 0, partner), student)
        grad_q, grad_d = np.split(buf.grad, 2)
        assert_close_grads(grad_q, num_q)
        assert_close_grads(grad_d, num_d)
        checked += 1

    checked = 0
    while checked < 100:  # consistent loss
        ds = tiny_dataset(rng)
        pos = next((s for s in samples_of(ds) if s.label is Label.POSITIVE), None)
        neg = next((s for s in samples_of(ds) if s.label is Label.NEGATIVE), None)
        if pos is None or neg is None:
            continue
        teacher = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
        student = init_model(ds.vocab_size, 3, seed=int(rng.integers(1 << 31)))
        gaps = (gap(teacher, student, ds, pos), gap(teacher, student, ds, neg))
        if min(abs(g) for g in gaps) < 1e-3:
            continue
        pos, neg = ((samples_of(ds).index(s), score(teacher, ds, s)) for s in (pos, neg))
        buf = Accumulate(student, ds)
        consistent_loss(buf, pos, neg)
        num_q, num_d = finite_difference(
            lambda: consistent_loss(Accumulate(student, ds), pos, neg), student)
        grad_q, grad_d = np.split(buf.grad, 2)
        assert_close_grads(grad_q, num_q)
        assert_close_grads(grad_d, num_d)
        checked += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"acceptance 2: PASS - analytic gradients of four operations match "
          f"central differences on 100 draws each ({elapsed:.1f}s)")


def test_c03_mrr_oracle():
    rng = np.random.default_rng(3003)
    for _ in range(200):
        ds = tiny_dataset(rng, vocab=24, n_queries=3, n_docs=6)
        m = init_model(24, 3, seed=int(rng.integers(1 << 31)))
        if rng.random() < 0.5:
            docs = sorted({s.doc_id for s in samples_of(ds)})
            marked = frozenset(docs[:int(rng.integers(1, len(docs)))])
            spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=marked)
            try:
                part = partition(ds, spec)
            except ConfigError:
                continue
            if not len(part.forget):
                continue
            got = mrr_forget(pool(m, ds), part).value
            recips = [1.0 / r for r in
                      (brute_force_first_rank(m, ds, qid,
                                              {d for d in ds.pools[qid] if d in marked})
                       for qid in forget_query_ids(ds, part)) if r is not None]
        else:
            k = int(rng.integers(1, ds.n_samples + 1))
            subset = rng.permutation(ds.n_samples)[:k]
            got = mrr_set(pool(m, ds), subset).value
            positives = {}
            for s in samples_at(ds, subset):
                if s.label is Label.POSITIVE:
                    positives.setdefault(s.query_id, set()).add(s.doc_id)
            recips = [1.0 / r for r in
                      (brute_force_first_rank(m, ds, qid, targets)
                       for qid, targets in positives.items()) if r is not None]
        want = sum(recips) / len(recips) if recips else 0.0
        assert got == pytest.approx(want)

    # worked example: ranking [d1, d3, d4, d2, d5] with d2 marked for removal
    triples = [("q0", "d1", 1), ("q0", "d2", 1)]
    pools = {"q0": ["d1", "d2", "d3", "d4", "d5"]}
    ds = build_dataset(triples, pools, vocab_size=32)
    m = init_model(32, 2, seed=0)
    set_scores(ds, m, "q0", {"d1": 5.0, "d3": 4.0, "d4": 3.0, "d2": 2.0, "d5": 1.0})
    spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2"}))
    part = partition(ds, spec)
    assert mrr_forget(pool(m, ds), part).value == pytest.approx(0.25)
    print("acceptance 3: PASS - reciprocal ranks match the exhaustive oracle on "
          "200 instances and the worked removal example scores 0.25")


def test_c04_end_to_end_cocol(accept_split, accept_partition, accept_spec,
                              accept_train_result):
    model = accept_train_result.model
    assert accept_train_result.epoch_mrr[-1] >= 0.9

    pre_e = mrr_set(pool(model, accept_split.train), accept_partition.entangled).value
    pre_d = mrr_set(pool(model, accept_split.train), accept_partition.disjoint).value

    t0 = time.perf_counter()
    run = unlearn(model, accept_split, accept_partition, _ucfg(delta_target=0.5))
    elapsed = time.perf_counter() - t0
    last = run.trajectory[-1]

    assert run.stopped_early and last.mrr_forget <= 0.5
    assert run.epochs_run <= 200
    assert elapsed < 120.0
    assert last.mrr_disjoint >= 0.90 * pre_d
    assert last.mrr_entangled >= 0.85 * pre_e
    print(f"acceptance 4: PASS - training hit MRR "
          f"{accept_train_result.epoch_mrr[-1]:.3f}, contrastive-consistent "
          f"unlearning reached forget {last.mrr_forget:.3f} in {run.epochs_run} "
          f"epochs ({elapsed:.1f}s) with disjoint {last.mrr_disjoint:.3f} "
          f"(pre {pre_d:.3f}) and entangled {last.mrr_entangled:.3f} (pre {pre_e:.3f})")


def test_c05_baseline_contrast(accept_split, accept_partition, accept_model):
    ref = unlearn(accept_model, accept_split, accept_partition,
                  _ucfg(delta_target=MATCHED_DELTA))
    assert ref.stopped_early
    ref_disjoint = ref.trajectory[-1].mrr_disjoint

    finals = {}
    for method in (Method.AMNESIAC, Method.NEGGRAD, Method.BADT):
        run = unlearn(accept_model, accept_split, accept_partition,
                      _ucfg(method=method, delta_target=MATCHED_DELTA))
        last = run.trajectory[-1]
        assert run.stopped_early and last.mrr_forget <= 0.5, method
        assert last.mrr_disjoint < ref_disjoint, \
            f"{method.value} disjoint {last.mrr_disjoint} vs {ref_disjoint}"
        finals[method.value] = last.mrr_disjoint

    cf = unlearn(accept_model, accept_split, accept_partition,
                 _ucfg(method=Method.CF, delta_target=MATCHED_DELTA,
                       learning_rate=0.05, max_epochs=max(1, ref.epochs_run)))
    assert cf.trajectory[-1].mrr_forget > MATCHED_DELTA
    assert not cf.stopped_early
    print(f"acceptance 5: PASS - at matched forget level {MATCHED_DELTA} the "
          f"contrastive-consistent run keeps disjoint {ref_disjoint:.3f} vs "
          + ", ".join(f"{k} {v:.3f}" for k, v in finals.items())
          + f"; retained-only training stays at forget "
            f"{cf.trajectory[-1].mrr_forget:.3f} within {ref.epochs_run} epochs")


def test_c06_controllable_forgetting(accept_split, accept_partition,
                                     accept_retrain_result, accept_model):
    dest = compute_destinations(*pool_split(accept_retrain_result.model, accept_split),
                                accept_partition)
    assert dest.d1 > dest.d2 > dest.d3

    epochs, disjoints = [], []
    for target in (dest.d1, dest.d2, dest.d3):
        run = unlearn(accept_model, accept_split, accept_partition,
                      _ucfg(delta_target=target))
        assert run.stopped_early
        assert run.trajectory[-1].mrr_forget <= target
        epochs.append(run.epochs_run)
        disjoints.append(run.trajectory[-1].mrr_disjoint)

    assert epochs[0] <= epochs[1] <= epochs[2]
    assert max(disjoints) - min(disjoints) <= 0.10
    print(f"acceptance 6: PASS - destinations d1={dest.d1:.3f} > d2={dest.d2:.3f} "
          f"> d3={dest.d3:.3f} all reached with epochs {epochs} and disjoint "
          f"spread {max(disjoints) - min(disjoints):.3f}")


def test_c07_stopping_rule_soundness():
    split, part, model = small_unlearn_world(seed=2)
    rng = np.random.default_rng(7007)
    stopped, exhausted = 0, 0
    for _ in range(50):
        delta_target = float(rng.uniform(0.02, 1.0))
        seed = int(rng.integers(1 << 16))
        run = unlearn(model, split, part,
                      UnlearnConfig(delta_target=delta_target, max_epochs=12,
                                    learning_rate=0.3, seed=seed,
                                    method=Method.COCOL))
        if run.stopped_early:
            stopped += 1
            assert run.trajectory[-1].mrr_forget <= delta_target
        else:
            exhausted += 1
            assert run.epochs_run == 12
    assert stopped and exhausted  # both branches exercised
    print(f"acceptance 7: PASS - 50 random (target, seed) runs are sound "
          f"({stopped} stopped early, {exhausted} exhausted the budget)")


def strip_wall_fields(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        payload = json.loads(text)
        for key in ("normalized_epoch_duration", "total_unlearn_time"):
            if isinstance(payload, dict) and key in payload:
                payload[key] = None
        return json.dumps(payload, sort_keys=True)
    if path.suffix == ".csv":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        drop = {i for i, name in enumerate(header)
                if "wall" in name or "time" in name or "duration" in name}
        kept = []
        for line in lines:
            cells = [c for i, c in enumerate(line.split(",")) if i not in drop]
            kept.append(",".join(cells))
        return "\n".join(kept)
    return text


def test_c08_pipeline_determinism(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus": {"n_queries": 12, "n_docs": 48, "vocab_size": 128,
                   "positives_per_query": 2, "pool_size": 16,
                   "entanglement_rate": 0.5, "test_fraction": 0.25, "seed": 5},
        "train": {"learning_rate": 0.1, "epochs": 8, "seed": 5, "dim": 8},
        "unlearn": {"delta_target": 0.4, "max_epochs": 30, "learning_rate": 0.5,
                    "seed": 5},
        "removal_fractions": [0.25],
    }), encoding="utf-8")

    for sub in ("one", "two"):
        out = tmp_path / sub
        for argv in (["gen"], ["train"], ["retrain", "--spec", "spec_document_25"],
                     ["unlearn", "--spec", "spec_document_25", "--method", "cocol",
                      "--dest", "d2"],
                     ["report"]):
            assert cli_main(["--config", str(config), "--out", str(out), *argv]) == 0

    one = sorted(p for p in (tmp_path / "one").rglob("*")
                 if p.suffix in (".json", ".csv", ".bin"))
    assert one
    for path in one:
        twin = tmp_path / "two" / path.relative_to(tmp_path / "one")
        if path.suffix == ".bin":
            assert path.read_bytes() == twin.read_bytes(), path.name
        else:
            assert strip_wall_fields(path) == strip_wall_fields(twin), path.name
    print(f"acceptance 8: PASS - a full pipeline rerun reproduced "
          f"{len(one)} artifacts byte-for-byte outside wall-time fields")


def test_c09_ablation_switches(accept_split, accept_partition, accept_model):
    runs = {}
    for tag, params in (("full", {}),
                        ("no_entangled", {"entangled_term": False}),
                        ("no_phase2", {"phase2": False})):
        runs[tag] = unlearn(accept_model, accept_split, accept_partition,
                            _ucfg(delta_target=ABLATION_DELTA,
                                  method_params=params))
    full = runs["full"].trajectory[-1]
    no_ent = runs["no_entangled"].trajectory[-1]
    no_ph2 = runs["no_phase2"].trajectory[-1]
    assert no_ent.mrr_entangled < full.mrr_entangled
    assert no_ph2.mrr_disjoint < full.mrr_disjoint
    print(f"acceptance 9: PASS - dropping the partner term sinks entangled MRR "
          f"({no_ent.mrr_entangled:.3f} < {full.mrr_entangled:.3f}); dropping the "
          f"consistency pass sinks disjoint MRR "
          f"({no_ph2.mrr_disjoint:.3f} < {full.mrr_disjoint:.3f})")


def test_c10_score_interval_diagnostic(accept_split, accept_model):
    ds = accept_split.train
    fresh = init_model(ds.vocab_size, 16, seed=7)
    dists = [d for name, model in (("init", fresh), ("trained", accept_model))
             for d in score_distribution(name, pool(model, ds), [("train", every(ds))])]
    by_name = {d.model_name: d for d in dists}
    init_spread = by_name["init"].max - by_name["init"].min
    trained_spread = by_name["trained"].max - by_name["trained"].min
    assert init_spread < trained_spread
    print(f"acceptance 10: PASS - score spread grows from {init_spread:.4f} at "
          f"initialisation to {trained_spread:.4f} after training")
