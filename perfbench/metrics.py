"""End-to-end metrics of one pipeline pass and per-layer metrics of a traced one.

``END_TO_END_UNITS`` and ``PER_LAYER_UNITS`` name every metric the
benchmark emits, with its unit; the smoke test checks them against
BENCHMARK.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tracer import LAYERS, Tracer
from workloads import LIGHT_METHODS, METHODS, UNREACHABLE_DELTA

END_TO_END_UNITS = {
    "setup_s": "s", "retrain_s": "s", "unlearn_s.cocol": "s", "unlearn_s.cf": "s",
    "unlearn_s.badt": "s", "unlearn_s.light": "s", "eval_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("gen", "train", "retrain", "partition", "unlearn", "eval", "report")


def _per_layer_units() -> dict[str, str]:
    units = {
        "corpus.generate_s": "s", "corpus.save_s": "s", "corpus.save_bytes": "bytes",
        "corpus.load_s": "s", "corpus.load_calls": "count", "corpus.load_bytes": "bytes",
        "corpus.pool_entries": "count",
        "partition.s": "s", "partition.calls": "count", "partition.forget": "count",
        "partition.entangled": "count", "partition.disjoint": "count",
        "partition.partners_s": "s",
        "ranker.train_epoch_s.p50": "s", "ranker.train_epoch_s.p90": "s",
        "ranker.mine_s": "s", "ranker.sgd_s": "s", "ranker.sgd_steps": "count",
        "ranker.sgd_active_frac": "ratio", "ranker.forward_calls": "count",
        "ranker.model_io_s": "s", "ranker.train_sgd_share": "ratio",
        "evaluation.checkpoint_s.p50": "s", "evaluation.checkpoint_s.p90": "s",
        "evaluation.checkpoints": "count", "evaluation.rank_calls": "count",
        "evaluation.train_mrr_s": "s", "evaluation.distribution_s": "s",
        "evaluation.unlearn_share": "ratio", "evaluation.unlearn_eval_s": "s",
        "evaluation.unlearn_wall_s": "s", "evaluation.cocol_share": "ratio",
        "losses.min_cache_s": "s", "losses.contrastive_calls": "count",
        "losses.contrastive_active_frac": "ratio", "losses.consistent_calls": "count",
        "losses.abs_delta_calls": "count",
        "cli.artifact_bytes": "bytes", "charts.render_s": "s",
        "trace.wall_s": "s", "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
        "trace.spans": "count", "trace.calls": "count", "mrr_test.cocol": "MRR",
    }
    for m in METHODS:
        units.update({f"unlearn.{m}.setup_s": "s", f"unlearn.{m}.update_s": "s",
                      f"unlearn.{m}.eval_s": "s", f"unlearn.{m}.epochs": "count",
                      f"unlearn.{m}.checkpoints": "count"})
    units.update({f"cli.{c}_s": "s" for c in CLI_COMMANDS})
    units.update({f"self_s.{layer}": "s" for layer in LAYERS})
    return units


PER_LAYER_UNITS = _per_layer_units()


def unlearn_dir(out: Path, method: str, spec: str) -> Path:
    return out / "unlearn" / f"{method}_{spec}_delta{float(UNREACHABLE_DELTA):g}"


def end_to_end(times: dict[str, float]) -> dict[str, float]:
    """Metrics of one untraced pass from its per-command times."""
    return {
        "setup_s": times["gen"] + times["train"],
        "retrain_s": times["retrain"],
        "unlearn_s.cocol": times["unlearn.cocol"],
        "unlearn_s.cf": times["unlearn.cf"],
        "unlearn_s.badt": times["unlearn.badt"],
        "unlearn_s.light": sum(times[f"unlearn.{m}"] for m in LIGHT_METHODS),
        "eval_s": sum(v for k, v in times.items() if k.startswith("eval.")),
        "pipeline_s": sum(times.values()),
    }


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _checkpoints(tr: Tracer) -> list[float]:
    """Durations of the four-set MRR checkpoints made inside unlearning runs."""
    by_parent: dict[int, list[list]] = {}
    for span in tr.spans:
        if span[0] in ("unlearn_engine.mrr_forget", "unlearn_engine.mrr_set") \
                and span[3] >= 0 and tr.spans[span[3]][0] == "cli.unlearn":
            by_parent.setdefault(span[3], []).append(span)
    out = []
    for seq in by_parent.values():
        for i in range(0, len(seq), 4):
            group = seq[i:i + 4]
            out.append(group[-1][2] - group[0][1])
    return out


def _unlearn_setup(tr: Tracer) -> dict[str, float]:
    """Per method: time from the strategy call to its first checkpoint."""
    out = {}
    for i, span in enumerate(tr.spans):
        if span[0] != "cli.unlearn":
            continue
        first = next(s for s in tr.spans[i + 1:]
                     if s[3] == i and s[0] == "unlearn_engine.mrr_forget")
        ancestor = tr.spans[span[3]]
        while not ancestor[0].startswith("bench.unlearn."):
            ancestor = tr.spans[ancestor[3]]
        out[ancestor[0].rsplit(".", 1)[1]] = first[1] - span[1]
    return out


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def per_layer(tr: Tracer, out: Path, spec: str, traced_s: float,
              untraced_s: float) -> dict[str, float]:
    """Per-layer metrics from one traced pass."""
    t, n = tr.total, tr.count
    epoch_times = [x for name in ("cli.train", "cli.retrain") for ts in tr.kept_of(name)
                   for x in ts]
    part = tr.kept_of("cli.partition", "partition")[0]
    checkpoints = _checkpoints(tr)
    runs = {s["method"]: s for s in tr.kept_of("cli.unlearn")}
    setups = _unlearn_setup(tr)
    sgd_steps = n("ranker.hinge_loss_and_grad")
    delta_min_calls = n("unlearn_losses.delta_min")
    m = {
        "corpus.generate_s": t("cli.generate_synthetic"),
        "corpus.save_s": t("cli.save_dataset"),
        "corpus.save_bytes": sum(tr.kept_of("cli.save_dataset")),
        "corpus.load_s": t("cli.load_dataset"),
        "corpus.load_calls": n("cli.load_dataset"),
        "corpus.load_bytes": sum(tr.kept_of("cli.load_dataset")),
        "corpus.pool_entries": tr.kept_of("cli.generate_synthetic")[0],
        "partition.s": t("cli.partition"),
        "partition.calls": n("cli.partition"),
        "partition.forget": part[0],
        "partition.entangled": part[1],
        "partition.disjoint": part[2],
        "partition.partners_s": t("unlearn_engine.entangled_partners"),
        "ranker.train_epoch_s.p50": _pct(epoch_times, 50),
        "ranker.train_epoch_s.p90": _pct(epoch_times, 90),
        "ranker.mine_s": t("ranker.score_pool"),
        "ranker.sgd_s": t("ranker.pairwise_epoch") - t("ranker.score_pool"),
        "ranker.sgd_steps": sgd_steps,
        "ranker.sgd_active_frac": tr.active["ranker.hinge_loss_and_grad"] / max(sgd_steps, 1),
        "ranker.forward_calls": n("ranker.forward") + n("unlearn_losses.forward"),
        "ranker.model_io_s": t("cli.save_model") + t("cli.load_model"),
        "ranker.train_sgd_share": (t("ranker.pairwise_epoch", "train")
                                   - t("ranker.score_pool", "train")) / t("bench.train"),
        "evaluation.checkpoint_s.p50": _pct(checkpoints, 50),
        "evaluation.checkpoint_s.p90": _pct(checkpoints, 90),
        "evaluation.checkpoints": len(checkpoints),
        "evaluation.rank_calls": n("evaluation.rank"),
        "evaluation.train_mrr_s": t("evaluation.mrr_set"),
        "evaluation.distribution_s": t("cli.score_distribution"),
        "losses.min_cache_s": t("unlearn_engine.build_min_cache"),
        "losses.contrastive_calls": n("unlearn_engine.contrastive_loss"),
        "losses.contrastive_active_frac": tr.active["unlearn_losses.delta_min"]
        / max(delta_min_calls, 1),
        "losses.consistent_calls": n("unlearn_engine.consistent_loss"),
        "losses.abs_delta_calls": n("unlearn_engine.abs_delta_loss"),
        "cli.artifact_bytes": _tree_bytes(out),
        "charts.render_s": t("charts.radar_chart") + t("charts.line_chart"),
        "trace.wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        "trace.spans": len(tr.spans),
        "trace.calls": sum(tr.calls.values()),
        "mrr_test.cocol": json.loads((unlearn_dir(out, "cocol", spec) / "report.json")
                                     .read_text())["mrr_test"],
    }
    eval_total = wall_total = 0.0
    for meth in METHODS:
        label = f"unlearn.{meth}"
        eval_s = t("unlearn_engine.mrr_forget", label) + t("unlearn_engine.mrr_set", label)
        eval_total += eval_s
        wall_total += t(f"bench.{label}")
        m.update({f"{label}.setup_s": setups[meth],
                  f"{label}.update_s": runs[meth]["update_s"],
                  f"{label}.eval_s": eval_s,
                  f"{label}.epochs": runs[meth]["epochs"],
                  f"{label}.checkpoints": runs[meth]["checkpoints"]})
    m["evaluation.unlearn_eval_s"] = eval_total
    m["evaluation.unlearn_wall_s"] = wall_total
    m["evaluation.unlearn_share"] = eval_total / wall_total
    m["evaluation.cocol_share"] = m["unlearn.cocol.eval_s"] / t("bench.unlearn.cocol")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = t(f"cli.cmd_{cmd}")
    for layer in LAYERS:
        m[f"self_s.{layer}"] = tr.self_time[layer]
    return m
