"""Command line front end for the unranking workflow.

Subcommands cover the whole pipeline on one output directory:

    numur gen       --out runs                    # corpus + removal specs
    numur train     --out runs                    # fit the base ranker
    numur retrain   --out runs --spec <spec>      # reference model + targets
    numur partition --out runs --spec <spec>      # inspect the split
    numur unlearn   --out runs --spec <spec> --method cocol --dest d2
    numur eval      --out runs --spec <spec> --model <model.bin>
    numur report    --out runs                    # tables + charts

Configuration comes from --config (JSON); every value has a default, so
the pipeline runs without one. Failures print ``ERROR:<code>: message``
on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import charts
from .corpus import (CorpusSplit, SyntheticConfig, dataset_stats, generate_synthetic,
                     load_dataset, save_dataset, write_lines)
from .errors import ConfigError, DataError, NumurError
from .evaluation import (mrr_forget, mrr_set, normalized_forget_score,
                         score_distribution, timing_metrics)
from .partition import (ForgetSpec, RemovalKind, load_forget_spec, partition,
                        sample_forget_spec, save_forget_spec)
from .ranker import (TrainConfig, check_model_fits, load_model, retrain, save_model,
                     split_doc_vectors, train)
from .unlearn_engine import (PARAM_KEYS, Method, UnlearnConfig, compute_destinations,
                             unlearn)

DEFAULT_FRACTIONS = (0.05, 0.15, 0.25)


# ---------------------------------------------------------------------------
# Configuration


def _take(section: dict, cls, name: str, **extra):
    known = {f for f in cls.__dataclass_fields__}
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    merged = dict(section)
    merged.update(extra)
    return cls(**merged)


class ExperimentConfig:
    def __init__(self, corpus: SyntheticConfig, train_cfg: TrainConfig,
                 unlearn_cfg: UnlearnConfig, fractions: tuple[float, ...]):
        self.corpus = corpus
        self.train = train_cfg
        self.unlearn = unlearn_cfg
        self.fractions = fractions

    @classmethod
    def load(cls, path: str | None, seed_override: int | None) -> "ExperimentConfig":
        raw = {}
        if path is not None:
            try:
                raw = json.loads(Path(path).read_text(encoding="utf-8"))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}") from None
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}: malformed JSON ({exc.msg})") from None
        unknown = set(raw) - {"corpus", "train", "unlearn", "removal_fractions", "seed"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        seed = seed_override if seed_override is not None else raw.get("seed")

        corpus = _take(raw.get("corpus", {}), SyntheticConfig, "corpus")
        train_cfg = _take(raw.get("train", {}), TrainConfig, "train")
        unlearn_raw = dict(raw.get("unlearn", {}))
        if "method" in unlearn_raw:
            unlearn_raw["method"] = _parse_method(unlearn_raw["method"])
        if "learning_rate" not in unlearn_raw:
            # the bounded ratio losses produce gradients far smaller than the
            # training hinge, so unlearning defaults to a larger step size
            unlearn_raw["learning_rate"] = train_cfg.learning_rate * 10.0
        unlearn_cfg = _take(unlearn_raw, UnlearnConfig, "unlearn")
        if seed is not None:
            corpus = replace(corpus, seed=int(seed))
            train_cfg = replace(train_cfg, seed=int(seed))
            unlearn_cfg = replace(unlearn_cfg, seed=int(seed))

        fractions = tuple(raw.get("removal_fractions", DEFAULT_FRACTIONS))
        if not fractions or not all(0.0 < f < 1.0 for f in fractions):
            raise ConfigError("removal_fractions must be a non-empty list inside (0, 1)")
        return cls(corpus, train_cfg, unlearn_cfg, fractions)


def _parse_method(name) -> Method:
    try:
        return Method(str(name).lower())
    except ValueError:
        raise ConfigError(
            f"unknown method {name!r}; expected one of "
            f"{[m.value for m in Method]}") from None


# ---------------------------------------------------------------------------
# Output layout and serialisation helpers


def _corpus_paths(out: Path, split_name: str):
    base = out / "corpus"
    return (base / f"{split_name}_queries.jsonl", base / "docs.jsonl",
            base / f"{split_name}_qrels.tsv", base / f"{split_name}_pools.tsv")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _read_json(path: Path, keys: tuple[str, ...] = ()) -> dict:
    """A JSON object written by _write_json; DataError when malformed or lacking a key."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise DataError(f"{path}: missing keys {missing}")
    return payload


def _read_csv_column(path: Path, col: int) -> list[float]:
    """One numeric column of a CSV written by _write_csv, header skipped."""
    values = []
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            values.append(float(line.split(",")[col]))
        except (IndexError, ValueError):
            raise DataError(f"{path}:{lineno}: expected a number in column {col + 1}") from None
    return values


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, float):
            return repr(v)
        return str(v)
    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    write_lines(path, lines)


def _load_split(out: Path) -> CorpusSplit:
    # both splits share one docs.jsonl: the test split reuses the parsed
    # documents and the doc half of the train split's index
    train_ds = load_dataset(*_corpus_paths(out, "train"))
    test_ds = load_dataset(*_corpus_paths(out, "test"), docs_from=train_ds)
    vocab = max(train_ds.vocab_size, test_ds.vocab_size)
    stats_path = out / "corpus" / "stats.json"
    if stats_path.exists():
        # the generator records its vocabulary size; token inference can
        # undershoot it when the highest ids happen never to be drawn
        recorded = _read_json(stats_path).get("vocab_size")
        if recorded is not None:
            try:
                vocab = max(vocab, int(recorded))
            except (TypeError, ValueError):
                raise DataError(f"{stats_path}: vocab_size {recorded!r} is not an integer") from None
    # load_dataset validated both; a larger vocabulary keeps every token in range
    train_ds.vocab_size = test_ds.vocab_size = vocab
    split = CorpusSplit(train=train_ds, test=test_ds)
    split.check_disjoint()
    return split


def _resolve_spec(out: Path, spec_arg: str) -> tuple[str, ForgetSpec]:
    path = Path(spec_arg)
    if not path.exists():
        candidate = out / "specs" / spec_arg
        if not candidate.exists() and not spec_arg.endswith(".json"):
            candidate = out / "specs" / (spec_arg + ".json")
        if not candidate.exists():
            raise ConfigError(f"forget spec not found: {spec_arg}")
        path = candidate
    return path.stem, load_forget_spec(path)


def _train_model_path(out: Path) -> Path:
    path = out / "train" / "model.bin"
    if not path.exists():
        raise ConfigError(f"trained model not found at {path}; run `numur train` first")
    return path


def _train_epoch_times(out: Path) -> list[float]:
    path = out / "train" / "trajectory.csv"
    if not path.exists():
        raise ConfigError(f"training trajectory not found at {path}")
    return _read_csv_column(path, 3)


# ---------------------------------------------------------------------------
# Commands


def cmd_gen(cfg: ExperimentConfig, out: Path) -> None:
    split = generate_synthetic(cfg.corpus)
    (out / "corpus").mkdir(parents=True, exist_ok=True)
    save_dataset(split.train, *_corpus_paths(out, "train"))
    # both splits share one docs.jsonl, which the train split's save wrote
    save_dataset(split.test, *_corpus_paths(out, "test"), write_docs=False)
    _write_json(out / "corpus" / "stats.json", {
        "vocab_size": cfg.corpus.vocab_size,
        "train": asdict(dataset_stats(split.train)),
        "test": asdict(dataset_stats(split.test)),
    })
    (out / "specs").mkdir(parents=True, exist_ok=True)
    for kind in (RemovalKind.DOCUMENT, RemovalKind.QUERY):
        for fraction in cfg.fractions:
            spec = sample_forget_spec(split.train, kind, fraction, seed=cfg.corpus.seed)
            name = f"spec_{kind.value}_{int(round(fraction * 100)):02d}.json"
            save_forget_spec(spec, out / "specs" / name)
    print(f"wrote corpus and {2 * len(cfg.fractions)} forget specs under {out}")


def cmd_train(cfg: ExperimentConfig, out: Path) -> None:
    split = _load_split(out)
    result = train(split, cfg.train)
    (out / "train").mkdir(parents=True, exist_ok=True)
    save_model(result.model, out / "train" / "model.bin")
    rows = [[e + 1, loss, mrr, wall] for e, (loss, mrr, wall) in
            enumerate(zip(result.epoch_losses, result.epoch_mrr, result.epoch_times))]
    _write_csv(out / "train" / "trajectory.csv",
               ["epoch", "loss", "mrr_train", "wall_time_s"], rows)
    final = result.epoch_mrr[-1] if result.epoch_mrr else float("nan")
    print(f"trained {cfg.train.epochs} epochs; final train MRR {final:.4f}")


def cmd_partition(cfg: ExperimentConfig, out: Path, spec_arg: str) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, spec_arg)
    part = partition(split.train, spec)
    _write_json(out / "partition" / name / "partition.json", {
        "spec": {"kind": spec.kind.value, "ids": sorted(spec.ids)},
        "sizes": {"forget": len(part.forget), "entangled": len(part.entangled),
                  "disjoint": len(part.disjoint)},
        "forget_queries": sorted(part.forget_queries),
        "forget_docs": sorted(part.forget_docs),
    })
    print(f"partition {name}: |F|={len(part.forget)} |E|={len(part.entangled)} "
          f"|D|={len(part.disjoint)}")


def cmd_retrain(cfg: ExperimentConfig, out: Path, spec_arg: str) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, spec_arg)
    part = partition(split.train, spec)
    result = retrain(split, cfg.train, part)
    dest_dir = out / "retrain" / name
    dest_dir.mkdir(parents=True, exist_ok=True)
    save_model(result.model, dest_dir / "model.bin")
    rows = [[e + 1, loss, mrr, wall] for e, (loss, mrr, wall) in
            enumerate(zip(result.epoch_losses, result.epoch_mrr, result.epoch_times))]
    _write_csv(dest_dir / "trajectory.csv",
               ["epoch", "loss", "mrr_retained", "wall_time_s"], rows)
    dvecs = split_doc_vectors(result.model, split)
    dest = compute_destinations(result.model, split, part, dvecs)
    _write_json(dest_dir / "report.json", {
        "mrr_forget": dest.d1,
        "mrr_entangled": mrr_set(result.model, split.train, part.entangled, dvecs[0]).value,
        "mrr_disjoint": mrr_set(result.model, split.train, part.disjoint, dvecs[0]).value,
        "mrr_test": dest.d2,
        "destinations": {"d1": dest.d1, "d2": dest.d2, "d3": dest.d3},
    })
    print(f"retrained for {name}: destinations d1={dest.d1:.4f} d2={dest.d2:.4f} "
          f"d3={dest.d3:.4f}")


def _resolve_delta(out: Path, spec_name: str, delta: float | None,
                   dest: str | None, fallback: float) -> tuple[float, str]:
    if delta is not None and dest is not None:
        raise ConfigError("give either --delta or --dest, not both")
    if delta is not None:
        return float(delta), f"delta{delta:g}"
    if dest is not None:
        report_path = out / "retrain" / spec_name / "report.json"
        if not report_path.exists():
            raise ConfigError(
                f"destination mode needs {report_path}; run `numur retrain` first")
        report = _read_json(report_path, ("destinations",))
        try:
            value = report["destinations"][dest]
        except KeyError:
            raise ConfigError(f"unknown destination {dest!r}") from None
        return float(value), dest
    return fallback, f"delta{fallback:g}"


def _unlearn_one(cfg: ExperimentConfig, out: Path, split: CorpusSplit, name: str,
                 spec: ForgetSpec, method: Method, delta: float, tag: str,
                 method_params: dict) -> None:
    part = partition(split.train, spec)
    model_path = _train_model_path(out)
    m_train = load_model(model_path)
    check_model_fits(m_train, split.train, model_path)
    run_cfg = replace(cfg.unlearn, method=method, delta_target=delta,
                      method_params=method_params)
    run = unlearn(m_train, split, part, run_cfg)

    run_dir = out / "unlearn" / f"{method.value}_{name}_{tag}"
    run_dir.mkdir(parents=True, exist_ok=True)
    save_model(run.final_model, run_dir / "model.bin")
    _write_csv(run_dir / "trajectory.csv",
               ["epoch", "mrr_forget", "mrr_entangled", "mrr_disjoint", "mrr_test",
                "wall_time_s"],
               [[r.epoch, r.mrr_forget, r.mrr_entangled, r.mrr_disjoint, r.mrr_test,
                 r.epoch_wall_time] for r in run.trajectory])
    _write_json(run_dir / "run_config.json", {
        "method": method.value, "spec": name, "delta_target": delta,
        "max_epochs": run_cfg.max_epochs, "learning_rate": run_cfg.learning_rate,
        "seed": run_cfg.seed, "check_every": run_cfg.check_every,
        "method_params": run_cfg.method_params, "target": tag,
    })

    last = run.trajectory[-1]
    report = {
        "method": method.value, "spec": name, "delta_target": delta,
        "epochs_run": run.epochs_run, "stopped_early": run.stopped_early,
        "edited_params": run.edited_params,
        "mrr_forget": last.mrr_forget, "mrr_entangled": last.mrr_entangled,
        "mrr_disjoint": last.mrr_disjoint, "mrr_test": last.mrr_test,
        "normalized_forget": None, "normalized_epoch_duration": None,
        "total_unlearn_time": None,
    }
    retrain_report = out / "retrain" / name / "report.json"
    if retrain_report.exists():
        retrain_test = _read_json(retrain_report, ("mrr_test",))["mrr_test"]
        report["normalized_forget"] = normalized_forget_score(last.mrr_forget,
                                                              retrain_test)
    train_times = _train_epoch_times(out)
    if run.epoch_times and train_times:
        report.update(timing_metrics(train_times, run.epoch_times, run.epochs_run))
    _write_json(run_dir / "report.json", report)
    print(f"{method.value} on {name} -> forget MRR {last.mrr_forget:.4f} "
          f"after {run.epochs_run} epochs (stopped_early={run.stopped_early})")


def cmd_unlearn(cfg: ExperimentConfig, out: Path, spec_arg: str, method_arg: str,
                delta: float | None, dest: str | None) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, spec_arg)
    resolved, tag = _resolve_delta(out, name, delta, dest, cfg.unlearn.delta_target)
    params = cfg.unlearn.method_params
    if method_arg != "all":
        _unlearn_one(cfg, out, split, name, spec, _parse_method(method_arg), resolved, tag,
                     params)
        return
    # each method gets the keys it reads; a key that no method reads is a typo
    unknown = set(params) - set().union(*PARAM_KEYS.values())
    if unknown:
        raise ConfigError(f"unknown method_params: {sorted(unknown)}")
    for method in Method:
        _unlearn_one(cfg, out, split, name, spec, method, resolved, tag,
                     {k: v for k, v in params.items() if k in PARAM_KEYS[method]})


def cmd_eval(cfg: ExperimentConfig, out: Path, spec_arg: str, model_path: str) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, spec_arg)
    part = partition(split.train, spec)
    model = load_model(Path(model_path))
    check_model_fits(model, split.train, model_path)
    # include the parent directory so train/ and retrain/ models do not collide
    model_tag = f"{Path(model_path).parent.name}_{Path(model_path).stem}"
    eval_dir = out / "eval" / f"{model_tag}_{name}"
    sets = [("forget", part.forget), ("entangled", part.entangled),
            ("disjoint", part.disjoint), ("test", split.test.samples)]
    dvec, test_dvec = split_doc_vectors(model, split)
    _write_json(eval_dir / "report.json", {
        "model": str(model_path), "spec": name,
        "mrr_forget": mrr_forget(model, split.train, part, spec, dvec).value,
        "mrr_entangled": mrr_set(model, split.train, part.entangled, dvec).value,
        "mrr_disjoint": mrr_set(model, split.train, part.disjoint, dvec).value,
        "mrr_test": mrr_set(model, split.test, split.test.samples, test_dvec).value,
    })
    dists = score_distribution(
        [(model_tag, model)],
        split.train, [(n, s) for n, s in sets if n != "test"], dvec)
    dists += score_distribution([(model_tag, model)], split.test,
                                [("test", split.test.samples)], test_dvec)
    rows = [[d.model_name, d.set_name, d.count, d.min, d.max, d.mean,
             *d.deciles] for d in dists]
    _write_csv(eval_dir / "distributions.csv",
               ["model", "set", "count", "min", "max", "mean",
                *[f"p{p}" for p in range(10, 100, 10)]], rows)
    print(f"evaluated {model_path} on {name} -> {eval_dir}")


def cmd_report(cfg: ExperimentConfig, out: Path) -> None:
    run_dirs = sorted(p for p in (out / "unlearn").glob("*") if p.is_dir()) \
        if (out / "unlearn").exists() else []
    if not run_dirs:
        raise ConfigError(f"no unlearning runs under {out / 'unlearn'}")
    header = ["run", "method", "spec", "delta_target", "epochs_run", "stopped_early",
              "mrr_forget", "mrr_entangled", "mrr_disjoint", "mrr_test",
              "normalized_forget", "normalized_epoch_duration", "total_unlearn_time"]
    keys = tuple(header[1:])
    rows = []
    radar_rows: dict[str, list[float]] = {}
    forget_series: dict[str, list[float]] = {}
    for run_dir in run_dirs:
        report_path = run_dir / "report.json"
        if not report_path.exists():
            raise ConfigError(f"missing report.json in {run_dir}")
        r = _read_json(report_path, keys)
        rows.append([run_dir.name, *(r[key] for key in keys)])
        f_axis = r["normalized_forget"] if r["normalized_forget"] is not None \
            else r["mrr_forget"]
        radar_rows[run_dir.name] = [f_axis, r["mrr_entangled"], r["mrr_disjoint"],
                                    r["mrr_test"]]
        forget_series[run_dir.name] = _read_csv_column(run_dir / "trajectory.csv", 1)
    report_dir = out / "report"
    (report_dir / "charts").mkdir(parents=True, exist_ok=True)
    _write_csv(report_dir / "report.csv", header, rows)
    charts.radar_chart(report_dir / "charts" / "methods_radar.svg",
                       "Per-method final metrics", ["F", "E", "D", "T"], radar_rows)
    charts.line_chart(report_dir / "charts" / "forget_trajectories.svg",
                      "Forget-set MRR during unlearning", "checkpoint", "MRR",
                      forget_series)
    print(f"aggregated {len(rows)} runs into {report_dir / 'report.csv'}")


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="numur",
        description="Train, partition, unlearn, and evaluate a small neural ranker.")
    parser.add_argument("--config", help="JSON experiment configuration")
    parser.add_argument("--seed", type=int, help="override every configured seed")
    parser.add_argument("--out", default="runs", help="output directory (default: runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen", help="generate the synthetic corpus and forget specs")
    sub.add_parser("train", help="train the base ranking model")

    for name, needs_spec in (("retrain", True), ("partition", True)):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=needs_spec,
                       help="forget spec path or name under <out>/specs")

    p = sub.add_parser("unlearn", help="run an unlearning method")
    p.add_argument("--spec", required=True)
    p.add_argument("--method", default="cocol",
                   help="cocol|cf|amnesiac|neggrad|ssd|badt|all")
    p.add_argument("--delta", type=float, help="explicit forget-MRR target")
    p.add_argument("--dest", choices=["d1", "d2", "d3"],
                   help="stopping target taken from the retrained model")

    p = sub.add_parser("eval", help="evaluate a stored model on a forget spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True)

    sub.add_parser("report", help="aggregate unlearning runs into tables and charts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config, args.seed)
        out = Path(args.out)
        if args.command == "gen":
            cmd_gen(cfg, out)
        elif args.command == "train":
            cmd_train(cfg, out)
        elif args.command == "retrain":
            cmd_retrain(cfg, out, args.spec)
        elif args.command == "partition":
            cmd_partition(cfg, out, args.spec)
        elif args.command == "unlearn":
            cmd_unlearn(cfg, out, args.spec, args.method, args.delta, args.dest)
        elif args.command == "eval":
            cmd_eval(cfg, out, args.spec, args.model)
        elif args.command == "report":
            cmd_report(cfg, out)
    except NumurError as exc:
        print(f"ERROR:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR:io: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
