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

import numpy as np

from . import charts
from .corpus import (CorpusSplit, SyntheticConfig, dataset_stats, file_digests,
                     generate_synthetic, load_dataset, load_image, read_json, read_utf8,
                     save_dataset, save_image, write_lines)
from .errors import ConfigError, DataError, NumurError, checked
from .evaluation import normalized_forget_score, score_distribution, timing_metrics
from .partition import (ForgetSpec, RemovalKind, load_forget_spec, partition,
                        sample_forget_spec, save_forget_spec)
from .ranker import (TrainConfig, check_model_fits, load_model, pool_split, retrain,
                     save_model, train)
from .unlearn_engine import (PARAMS, Method, UnlearnConfig, _mrrs, compute_destinations,
                             unlearn)

DEFAULT_FRACTIONS = (0.05, 0.15, 0.25)


# ---------------------------------------------------------------------------
# Configuration


# Config field annotations, as types or as strings, that _take checks.
_KINDS = {"int": int, "float": float, "bool": bool, "dict": dict}


def _take(section, cls, name: str, **extra):
    """``cls`` built from a config ``section``, a JSON object whose keys are
    fields of ``cls``; each int, float, bool or dict field must hold a
    value of that kind (``checked``)."""
    checked(f"config section {name!r}", section, dict)
    fields = cls.__dataclass_fields__
    unknown = set(section) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {name} config keys: {sorted(unknown)}")
    for key, value in section.items():
        kind = _KINDS.get(getattr(fields[key].type, "__name__", fields[key].type))
        if kind is not None:
            checked(f"{name} {key!r}", value, kind)
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
                raw = read_json(Path(path))
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {path}") from None
        checked("the config", raw, dict)
        unknown = set(raw) - {"corpus", "train", "unlearn", "removal_fractions", "seed"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        if raw.get("seed") is not None:
            checked("seed", raw["seed"], int)
        seed = seed_override if seed_override is not None else raw.get("seed")

        corpus = _take(raw.get("corpus", {}), SyntheticConfig, "corpus")
        train_cfg = _take(raw.get("train", {}), TrainConfig, "train")
        unlearn_raw = dict(checked("config section 'unlearn'", raw.get("unlearn", {}), dict))
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
        for name, section in (("corpus", corpus), ("train", train_cfg), ("unlearn", unlearn_cfg)):
            if section.seed < 0:  # numpy's generators take none
                raise ConfigError(f"{name} seed must be non-negative, got {section.seed}")

        fractions = raw.get("removal_fractions", list(DEFAULT_FRACTIONS))
        if type(fractions) is not list:
            raise ConfigError(f"removal_fractions must be a list, got {fractions!r}")
        fractions = tuple(checked("removal_fractions entry", f, float) for f in fractions)
        if not fractions or not all(0.0 < f < 1.0 for f in fractions):
            raise ConfigError("removal_fractions must be a non-empty list inside (0, 1)")
        named: dict[str, float] = {}
        for f in fractions:
            suffix = _spec_suffix(f)
            if suffix in named:
                raise ConfigError(f"removal_fractions {named[suffix]!r} and {f!r} both name "
                                  f"spec_document_{suffix}.json and spec_query_{suffix}.json")
            named[suffix] = f
        return cls(corpus, train_cfg, unlearn_cfg, fractions)


def _spec_suffix(fraction: float) -> str:
    """The end of the names of the forget specs gen writes for ``fraction``."""
    return f"{int(round(fraction * 100)):02d}"


def _parse_method(name) -> Method:
    try:
        return Method(str(name).lower())
    except ValueError:
        raise ConfigError(
            f"unknown method {name!r}; expected one of "
            f"{[m.value for m in Method]}") from None


# ---------------------------------------------------------------------------
# Artifacts that a later command reads back, each declared once: its JSON
# keys or CSV columns in written order, each with the kind of value it holds
# (``checked``). None is a number or null; a dict is a nested declaration.

TRAIN_TRAJECTORY = {"epoch": int, "loss": float, "mrr_train": float, "wall_time_s": float}
UNLEARN_TRAJECTORY = {"epoch": int, "mrr_forget": float, "mrr_entangled": float,
                      "mrr_disjoint": float, "mrr_test": float, "wall_time_s": float}
CORPUS_STATS = {"vocab_size": int, "train": dict, "test": dict}
RETRAIN_REPORT = {"mrr_forget": float, "mrr_entangled": float, "mrr_disjoint": float,
                  "mrr_test": float, "destinations": {"d1": float, "d2": float, "d3": float}}
RUN_REPORT = {"method": str, "spec": str, "delta_target": float, "epochs_run": int,
              "stopped_early": bool, "edited_params": int, "mrr_forget": float,
              "mrr_entangled": float, "mrr_disjoint": float, "mrr_test": float,
              "normalized_forget": None, "normalized_epoch_duration": None,
              "total_unlearn_time": None}


# ---------------------------------------------------------------------------
# Output layout and serialisation helpers


# The parsed arrays of both splits, beside the corpus text (corpus.save_image).
CORPUS_IMAGE = "arrays.bin"


def _corpus_paths(out: Path, split_name: str):
    base = out / "corpus"
    return (base / f"{split_name}_queries.jsonl", base / "docs.jsonl",
            base / f"{split_name}_qrels.tsv", base / f"{split_name}_pools.tsv")


def _write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])


def _check(name: str, value, kind) -> None:
    """ConfigError unless ``value`` is of ``kind``; a declaration key by key."""
    if isinstance(kind, dict):
        checked(name, value, dict)
        for key, field in kind.items():
            if key not in value:
                raise ConfigError(f"{name} lacks the key {key!r}")
            _check(key, value[key], field)
    elif kind is not None or value is not None:
        checked(name, value, kind or float)


def _read_artifact(path: Path, fields: dict) -> dict:
    """The JSON object in ``path``, checked against the declaration ``fields``."""
    payload = read_json(path)
    try:
        _check("the file", payload, fields)
    except ConfigError as exc:
        raise DataError(f"{path}: {exc}") from None
    return payload


def _read_column(path: Path, columns: dict, name: str) -> list:
    """Column ``name`` of a CSV that _write_csv wrote with the declared
    ``columns`` as its header: a value of the column's kind per row."""
    col, kind = list(columns).index(name), columns[name]
    header, *lines = read_utf8(path).strip().splitlines() or [""]
    if header != ",".join(columns):
        raise DataError(f"{path}:1: expected the header {','.join(columns)}")
    values = []
    for lineno, line in enumerate(lines, start=2):
        try:
            values.append(checked(name, kind(line.split(",")[col]), kind))
        except (IndexError, ValueError, ConfigError):
            what = "an integer" if kind is int else "a finite number"
            raise DataError(f"{path}:{lineno}: expected {what} in column {col + 1}") from None
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
    """Both splits of ``out``'s corpus: from its image when the image holds
    this text's arrays, else parsed from the text, which then writes the
    image unless the text changed while it was parsed or the image cannot
    be written (a read-only corpus)."""
    train_paths, test_paths = _corpus_paths(out, "train"), _corpus_paths(out, "test")
    sources = sorted(set(train_paths + test_paths))
    image = out / "corpus" / CORPUS_IMAGE
    digests = file_digests(sources)
    loaded = load_image(image, digests) if digests is not None else None
    if loaded is not None:
        train_ds, test_ds = loaded
    else:
        # both splits share one docs.jsonl: the test split holds the train
        # split's parsed doc side, with its row map, length groups and id order
        train_ds = load_dataset(*train_paths)
        test_ds = load_dataset(*test_paths, docs_from=train_ds)
        if digests is not None and file_digests(sources) == digests:
            try:
                save_image(image, digests, train_ds, test_ds)
            except OSError:  # the next load parses the text again
                pass
    vocab = max(train_ds.vocab_size, test_ds.vocab_size)
    stats_path = out / "corpus" / "stats.json"
    if stats_path.exists():
        # the generator records its vocabulary size; token inference can
        # undershoot it when the highest ids happen never to be drawn
        vocab = max(vocab, _read_artifact(stats_path, CORPUS_STATS)["vocab_size"])
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
    """The training epoch wall times, each > 0: the unit of the timing metrics."""
    path = out / "train" / "trajectory.csv"
    if not path.exists():
        raise ConfigError(f"training trajectory not found at {path}")
    times = _read_column(path, TRAIN_TRAJECTORY, "wall_time_s")
    for lineno, wall in enumerate(times, start=2):
        if not wall > 0.0:
            raise DataError(f"{path}:{lineno}: expected a wall time above 0 in column "
                            f"{list(TRAIN_TRAJECTORY).index('wall_time_s') + 1}, got {wall!r}")
    return times


# ---------------------------------------------------------------------------
# Commands: each takes the config, the output directory and the parsed
# arguments, and build_parser names it once, on its subparser.


def cmd_gen(cfg: ExperimentConfig, out: Path, args) -> None:
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
            name = f"spec_{kind.value}_{_spec_suffix(fraction)}.json"
            save_forget_spec(spec, out / "specs" / name)
    print(f"wrote corpus and {2 * len(cfg.fractions)} forget specs under {out}")


def _write_fit(fit_dir: Path, result, header) -> None:
    """A training or retraining result's model.bin and trajectory.csv, one
    row per epoch under ``header``, in ``fit_dir``."""
    fit_dir.mkdir(parents=True, exist_ok=True)
    save_model(result.model, fit_dir / "model.bin")
    rows = [[e + 1, loss, mrr, wall] for e, (loss, mrr, wall) in
            enumerate(zip(result.epoch_losses, result.epoch_mrr, result.epoch_times))]
    _write_csv(fit_dir / "trajectory.csv", header, rows)


def cmd_train(cfg: ExperimentConfig, out: Path, args) -> None:
    split = _load_split(out)
    result = train(split, cfg.train)
    _write_fit(out / "train", result, TRAIN_TRAJECTORY)
    final = result.epoch_mrr[-1] if result.epoch_mrr else float("nan")
    print(f"trained {cfg.train.epochs} epochs; final train MRR {final:.4f}")


def cmd_partition(cfg: ExperimentConfig, out: Path, args) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, args.spec)
    train = split.train
    part = partition(train, spec)
    _write_json(out / "partition" / name / "partition.json", {
        "spec": {"kind": spec.kind.value, "ids": sorted(spec.ids)},
        "sizes": {"forget": len(part.forget), "entangled": len(part.entangled),
                  "disjoint": len(part.disjoint)},
        "forget_queries": sorted(train.queries.ids[q]
                                 for q in np.unique(train.sample_query[part.forget])),
        "forget_docs": sorted(train.docs.ids[d] for d in np.unique(train.sample_doc[part.forget])),
    })
    print(f"partition {name}: |F|={len(part.forget)} |E|={len(part.entangled)} "
          f"|D|={len(part.disjoint)}")


def cmd_retrain(cfg: ExperimentConfig, out: Path, args) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, args.spec)
    part = partition(split.train, spec)
    if not len(part.forget):  # before fitting, so nothing is written
        raise ConfigError("forget set is empty")
    result = retrain(split, cfg.train, part)
    dest_dir = out / "retrain" / name
    _write_fit(dest_dir, result, ["epoch", "loss", "mrr_retained", "wall_time_s"])
    dest = compute_destinations(*pool_split(result.model, split, result.pooled), part)
    _write_json(dest_dir / "report.json",
                {**dest.mrrs, "destinations": {"d1": dest.d1, "d2": dest.d2, "d3": dest.d3}})
    print(f"retrained for {name}: destinations d1={dest.d1:.4f} d2={dest.d2:.4f} "
          f"d3={dest.d3:.4f}")


def _resolve_delta(out: Path, spec_name: str, delta: float | None, dest: str | None,
                   fallback: float) -> tuple[float, str, dict | None]:
    """The target, its tag, and the retrain report of ``spec_name`` if there
    is one (``RETRAIN_REPORT``)."""
    if delta is not None and dest is not None:
        raise ConfigError("give either --delta or --dest, not both")
    report_path = out / "retrain" / spec_name / "report.json"
    report = _read_artifact(report_path, RETRAIN_REPORT) if report_path.exists() else None
    if delta is not None:
        return float(delta), f"delta{delta:g}", report
    if dest is not None:
        if report is None:
            raise ConfigError(
                f"destination mode needs {report_path}; run `numur retrain` first")
        return float(report["destinations"][dest]), dest, report
    return fallback, f"delta{fallback:g}", report


def cmd_unlearn(cfg: ExperimentConfig, out: Path, args) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, args.spec)
    delta, tag, retrain_report = _resolve_delta(out, name, args.delta, args.dest,
                                                cfg.unlearn.delta_target)
    params = cfg.unlearn.method_params
    if args.method != "all":
        runs = [(_parse_method(args.method), params)]
    else:
        # each method gets the keys it reads; a key that no method reads is a typo
        unknown = set(params) - set().union(*PARAMS.values())
        if unknown:
            raise ConfigError(f"unknown method_params: {sorted(unknown)}")
        runs = [(method, {k: v for k, v in params.items() if k in PARAMS[method]})
                for method in Method]
    # read before the first run, so a damaged file leaves no run directory
    # behind; every run unlearns from the same model and partition
    train_times = _train_epoch_times(out)
    part = partition(split.train, spec)
    model_path = _train_model_path(out)
    m_train = load_model(model_path)
    check_model_fits(m_train, split.train, model_path)
    for method, method_params in runs:
        run_cfg = replace(cfg.unlearn, method=method, delta_target=delta,
                          method_params=method_params)
        run = unlearn(m_train, split, part, run_cfg)

        run_dir = out / "unlearn" / f"{method.value}_{name}_{tag}"
        run_dir.mkdir(parents=True, exist_ok=True)
        save_model(run.final_model, run_dir / "model.bin")
        _write_csv(run_dir / "trajectory.csv", UNLEARN_TRAJECTORY,
                   [[r.epoch, r.mrr_forget, r.mrr_entangled, r.mrr_disjoint, r.mrr_test,
                     r.epoch_wall_time] for r in run.trajectory])
        _write_json(run_dir / "run_config.json", {
            "method": method.value, "spec": name, "delta_target": delta,
            "max_epochs": run_cfg.max_epochs, "learning_rate": run_cfg.learning_rate,
            "seed": run_cfg.seed, "check_every": run_cfg.check_every,
            "method_params": method_params, "target": tag,
        })

        last = run.trajectory[-1]
        report = dict.fromkeys(RUN_REPORT)
        report.update(method=method.value, spec=name, delta_target=delta,
                      epochs_run=run.epochs_run, stopped_early=run.stopped_early,
                      edited_params=run.edited_params, mrr_forget=last.mrr_forget,
                      mrr_entangled=last.mrr_entangled, mrr_disjoint=last.mrr_disjoint,
                      mrr_test=last.mrr_test)
        if retrain_report is not None:
            report["normalized_forget"] = normalized_forget_score(last.mrr_forget,
                                                                  retrain_report["mrr_test"])
        if run.epoch_times and train_times:
            report.update(timing_metrics(train_times, run.epoch_times))
        _write_json(run_dir / "report.json", report)
        print(f"{method.value} on {name} -> forget MRR {last.mrr_forget:.4f} "
              f"after {run.epochs_run} epochs (stopped_early={run.stopped_early})")


def cmd_eval(cfg: ExperimentConfig, out: Path, args) -> None:
    split = _load_split(out)
    name, spec = _resolve_spec(out, args.spec)
    part = partition(split.train, spec)
    model_path = args.model
    model = load_model(Path(model_path))
    check_model_fits(model, split.train, model_path)
    # include the parent directory so train/ and retrain/ models do not collide
    model_tag = f"{Path(model_path).parent.name}_{Path(model_path).stem}"
    eval_dir = out / "eval" / f"{model_tag}_{name}"
    train_pool, test_pool = pool_split(model, split)
    test = np.arange(split.test.n_samples)
    _write_json(eval_dir / "report.json",
                {"model": str(model_path), "spec": name, **_mrrs(train_pool, test_pool, part)})
    dists = score_distribution(model_tag, train_pool, [
        ("forget", part.forget), ("entangled", part.entangled), ("disjoint", part.disjoint)])
    dists += score_distribution(model_tag, test_pool, [("test", test)])
    rows = [[d.model_name, d.set_name, d.count, d.min, d.max, d.mean, *d.deciles]
            for d in dists]
    _write_csv(eval_dir / "distributions.csv",
               ["model", "set", "count", "min", "max", "mean",
                *[f"p{p}" for p in range(10, 100, 10)]], rows)
    print(f"evaluated {model_path} on {name} -> {eval_dir}")


def cmd_report(cfg: ExperimentConfig, out: Path, args) -> None:
    run_dirs = sorted(p for p in (out / "unlearn").glob("*") if p.is_dir()) \
        if (out / "unlearn").exists() else []
    if not run_dirs:
        raise ConfigError(f"no unlearning runs under {out / 'unlearn'}")
    keys = [key for key in RUN_REPORT if key != "edited_params"]
    rows = []
    radar_rows: dict[str, list[float]] = {}
    forget_series: dict[str, list[float]] = {}
    for run_dir in run_dirs:
        report_path = run_dir / "report.json"
        if not report_path.exists():
            raise ConfigError(f"missing report.json in {run_dir}")
        r = _read_artifact(report_path, RUN_REPORT)
        rows.append([run_dir.name, *(r[key] for key in keys)])
        f_axis = r["normalized_forget"] if r["normalized_forget"] is not None \
            else r["mrr_forget"]
        radar_rows[run_dir.name] = [f_axis, r["mrr_entangled"], r["mrr_disjoint"],
                                    r["mrr_test"]]
        forget_series[run_dir.name] = _read_column(run_dir / "trajectory.csv",
                                                   UNLEARN_TRAJECTORY, "mrr_forget")
    report_dir = out / "report"
    (report_dir / "charts").mkdir(parents=True, exist_ok=True)
    _write_csv(report_dir / "report.csv", ["run", *keys], rows)
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

    # each subcommand carries its command; main builds the parser on every
    # call, so a cli.cmd_* replaced after import is the one that runs
    sub.add_parser("gen", help="generate the synthetic corpus and forget specs") \
        .set_defaults(run=cmd_gen)
    sub.add_parser("train", help="train the base ranking model").set_defaults(run=cmd_train)

    for name, run in (("retrain", cmd_retrain), ("partition", cmd_partition)):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="forget spec path or name under <out>/specs")
        p.set_defaults(run=run)

    p = sub.add_parser("unlearn", help="run an unlearning method")
    p.set_defaults(run=cmd_unlearn)
    p.add_argument("--spec", required=True)
    p.add_argument("--method", default="cocol",
                   help="cocol|cf|amnesiac|neggrad|ssd|badt|all")
    p.add_argument("--delta", type=float, help="explicit forget-MRR target")
    p.add_argument("--dest", choices=list(RETRAIN_REPORT["destinations"]),
                   help="stopping target taken from the retrained model")

    p = sub.add_parser("eval", help="evaluate a stored model on a forget spec")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--spec", required=True)
    p.add_argument("--model", required=True)

    sub.add_parser("report", help="aggregate unlearning runs into tables and charts") \
        .set_defaults(run=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(ExperimentConfig.load(args.config, args.seed), Path(args.out), args)
    except NumurError as exc:
        print(f"ERROR:{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR:io: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"ERROR:memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
