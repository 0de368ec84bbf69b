#!/usr/bin/env python3
"""Compare the artifacts of the whole CLI pipeline built from two source trees.

    python3 tools/golden_diff.py PARENT_SRC [CHANGE_SRC] [--seed N]

``PARENT_SRC`` and ``CHANGE_SRC`` are directories holding a ``numur``
package (``CHANGE_SRC`` defaults to this checkout's ``src``). For each
tree, one subprocess with that tree on ``PYTHONPATH`` runs, on the
config of every benchmark workload in ``perfbench/workloads.py``: gen,
train, retrain and partition on the workload's spec, partition on the
eval spec of the other removal kind, eval of the trained model on each
of its eval specs, unlearn with all six methods at ``--delta 0.001`` and
at ``--dest d2``, unlearn with all six methods at ``--delta 0.001`` on
the other kind's eval spec, so that partition and every strategy run
under both kinds, and report. Each run of
``VARIANTS`` then unlearns at ``--delta 0.001`` with its method and
method_params, in an output directory of its own, on a copy of the
workload's corpus, specs and trained model.

Model files, corpus and spec files, SVG charts and every other file that
is not a JSON or CSV artifact must be byte-identical between the trees.
JSON and CSV artifacts must be equal once the wall-time fields
(``wall_time_s``, ``normalized_epoch_duration``, ``total_unlearn_time``)
and the ``--model`` path of eval reports are left out. Every file that
differs, or exists in one tree only, is printed, and the exit status is
1; it is 0 when the trees match and 2 when a pipeline fails to run.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WALL_TIME_FIELDS = frozenset({"wall_time_s", "normalized_epoch_duration",
                              "total_unlearn_time"})
BYTE_EXACT_DIRS = ("corpus", "specs")  # their JSON is compared byte for byte
# Runs with method_params other than the defaults, by output directory:
# cocol's switches off one at a time (the contrastive loss without a
# partner, and no consistency pass), and each hinge strategy with another
# margin and an odd negatives_per_positive, which ends a positive on a
# uniform draw.
HINGE_PARAMS = {"margin": 0.5, "negatives_per_positive": 3}
VARIANTS = {"cocol-no-entangled": ("cocol", {"entangled_term": False}),
            "cocol-no-phase2": ("cocol", {"phase2": False}),
            **{f"{method}-hinge": (method, HINGE_PARAMS)
               for method in ("cf", "amnesiac", "neggrad", "ssd")}}

# Runs every (out, config, commands, inputs) job in one process and stops at
# the first command that fails; a job with inputs first copies the corpus,
# specs and trained model of that output directory into its own. The
# package must come from the tree under test.
RUNNER = """
import json, shutil, sys
from pathlib import Path
import numur
from numur.cli import main
tree, seed, jobs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
if not Path(numur.__file__).resolve().is_relative_to(Path(tree).resolve()):
    sys.exit(f"numur was imported from {numur.__file__}, not from {tree}")
for out, config, commands, inputs in jobs:
    for part in ("corpus", "specs", "train") if inputs else ():
        shutil.copytree(Path(inputs) / part, Path(out) / part)
    for args in commands:
        if main(["--config", config, "--seed", seed, "--out", out, *args]):
            sys.exit(f"{out}: numur {' '.join(args)} failed")
"""


def _kind(spec: str) -> str:
    """The removal kind of a spec that gen names ``spec_<kind>_<percent>``."""
    return spec.split("_")[1]


def _commands(workload, delta: str, out: Path) -> list[list[str]]:
    spec = workload.spec
    other, = (s for s in workload.eval_specs if _kind(s) != _kind(spec))
    return [["gen"], ["train"], ["retrain", "--spec", spec], ["partition", "--spec", spec],
            ["partition", "--spec", other],
            *[["eval", "--spec", s, "--model", str(out / "train" / "model.bin")]
              for s in workload.eval_specs],
            ["unlearn", "--spec", spec, "--method", "all", "--delta", delta],
            ["unlearn", "--spec", spec, "--method", "all", "--dest", "d2"],
            ["unlearn", "--spec", other, "--method", "all", "--delta", delta],
            ["report"]]


def _job(base: Path, config: dict, commands: list, inputs: Path | None = None) -> tuple:
    """A RUNNER job writing to ``base / "runs"``, its config in ``base``."""
    base.mkdir(parents=True)
    path = base / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(base / "runs"), str(path), commands, inputs and str(inputs)


def run_tree(src: Path, work: Path, workloads: dict, delta: str, seed: int) -> list[Path]:
    """Run each workload's pipeline, then its ``VARIANTS``, on the package
    in ``src``; returns the output directories, relative to ``work``.
    Workload ``name`` writes to ``name/runs`` and its variant ``v`` to
    ``name/v/runs``."""
    jobs, outs = [], []
    for name, workload in workloads.items():
        runs = work / name / "runs"
        jobs.append(_job(work / name, workload.config, _commands(workload, delta, runs)))
        outs.append(Path(name, "runs"))
        for variant, (method, params) in VARIANTS.items():
            unlearn = {**workload.config.get("unlearn", {}), "method_params": params}
            command = ["unlearn", "--spec", workload.spec, "--method", method, "--delta", delta]
            jobs.append(_job(work / name / variant, {**workload.config, "unlearn": unlearn},
                             [command], runs))
            outs.append(Path(name, variant, "runs"))
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", RUNNER, str(src), str(seed), json.dumps(jobs)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    return outs


def _without_wall_times(value):
    if isinstance(value, dict):
        return {k: _without_wall_times(v) for k, v in value.items()
                if k not in WALL_TIME_FIELDS}
    if isinstance(value, list):
        return [_without_wall_times(v) for v in value]
    return value


def _compared_fields(rel: Path, data: bytes) -> str:
    """A JSON or CSV artifact as canonical text, without its wall-time fields."""
    text = data.decode("utf-8")
    if rel.suffix == ".json":
        payload = _without_wall_times(json.loads(text))
        if rel.parts[0] == "eval" and isinstance(payload, dict):
            payload.pop("model", None)  # the --model path names the output directory
        return json.dumps(payload, sort_keys=True)
    rows = list(csv.reader(io.StringIO(text)))
    keep = [i for i, name in enumerate(rows[0]) if name not in WALL_TIME_FIELDS] \
        if rows else []
    return json.dumps([[row[i] for i in keep if i < len(row)] for row in rows])


def diff_trees(a: Path, b: Path) -> list[str]:
    """One line per artifact that differs between the output directories ``a`` and ``b``."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    out = [f"{rel}: only in {a}" for rel in sorted(files_a - files_b)]
    out += [f"{rel}: only in {b}" for rel in sorted(files_b - files_a)]
    for rel in sorted(files_a & files_b):
        data_a, data_b = (a / rel).read_bytes(), (b / rel).read_bytes()
        if data_a == data_b:
            continue
        if rel.suffix in (".json", ".csv") and rel.parts[0] not in BYTE_EXACT_DIRS:
            try:
                if _compared_fields(rel, data_a) == _compared_fields(rel, data_b):
                    continue
            except ValueError:  # not valid JSON or UTF-8 in one of the trees
                pass
            out.append(f"{rel}: differs outside the wall-time fields")
        else:
            out.append(f"{rel}: bytes differ")
    return out


def main(argv=None) -> int:
    sys.path.insert(0, str(REPO))
    from perfbench.workloads import UNREACHABLE_DELTA, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path, nargs="?", default=REPO / "src")
    parser.add_argument("--seed", type=int, default=3, help="seed of every pipeline")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden_diff_") as tmp:
        work = Path(tmp)
        for label, src in (("parent", args.parent_src), ("change", args.change_src)):
            try:
                outs = run_tree(src.resolve(), work / label, WORKLOADS, UNREACHABLE_DELTA,
                                args.seed)
            except subprocess.CalledProcessError:
                print(f"the pipeline failed on {src}", file=sys.stderr)
                return 2
        differing = 0
        for out in outs:
            a, b = work / "parent" / out, work / "change" / out
            name = out.parent.as_posix()
            lines = diff_trees(a, b)
            for line in lines:
                print(f"{name}: {line}")
            compared = sum(1 for p in a.rglob("*") if p.is_file())
            print(f"{name}: {compared} files compared, {len(lines)} differ")
            differing += len(lines)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
