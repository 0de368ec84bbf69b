#!/usr/bin/env python3
"""Time one SGD step of the ranker, per step shape, for one or more source trees.

    python3 tools/step_bench.py SRC [SRC ...] [--runs N] [--number K]

Each SRC is a directory holding the ``numur`` package (the ``src`` of a
checkout). Every run starts one subprocess per tree, in turn, the order
reversed on odd runs; the subprocess builds the train split of the
sgd-wide workload's corpus (``perfbench/workloads.py``) and a fresh
dim-16 model, then times, for each step shape, ``PairStep(sgd, pairs)``
alone and ``sgd.apply(PairStep(sgd, pairs), upstream)``, and, for each
hinge run, ``HingeDraws(sgd, margin).run`` of one positive and four
draws, K calls per timing. It prints the minimum over the runs, in µs
per call, one row per shape or run and timing and one column per tree;
the last line of standard output is one JSON object with every run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import timeit
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
WORKLOAD = "sgd-wide"
DIM = 16

# name: (pairs, upstream) over a query with a positive p and its negatives
# n1..n4, and a pair (q2, d2) of another query; the upstream is that of an
# active step of the loss that takes such a step.
SHAPES = {
    "1 pair (badt)": (["q p"], [0.3]),
    "2 pairs, one query (hinge)": (["q p", "q n1"], [-1.0, 1.0]),
    "2 pairs, two queries (consistent)": (["q p", "q2 d2"], [0.3, -0.2]),
    "2 pairs, one doc (partner)": (["q p", "q2 p"], [0.3, -0.2]),
    "5 pairs, one query (wide hinge)": (["q p", "q n1", "q n2", "q n3", "q n4"],
                                        [-1.0, 0.0, 1.0, 0.0, 0.0]),
}

# name: margin of a HingeDraws whose run(q, p, [n1, n2, n3, n4]) is timed. At
# 100 every draw is active: four two-pair steps, each applied. At -100 every
# draw is inactive and the window is already wide: one five-pair step.
HINGE_RUNS = {
    "hinge positive, 4 draws active": 100.0,
    "hinge positive, 4 draws inactive": -100.0,
}


def _workload_corpus() -> dict:
    sys.path.insert(0, str(REPO))
    from perfbench.workloads import WORKLOADS
    return WORKLOADS[WORKLOAD].config["corpus"]


def _rows(dataset) -> dict[str, int]:
    """Query and doc rows for the names of ``SHAPES``."""
    positive = dataset.positive.nonzero()[0]
    q, p = int(dataset.sample_query[positive[0]]), int(dataset.sample_doc[positive[0]])
    other = positive[dataset.sample_query[positive] != q][0]
    pool = [int(d) for d in dataset.pool_matrix[q, :dataset.pool_len[q]] if d != p]
    return {"q": q, "p": p, "q2": int(dataset.sample_query[other]),
            "d2": int(dataset.sample_doc[other]), **{f"n{i + 1}": pool[i] for i in range(4)}}


def worker(number: int) -> dict[str, dict[str, float]]:
    """µs per call of each shape under the ``numur`` on ``sys.path``."""
    from numur import SyntheticConfig, generate_synthetic, init_model
    from numur.ranker import HingeDraws, PairStep, Sgd

    dataset = generate_synthetic(SyntheticConfig(**_workload_corpus())).train
    sgd = Sgd(init_model(dataset.vocab_size, DIM, seed=0), dataset, 1e-6)
    rows = _rows(dataset)
    out = {}
    for name, (pairs, upstream) in SHAPES.items():
        pairs = [tuple(rows[k] for k in pair.split()) for pair in pairs]
        step = timeit.Timer(lambda: PairStep(sgd, pairs))
        applied = timeit.Timer(lambda: sgd.apply(PairStep(sgd, pairs), upstream))
        out[name] = {"step": min(step.repeat(3, number)) / number * 1e6,
                     "step+apply": min(applied.repeat(3, number)) / number * 1e6}
    negs = [rows[f"n{i + 1}"] for i in range(4)]
    for name, margin in HINGE_RUNS.items():
        draws = HingeDraws(sgd, margin)
        draws.run(rows["q"], rows["p"], negs)  # an inactive last draw leaves the window wide
        run = timeit.Timer(lambda: draws.run(rows["q"], rows["p"], negs))
        out[name] = {"run": min(run.repeat(3, number)) / number * 1e6}
    return out


def run_tree(src: Path, number: int) -> dict[str, dict[str, float]]:
    proc = subprocess.run([sys.executable, __file__, "--worker", "--number", str(number)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"{src}: step bench exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, nargs="*", default=[REPO / "src"])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--number", type=int, default=2000)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.number)))
        return 0
    if args.runs < 1 or args.number < 1:
        parser.error("--runs and --number must be at least 1")
    for src in args.src:
        if not (src / "numur" / "ranker.py").is_file():
            parser.error(f"{src} has no numur/ranker.py")

    trees = [str(src) for src in args.src]
    runs = []
    for i in range(args.runs):
        order = trees if i % 2 == 0 else trees[::-1]
        runs.append({tree: run_tree(Path(tree), args.number) for tree in order})
    print(f"{WORKLOAD} corpus, dim {DIM}: min µs per call over {args.runs} runs "
          f"of {args.number} calls")
    for col, tree in enumerate(trees):
        print(f"  [{col}] {tree}")
    columns = " ".join(f"{f'[{c}]':>8s}" for c in range(len(trees)))
    print(f"{'shape':36s} {'timing':>10s} {columns}")
    for name in [*SHAPES, *HINGE_RUNS]:
        for timing in runs[0][trees[0]][name]:
            cells = [min(run[tree][name][timing] for run in runs) for tree in trees]
            print(f"{name:36s} {timing:>10s} " + " ".join(f"{c:8.2f}" for c in cells))
    print(json.dumps({"workload": WORKLOAD, "dim": DIM, "number": args.number, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
