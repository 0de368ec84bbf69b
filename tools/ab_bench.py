#!/usr/bin/env python3
"""Compare the end-to-end benchmark of a parent checkout and this one, in pairs.

    python3 tools/ab_bench.py PARENT_CHECKOUT --workload W --pairs N --seconds S [--seed K]

Each pair runs ``perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`` once in ``PARENT_CHECKOUT`` and once in this checkout, one
run at a time, each with its own checkout's benchmark and sources. Pair
i runs the parent first when i is even and this checkout first when it
is odd, since the run that goes second in a pair tends to read slower.

For every end-to-end metric of ``BENCHMARK.json`` it prints each side's
median and quartiles, the change of the median, how many pairs the
change won (ties count for neither side) and whether the medians differ
by more than the distance between the parent's quartiles. Any run that
is not correct, or that failed an operation, is printed too. The header
line gives each checkout's ``src/numur/*.py`` line count. The last line
of standard output is one JSON object with the pairs, the summary and
both line counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def end_to_end_directions(benchmark: Path) -> dict[str, str]:
    """Each end-to-end metric of a BENCHMARK.json and whether lower or higher is better."""
    spec = json.loads(benchmark.read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in spec["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced ``perfbench/run.py`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{checkout}: perfbench exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def src_lines(checkout: Path) -> int:
    """The lines of ``src/numur/*.py`` in ``checkout``, counted as perfbench counts them."""
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (checkout / "src" / "numur").glob("*.py"))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict[str, dict[str, float]]],
              directions: dict[str, str]) -> dict[str, dict]:
    """Per metric, over ``pairs`` of ``{"parent": metrics, "change": metrics}``:
    each side's quartiles, the relative change of the median, the pairs
    the change won and lost, and whether the medians differ by more than
    the distance between the parent's quartiles. A metric missing from a
    run of either side is left out of the summary."""
    out = {}
    for name, better in directions.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        parent, change = [a for a, _ in both], [b for _, b in both]
        sign = 1.0 if better == "lower" else -1.0
        p_q1, p_med, p_q3 = _quartiles(parent)
        c_q1, c_med, c_q3 = _quartiles(change)
        out[name] = {
            "pairs": len(both),
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "delta": (c_med - p_med) / p_med if p_med else float("nan"),
            "won": sum(sign * (a - b) > 0 for a, b in both),
            "lost": sum(sign * (a - b) < 0 for a, b in both),
            "beyond_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        }
    return out


def format_summary(summary: dict[str, dict]) -> list[str]:
    lines = [f"{'metric':18s} {'parent':>10s} {'change':>10s} {'delta':>8s} "
             f"{'won':>7s} {'> IQR':>6s}"]
    for name, row in summary.items():
        lines.append(f"{name:18s} {row['parent']['median']:10.4f} "
                     f"{row['change']['median']:10.4f} {100 * row['delta']:+7.1f}% "
                     f"{row['won']:3d}/{row['pairs']:<3d} "
                     f"{'yes' if row['beyond_parent_iqr'] else 'no':>6s}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} has no perfbench/run.py")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": REPO}
    pairs, bad = [], []
    for i in range(args.pairs):
        seed = args.seed + i
        pair = {}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, seed, args.seconds)
            if not result["correct"] or result["failed"]:
                bad.append(f"pair {i} ({side}, seed {seed}): correct={result['correct']} "
                           f"failed={result['failed']}")
            pair[side] = result["metrics"]
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr, flush=True)

    summary = summarize(pairs, end_to_end_directions(REPO / "BENCHMARK.json"))
    lines = {side: src_lines(checkouts[side]) for side in SIDES}
    print(f"{args.workload}: {args.pairs} pairs at {args.seconds:g} s, seeds "
          f"{args.seed}-{args.seed + args.pairs - 1}, medians in reference seconds; "
          f"src/numur lines: parent {lines['parent']}, change {lines['change']}")
    for line in format_summary(summary) + bad:
        print(line)
    print(json.dumps({"workload": args.workload, "seconds": args.seconds, "seed": args.seed,
                      "pairs": pairs, "summary": summary, "bad_runs": bad,
                      "src_lines": lines}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
