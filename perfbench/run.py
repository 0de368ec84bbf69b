#!/usr/bin/env python3
"""Benchmark of the numur CLI pipeline, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-doc25 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke     # tiny corpus; checks the benchmark itself

The program under test is ``src/numur`` of the checkout, driven through
``numur.cli.main`` in this process by one client that issues the
workload's commands one after another (a closed loop). The seed is
passed to every command as ``--seed``, so the corpus, the removal specs
and all training draws come from it; the program sees only the
generated files and a config file written here.

``--trace 0`` repeats the whole pipeline (gen to report) as long as
another pass fits in ``--seconds`` and reports the median of each
end-to-end metric over the passes, with times in reference seconds
(see probe.py). ``--trace 1`` alternates untraced
passes with passes in which every public numur function is wrapped
(see tracer.py), and reports the median per-layer metrics and the
tracing overhead. After the timed passes every artifact is checked
(see checks.py); the last line of standard output is one JSON object
with the outcome and the metrics.
"""

import os

# One process on a shared machine: pin BLAS to one thread before numpy
# loads, and leave numur's own evaluation thread pool at its default.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"
os.environ.pop("NUMUR_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"


def import_cli():
    """numur.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "numur" / "cli.py").is_file():
        sys.exit(f"perfbench: no numur sources at {SRC / 'numur'}; "
                 "run from the root of a numur checkout")
    sys.path.insert(0, str(SRC))
    import numur.cli as cli
    if Path(cli.__file__).resolve().parent != (SRC / "numur").resolve():
        sys.exit(f"perfbench: imported numur from {cli.__file__}, not from {SRC}")
    return cli


cli = import_cli()

import numpy as np  # noqa: E402

import metrics  # noqa: E402
from checks import Checker, Outcome  # noqa: E402
from probe import probe, reference_seconds  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


class Pass:
    """One run of a workload's whole command sequence in its own directory.

    A probed pass runs the speed probe before the first command and after
    each command, and keeps each command's time in reference seconds too.
    """

    def __init__(self, workload: Workload, out: Path, seed: int,
                 tracer: Tracer | None = None, probed: bool = False):
        self.workload, self.out, self.seed, self.tracer = workload, out, seed, tracer
        self.probed = probed
        self.times: dict[str, float] = {}       # measured seconds per command
        self.ref_times: dict[str, float] = {}   # reference seconds per command
        self.probes: list[float] = []
        self.codes: dict[str, int] = {}
        self.wall = 0.0

    def _command(self, label: str, argv: list[str]) -> None:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = cli.main(argv)
        except Exception:   # a traceback is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
        self.times[label] = time.perf_counter() - t0
        self.codes[label] = code

    def run(self) -> "Pass":
        self.out.mkdir(parents=True)
        config = self.out / "config.json"
        config.write_text(json.dumps(self.workload.config))
        base = ["--out", str(self.out), "--seed", str(self.seed), "--config", str(config)]
        tr = self.tracer
        root = tr.span("bench.pipeline") if tr else contextlib.nullcontext()
        t0 = time.perf_counter()
        if self.probed:
            self.probes.append(probe())
        with root:
            for label, args in self.workload.commands():
                argv = base + [a.replace("{out}", str(self.out)) for a in args]
                if tr is None:
                    self._command(label, argv)
                else:
                    tr.label = label
                    with tr.span(f"bench.{label}"):
                        self._command(label, argv)
                    tr.label = ""
                if self.probed:
                    self.probes.append(probe())
                    self.ref_times[label] = reference_seconds(
                        self.times[label], self.probes[-2], self.probes[-1])
        self.wall = time.perf_counter() - t0
        return self

    def check(self) -> Outcome:
        outcome = Outcome()
        for label, code in self.codes.items():
            outcome.record(code == 0, f"command {label} exited with {code}")
        if all(code == 0 for code in self.codes.values()):
            outcome.merge(Checker(self.out).all(self.workload.spec))
        return outcome


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(workload: str, seed: int) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "numur").glob("*.py"))
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": _git_commit(),
        "src_lines": src_lines,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "NUMUR_THREADS": os.environ.get("NUMUR_THREADS", "unset"),
    }


def _medians(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(v[k] for v in per_pass) for k in per_pass[0]}


def untraced(workload: Workload, work: Path, seed: int, seconds: float):
    """Probed passes while another one fits in `seconds`; medians over the passes.

    Times are in reference seconds (see probe.py); the measured medians
    and the probe times go to the facts line.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    # start another pass only if one more, as long as the last, still fits
    while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(Pass(workload, work / f"pass{len(passes)}", seed, probed=True).run())
    rss = peak_rss_mb()
    outcome = Outcome()
    for p in passes:
        outcome.merge(p.check())
    values, facts = {}, {"passes": len(passes)}
    if not outcome.failures:
        values = _medians([metrics.end_to_end(p.ref_times) for p in passes])
        values["peak_rss_mb"] = rss
        facts["measured_s"] = _medians([metrics.end_to_end(p.times) for p in passes])
        facts["probe_s"] = statistics.median(x for p in passes for x in p.probes)
    return values, outcome, facts


def traced(workload: Workload, work: Path, seed: int, run_id: str, seconds: float,
           record_all: bool = False):
    """Untraced and traced passes of the same seed, in alternation, for `seconds`.

    Each traced pass is compared with the untraced pass just before it;
    every per-layer metric is the median over the traced passes.
    """
    pairs: list[tuple[Pass, Pass, Tracer]] = []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start
                        + pairs[-1][0].wall + pairs[-1][1].wall <= seconds):
        k = len(pairs)
        plain = Pass(workload, work / f"untraced{k}", seed).run()
        tracer = Tracer(f"{run_id}-t{k}", record_all=record_all)
        tracer.install()
        try:
            tp = Pass(workload, work / f"traced{k}", seed, tracer).run()
        finally:
            tracer.uninstall()
        pairs.append((plain, tp, tracer))
    outcome = Outcome()
    for plain, tp, _ in pairs:
        outcome.merge(plain.check())
        outcome.merge(tp.check())
    values = {}
    if not outcome.failures:
        values = _medians([metrics.per_layer(tr, tp.out, workload.spec, tp.wall, plain.wall)
                           for plain, tp, tr in pairs])
    return values, outcome, [tr for _, _, tr in pairs]


def write_spans(tracers: list[Tracer], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for tracer in tracers:
            for name, start, end, parent, run_id in tracer.spans:
                fh.write(json.dumps({"name": name, "layer": tracer.layer_of[name],
                                     "start": start, "end": end, "parent": parent,
                                     "run": run_id}) + "\n")


def result_line(values: dict, units: dict, outcome: Outcome) -> str:
    return json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the benchmark's self-test on a tiny corpus")
    args = parser.parse_args(argv)
    if args.smoke:
        import smoke
        return smoke.main(sys.modules[__name__])
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-s{args.seed}-p{os.getpid()}"
    work = WORK / run_id
    try:
        if args.trace:
            values, outcome, tracers = traced(workload, work, args.seed, run_id,
                                              args.seconds)
            write_spans(tracers, WORK / "traces" / f"{run_id}.jsonl")
            units, facts = metrics.PER_LAYER_UNITS, {"passes": 2 * len(tracers)}
        else:
            values, outcome, facts = untraced(workload, work, args.seed, args.seconds)
            units = metrics.END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in outcome.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"facts": machine_facts(workload.name, args.seed), **facts,
                      "failed_frac": len(outcome.failures) / outcome.attempted}))
    for name, value in values.items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    print(result_line(values, units, outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
