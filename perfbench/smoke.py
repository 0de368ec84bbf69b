"""Self-test of the benchmark on a tiny corpus (``run.py --smoke``).

Checks that BENCHMARK.json and the emitted metrics agree name for name
and unit for unit, that every wrapped call of a traced pass nests
inside its parent and the layers' self times sum to the traced wall
time, that the checkpoint count seen by the tracer matches the runs'
trajectories, and that the output checks count a tampered report.json
as a failure.
"""

from __future__ import annotations

import json
import shutil

import metrics
from workloads import SMOKE

SEED = 5


def _declared(root) -> tuple[dict, dict]:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def _emitted(values: dict, units: dict, declared: dict, kind: str) -> list[str]:
    problems = [f"{kind}: {name} declared as {unit!r}, emitted as {units.get(name)!r}"
                for name, unit in declared.items() if units.get(name) != unit]
    problems += [f"{kind}: {name} emitted but not declared" for name in units
                 if name not in declared]
    problems += [f"{kind}: {name} has no value" for name in declared if name not in values]
    return problems


def _tamper(run, work) -> list[str]:
    p = run.Pass(SMOKE, work / "tamper", SEED).run()
    before = p.check()
    report = metrics.unlearn_dir(p.out, "cocol", SMOKE.spec) / "report.json"
    data = json.loads(report.read_text())
    data["mrr_test"] += 0.125
    report.write_text(json.dumps(data))
    after = p.check()
    if before.failures or len(after.failures) != 1 or "report.json" not in after.failures[0]:
        return [f"tampered report: failures before {before.failures}, after {after.failures}"]
    return []


def main(run) -> int:
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    declared_e2e, declared_layer = _declared(run.ROOT)
    problems: list[str] = []
    try:
        values, outcome, _ = run.untraced(SMOKE, work / "plain", SEED, 0.0)
        problems += outcome.failures
        problems += _emitted(values, metrics.END_TO_END_UNITS, declared_e2e, "end_to_end")

        values, outcome, tracers = run.traced(SMOKE, work / "trace", SEED, "smoke", 0.0,
                                              record_all=True)
        problems += outcome.failures
        problems += _emitted(values, metrics.PER_LAYER_UNITS, declared_layer, "per_layer")
        problems += tracers[0].check_spans()
        expected = sum(values.get(f"unlearn.{m}.checkpoints", 0) for m in metrics.METHODS)
        if values.get("evaluation.checkpoints") != expected:
            problems.append(f"{values.get('evaluation.checkpoints')} checkpoint spans, "
                            f"{expected} trajectory rows")

        problems += _tamper(run, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"SMOKE FAILED {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0
