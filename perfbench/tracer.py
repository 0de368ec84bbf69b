"""In-memory tracing of calls into numur's modules, from outside the package.

``Tracer.install`` wraps every public function at the module attribute
where it is defined, and every copy another numur module binds under
the same name, because callers look a function up in their own module.
A span is named after the binding it went through (``ranker.score_pool``
is hard-negative mining, ``evaluation.score_pool`` is evaluation) and
belongs to the layer of the module that defines the function.

Every wrapped call is timed and counted, and its self time (duration
minus the time covered by wrapped calls it made) is added to its layer,
so the self times of all layers sum to the duration of the root span.
Calls of the per-pair functions in ``HOT`` are too frequent to keep one
record each; they are counted and timed but not stored as spans unless
``record_all`` is set. Spans hold name, start, end, parent index and
run id, stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("corpus", "partition", "ranker", "evaluation", "unlearn_losses",
           "unlearn_engine", "charts", "cli")
LAYERS = ("bench",) + MODULES

# Per-pair functions called hundreds of thousands of times per pipeline.
HOT = {"forward", "backward_score", "apply_gradients", "hinge_loss_and_grad",
       "pool_negatives", "delta", "delta_min", "contrastive_loss",
       "consistent_loss", "abs_delta_loss", "normalized_forget_score"}

# Calls counted as "active" when their result satisfies the predicate:
# a hinge step with positive loss, a forget term above the teacher floor.
ACTIVE = {"hinge_loss_and_grad": lambda r: r > 0.0, "delta_min": lambda r: r > 0.0}


def _files_size(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# Small facts kept from the results of a few calls (never the models).
SUMMARIES = {
    "generate_synthetic": lambda a, r: sum(len(p) for ds in (r.train, r.test)
                                           for p in ds.pools.values()),
    "save_dataset": lambda a, r: _files_size(a[1:5]),
    "load_dataset": lambda a, r: _files_size(a[0:4]),
    "partition": lambda a, r: (len(r.forget), len(r.entangled), len(r.disjoint)),
    "train": lambda a, r: list(r.epoch_times),
    "retrain": lambda a, r: list(r.epoch_times),
    "unlearn": lambda a, r: {"method": r.method.value, "epochs": r.epochs_run,
                             "checkpoints": len(r.trajectory),
                             "update_s": sum(r.epoch_times)},
}


class Tracer:
    def __init__(self, run_id: str, record_all: bool = False):
        self.run_id = run_id
        self.record_all = record_all
        self.spans: list[list] = []   # [name, start, end, parent index, run id]
        self.layer_of: dict[str, str] = {}
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.busy: dict[tuple[str, str], float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.kept: list[tuple[str, str, object]] = []   # (label, name, summary)
        self.label = ""   # the benchmark command running now
        # frames: [time covered by wrapped children, index of nearest recorded span]
        self._stack: list[list] = [[0.0, -1]]
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str, record: bool) -> tuple[list, list, int]:
        parent = self._stack[-1]
        idx = -1
        if record:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent[1], self.run_id])
        frame = [0.0, idx if record else parent[1]]
        self._stack.append(frame)
        return parent, frame, idx

    def _exit(self, name: str, parent: list, frame: list, idx: int,
              t0: float, t1: float) -> None:
        self._stack.pop()
        dur = t1 - t0
        self.self_time[self.layer_of[name]] += dur - frame[0]
        parent[0] += dur
        key = (self.label, name)
        self.busy[key] += dur
        self.calls[key] += 1
        if idx >= 0:
            span = self.spans[idx]
            span[1], span[2] = t0, t1

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (layer ``bench``)."""
        self.layer_of.setdefault(name, "bench")
        parent, frame, idx = self._enter(name, True)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(name, parent, frame, idx, t0, time.perf_counter())

    def _wrap(self, name: str, fn):
        base = fn.__name__
        record = self.record_all or base not in HOT
        active = ACTIVE.get(base)
        summary = SUMMARIES.get(base)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, frame, idx = self._enter(name, record)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, parent, frame, idx, t0, clock())
            if active is not None and active(result):
                self.active[name] += 1
            if summary is not None:
                self.kept.append((self.label, name, summary(args, result)))
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"numur.{m}") for m in MODULES}
        for home, mod in mods.items():
            for fname, fn in vars(mod).copy().items():
                if fname.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                for binder, bmod in mods.items():
                    if vars(bmod).get(fname) is fn:
                        name = f"{binder}.{fname}"
                        self.layer_of[name] = home
                        self._restore.append((bmod, fname, fn))
                        setattr(bmod, fname, self._wrap(name, fn))

    def uninstall(self) -> None:
        for mod, fname, fn in reversed(self._restore):
            setattr(mod, fname, fn)
        self._restore.clear()

    # -- queries -----------------------------------------------------------

    def total(self, name: str, label_prefix: str = "") -> float:
        return sum(v for (lab, n), v in self.busy.items()
                   if n == name and lab.startswith(label_prefix))

    def count(self, name: str, label_prefix: str = "") -> int:
        return sum(v for (lab, n), v in self.calls.items()
                   if n == name and lab.startswith(label_prefix))

    def kept_of(self, name: str, label_prefix: str = "") -> list:
        return [s for lab, n, s in self.kept if n == name and lab.startswith(label_prefix)]

    def check_spans(self) -> list[str]:
        """Problems with span nesting and self-time accounting; empty when sound.

        Recomputes each layer's self time from the stored spans, which
        covers every wrapped call only when ``record_all`` is set.
        """
        problems = []
        kids: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            kids[span[3]].append(i)
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            if end < start:
                problems.append(f"span {i} {name} ends before it starts")
            if run_id != self.run_id:
                problems.append(f"span {i} {name} has run id {run_id!r}")
            if parent >= 0:
                p = self.spans[parent]
                if parent >= i or start < p[1] or end > p[2]:
                    problems.append(f"span {i} {name} is not inside its parent {p[0]}")
        roots = kids.get(-1, [])
        if len(roots) != 1:
            problems.append(f"{len(roots)} root spans, expected 1")
            return problems
        root = self.spans[roots[0]]
        wall = root[2] - root[1]
        online = sum(self.self_time.values())
        if abs(online - wall) > 1e-6 * max(wall, 1.0):
            problems.append(f"self times sum to {online!r}, root span lasts {wall!r}")
        if self.record_all:
            offline: dict[str, float] = defaultdict(float)
            for i, span in enumerate(self.spans):
                covered = sum(self.spans[c][2] - self.spans[c][1] for c in kids.get(i, ()))
                offline[self.layer_of[span[0]]] += span[2] - span[1] - covered
            for layer in set(offline) | set(self.self_time):
                if abs(offline[layer] - self.self_time[layer]) > 1e-6:
                    problems.append(f"layer {layer}: self time from spans "
                                    f"{offline[layer]!r} != recorded {self.self_time[layer]!r}")
        return problems
