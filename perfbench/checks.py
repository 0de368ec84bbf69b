"""Output checks that share no code with numur.

Models and corpus files are parsed here from their documented formats,
the forget/entangled/disjoint split is recomputed from the removal spec,
and every MRR in the reports is recomputed with a numpy scorer that
ranks each pool by (-score, doc id). Each check is one operation of the
benchmark: it passes or it adds one failure with a message.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MRR_TOLERANCE = 1e-9


@dataclass
class Outcome:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


def read_model(path: Path) -> tuple[np.ndarray, np.ndarray]:
    blob = path.read_bytes()
    if blob[:4] != b"NUMR":
        raise ValueError(f"{path}: bad magic")
    _version, vocab, dim = struct.unpack("<III", blob[4:16])
    table = np.frombuffer(blob, dtype="<f8", offset=16)
    if table.size != 2 * vocab * dim:
        raise ValueError(f"{path}: {table.size} parameters, expected {2 * vocab * dim}")
    return table[:vocab * dim].reshape(vocab, dim), table[vocab * dim:].reshape(vocab, dim)


def _read_tokens(path: Path) -> dict[str, list[int]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            out[str(obj["id"])] = obj["tokens"]
    return out


def _read_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return [line.split("\t") for line in lines if line]


class Split:
    """One corpus split read from <out>/corpus: tokens, samples and pools."""

    def __init__(self, corpus_dir: Path, name: str):
        self.queries = _read_tokens(corpus_dir / f"{name}_queries.jsonl")
        self.docs = _read_tokens(corpus_dir / "docs.jsonl")
        self.samples = [(q, d, int(label)) for q, d, label
                        in _read_rows(corpus_dir / f"{name}_qrels.tsv")]
        pools: dict[str, list[tuple[int, str]]] = {}
        for q, d, hint in _read_rows(corpus_dir / f"{name}_pools.tsv"):
            pools.setdefault(q, []).append((int(hint), d))
        self.pools = {q: [d for _, d in sorted(rows)] for q, rows in pools.items()}
        self.doc_ids = sorted(self.docs)
        self.doc_index = {d: i for i, d in enumerate(self.doc_ids)}

    def _pooled(self, table: np.ndarray, items: dict[str, list[int]], ids: list[str]):
        lengths = np.array([len(items[i]) for i in ids])
        flat = np.concatenate([items[i] for i in ids])
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        return np.add.reduceat(table[flat], starts, axis=0) / lengths[:, None]

    def first_ranks(self, model, targets: dict[str, set[str]]) -> list[int | None]:
        """1-based position of the first target doc in each query's ranked pool."""
        embed_q, embed_d = model
        qids = sorted(targets)
        if not qids:
            return []
        doc_vecs = self._pooled(embed_d, self.docs, self.doc_ids)
        query_vecs = self._pooled(embed_q, self.queries, qids)
        ranks = []
        for qid, u in zip(qids, query_vecs):
            idx = np.array([self.doc_index[d] for d in self.pools[qid]])
            scores = np.logaddexp(0.0, doc_vecs[idx] @ u)
            order = idx[np.lexsort((idx, -scores))]   # doc ids sort like their index
            hits = [pos for pos, i in enumerate(order, 1)
                    if self.doc_ids[i] in targets[qid]]
            ranks.append(hits[0] if hits else None)
        return ranks

    def mrr(self, model, targets: dict[str, set[str]]) -> float:
        ranks = [r for r in self.first_ranks(model, targets) if r is not None]
        return sum(1.0 / r for r in ranks) / len(ranks) if ranks else 0.0

    def mrr_samples(self, model, samples) -> float:
        targets: dict[str, set[str]] = {}
        for q, d, label in samples:
            if label == 1:
                targets.setdefault(q, set()).add(d)
        return self.mrr(model, targets)


def split_sets(train: Split, spec: dict):
    """Entangled and disjoint samples, and the forget-MRR target docs per query."""
    ids = set(spec["ids"])
    col = 0 if spec["kind"] == "query" else 1
    forget = [s for s in train.samples if s[col] in ids]
    fq = {s[0] for s in forget}
    fd = {s[1] for s in forget}
    fkeys = {(s[0], s[1]) for s in forget}
    rest = [s for s in train.samples if (s[0], s[1]) not in fkeys]
    entangled = [s for s in rest if s[0] in fq or s[1] in fd]
    disjoint = [s for s in rest if not (s[0] in fq or s[1] in fd)]
    if spec["kind"] == "document":
        targets = {q: {d for d in train.pools[q] if d in ids} for q in fq}
    else:
        targets = {q: {s[1] for s in train.samples if s[0] == q and s[2] == 1} for q in fq}
    return entangled, disjoint, targets


class Checker:
    """Checks every artifact a pipeline wrote under one output directory."""

    def __init__(self, out: Path):
        self.out = out
        self.train = Split(out / "corpus", "train")
        self.test = Split(out / "corpus", "test")
        self.outcome = Outcome()

    def _mrrs(self, model, spec_name: str) -> dict[str, float]:
        spec = json.loads((self.out / "specs" / f"{spec_name}.json").read_text())
        ent, dis, targets = split_sets(self.train, spec)
        return {"mrr_forget": self.train.mrr(model, targets),
                "mrr_entangled": self.train.mrr_samples(model, ent),
                "mrr_disjoint": self.train.mrr_samples(model, dis),
                "mrr_test": self.test.mrr_samples(model, self.test.samples)}

    def _report_mrrs(self, report_path: Path, model_path: Path, spec_name: str,
                     extra=None) -> None:
        report = json.loads(report_path.read_text())
        model = read_model(model_path)
        expected = self._mrrs(model, spec_name)
        if extra:
            expected.update(extra(expected))
        flat = dict(report, **report.get("destinations", {}))
        bad = [k for k, v in expected.items()
               if abs(flat[k] - v) > MRR_TOLERANCE]
        self.outcome.record(not bad, f"{report_path}: {bad} differ from recomputed MRRs")

    def finite(self, model_path: Path) -> None:
        q, d = read_model(model_path)
        self.outcome.record(bool(np.isfinite(q).all() and np.isfinite(d).all()),
                            f"{model_path}: non-finite parameters")

    def retrain(self, spec_name: str) -> None:
        run = self.out / "retrain" / spec_name
        self.finite(run / "model.bin")
        self._report_mrrs(run / "report.json", run / "model.bin", spec_name,
                          lambda e: {"d1": e["mrr_forget"], "d2": e["mrr_test"],
                                     "d3": e["mrr_test"] / 2.0})

    def unlearn(self, run: Path) -> None:
        report = json.loads((run / "report.json").read_text())
        cfg = json.loads((run / "run_config.json").read_text())
        self.finite(run / "model.bin")
        self._report_mrrs(run / "report.json", run / "model.bin", report["spec"])
        reached = report["mrr_forget"] <= report["delta_target"]
        if report["method"] == "ssd":   # one-shot: no epochs, stopped iff reached
            ok = report["epochs_run"] == 0 and report["stopped_early"] == reached
        elif report["stopped_early"]:
            ok = reached
        else:
            ok = report["epochs_run"] == cfg["max_epochs"]
        self.outcome.record(ok, f"{run}: stopping rule violated")

    def evaluation(self, report_path: Path) -> None:
        report = json.loads(report_path.read_text())
        model_path = Path(report["model"])
        self.finite(model_path)
        self._report_mrrs(report_path, model_path, report["spec"])

    def _guarded(self, check, *args) -> None:
        """A missing or malformed artifact fails the check instead of the run."""
        try:
            check(*args)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.outcome.record(False, f"{check.__name__}{args}: {exc!r}")

    def all(self, retrain_spec: str) -> Outcome:
        self._guarded(self.finite, self.out / "train" / "model.bin")
        self._guarded(self.retrain, retrain_spec)
        runs = sorted((self.out / "unlearn").glob("*/report.json"))
        evals = sorted((self.out / "eval").glob("*/report.json"))
        self.outcome.record(bool(runs and evals), f"{self.out}: no unlearn or eval reports")
        for path in runs:
            self._guarded(self.unlearn, path.parent)
        for path in evals:
            self._guarded(self.evaluation, path)
        return self.outcome
