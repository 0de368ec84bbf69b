"""Forget/entangled/disjoint splits of a dataset under a removal request.

A removal request names either queries or documents. The forget set F
holds every sample touching a named id; the entangled set E holds the
retained samples that still share a query id or a doc id with some
forget sample; the disjoint set D is everything else. Output order
follows dataset sample order so downstream sampling is reproducible.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import Dataset, Label, Sample, read_json, write_lines
from .errors import ConfigError, DataError


class RemovalKind(enum.Enum):
    QUERY = "query"
    DOCUMENT = "document"


@dataclass(frozen=True)
class ForgetSpec:
    kind: RemovalKind
    ids: frozenset[str]

    def __post_init__(self) -> None:
        if not self.ids:
            raise ConfigError("forget spec must name at least one id")
        object.__setattr__(self, "ids", frozenset(self.ids))


@dataclass
class Partition:
    forget: list[Sample]
    entangled: list[Sample]
    disjoint: list[Sample]
    forget_queries: frozenset[str]
    forget_docs: frozenset[str]
    spec: ForgetSpec
    _forget_keys: set[tuple[str, str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._forget_keys = {(s.query_id, s.doc_id) for s in self.forget}

    def is_forgotten(self, sample: Sample) -> bool:
        return (sample.query_id, sample.doc_id) in self._forget_keys

    @cached_property
    def _entangled_at(self) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
        """Positions in ``entangled`` of each query id's samples and of each doc id's."""
        by_query: dict[str, list[int]] = {}
        by_doc: dict[str, list[int]] = {}
        for i, e in enumerate(self.entangled):
            by_query.setdefault(e.query_id, []).append(i)
            by_doc.setdefault(e.doc_id, []).append(i)
        return by_query, by_doc


def partition(dataset: Dataset, spec: ForgetSpec) -> Partition:
    """Split dataset samples into (forget, entangled, disjoint) under spec."""
    known = dataset.queries if spec.kind is RemovalKind.QUERY else dataset.documents
    missing = sorted(spec.ids - set(known))
    if missing:
        raise DataError(f"{spec.kind.value} removal spec names unknown ids: {missing}")

    if spec.kind is RemovalKind.QUERY:
        forget = [s for s in dataset.samples if s.query_id in spec.ids]
    else:
        forget = [s for s in dataset.samples if s.doc_id in spec.ids]
    if len(forget) == len(dataset.samples) and dataset.samples:
        raise ConfigError("removal spec covers every sample; nothing would be retained")

    forget_queries = frozenset(s.query_id for s in forget)
    forget_docs = frozenset(s.doc_id for s in forget)
    part = Partition(forget=forget, entangled=[], disjoint=[], forget_queries=forget_queries,
                     forget_docs=forget_docs, spec=spec)
    for s in dataset.samples:
        if part.is_forgotten(s):
            continue
        if s.query_id in forget_queries or s.doc_id in forget_docs:
            part.entangled.append(s)
        else:
            part.disjoint.append(s)
    return part


def entangled_partners(part: Partition, sample: Sample) -> list[Sample]:
    """Entangled samples sharing a query id or doc id with a forget sample,
    in ``part.entangled`` order."""
    if not part.is_forgotten(sample):
        raise ConfigError(
            f"pair ({sample.query_id!r}, {sample.doc_id!r}) is not in the forget set")
    by_query, by_doc = part._entangled_at
    at = set(by_query.get(sample.query_id, ())).union(by_doc.get(sample.doc_id, ()))
    return [part.entangled[i] for i in sorted(at)]


def sample_forget_spec(dataset: Dataset, kind: RemovalKind, fraction: float,
                       seed: int) -> ForgetSpec:
    """Draw a removal request covering ``fraction`` of the positive pairs.

    Ids are accumulated in seeded-shuffled order until the named queries
    or documents account for the requested share of positive samples.
    For document removal, documents whose removal would strip some query
    of its last positive are deferred to a second pass, so every
    affected query keeps a retained positive when possible.
    """
    if not 0.0 < fraction < 1.0:
        raise ConfigError("removal fraction must lie in (0, 1)")
    positives = [s for s in dataset.samples if s.label is Label.POSITIVE]
    if not positives:
        raise ConfigError("dataset has no positive samples to remove")
    target = max(1, round(fraction * len(positives)))
    rng = np.random.default_rng(seed)

    if kind is RemovalKind.QUERY:
        per_id: dict[str, int] = {}
        for s in positives:
            per_id[s.query_id] = per_id.get(s.query_id, 0) + 1
        ids = sorted(per_id)
        chosen: list[str] = []
        covered = 0
        for i in rng.permutation(len(ids)):
            if covered >= target:
                break
            chosen.append(ids[int(i)])
            covered += per_id[ids[int(i)]]
        return ForgetSpec(kind=kind, ids=frozenset(chosen))

    owners: dict[str, list[str]] = {}
    remaining: dict[str, int] = {}
    for s in positives:
        owners.setdefault(s.doc_id, []).append(s.query_id)
        remaining[s.query_id] = remaining.get(s.query_id, 0) + 1
    ids = sorted(owners)
    order = [ids[int(i)] for i in rng.permutation(len(ids))]
    chosen = []
    covered = 0
    for strict in (True, False):
        for did in order:
            if covered >= target:
                break
            if did in chosen:
                continue
            if strict and any(remaining[q] <= 1 for q in owners[did]):
                continue
            chosen.append(did)
            covered += len(owners[did])
            for q in owners[did]:
                remaining[q] -= 1
    return ForgetSpec(kind=kind, ids=frozenset(chosen))


def load_forget_spec(path: str | Path) -> ForgetSpec:
    """Read a removal request from JSON: {"kind": "query"|"document", "ids": [...]}."""
    path = Path(path)
    obj = read_json(path)
    if not isinstance(obj, dict) or "kind" not in obj or "ids" not in obj:
        raise DataError(f"{path}: expected object with 'kind' and 'ids'")
    try:
        kind = RemovalKind(obj["kind"])
    except ValueError:
        raise DataError(f"{path}: kind must be 'query' or 'document'") from None
    ids = obj["ids"]
    if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
        raise DataError(f"{path}: 'ids' must be a list of strings")
    return ForgetSpec(kind=kind, ids=frozenset(ids))


def save_forget_spec(spec: ForgetSpec, path: str | Path) -> None:
    """Write the request as load_forget_spec reads it; ``path`` is
    replaced only once the file is complete."""
    payload = {"kind": spec.kind.value, "ids": sorted(spec.ids)}
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True)])
