"""Forget/entangled/disjoint splits of a dataset under a removal request.

A removal request names either queries or documents. The forget set F
holds every sample touching a named id; the entangled set E holds the
retained samples that still share a query id or a doc id with some
forget sample; the disjoint set D is everything else. Each set holds
sample positions, ascending, so downstream sampling is reproducible.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Dataset, read_json, write_lines
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


@dataclass(eq=False)
class Partition:
    """``dataset``'s samples split under ``spec``, as ascending sample
    positions; ``retained`` is E and D together, and ``named`` holds the
    rows of the ids the spec names."""

    dataset: Dataset
    forget: np.ndarray
    entangled: np.ndarray
    disjoint: np.ndarray
    retained: np.ndarray
    named: np.ndarray
    spec: ForgetSpec


def partition(dataset: Dataset, spec: ForgetSpec) -> Partition:
    """Split dataset samples into (forget, entangled, disjoint) under spec."""
    by_query = spec.kind is RemovalKind.QUERY
    rows = (dataset.queries if by_query else dataset.docs).row
    missing = sorted(i for i in spec.ids if i not in rows)
    if missing:
        raise DataError(f"{spec.kind.value} removal spec names unknown ids: {missing}")

    named = np.fromiter(map(rows.__getitem__, spec.ids), np.intp, len(spec.ids))
    query, doc = dataset.sample_query, dataset.sample_doc
    forgotten = np.isin(query if by_query else doc, named)
    forget = np.flatnonzero(forgotten)
    if len(forget) == dataset.n_samples and dataset.n_samples:
        raise ConfigError("removal spec covers every sample; nothing would be retained")

    shares = ~forgotten & (np.isin(query, query[forget]) | np.isin(doc, doc[forget]))
    return Partition(dataset=dataset, forget=forget, entangled=np.flatnonzero(shares),
                     disjoint=np.flatnonzero(~(forgotten | shares)),
                     retained=np.flatnonzero(~forgotten), named=named, spec=spec)


def entangled_partners(part: Partition, xs: np.ndarray) -> list[np.ndarray]:
    """The entangled samples sharing a query id or doc id with the forget
    sample at each position of ``xs``, as ascending positions: one array
    per position of ``xs``, in its order.

    E is sorted once by query row and once by doc row; each forget
    sample's partners are the two runs of its rows (``np.searchsorted``),
    merged by one ``np.unique`` over (forget sample, E index) keys.
    """
    outside = np.flatnonzero(~np.isin(xs, part.forget))
    if len(outside):
        pair = part.dataset.sample_ids(xs[outside[0]])
        raise ConfigError(f"pair {pair!r} is not in the forget set")
    entangled, n = part.entangled, max(len(part.entangled), 1)
    keys = []
    for rows in (part.dataset.sample_query, part.dataset.sample_doc):
        by_row = np.argsort(rows[entangled], kind="stable")
        sorted_rows = rows[entangled][by_row]
        lo = np.searchsorted(sorted_rows, rows[xs], "left")
        counts = np.searchsorted(sorted_rows, rows[xs], "right") - lo
        # the E indices lo[i], lo[i] + 1, ... of each forget sample i in turn
        at = np.arange(counts.sum()) + (lo - np.cumsum(counts) + counts).repeat(counts)
        keys.append(np.arange(len(xs)).repeat(counts) * n + by_row[at])
    keys = np.unique(np.concatenate(keys))
    return np.split(entangled[keys % n], np.searchsorted(keys // n, np.arange(1, len(xs))))


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
    query, doc = dataset.sample_query[dataset.positive], dataset.sample_doc[dataset.positive]
    if not len(query):
        raise ConfigError("dataset has no positive samples to remove")
    target = max(1, round(fraction * len(query)))
    rng = np.random.default_rng(seed)
    items = dataset.queries if kind is RemovalKind.QUERY else dataset.docs
    counts = np.bincount(query if kind is RemovalKind.QUERY else doc, minlength=len(items.ids))
    # the rows with a positive in id order, then shuffled
    rows = np.argsort(items.id_order)
    rows = rows[counts[rows] > 0]
    order = rows[rng.permutation(len(rows))]

    if kind is RemovalKind.QUERY:  # the shortest shuffled prefix that covers the target
        chosen = order[:np.searchsorted(np.cumsum(counts[order]), target) + 1]
        return ForgetSpec(kind=kind, ids=frozenset(items.ids[r] for r in chosen.tolist()))

    # each doc row's owners, the queries of its positives, in sample order
    owners = query[np.argsort(doc, kind="stable")].tolist()
    bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
    remaining = np.bincount(query, minlength=len(dataset.queries.ids)).tolist()
    order = order.tolist()
    taken, covered = [False] * len(order), 0
    for strict in (True, False):
        for i, d in enumerate(order):
            if covered >= target:
                break
            mine = owners[bounds[d]:bounds[d + 1]]
            if taken[i] or (strict and any(remaining[q] <= 1 for q in mine)):
                continue
            taken[i] = True
            covered += len(mine)
            for q in mine:
                remaining[q] -= 1
    return ForgetSpec(kind=kind, ids=frozenset(
        items.ids[d] for d, took in zip(order, taken) if took))


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
