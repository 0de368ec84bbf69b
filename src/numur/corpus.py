"""Data model, file formats, and synthetic generation for ranking corpora.

A corpus holds queries and documents over an integer token vocabulary,
an ordered list of labelled query-document samples, and a fixed
candidate pool per query (the documents re-ranked for that query).

File formats:

- queries.jsonl / docs.jsonl: one ``{"id": str, "tokens": [int, ...]}``
  object per line
- qrels.tsv: header ``query_id<TAB>doc_id<TAB>label`` with label 1
  (positive) or 0 (negative)
- pools.tsv: header ``query_id<TAB>doc_id<TAB>rank_hint``; rank_hint
  (an integer) orders the pool

The synthetic generator plants token overlap between queries and their
positive documents so a dot-product scorer can learn the ranking, and
shares a controllable fraction of positive documents between queries so
that removal requests produce non-empty entangled sets.
"""

from __future__ import annotations

import enum
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

QRELS_HEADER = "query_id\tdoc_id\tlabel"
POOLS_HEADER = "query_id\tdoc_id\trank_hint"

# Planted-structure sizes used by the generator: each topic owns a block
# of TOPIC_GROUP vocabulary entries, each query additionally owns
# SIG_TOKENS entries shared only with its own positive documents. All
# documents are padded with noise tokens to DOC_LEN so that mean
# pooling weighs every document the same way.
TOPIC_GROUP = 1
QUERY_TOPICS = 2
SIG_TOKENS = 1
SIG_REUSE_FRACTION = 0.5
DOC_LEN = 5
MIN_NOISE_REGION = 16


class Label(enum.Enum):
    POSITIVE = 1
    NEGATIVE = 0


@dataclass(frozen=True)
class Query:
    id: str
    tokens: tuple[int, ...]


@dataclass(frozen=True)
class Document:
    id: str
    tokens: tuple[int, ...]

    @cached_property
    def token_array(self) -> np.ndarray:
        """The tokens as an int64 array, made once and shared by every dataset
        holding this document."""
        return np.asarray(self.tokens, dtype=np.int64)


@dataclass(frozen=True)
class Sample:
    query_id: str
    doc_id: str
    label: Label


@dataclass
class Dataset:
    """Immutable-by-convention container; call validate() after hand assembly."""

    queries: dict[str, Query]
    documents: dict[str, Document]
    samples: list[Sample]
    pools: dict[str, tuple[str, ...]]
    vocab_size: int
    _qtok: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    _dtok: dict[str, np.ndarray] = field(init=False, repr=False, compare=False)
    _docs_indexed_by: "Dataset | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._qtok = {q.id: np.asarray(q.tokens, dtype=np.int64) for q in self.queries.values()}
        self._dtok = {d.id: d.token_array for d in self.documents.values()}
        self._docs_indexed_by = None  # load_dataset's docs_from

    def query_tokens(self, query_id: str) -> np.ndarray:
        try:
            return self._qtok[query_id]
        except KeyError:
            raise DataError(f"unknown query id {query_id!r}") from None

    def doc_tokens(self, doc_id: str) -> np.ndarray:
        try:
            return self._dtok[doc_id]
        except KeyError:
            raise DataError(f"unknown doc id {doc_id!r}") from None

    def positives_of(self, query_id: str) -> list[str]:
        """Positive-labelled doc ids of a query, in sample order."""
        return list(self.index.positives.get(query_id, ()))

    @cached_property
    def index(self) -> "DatasetIndex":
        """Integer arrays for whole-pool scoring, built on first use.

        Datasets are immutable by convention and ``dataclasses.replace``
        builds a new instance, which indexes its own docs, so the index
        never goes stale.
        """
        source = self._docs_indexed_by
        return DatasetIndex.build(self, None if source is None else source.index)

    def validate(self) -> None:
        """Check every structural invariant; raise DataError on the first violation."""
        for q in self.queries.values():
            _check_tokens("query", q.id, q.tokens, self.vocab_size)
        for d in self.documents.values():
            _check_tokens("document", d.id, d.tokens, self.vocab_size)
        seen_pairs: set[tuple[str, str]] = set()
        for s in self.samples:
            if s.query_id not in self.queries:
                raise DataError(f"sample references unknown query id {s.query_id!r}")
            if s.doc_id not in self.documents:
                raise DataError(f"sample references unknown doc id {s.doc_id!r}")
            pair = (s.query_id, s.doc_id)
            if pair in seen_pairs:
                raise DataError(f"duplicate sample for pair {pair!r}")
            seen_pairs.add(pair)
            pool = self.pools.get(s.query_id)
            if pool is None:
                raise DataError(f"query {s.query_id!r} has samples but no pool")
            if s.doc_id not in pool:
                raise DataError(
                    f"sample doc {s.doc_id!r} missing from pool of query {s.query_id!r}")
        for qid, pool in self.pools.items():
            if qid not in self.queries:
                raise DataError(f"pool references unknown query id {qid!r}")
            if len(set(pool)) != len(pool):
                raise DataError(f"pool of query {qid!r} contains duplicate doc ids")
            for did in pool:
                if did not in self.documents:
                    raise DataError(f"pool of query {qid!r} references unknown doc id {did!r}")


def _length_groups(tokens: list[np.ndarray]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per token count: the rows with that many tokens, and their tokens as one
    token-major (count, rows) array."""
    by_len: dict[int, list[int]] = {}
    for i, toks in enumerate(tokens):
        by_len.setdefault(len(toks), []).append(i)
    return tuple((np.asarray(rows, dtype=np.intp), np.stack([tokens[r] for r in rows], axis=1))
                 for _, rows in sorted(by_len.items()))


@dataclass(frozen=True)
class DatasetIndex:
    """Documents and queries as rows of matrices, and pools as arrays of doc rows.

    Doc rows follow the order of ``Dataset.documents`` and query rows the
    order of ``Dataset.queries``. ``groups`` (docs) and ``query_groups``
    hold, per token count, the rows with that many tokens and their
    tokens as one (count, rows) array, so vectors are pooled a whole group
    at a time. ``id_order`` is each doc row's position among the sorted
    doc ids: comparing it compares ids, which breaks score ties.

    ``pool_matrix`` holds each query's pool as one row of doc rows, padded
    past ``pool_len`` with ``len(doc_row)``, a row no doc has; ``pool_ids``
    is the ``id_order`` of those entries, padded with the same value, so a
    padding entry sorts after every doc. ``pool_keys`` holds every pool
    entry as one sorted integer key, and ``pool_cols`` its position in the
    pool; ``pool_columns`` looks (query, doc) pairs up in them.
    """

    doc_row: dict[str, int]
    groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    id_order: np.ndarray
    query_row: dict[str, int]
    query_groups: tuple[tuple[np.ndarray, np.ndarray], ...]
    pool_rows: dict[str, np.ndarray]
    pool_matrix: np.ndarray
    pool_ids: np.ndarray
    pool_len: np.ndarray
    pool_keys: np.ndarray
    pool_cols: np.ndarray
    positives: dict[str, tuple[str, ...]]

    @classmethod
    def build(cls, dataset: "Dataset", docs: "DatasetIndex | None" = None) -> "DatasetIndex":
        """The index of ``dataset``; the doc half is taken from ``docs`` when given,
        which must index the same documents dict."""
        if docs is None:
            doc_row = {did: i for i, did in enumerate(dataset._dtok)}
            groups = _length_groups(list(dataset._dtok.values()))
            id_order = np.empty(len(doc_row), dtype=np.intp)
            for pos, did in enumerate(sorted(doc_row)):
                id_order[doc_row[did]] = pos
        else:
            doc_row, groups, id_order = docs.doc_row, docs.groups, docs.id_order
        query_row = {qid: i for i, qid in enumerate(dataset._qtok)}
        pool_rows: dict[str, np.ndarray] = {}
        for qid, pool in dataset.pools.items():
            try:
                pool_rows[qid] = np.asarray([doc_row[did] for did in pool], dtype=np.intp)
            except KeyError as exc:
                raise DataError(f"pool of query {qid!r} references unknown doc id "
                                f"{exc.args[0]!r}") from None
            if qid not in query_row:
                raise DataError(f"pool references unknown query id {qid!r}")
        pad = len(doc_row)
        pool_len = np.zeros(len(query_row), dtype=np.intp)
        for qid, rows in pool_rows.items():
            pool_len[query_row[qid]] = len(rows)
        pool_matrix = np.full((len(query_row), int(pool_len.max(initial=0))), pad,
                              dtype=np.intp)
        for qid, rows in pool_rows.items():
            pool_matrix[query_row[qid], :len(rows)] = rows
        in_pool = pool_matrix < pad
        keys = _pool_key(np.arange(len(query_row))[:, None], pool_matrix, pad)[in_pool]
        order = np.argsort(keys, kind="stable")
        positives: dict[str, list[str]] = {}
        for s in dataset.samples:
            if s.label is Label.POSITIVE:
                positives.setdefault(s.query_id, []).append(s.doc_id)
        return cls(doc_row=doc_row, groups=groups, id_order=id_order,
                   query_row=query_row,
                   query_groups=_length_groups(list(dataset._qtok.values())),
                   pool_rows=pool_rows, pool_matrix=pool_matrix,
                   pool_ids=np.append(id_order, pad)[pool_matrix], pool_len=pool_len,
                   pool_keys=keys[order], pool_cols=np.nonzero(in_pool)[1][order],
                   positives={q: tuple(dids) for q, dids in positives.items()})

    def pool_columns(self, query_rows: np.ndarray, doc_rows: np.ndarray) -> np.ndarray:
        """Where each doc row stands in the pool of the matching query row;
        -1 where that pool does not hold it. Needs at least one pool entry."""
        keys = _pool_key(query_rows, doc_rows, len(self.doc_row))
        at = np.minimum(np.searchsorted(self.pool_keys, keys), len(self.pool_keys) - 1)
        return np.where(self.pool_keys[at] == keys, self.pool_cols[at], -1)


def _pool_key(query_rows: np.ndarray, doc_rows: np.ndarray, n_docs: int) -> np.ndarray:
    """One integer per (query row, doc row) pair, ordered by query row, then doc row."""
    return query_rows * n_docs + doc_rows


@dataclass
class CorpusSplit:
    train: Dataset
    test: Dataset

    def validate(self) -> None:
        self.train.validate()
        self.test.validate()
        self.check_disjoint()

    def check_disjoint(self) -> None:
        """Raise DataError when a query id belongs to both splits."""
        overlap = self.train.queries.keys() & self.test.queries.keys()
        if overlap:
            raise DataError(f"test queries overlap train queries: {sorted(overlap)[:5]}")


@dataclass(frozen=True)
class StatsRecord:
    n_queries: int
    n_docs: int
    n_samples: int
    queries_with_multiple_positives: int
    mean_positives_per_query: float
    mean_pool_size: float


@dataclass(frozen=True)
class SyntheticConfig:
    n_queries: int = 64
    n_docs: int = 256
    vocab_size: int = 512
    positives_per_query: int = 2
    pool_size: int = 100
    entanglement_rate: float = 0.5
    test_fraction: float = 0.2
    seed: int = 7


def _check_tokens(kind: str, ident: str, tokens: tuple[int, ...], vocab_size: int) -> None:
    if not tokens:
        raise DataError(f"{kind} {ident!r} has an empty token list")
    if min(tokens) < 0 or max(tokens) >= vocab_size:
        t = next(t for t in tokens if not 0 <= t < vocab_size)
        raise DataError(f"{kind} {ident!r} token {t} outside vocabulary of size {vocab_size}")


# ---------------------------------------------------------------------------
# File ingestion


def _lines(path: Path) -> list[str]:
    # read_text turns \r\n and \r into \n, as iterating over the file does;
    # str.splitlines would also split at \x0b, \x85 and \u2028.
    try:
        return path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


_raw_decode = json.JSONDecoder().raw_decode


def _json_line(line: str):
    """json.loads(line) for a stripped line: the same value or the same error."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _read_jsonl_items(path: Path) -> list[tuple[str, tuple[int, ...]]]:
    items: list[tuple[str, tuple[int, ...]]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _json_line(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or "id" not in obj or "tokens" not in obj:
            raise DataError(f"{path}:{lineno}: expected object with 'id' and 'tokens'")
        ident = str(obj["id"])
        if ident in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ident!r}")
        seen.add(ident)
        toks = obj["tokens"]
        if not isinstance(toks, list) or not all(isinstance(t, int) for t in toks):
            raise DataError(f"{path}:{lineno}: 'tokens' must be a list of integers")
        items.append((ident, tuple(toks)))
    return items


def _read_tsv(path: Path, header: str):
    """(line number, fields) of each non-blank line after the header, yielded as read."""
    n_cols = header.count("\t") + 1
    lines = _lines(path)
    if lines[0] != header:
        raise DataError(f"{path}:1: expected header {header!r}")
    for lineno, line in enumerate(islice(lines, 1, None), start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != n_cols:
            raise DataError(f"{path}:{lineno}: expected {n_cols} tab-separated fields")
        yield lineno, fields


def load_dataset(queries_path: str | Path, docs_path: str | Path,
                 qrels_path: str | Path, pools_path: str | Path, *,
                 docs_from: Dataset | None = None) -> Dataset:
    """Load a dataset from its four files, validating every invariant.

    The vocabulary size is inferred as one past the largest token seen.
    Sample order follows qrels file order; pool order follows rank_hint.
    ``docs_from``, a dataset loaded from the same docs file, lends its
    documents, which stand in for that file (it is not read again), and
    the doc half of its ``index`` (doc rows, length groups, id order).
    """
    queries_path, docs_path = Path(queries_path), Path(docs_path)
    qrels_path, pools_path = Path(qrels_path), Path(pools_path)

    queries = {qid: Query(qid, toks) for qid, toks in _read_jsonl_items(queries_path)}
    if docs_from is not None:
        documents = docs_from.documents
    else:
        documents = {did: Document(did, toks) for did, toks in _read_jsonl_items(docs_path)}

    max_token, min_token = -1, 0
    for item in (*queries.values(), *documents.values()):
        if not item.tokens:
            raise DataError(f"{item.id!r} has an empty token list")
        max_token = max(max_token, max(item.tokens))
        min_token = min(min_token, min(item.tokens))
    vocab_size = max_token + 1 if max_token >= 0 else 1

    # rank_hint of each pool entry, per query in file order
    hints_of: dict[str, dict[str, int]] = {}
    for lineno, (qid, did, hint) in _read_tsv(pools_path, POOLS_HEADER):
        hints = hints_of.get(qid)
        if hints is None:
            if qid not in queries:
                raise DataError(f"{pools_path}:{lineno}: unknown query id {qid!r}")
            hints = hints_of[qid] = {}
        if did not in documents:
            raise DataError(f"{pools_path}:{lineno}: unknown doc id {did!r}")
        try:
            rank_hint = int(hint)
        except ValueError:
            raise DataError(f"{pools_path}:{lineno}: rank_hint {hint!r} is not an integer") from None
        if did in hints:
            raise DataError(f"{pools_path}:{lineno}: duplicate pool entry {did!r} for query {qid!r}")
        hints[did] = rank_hint
    # sorted() is stable: equal hints keep their file order
    pools = {qid: tuple(sorted(hints, key=hints.__getitem__)) for qid, hints in hints_of.items()}

    samples: list[Sample] = []
    seen_pairs: set[tuple[str, str]] = set()
    for lineno, (qid, did, label_text) in _read_tsv(qrels_path, QRELS_HEADER):
        if qid not in queries:
            raise DataError(f"{qrels_path}:{lineno}: unknown query id {qid!r}")
        if did not in documents:
            raise DataError(f"{qrels_path}:{lineno}: unknown doc id {did!r}")
        if label_text not in ("0", "1"):
            raise DataError(f"{qrels_path}:{lineno}: label must be 0 or 1, got {label_text!r}")
        if (qid, did) in seen_pairs:
            raise DataError(f"{qrels_path}:{lineno}: duplicate pair ({qid!r}, {did!r})")
        seen_pairs.add((qid, did))
        label = Label.POSITIVE if label_text == "1" else Label.NEGATIVE
        if did not in hints_of.get(qid, ()):
            kind = "positive" if label is Label.POSITIVE else "negative"
            raise DataError(
                f"{qrels_path}:{lineno}: {kind} sample doc {did!r} absent from pool of {qid!r}")
        samples.append(Sample(qid, did, label))

    # The line checks above cover every invariant of Dataset.validate but
    # one: tokens below zero. Report the first, as validate would.
    if min_token < 0:
        for kind, items in (("query", queries.values()), ("document", documents.values())):
            for item in items:
                _check_tokens(kind, item.id, item.tokens, vocab_size)
    dataset = Dataset(queries=queries, documents=documents, samples=samples,
                      pools=pools, vocab_size=vocab_size)
    dataset._docs_indexed_by = docs_from
    return dataset


@contextmanager
def atomic_write(path: str | Path):
    """A binary file to write ``path``'s new contents to.

    The contents go to a temporary file in the same directory, which
    replaces ``path`` (``os.replace``) only when the block completes. If
    the block raises, ``path`` keeps its previous contents, or stays
    absent, and the temporary file is removed.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_dataset(dataset: Dataset, queries_path: str | Path, docs_path: str | Path,
                 qrels_path: str | Path, pools_path: str | Path,
                 write_docs: bool = True) -> None:
    """Write the four dataset files in the canonical format load_dataset reads,
    each with ``atomic_write``. ``write_docs=False`` leaves ``docs_path``
    alone, for a split whose documents another split's save wrote."""
    write_lines(queries_path, _item_lines(dataset.queries.values()))
    if write_docs:
        write_lines(docs_path, _item_lines(dataset.documents.values()))
    write_lines(qrels_path, [QRELS_HEADER] + [f"{s.query_id}\t{s.doc_id}\t{s.label.value}"
                                               for s in dataset.samples])
    write_lines(pools_path, [POOLS_HEADER] + [f"{qid}\t{did}\t{rank}"
                                               for qid, pool in dataset.pools.items()
                                               for rank, did in enumerate(pool)])


def _item_lines(items) -> list[str]:
    return [json.dumps({"id": item.id, "tokens": list(item.tokens)}) for item in items]


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write each line and a newline as UTF-8 with ``atomic_write``."""
    with atomic_write(path) as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# Synthetic generation


def generate_synthetic(cfg: SyntheticConfig) -> CorpusSplit:
    """Build a deterministic train/test corpus with learnable relevance.

    Every query is about a pair of topics plus a signature token; its
    positive documents carry the topic tokens, the signature, and noise
    padding, so relevance is separable for an embedding dot-product
    scorer. Test queries reuse the topic pair of a train query, and half
    of them reuse its signature too (near duplicates), which puts a
    trained scorer's test ranking between chance and its training
    ranking. A fraction ``entanglement_rate`` of positive documents is
    shared between two queries of the same split.
    """
    _check_feasible(cfg)
    rng = np.random.default_rng(cfg.seed)

    n_test = int(round(cfg.n_queries * cfg.test_fraction))
    n_train = cfg.n_queries - n_test
    if n_train <= 0:
        raise ConfigError("test_fraction leaves no training queries")

    n_topics = _n_topics(cfg.n_queries)
    perm = rng.permutation(cfg.vocab_size)
    topic_blocks = [perm[t * TOPIC_GROUP:(t + 1) * TOPIC_GROUP] for t in range(n_topics)]
    sig_base = n_topics * TOPIC_GROUP
    sig_of = {f: perm[sig_base + f * SIG_TOKENS: sig_base + (f + 1) * SIG_TOKENS]
              for f in range(cfg.n_queries)}
    noise_region = perm[sig_base + cfg.n_queries * SIG_TOKENS:]

    width = len(str(max(cfg.n_queries, cfg.n_docs) - 1))
    qids = [f"q{idx:0{width}d}" for idx in range(cfg.n_queries)]
    order = rng.permutation(cfg.n_queries)
    test_ids = {qids[i] for i in order[:n_test]}

    # Every train query gets a distinct topic pair and its own signature.
    # A test query inherits the topic pair of a random train parent; half
    # the test queries also inherit the parent's signature (near
    # duplicates of a seen query), the rest keep a fresh signature and
    # are genuinely novel.
    all_pairs = [(a, b) for a in range(n_topics) for b in range(a + 1, n_topics)]
    pair_order = rng.permutation(len(all_pairs))
    qindex = {qid: i for i, qid in enumerate(qids)}
    train_qids = [qid for qid in qids if qid not in test_ids]
    pair_of: dict[str, tuple[int, ...]] = {}
    eff_sig: dict[str, tuple[int, ...]] = {}
    for i, qid in enumerate(train_qids):
        pair_of[qid] = all_pairs[int(pair_order[i])]
        eff_sig[qid] = tuple(int(t) for t in sig_of[qindex[qid]])
    for qid in (q for q in qids if q in test_ids):
        parent = train_qids[int(rng.integers(len(train_qids)))]
        pair_of[qid] = pair_of[parent]
        if rng.random() < SIG_REUSE_FRACTION:
            eff_sig[qid] = eff_sig[parent]
        else:
            eff_sig[qid] = tuple(int(t) for t in sig_of[qindex[qid]])

    def topic_tokens(topics: tuple[int, ...]) -> list[int]:
        return [int(t) for topic in topics for t in topic_blocks[topic]]

    queries = {}
    for qid in qids:
        # The signature appears twice so it carries as much pooled weight
        # as the topic pair; that is what separates a query from others
        # sharing one of its topics.
        toks = topic_tokens(pair_of[qid]) + list(eff_sig[qid]) * 2
        queries[qid] = Query(qid, tuple(toks))

    # Positive-document ownership. Adopting an open single-owner document
    # with probability e/(1+e) per slot yields a shared fraction of e
    # among distinct positive documents.
    adopt_p = cfg.entanglement_rate / (1.0 + cfg.entanglement_rate)
    owners: list[list[str]] = []
    open_docs: list[int] = []
    pos_docs_of: dict[str, list[int]] = {qid: [] for qid in qids}
    for qid in qids:
        for _ in range(cfg.positives_per_query):
            candidates = [i for i in open_docs
                          if owners[i][0] != qid
                          and (owners[i][0] in test_ids) == (qid in test_ids)
                          and i not in pos_docs_of[qid]]
            same_pair = [i for i in candidates if pair_of[owners[i][0]] == pair_of[qid]]
            if candidates and rng.random() < adopt_p:
                pick = same_pair[int(rng.integers(len(same_pair)))] if same_pair \
                    else candidates[int(rng.integers(len(candidates)))]
                owners[pick].append(qid)
                open_docs.remove(pick)
                pos_docs_of[qid].append(pick)
            else:
                owners.append([qid])
                open_docs.append(len(owners) - 1)
                pos_docs_of[qid].append(len(owners) - 1)

    n_pos_docs = len(owners)
    if n_pos_docs > cfg.n_docs:
        raise ConfigError(
            f"n_docs={cfg.n_docs} too small for {n_pos_docs} positive documents")

    dids = [f"d{idx:0{width}d}" for idx in range(cfg.n_docs)]
    documents = {}
    for idx, owner_list in enumerate(owners):
        core: list[int] = []
        for qid in owner_list:
            for t in topic_tokens(pair_of[qid]):
                if t not in core:
                    core.append(t)
        for qid in owner_list:
            core.extend(eff_sig[qid] * 2)
        # At least one noise token per document: it is the only token not
        # shared with sibling positives, which keeps documents of the same
        # query distinguishable for document-level removal.
        pad = max(1, DOC_LEN - len(core))
        core.extend(int(t) for t in rng.choice(noise_region, size=pad, replace=False))
        documents[dids[idx]] = Document(dids[idx], tuple(core))
    for idx in range(n_pos_docs, cfg.n_docs):
        toks = rng.choice(noise_region, size=DOC_LEN, replace=False)
        documents[dids[idx]] = Document(dids[idx], tuple(int(t) for t in toks))

    all_doc_indices = np.arange(cfg.n_docs)
    pools: dict[str, tuple[str, ...]] = {}
    samples_of: dict[str, list[Sample]] = {}
    for qid in qids:
        pos = pos_docs_of[qid]
        # the sorted docs outside pos: np.setdiff1d's result, without its sort
        outside = np.ones(cfg.n_docs, dtype=bool)
        outside[pos] = False
        others = all_doc_indices[outside]
        negs = rng.choice(others, size=cfg.pool_size - len(pos), replace=False)
        pool_idx = list(pos) + [int(i) for i in negs]
        pools[qid] = tuple(dids[i] for i in pool_idx)
        # Labelled negatives come from plain noise documents when the pool
        # has enough of them, so removal requests aimed at positive
        # documents do not drag in negative judgements.
        noise_negs = negs[negs >= n_pos_docs]
        candidates = noise_negs if len(noise_negs) >= cfg.positives_per_query else negs
        n_neg_samples = min(cfg.positives_per_query, len(candidates))
        neg_samples = rng.choice(candidates, size=n_neg_samples, replace=False)
        samples_of[qid] = (
            [Sample(qid, dids[i], Label.POSITIVE) for i in pos]
            + [Sample(qid, dids[int(i)], Label.NEGATIVE) for i in neg_samples])

    def build(split_ids: list[str]) -> Dataset:
        return Dataset(
            queries={qid: queries[qid] for qid in split_ids},
            documents=dict(documents),
            samples=[s for qid in split_ids for s in samples_of[qid]],
            pools={qid: pools[qid] for qid in split_ids},
            vocab_size=cfg.vocab_size,
        )

    split = CorpusSplit(
        train=build([qid for qid in qids if qid not in test_ids]),
        test=build([qid for qid in qids if qid in test_ids]),
    )
    split.validate()
    return split


def _n_topics(n_queries: int) -> int:
    # Smallest topic count whose pair count covers one distinct pair per query.
    n = max(3, int(np.ceil((1.0 + np.sqrt(1.0 + 8.0 * n_queries)) / 2.0)))
    while n * (n - 1) // 2 < n_queries:
        n += 1
    return n


def _check_feasible(cfg: SyntheticConfig) -> None:
    if cfg.n_queries < 1 or cfg.n_docs < 1 or cfg.vocab_size < 1:
        raise ConfigError("n_queries, n_docs, and vocab_size must be positive")
    if cfg.positives_per_query < 1:
        raise ConfigError("positives_per_query must be positive")
    if cfg.pool_size <= cfg.positives_per_query:
        raise ConfigError(
            f"pool_size={cfg.pool_size} leaves no room for negatives beside "
            f"{cfg.positives_per_query} positives")
    if not 0.0 <= cfg.entanglement_rate <= 1.0:
        raise ConfigError("entanglement_rate must lie in [0, 1]")
    if not 0.0 <= cfg.test_fraction < 1.0:
        raise ConfigError("test_fraction must lie in [0, 1)")
    if cfg.n_docs < cfg.pool_size:
        raise ConfigError(f"n_docs={cfg.n_docs} too small for pool_size={cfg.pool_size}")
    reserved = (_n_topics(cfg.n_queries) * TOPIC_GROUP
                + cfg.n_queries * SIG_TOKENS + MIN_NOISE_REGION)
    if cfg.vocab_size < reserved:
        raise ConfigError(
            f"vocab_size={cfg.vocab_size} too small for planted structure "
            f"(needs at least {reserved})")


def dataset_stats(dataset: Dataset) -> StatsRecord:
    """Summary counts over a dataset; all zeros for an empty one."""
    pos_counts: dict[str, int] = {}
    for s in dataset.samples:
        if s.label is Label.POSITIVE:
            pos_counts[s.query_id] = pos_counts.get(s.query_id, 0) + 1
    n_queries = len(dataset.queries)
    mean_pos = sum(pos_counts.values()) / n_queries if n_queries else 0.0
    mean_pool = (sum(len(p) for p in dataset.pools.values()) / len(dataset.pools)
                 if dataset.pools else 0.0)
    return StatsRecord(
        n_queries=n_queries,
        n_docs=len(dataset.documents),
        n_samples=len(dataset.samples),
        queries_with_multiple_positives=sum(1 for c in pos_counts.values() if c >= 2),
        mean_positives_per_query=mean_pos,
        mean_pool_size=mean_pool,
    )
