"""Data model, file formats, and synthetic generation for ranking corpora.

A corpus holds queries and documents over an integer token vocabulary,
an ordered list of labelled query-document samples, and a fixed
candidate pool per query (the documents re-ranked for that query). A
``Dataset`` holds one split of it as arrays over query and doc rows;
string ids are kept only to read and write files and to name items in
errors.

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

import hashlib
import json
import os
import struct
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
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
SIG_TOKENS = 1
SIG_REUSE_FRACTION = 0.5
DOC_LEN = 5
MIN_NOISE_REGION = 16


LABELS = frozenset({"0", "1"})  # qrels label fields; "1" marks a positive sample


@dataclass(eq=False)
class Items:
    """Queries or docs: their ids by row, and their token lists as one flat
    int64 array and the offset where each list starts (CSR): row i's tokens
    are ``flat[starts[i]:starts[i + 1]]``.

    Built on first use: ``row`` maps each id to its row; ``groups`` holds,
    per token count, ascending, the rows with that many tokens and their
    tokens as one token-major (count, rows) array, so vectors are pooled a
    whole group at a time; ``id_order`` is each row's position among the
    sorted ids: comparing it compares ids, which breaks score ties.
    """

    ids: list[str]
    flat: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        self.flat.flags.writeable = False  # datasets loaded with docs_from share it

    @classmethod
    def of(cls, ids: list[str], lists: list) -> "Items":
        starts = np.zeros(len(lists) + 1, dtype=np.intp)
        np.cumsum(np.fromiter(map(len, lists), np.intp, len(lists)), out=starts[1:])
        return cls(ids, np.fromiter(chain.from_iterable(lists), np.int64, int(starts[-1])), starts)

    @cached_property
    def row(self) -> dict[str, int]:
        return dict(zip(self.ids, range(len(self.ids))))

    @cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        lengths = np.diff(self.starts)
        order = np.argsort(lengths, kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1) if len(order) else []
        return tuple((rows, self.flat[self.starts[rows] + np.arange(lengths[rows[0]])[:, None]])
                     for rows in groups)

    @cached_property
    def id_order(self) -> np.ndarray:
        # the inverse of the permutation that sorts the ids
        return np.argsort(np.array(sorted(range(len(self.ids)), key=self.ids.__getitem__),
                                   dtype=np.intp))


@dataclass(eq=False)
class Dataset:
    """One split's data as arrays; ids appear only in ``queries.ids`` and
    ``docs.ids`` (``Items``), whose rows every other field refers to.

    Per sample, by its position (file order for a loaded split):
    ``sample_query`` and ``sample_doc`` hold its query row and doc row,
    and ``positive`` marks it positive. ``pool_matrix`` holds each query
    row's pool as one row of doc rows in pool order, padded past
    ``pool_len`` with ``len(docs.ids)``, a row no doc has;
    ``pool_queries`` lists the query rows of the pools in the order the
    pools were first listed.

    Derived on first use: ``pool_ids``, the ``docs.id_order`` of each
    ``pool_matrix`` entry, padded with the same value, so a padding entry
    sorts after every doc; every pool entry as one sorted integer key
    (``_pool_key``) with its column, which ``pool_columns`` looks (query,
    doc) pairs up in; and ``pools``, the doc ids of each pool by query id
    in ``pool_queries`` order, which ``save_dataset`` writes.

    Datasets are immutable by convention; ``_load_split`` raises
    ``vocab_size`` to the generator's before any reader runs.
    """

    queries: Items
    docs: Items
    sample_query: np.ndarray
    sample_doc: np.ndarray
    positive: np.ndarray
    pool_matrix: np.ndarray
    pool_len: np.ndarray
    pool_queries: np.ndarray
    vocab_size: int

    @property
    def n_samples(self) -> int:
        return len(self.positive)

    def sample_ids(self, at: int) -> tuple[str, str]:
        """The query id and doc id of the sample at position ``at``."""
        return self.queries.ids[self.sample_query[at]], self.docs.ids[self.sample_doc[at]]

    @cached_property
    def pool_ids(self) -> np.ndarray:
        return np.append(self.docs.id_order, len(self.docs.ids))[self.pool_matrix]

    @cached_property
    def _pool_entries(self) -> tuple[np.ndarray, np.ndarray]:
        pad = len(self.docs.ids)
        in_pool = self.pool_matrix < pad
        keys = _pool_key(np.arange(len(self.pool_matrix))[:, None], self.pool_matrix, pad)[in_pool]
        order = np.argsort(keys, kind="stable")
        return keys[order], np.nonzero(in_pool)[1][order]

    def pool_columns(self, query_rows: np.ndarray, doc_rows: np.ndarray) -> np.ndarray:
        """Where each doc row stands in the pool of the matching query row;
        -1 where that pool does not hold it. Needs at least one pool entry."""
        keys, cols = self._pool_entries
        wanted = _pool_key(query_rows, doc_rows, len(self.docs.ids))
        at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return np.where(keys[at] == wanted, cols[at], -1)

    @cached_property
    def pools(self) -> dict[str, tuple[str, ...]]:
        """The doc ids of each pool, in pool order, by query id in listed order."""
        doc_ids, query_ids, pool_len = self.docs.ids, self.queries.ids, self.pool_len.tolist()
        return {query_ids[q]: tuple(map(doc_ids.__getitem__,
                                        self.pool_matrix[q, :pool_len[q]].tolist()))
                for q in self.pool_queries.tolist()}


def _pool_matrix(query: np.ndarray, doc: np.ndarray, n_queries: int,
                 pad: int) -> tuple[np.ndarray, np.ndarray]:
    """The pool entries (query row, doc row), each query's in pool order, as
    one row of doc rows per query row padded with ``pad``, and each pool's length."""
    order = np.argsort(query, kind="stable")
    query, doc = query[order], doc[order]
    pool_len = np.bincount(query, minlength=n_queries)
    matrix = np.full((n_queries, int(pool_len.max(initial=0))), pad, dtype=np.intp)
    matrix[query, np.arange(len(query)) - (np.cumsum(pool_len) - pool_len)[query]] = doc
    return matrix, pool_len


def _pool_key(query_rows: np.ndarray, doc_rows: np.ndarray, n_docs: int) -> np.ndarray:
    """One integer per (query row, doc row) pair, ordered by query row, then doc row."""
    return query_rows * n_docs + doc_rows


@dataclass
class CorpusSplit:
    train: Dataset
    test: Dataset

    def check_disjoint(self) -> None:
        """Raise DataError when a query id belongs to both splits."""
        overlap = self.train.queries.row.keys() & self.test.queries.row.keys()
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


# ---------------------------------------------------------------------------
# File ingestion


def read_utf8(path: Path) -> str:
    """The text of ``path``; DataError naming its first byte that is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_json(path: Path):
    """The JSON value held in ``path`` (``read_utf8``); DataError when malformed."""
    try:
        return json.loads(read_utf8(path))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed JSON ({exc})") from None
    except RecursionError:
        raise DataError(f"{path}: JSON nested too deeply") from None


def _lines(path: Path) -> list[str]:
    # read_text turns \r\n and \r into \n, as iterating over the file does;
    # str.splitlines would also split at \x0b, \x85 and \u2028.
    return read_utf8(path).split("\n")


# raw_decode without its wrapper: it raises StopIteration on a line that
# starts with no JSON value; json.loads words every refused line
_scan_once = json.JSONDecoder().scan_once
# the types of the JSON values that isinstance(value, int) accepts: JSON
# booleans pass as the integers 1 and 0
_INTEGER_TYPES = frozenset({int, bool})
_INT64_MIN, _INT64_END = -2**63, 2**63


def _read_jsonl_items(path: Path) -> Items:
    """The ids and token lists of a JSONL file's objects, in file order;
    DataError, as ``path:line: message``, at the first invalid line."""
    ids: list[str] = []
    lists: list[list] = []
    seen: set[str] = set()
    for lineno, line in enumerate(_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, json.JSONDecodeError, RecursionError):
            end = 0
        if end != len(line):  # json.loads refuses the stripped line too
            try:
                json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
            except RecursionError:
                raise DataError(f"{path}:{lineno}: JSON nested too deeply") from None
        if not isinstance(obj, dict) or "id" not in obj or "tokens" not in obj:
            raise DataError(f"{path}:{lineno}: expected object with 'id' and 'tokens'")
        ident = str(obj["id"])
        if ident in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ident!r}")
        seen.add(ident)
        tokens = obj["tokens"]
        if type(tokens) is not list or not _INTEGER_TYPES.issuperset(map(type, tokens)):
            raise DataError(f"{path}:{lineno}: 'tokens' must be a list of integers")
        if tokens and (min(tokens) < _INT64_MIN or max(tokens) >= _INT64_END):
            wide = next(t for t in tokens if not _INT64_MIN <= t < _INT64_END)
            raise DataError(f"{path}:{lineno}: token {wide} outside the 64-bit integer range")
        ids.append(ident)
        lists.append(tokens)
    return Items.of(ids, lists)


def _read_tsv(path: Path, header: str, query_row: dict[str, int], doc_row: dict[str, int]):
    """(line number, query row, doc row, third field) of each non-blank line
    after the header of a three-column TSV file, yielded in file order;
    DataError, as ``path:line: message``, at a wrong header, a line with
    another number of fields or an id that ``query_row`` or ``doc_row`` lacks."""
    lines = _lines(path)
    if lines[0] != header:
        raise DataError(f"{path}:1: expected header {header!r}")
    for lineno, line in enumerate(islice(lines, 1, None), start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 tab-separated fields")
        qid, did, third = fields
        q = query_row.get(qid)
        if q is None:
            raise DataError(f"{path}:{lineno}: unknown query id {qid!r}")
        d = doc_row.get(did)
        if d is None:
            raise DataError(f"{path}:{lineno}: unknown doc id {did!r}")
        yield lineno, q, d, third


def _reject_negative_tokens(kind: str, items: Items, vocab_size: int) -> None:
    """Raise DataError for the first item of ``items`` with a token below zero,
    which no vocabulary holds."""
    at = np.flatnonzero(items.flat < 0)
    if len(at):
        row = int(np.searchsorted(items.starts, at[0], side="right")) - 1
        raise DataError(f"{kind} {items.ids[row]!r} token {items.flat[at[0]]} outside "
                        f"vocabulary of size {vocab_size}")


def load_dataset(queries_path: str | Path, docs_path: str | Path,
                 qrels_path: str | Path, pools_path: str | Path, *,
                 docs_from: Dataset | None = None) -> Dataset:
    """Load a dataset from its four files, validating every invariant.

    The vocabulary size is inferred as one past the largest token seen.
    Sample order follows qrels file order; pool order follows rank_hint.
    ``docs_from``, a dataset loaded from the same docs file, lends its
    ``docs``, which stand in for that file (it is not read again); the
    two datasets then share one doc side, with its row map, length groups
    and id order.

    The files are read in turn (queries, docs, pools, qrels), each in one
    pass over its lines in file order; the first invalid line raises
    DataError as ``path:line: message``.
    """
    queries_path, docs_path = Path(queries_path), Path(docs_path)
    qrels_path, pools_path = Path(qrels_path), Path(pools_path)

    queries = _read_jsonl_items(queries_path)
    docs = docs_from.docs if docs_from is not None else _read_jsonl_items(docs_path)
    for items in (queries, docs):
        empty = np.flatnonzero(np.diff(items.starts) == 0)
        if len(empty):
            raise DataError(f"{items.ids[empty[0]]!r} has an empty token list")
    max_token = max(int(queries.flat.max(initial=-1)), int(docs.flat.max(initial=-1)))
    vocab_size = max_token + 1 if max_token >= 0 else 1

    query_row, doc_row = queries.row, docs.row
    query_ids, doc_ids, n_docs = queries.ids, docs.ids, len(docs.ids)

    pool_entries: set[tuple[int, int]] = set()  # (query row, doc row)
    pool_q: list[int] = []
    pool_d: list[int] = []
    hints: list[int] = []
    for lineno, q, d, hint in _read_tsv(pools_path, POOLS_HEADER, query_row, doc_row):
        try:
            hints.append(int(hint))
        except ValueError:
            raise DataError(f"{pools_path}:{lineno}: rank_hint {hint!r} is not an integer") \
                from None
        entry = q, d
        if entry in pool_entries:
            raise DataError(f"{pools_path}:{lineno}: duplicate pool entry {doc_ids[d]!r} "
                            f"for query {query_ids[q]!r}")
        pool_entries.add(entry)
        pool_q.append(q)
        pool_d.append(d)
    # the query rows of the pools in the order first listed
    pool_queries = np.fromiter(dict.fromkeys(pool_q), np.intp)
    try:
        hint_keys = np.array(hints, dtype=np.int64)
    except OverflowError:  # hints past int64 sort as their ranks among the hints
        hint_keys = np.unique(np.array(hints, dtype=object), return_inverse=True)[1]
    # each pool by rank_hint, then file order
    order = np.argsort(hint_keys, kind="stable")
    pool_matrix, pool_len = _pool_matrix(np.array(pool_q, dtype=np.intp)[order],
                                         np.array(pool_d, dtype=np.intp)[order],
                                         len(query_ids), n_docs)

    sample_q: list[int] = []
    sample_d: list[int] = []
    positive: list[bool] = []
    pairs: set[tuple[int, int]] = set()
    for lineno, q, d, label in _read_tsv(qrels_path, QRELS_HEADER, query_row, doc_row):
        if label not in LABELS:
            raise DataError(f"{qrels_path}:{lineno}: label must be 0 or 1, got {label!r}")
        pair = q, d
        if pair in pairs:
            raise DataError(f"{qrels_path}:{lineno}: duplicate pair "
                            f"({query_ids[q]!r}, {doc_ids[d]!r})")
        pairs.add(pair)
        if pair not in pool_entries:
            kind = "positive" if label == "1" else "negative"
            raise DataError(f"{qrels_path}:{lineno}: {kind} sample doc {doc_ids[d]!r} "
                            f"absent from pool of {query_ids[q]!r}")
        sample_q.append(q)
        sample_d.append(d)
        positive.append(label == "1")

    # The checks above cover every invariant of a dataset but one: each
    # token lies in range(vocab_size). The inferred vocab_size bounds the
    # tokens above, so only a token below zero breaks it.
    _reject_negative_tokens("query", queries, vocab_size)
    _reject_negative_tokens("document", docs, vocab_size)
    return Dataset(queries, docs, sample_query=np.array(sample_q, dtype=np.intp),
                   sample_doc=np.array(sample_d, dtype=np.intp),
                   positive=np.array(positive, dtype=bool),
                   pool_matrix=pool_matrix, pool_len=pool_len, pool_queries=pool_queries,
                   vocab_size=vocab_size)


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
    write_lines(queries_path, _item_lines(dataset.queries))
    if write_docs:
        write_lines(docs_path, _item_lines(dataset.docs))
    query_ids, doc_ids = dataset.queries.ids, dataset.docs.ids
    write_lines(qrels_path, [QRELS_HEADER] + [
        f"{query_ids[q]}\t{doc_ids[d]}\t{int(p)}" for q, d, p in zip(
            dataset.sample_query.tolist(), dataset.sample_doc.tolist(),
            dataset.positive.tolist())])
    write_lines(pools_path, [POOLS_HEADER] + [f"{qid}\t{did}\t{rank}"
                                               for qid, pool in dataset.pools.items()
                                               for rank, did in enumerate(pool)])


def _item_lines(items: Items) -> list[str]:
    tokens, starts = items.flat.tolist(), items.starts.tolist()
    return [json.dumps({"id": ident, "tokens": tokens[a:b]})
            for ident, a, b in zip(items.ids, starts, starts[1:])]


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write each line and a newline as UTF-8 with ``atomic_write``."""
    with atomic_write(path) as fh:
        fh.write("".join(line + "\n" for line in lines).encode("utf-8"))


# ---------------------------------------------------------------------------
# Array image: the parsed arrays of both splits, bound to the text they came from
#
# Layout: _IMAGE_HEAD (magic, version, sha256 of the payload), then the
# payload: the source digests, a u64 length and a JSON object (the ids by
# side, every array's shape, each split's vocab_size) padded with spaces to
# a multiple of 8 bytes, then every array's entries as little-endian int64.

_IMAGE_MAGIC = b"NUMURIMG"
# Raise it when the layout changes, or when load_dataset gives another
# result for some text: an image of another version is never read.
_IMAGE_VERSION = 1
_IMAGE_HEAD = struct.Struct("<8sQ32s")
# The arrays in stored order: the doc side's, then per split its queries'
# and its own; each is np.intp unless _DTYPES names it.
_ITEM_ARRAYS = ("flat", "starts")
_SPLIT_ARRAYS = ("sample_query", "sample_doc", "positive", "pool_matrix", "pool_len",
                 "pool_queries")
_IMAGE_ARRAYS = _ITEM_ARRAYS + (_ITEM_ARRAYS + _SPLIT_ARRAYS) * 2
_DTYPES = {"flat": np.int64, "positive": np.bool_}


def file_digests(paths) -> bytes | None:
    """The sha256 of each file of ``paths``, concatenated; None when one
    cannot be read."""
    try:
        return b"".join(hashlib.sha256(Path(path).read_bytes()).digest() for path in paths)
    except OSError:
        return None


def save_image(path: str | Path, digests: bytes, train: Dataset, test: Dataset) -> None:
    """Write the image of ``train`` and ``test``, two splits loaded with one
    doc side (``docs_from``) from the text whose ``file_digests`` are
    ``digests``, to ``path`` with ``atomic_write``."""
    arrays = [getattr(train.docs, name) for name in _ITEM_ARRAYS]
    for ds in (train, test):
        arrays += [getattr(ds.queries, name) for name in _ITEM_ARRAYS]
        arrays += [getattr(ds, name) for name in _SPLIT_ARRAYS]
    meta = json.dumps({"ids": [train.docs.ids, train.queries.ids, test.queries.ids],
                       "shapes": [array.shape for array in arrays],
                       "vocab_size": [train.vocab_size, test.vocab_size]},
                      separators=(",", ":")).encode("ascii")
    meta += b" " * (-len(meta) % 8)  # aligns the arrays
    entries = np.concatenate([array.ravel() for array in arrays]).astype("<i8")
    payload = b"".join([digests, struct.pack("<Q", len(meta)), meta, entries.tobytes()])
    with atomic_write(path) as fh:
        fh.write(_IMAGE_HEAD.pack(_IMAGE_MAGIC, _IMAGE_VERSION, hashlib.sha256(payload).digest()))
        fh.write(payload)


def load_image(path: str | Path, digests: bytes) -> tuple[Dataset, Dataset] | None:
    """The train and test splits that ``save_image`` wrote to ``path``,
    sharing one doc side, as ``load_dataset`` gave them; None when ``path``
    cannot be read, holds no image of this version, fails its checksum or
    was taken of text whose ``file_digests`` are not ``digests``."""
    try:
        data = bytearray(Path(path).read_bytes())  # writable arrays, as parsed ones are
    except OSError:
        return None
    if len(data) < _IMAGE_HEAD.size:
        return None
    magic, version, checksum = _IMAGE_HEAD.unpack_from(data)
    payload = memoryview(data)[_IMAGE_HEAD.size:]
    if (magic, version) != (_IMAGE_MAGIC, _IMAGE_VERSION) \
            or hashlib.sha256(payload).digest() != checksum or payload[:len(digests)] != digests:
        return None
    at = len(digests) + 8
    (size,) = struct.unpack_from("<Q", payload, at - 8)
    meta = json.loads(bytes(payload[at:at + size]))
    entries = np.frombuffer(payload[at + size:], "<i8")
    arrays, at = [], 0
    for name, shape in zip(_IMAGE_ARRAYS, meta["shapes"]):
        end = at + int(np.prod(shape))
        arrays.append(entries[at:end].reshape(shape).astype(_DTYPES.get(name, np.intp),
                                                              copy=False))
        at = end
    doc_ids, *query_ids = meta["ids"]
    docs = Items(doc_ids, *arrays[:2])
    train, test = (Dataset(Items(ids, *own[:2]), docs, **dict(zip(_SPLIT_ARRAYS, own[2:])),
                           vocab_size=vocab_size)
                   for ids, vocab_size, own in zip(query_ids, meta["vocab_size"],
                                                   (arrays[2:10], arrays[10:])))
    return train, test


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
    shared between two queries of the same split. The two splits share
    one doc side, as splits loaded with ``docs_from`` do.
    """
    _check_feasible(cfg)
    rng = np.random.default_rng(cfg.seed)

    n_test = int(round(cfg.n_queries * cfg.test_fraction))
    n_train = cfg.n_queries - n_test
    if n_train <= 0:
        raise ConfigError("test_fraction leaves no training queries")

    # Queries and docs are handled by their index; ids are made for the files.
    n_topics = _n_topics(cfg.n_queries)
    perm = rng.permutation(cfg.vocab_size).tolist()
    topic_blocks = [perm[t * TOPIC_GROUP:(t + 1) * TOPIC_GROUP] for t in range(n_topics)]
    sig_base = n_topics * TOPIC_GROUP
    sig_of = [perm[sig_base + f * SIG_TOKENS: sig_base + (f + 1) * SIG_TOKENS]
              for f in range(cfg.n_queries)]
    noise_region = np.array(perm[sig_base + cfg.n_queries * SIG_TOKENS:])

    width = len(str(max(cfg.n_queries, cfg.n_docs) - 1))
    is_test = np.zeros(cfg.n_queries, dtype=bool)
    is_test[rng.permutation(cfg.n_queries)[:n_test]] = True
    side = is_test.tolist()
    train_qs, test_qs = np.flatnonzero(~is_test).tolist(), np.flatnonzero(is_test).tolist()

    # Every train query gets a distinct topic pair and its own signature.
    # A test query inherits the topic pair of a random train parent; half
    # the test queries also inherit the parent's signature (near
    # duplicates of a seen query), the rest keep a fresh signature and
    # are genuinely novel.
    all_pairs = [(a, b) for a in range(n_topics) for b in range(a + 1, n_topics)]
    pair_order = rng.permutation(len(all_pairs))
    pair_of: list = [None] * cfg.n_queries
    eff_sig = sig_of.copy()
    for i, q in enumerate(train_qs):
        pair_of[q] = all_pairs[int(pair_order[i])]
    for q in test_qs:
        parent = train_qs[int(rng.integers(len(train_qs)))]
        pair_of[q] = pair_of[parent]
        if rng.random() < SIG_REUSE_FRACTION:
            eff_sig[q] = eff_sig[parent]

    def topic_tokens(topics: tuple[int, ...]) -> list[int]:
        return [t for topic in topics for t in topic_blocks[topic]]

    # The signature appears twice so it carries as much pooled weight as
    # the topic pair; that is what separates a query from others sharing
    # one of its topics.
    query_tokens = [topic_tokens(pair_of[q]) + eff_sig[q] * 2 for q in range(cfg.n_queries)]

    # Positive-document ownership. Adopting an open single-owner document
    # of another query of the same split with probability e/(1+e) per
    # slot yields a shared fraction of e among distinct positive
    # documents. The open docs are listed per split side and per (side,
    # topic pair), ascending, which is creation order; the ``own`` docs
    # that the current query created close each of its two lists.
    adopt_p = cfg.entanglement_rate / (1.0 + cfg.entanglement_rate)
    owners: list[list[int]] = []
    open_on: tuple[list[int], list[int]] = ([], [])  # train side, test side
    open_in: dict[tuple, list[int]] = {}
    pos_docs_of: list[list[int]] = []
    for q in range(cfg.n_queries):
        on_side = open_on[side[q]]
        in_pair = open_in.setdefault((side[q], pair_of[q]), [])
        pos: list[int] = []
        own = 0
        for _ in range(cfg.positives_per_query):
            candidates = len(on_side) - own
            if candidates and rng.random() < adopt_p:
                same_pair = len(in_pair) - own
                pick = in_pair[int(rng.integers(same_pair))] if same_pair \
                    else on_side[int(rng.integers(candidates))]
                for docs in (on_side, open_in[side[q], pair_of[owners[pick][0]]]):
                    del docs[bisect_left(docs, pick)]
                owners[pick].append(q)
            else:
                pick = len(owners)
                owners.append([q])
                on_side.append(pick)
                in_pair.append(pick)
                own += 1
            pos.append(pick)
        pos_docs_of.append(pos)

    n_pos_docs = len(owners)
    if n_pos_docs > cfg.n_docs:
        raise ConfigError(
            f"n_docs={cfg.n_docs} too small for {n_pos_docs} positive documents")

    doc_tokens = []
    for owner_list in owners:
        core: list[int] = []
        for q in owner_list:
            for t in topic_tokens(pair_of[q]):
                if t not in core:
                    core.append(t)
        for q in owner_list:
            core.extend(eff_sig[q] * 2)
        # At least one noise token per document: it is the only token not
        # shared with sibling positives, which keeps documents of the same
        # query distinguishable for document-level removal.
        pad = max(1, DOC_LEN - len(core))
        doc_tokens.append(core + rng.choice(noise_region, size=pad, replace=False).tolist())
    doc_tokens += [rng.choice(noise_region, size=DOC_LEN, replace=False).tolist()
                   for _ in range(n_pos_docs, cfg.n_docs)]
    docs = Items.of([f"d{idx:0{width}d}" for idx in range(cfg.n_docs)], doc_tokens)

    # Each query's pool (its positives, then its negatives) and samples
    # (its positives, then its labelled negatives), by doc index.
    all_doc_indices = np.arange(cfg.n_docs)
    pools: list[list[int]] = []
    samples: list[list[int]] = []
    for pos in pos_docs_of:
        # the sorted docs outside pos: np.setdiff1d's result, without its sort
        outside = np.ones(cfg.n_docs, dtype=bool)
        outside[pos] = False
        negs = rng.choice(all_doc_indices[outside], size=cfg.pool_size - len(pos), replace=False)
        # Labelled negatives come from plain noise documents when the pool
        # has enough of them, so removal requests aimed at positive
        # documents do not drag in negative judgements.
        noise_negs = negs[negs >= n_pos_docs]
        candidates = noise_negs if len(noise_negs) >= cfg.positives_per_query else negs
        n_neg_samples = min(cfg.positives_per_query, len(candidates))
        pools.append(pos + negs.tolist())
        samples.append(pos + rng.choice(candidates, size=n_neg_samples, replace=False).tolist())

    def build(qs: list[int]) -> Dataset:
        rows = np.arange(len(qs))
        counts = [len(samples[q]) for q in qs]
        ppq = cfg.positives_per_query
        pool_matrix, pool_len = _pool_matrix(
            rows.repeat(cfg.pool_size),
            np.fromiter(chain.from_iterable(pools[q] for q in qs), np.intp), len(qs), cfg.n_docs)
        return Dataset(
            Items.of([f"q{q:0{width}d}" for q in qs], [query_tokens[q] for q in qs]), docs,
            sample_query=rows.repeat(counts),
            sample_doc=np.fromiter(chain.from_iterable(samples[q] for q in qs), np.intp),
            positive=np.fromiter(chain.from_iterable([True] * ppq + [False] * (n - ppq)
                                                     for n in counts), bool),
            pool_matrix=pool_matrix, pool_len=pool_len, pool_queries=rows,
            vocab_size=cfg.vocab_size)

    return CorpusSplit(train=build(train_qs), test=build(test_qs))


def _n_topics(n_queries: int) -> int:
    # Smallest topic count whose pair count covers one distinct pair per query.
    n = max(3, int(np.ceil((1.0 + np.sqrt(1.0 + 8.0 * n_queries)) / 2.0)))
    while n * (n - 1) // 2 < n_queries:
        n += 1
    return n


def _check_feasible(cfg: SyntheticConfig) -> None:
    if cfg.n_queries < 1 or cfg.n_docs < 1 or cfg.vocab_size < 1:
        raise ConfigError("n_queries, n_docs, and vocab_size must be positive")
    if cfg.vocab_size >= 2**32:  # save_model's header stores it in 32 bits
        raise ConfigError(f"vocab_size={cfg.vocab_size} must be below 2**32, the most a model "
                          "file holds")
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
    n_queries = len(dataset.queries.ids)
    pos_counts = np.bincount(dataset.sample_query[dataset.positive], minlength=n_queries)
    pools = dataset.pool_len[dataset.pool_queries]
    return StatsRecord(
        n_queries=n_queries,
        n_docs=len(dataset.docs.ids),
        n_samples=dataset.n_samples,
        queries_with_multiple_positives=int((pos_counts >= 2).sum()),
        mean_positives_per_query=int(pos_counts.sum()) / n_queries if n_queries else 0.0,
        mean_pool_size=int(pools.sum()) / len(pools) if len(pools) else 0.0,
    )
