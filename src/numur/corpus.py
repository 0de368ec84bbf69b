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

import json
import os
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

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


# Lines parsed at a time; bounds the JSON objects and TSV fields alive at once.
BLOCK_LINES = 1024

_decoder = json.JSONDecoder()
_raw_decode = _decoder.raw_decode


def _json_line(line: str):
    """json.loads(line) for a stripped line: the same value or the same error."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    obj, end = _raw_decode(line)
    if end != len(line):
        raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _read_jsonl_items(path: Path) -> Items:
    """The ids and token lists of a JSONL file's objects, in file order."""
    lines = _lines(path)
    parsed = _parse_jsonl(list(filter(None, map(str.strip, lines))))
    if parsed is None:
        _line_error(path, lines, 1, _jsonl_check())
    return parsed


def _parse_jsonl(items: list[str]) -> Items | None:
    """``_read_jsonl_items`` of the stripped non-blank lines, checked in
    whole-block passes; None when a line is invalid."""
    ids: list[str] = []
    tokens: list[list] = []
    for start in range(0, len(items), BLOCK_LINES):
        block = items[start:start + BLOCK_LINES]
        # scan_once is raw_decode without its wrapper: on a line that starts
        # with no JSON value it raises StopIteration, which ends the list early
        try:
            decoded = list(map(_decoder.scan_once, block, repeat(0)))
        except (json.JSONDecodeError, RecursionError):
            return None
        if list(map(itemgetter(1), decoded)) != list(map(len, block)):
            return None
        objs = list(map(itemgetter(0), decoded))
        if not (set(map(type, objs)) <= {dict} and all(map(dict.__contains__, objs, repeat("id")))
                and all(map(dict.__contains__, objs, repeat("tokens")))):
            return None
        lists = list(map(itemgetter("tokens"), objs))
        # isinstance(True, int) holds, so the line check accepts booleans too
        if not (set(map(type, lists)) <= {list}
                and set(map(type, chain.from_iterable(lists))) <= {int, bool}):
            return None
        ids += map(str, map(itemgetter("id"), objs))
        tokens += lists
    if len(set(ids)) != len(ids):
        return None
    try:
        return Items.of(ids, tokens)
    except OverflowError:  # a token outside int64
        return None


def _jsonl_check():
    """The check of one line of a JSONL file, lines taken in file order."""
    seen: set[str] = set()

    def check(line: str) -> str | None:
        line = line.strip()
        if not line:
            return None
        try:
            obj = _json_line(line)
        except json.JSONDecodeError as exc:
            return f"malformed JSON ({exc.msg})"
        except RecursionError:
            return "JSON nested too deeply"
        if not isinstance(obj, dict) or "id" not in obj or "tokens" not in obj:
            return "expected object with 'id' and 'tokens'"
        ident = str(obj["id"])
        if ident in seen:
            return f"duplicate id {ident!r}"
        seen.add(ident)
        toks = obj["tokens"]
        if not isinstance(toks, list) or not all(isinstance(t, int) for t in toks):
            return "'tokens' must be a list of integers"
        wide = next((t for t in toks if not -2**63 <= t < 2**63), None)
        if wide is not None:
            return f"token {wide} outside the 64-bit integer range"
        return None
    return check


def _line_error(path: Path, lines: list[str], first: int, check) -> NoReturn:
    """Raise the DataError of the first line ``check`` rejects, as
    ``path:line: message``; ``lines`` are numbered from ``first``.

    Loaders call this only after their whole-file checks found an invalid
    line, so some line fails.
    """
    for lineno, line in enumerate(lines, start=first):
        message = check(line)
        if message is not None:
            raise DataError(f"{path}:{lineno}: {message}")
    raise AssertionError(f"{path}: the whole-file checks rejected a file whose lines all pass")


def _read_tsv(path: Path, header: str, query_row: dict[str, int], doc_row: dict[str, int],
              convert) -> tuple[np.ndarray, np.ndarray, list] | None:
    """The query row, doc row and ``convert`` of the third field of each
    non-blank line after the header of a three-column TSV file, in file
    order; -1 for an id that ``query_row`` or ``doc_row`` lacks.

    None when a line has another number of fields or ``convert`` raises
    ValueError on a third field.
    """
    lines = _lines(path)
    if lines[0] != header:
        raise DataError(f"{path}:1: expected header {header!r}")
    rows = list(filter(None, islice(lines, 1, None)))
    if not set(map(str.count, rows, repeat("\t"))) <= {2}:
        return None
    q, d, third = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)], []
    try:
        for start in range(0, len(rows), BLOCK_LINES):
            fields = "\t".join(rows[start:start + BLOCK_LINES]).split("\t")
            q.append(_rows_of(fields[0::3], query_row))
            d.append(_rows_of(fields[1::3], doc_row))
            third += map(convert, fields[2::3])
    except ValueError:
        return None
    return np.concatenate(q), np.concatenate(d), third


def _tsv_check(check_fields):
    """The check of one line after the header of a three-column TSV file:
    its field count, then ``check_fields`` of its fields; blank lines pass."""
    def check(line: str) -> str | None:
        if not line:
            return None
        fields = line.split("\t")
        if len(fields) != 3:
            return "expected 3 tab-separated fields"
        return check_fields(*fields)
    return check


def _pool_check(queries: dict[str, int], documents: dict[str, int]):
    """The check of one pools.tsv line, lines taken in file order."""
    seen: set[tuple[str, str]] = set()

    def check(qid: str, did: str, hint: str) -> str | None:
        if qid not in queries:
            return f"unknown query id {qid!r}"
        if did not in documents:
            return f"unknown doc id {did!r}"
        try:
            int(hint)
        except ValueError:
            return f"rank_hint {hint!r} is not an integer"
        if (qid, did) in seen:
            return f"duplicate pool entry {did!r} for query {qid!r}"
        seen.add((qid, did))
        return None
    return _tsv_check(check)


def _qrels_check(queries: dict[str, int], documents: dict[str, int], pool_keys: set[int]):
    """The check of one qrels.tsv line, lines taken in file order; ``queries``
    and ``documents`` map ids to rows, and ``pool_keys`` holds the
    ``_pool_key`` of every pool entry."""
    seen: set[tuple[str, str]] = set()

    def check(qid: str, did: str, label: str) -> str | None:
        if qid not in queries:
            return f"unknown query id {qid!r}"
        if did not in documents:
            return f"unknown doc id {did!r}"
        if label not in LABELS:
            return f"label must be 0 or 1, got {label!r}"
        if (qid, did) in seen:
            return f"duplicate pair ({qid!r}, {did!r})"
        seen.add((qid, did))
        if _pool_key(queries[qid], documents[did], len(documents)) not in pool_keys:
            kind = "positive" if label == "1" else "negative"
            return f"{kind} sample doc {did!r} absent from pool of {qid!r}"
        return None
    return _tsv_check(check)


def _rows_of(ids: list[str], row: dict[str, int]) -> np.ndarray:
    """The row of each id, -1 where ``row`` lacks it."""
    return np.fromiter(map(row.get, ids, repeat(-1)), np.intp, len(ids))


def _unique_keys(keys: np.ndarray) -> np.ndarray | None:
    """``keys`` sorted, or None when one repeats."""
    keys = np.sort(keys)
    return None if (keys[1:] == keys[:-1]).any() else keys


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

    Each file is parsed and checked in whole-file passes over its lines;
    only when those find an invalid line do the per-line checks run, to
    report the first invalid line as ``path:line: message``.
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
    n_docs = len(docs.ids)

    columns = _read_tsv(pools_path, POOLS_HEADER, query_row, doc_row, int)
    pool_keys = None
    if columns is not None:
        q, d, hints = columns
        if (q >= 0).all() and (d >= 0).all():
            pool_keys = _unique_keys(_pool_key(q, d, n_docs))
    if pool_keys is None:
        _line_error(pools_path, _lines(pools_path)[1:], 2, _pool_check(query_row, doc_row))
    # the query rows of the pools in the order first listed, from the runs of q
    runs = np.concatenate((q[:1], q[1:][q[1:] != q[:-1]]))
    listed, first = np.unique(runs, return_index=True)
    pool_queries = listed[np.argsort(first)]
    try:
        hint_keys = np.array(hints, dtype=np.int64)
    except OverflowError:  # hints past int64 sort as their ranks among the hints
        hint_keys = np.unique(np.array(hints, dtype=object), return_inverse=True)[1]
    # each pool by rank_hint, then file order
    order = np.argsort(hint_keys, kind="stable")
    pool_matrix, pool_len = _pool_matrix(q[order], d[order], len(queries.ids), n_docs)

    columns = _read_tsv(qrels_path, QRELS_HEADER, query_row, doc_row, str)
    valid = False
    if columns is not None:
        q, d, labels = columns
        if set(labels) <= LABELS and (q >= 0).all() and (d >= 0).all():
            keys = _unique_keys(_pool_key(q, d, n_docs))
            if keys is not None:
                at = np.searchsorted(pool_keys, keys)
                valid = bool((np.append(pool_keys, -1)[at] == keys).all())
    if not valid:
        _line_error(qrels_path, _lines(qrels_path)[1:], 2,
                    _qrels_check(query_row, doc_row, set(pool_keys.tolist())))

    # The checks above cover every invariant of a dataset but one: each
    # token lies in range(vocab_size). The inferred vocab_size bounds the
    # tokens above, so only a token below zero breaks it.
    _reject_negative_tokens("query", queries, vocab_size)
    _reject_negative_tokens("document", docs, vocab_size)
    return Dataset(queries, docs, sample_query=q, sample_doc=d,
                   positive=np.fromiter(map("1".__eq__, labels), bool, len(labels)),
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
