"""An id-keyed corpus loader and a per-query index builder, the reference
that ``numur.corpus`` is compared against.

``load_dataset`` reads every line of the four files in turn, raises at
the first invalid one and returns the corpus as values keyed by string
id (``Corpus``); ``build_index`` builds the arrays of a ``Dataset`` from
those one pool at a time, from per-item token arrays. ``numur.corpus``
checks the same lines in the same order but keeps only integer rows, and
builds its arrays in whole-array passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from numur.corpus import POOLS_HEADER, QRELS_HEADER
from numur.errors import DataError

from conftest import Label, _check_tokens


@dataclass
class Corpus:
    """One split by ids: token tuples by query id and by doc id, (query id,
    doc id, label) samples in file order, and each pool's doc ids by query
    id, pools in the order their queries first appear."""

    queries: dict[str, tuple[int, ...]]
    docs: dict[str, tuple[int, ...]]
    samples: list[tuple[str, str, Label]]
    pools: dict[str, tuple[str, ...]]
    vocab_size: int


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
        except ValueError:  # an integer past int()'s limit on digits
            raise DataError(f"{path}:{lineno}: JSON integer with too many digits") from None
        if not isinstance(obj, dict) or "id" not in obj or "tokens" not in obj:
            raise DataError(f"{path}:{lineno}: expected object with 'id' and 'tokens'")
        ident = str(obj["id"])
        if ident in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {ident!r}")
        seen.add(ident)
        toks = obj["tokens"]
        if not isinstance(toks, list) or not all(isinstance(t, int) for t in toks):
            raise DataError(f"{path}:{lineno}: 'tokens' must be a list of integers")
        for t in toks:
            if not -2**63 <= t < 2**63:
                raise DataError(f"{path}:{lineno}: token {t} outside the 64-bit integer range")
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
                 docs_from: Corpus | None = None) -> Corpus:
    """Load a split from its four files, validating every invariant.

    The vocabulary size is inferred as one past the largest token seen.
    Sample order follows qrels file order; pool order follows rank_hint.
    ``docs_from``, a split loaded from the same docs file, lends its docs,
    which stand in for that file (it is not read again).
    """
    queries_path, docs_path = Path(queries_path), Path(docs_path)
    qrels_path, pools_path = Path(qrels_path), Path(pools_path)

    queries = dict(_read_jsonl_items(queries_path))
    documents = docs_from.docs if docs_from is not None else dict(_read_jsonl_items(docs_path))

    max_token, min_token = -1, 0
    for ident, tokens in (*queries.items(), *documents.items()):
        if not tokens:
            raise DataError(f"{ident!r} has an empty token list")
        max_token = max(max_token, max(tokens))
        min_token = min(min_token, min(tokens))
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

    samples: list[tuple[str, str, Label]] = []
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
        samples.append((qid, did, label))

    # The line checks above cover every invariant of dataset_of (conftest)
    # but one: tokens below zero. Report the first, as dataset_of would.
    if min_token < 0:
        for kind, items in (("query", queries), ("document", documents)):
            for ident, tokens in items.items():
                _check_tokens(kind, ident, tokens, vocab_size)
    return Corpus(queries=queries, docs=documents, samples=samples, pools=pools,
                  vocab_size=vocab_size)


def _length_groups(tokens: list[np.ndarray]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per token count: the rows with that many tokens, and their tokens as one
    token-major (count, rows) array."""
    by_len: dict[int, list[int]] = {}
    for i, toks in enumerate(tokens):
        by_len.setdefault(len(toks), []).append(i)
    return tuple((np.asarray(rows, dtype=np.intp), np.stack([tokens[r] for r in rows], axis=1))
                 for _, rows in sorted(by_len.items()))


def build_index(dataset: Corpus, docs: SimpleNamespace | None = None) -> SimpleNamespace:
    """The arrays of a ``Dataset`` of ``dataset``, by field name; the doc half
    (``doc_row``, ``groups``, ``id_order``) is taken from ``docs`` when given,
    which must index the same docs dict."""
    qtok = {qid: np.asarray(tokens, dtype=np.int64) for qid, tokens in dataset.queries.items()}
    dtok = {did: np.asarray(tokens, dtype=np.int64) for did, tokens in dataset.docs.items()}
    if docs is None:
        doc_row = {did: i for i, did in enumerate(dtok)}
        groups = _length_groups(list(dtok.values()))
        id_order = np.empty(len(doc_row), dtype=np.intp)
        for pos, did in enumerate(sorted(doc_row)):
            id_order[doc_row[did]] = pos
    else:
        doc_row, groups, id_order = docs.doc_row, docs.groups, docs.id_order
    query_row = {qid: i for i, qid in enumerate(qtok)}
    pool_rows: dict[str, np.ndarray] = {}
    for qid, pool in dataset.pools.items():
        if qid not in query_row:
            raise DataError(f"pool references unknown query id {qid!r}")
        try:
            pool_rows[qid] = np.asarray([doc_row[did] for did in pool], dtype=np.intp)
        except KeyError as exc:
            raise DataError(f"pool of query {qid!r} references unknown doc id "
                            f"{exc.args[0]!r}") from None
    pad = len(doc_row)
    pool_len = np.zeros(len(query_row), dtype=np.intp)
    for qid, rows in pool_rows.items():
        pool_len[query_row[qid]] = len(rows)
    pool_matrix = np.full((len(query_row), int(pool_len.max(initial=0))), pad,
                          dtype=np.intp)
    for qid, rows in pool_rows.items():
        pool_matrix[query_row[qid], :len(rows)] = rows
    query_id_order = np.empty(len(query_row), dtype=np.intp)
    for pos, qid in enumerate(sorted(query_row)):
        query_id_order[query_row[qid]] = pos
    sample_query, sample_doc = [], []
    for qid, did, _ in dataset.samples:
        if qid not in query_row:
            raise DataError(f"sample references unknown query id {qid!r}")
        if did not in doc_row:
            raise DataError(f"sample references unknown doc id {did!r}")
        sample_query.append(query_row[qid])
        sample_doc.append(doc_row[did])
    return SimpleNamespace(doc_row=doc_row, groups=groups, id_order=id_order,
                           query_row=query_row,
                           query_groups=_length_groups(list(qtok.values())),
                           pool_matrix=pool_matrix,
                           pool_ids=np.append(id_order, pad)[pool_matrix], pool_len=pool_len,
                           query_id_order=query_id_order,
                           sample_query=np.asarray(sample_query, dtype=np.intp),
                           sample_doc=np.asarray(sample_doc, dtype=np.intp),
                           positive=np.asarray([label is Label.POSITIVE
                                                for _, _, label in dataset.samples], dtype=bool))
