"""Corpus ingestion: every load error with its text and line, and lossless round trips.

Each case of the error table corrupts one file of a saved copy of the
figure-case dataset and pins the whole ``DataError`` message, file and
line number included. Line endings and blank lines must not change what
loads, and any small dataset written by ``save_dataset`` (with its pool
lines shuffled) must load back equal.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numur import DataError, Dataset, load_dataset, save_dataset
from numur.corpus import POOLS_HEADER

from conftest import Label, Sample, dataset_of, figure_case_dataset, samples_of, tokens_of

FILES = ("queries", "docs", "qrels", "pools")
Q2 = '{"id": "q2", "tokens": [3, 4]}'  # the saved line of q2 in queries.jsonl


def saved_figure_case(tmp_path):
    paths = {name: tmp_path / f"{name}.{'jsonl' if name in ('queries', 'docs') else 'tsv'}"
             for name in FILES}
    save_dataset(figure_case_dataset(), *paths.values())
    return paths


def replace(lineno, *new):
    return lambda lines: lines[:lineno - 1] + list(new) + lines[lineno:]


def append(*new):
    return lambda lines: lines + list(new)


def then(*edits):
    """The edits applied in turn."""
    def edit(lines):
        for each in edits:
            lines = each(lines)
        return lines
    return edit


# (case, file, edit of the file's lines, line number or None, message after "path:line: ")
ERROR_CASES = [
    # _read_jsonl_items
    ("not json", "queries", replace(2, "not json"), 2, "malformed JSON (Expecting value)"),
    ("object split across lines", "queries",
     replace(3, '{"id": "q3",', '"tokens": [5, 6]}', '{"id": "q9", "tokens": [1]}'), 3,
     "malformed JSON (Expecting property name enclosed in double quotes)"),
    ("two objects on one line", "queries",
     replace(4, '{"id": "q4", "tokens": [7, 8]} {"id": "q9", "tokens": [1]}'), 4,
     "malformed JSON (Extra data)"),
    ("byte order mark", "docs", lambda lines: ["﻿" + lines[0]] + lines[1:], 1,
     "malformed JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    ("array instead of object", "queries", replace(2, "[3, 4]"), 2,
     "expected object with 'id' and 'tokens'"),
    ("missing tokens", "docs", replace(5, '{"id": "d5"}'), 5,
     "expected object with 'id' and 'tokens'"),
    ("duplicate id", "queries", replace(3, Q2), 3, "duplicate id 'q2'"),
    ("float token", "docs", replace(1, '{"id": "d1", "tokens": [1.5]}'), 1,
     "'tokens' must be a list of integers"),
    ("tokens not a list", "queries", replace(1, '{"id": "q1", "tokens": "ab"}'), 1,
     "'tokens' must be a list of integers"),
    ("token past int64", "docs", replace(3, '{"id": "d3", "tokens": [5, 9223372036854775808]}'),
     3, "token 9223372036854775808 outside the 64-bit integer range"),
    ("token below int64", "queries", replace(2, '{"id": "q2", "tokens": [-9223372036854775809]}'),
     2, "token -9223372036854775809 outside the 64-bit integer range"),
    ("token of 5,000 digits", "queries", replace(2, '{"id": "q2", "tokens": [%s]}' % ("7" * 5000)),
     2, "JSON integer with too many digits"),
    # _read_tsv
    ("missing header", "pools", lambda lines: lines[1:], 1,
     "expected header 'query_id\\tdoc_id\\trank_hint'"),
    ("wrong header", "qrels", replace(1, "query\tdoc\tlabel"), 1,
     "expected header 'query_id\\tdoc_id\\tlabel'"),
    ("empty file", "qrels", lambda lines: [], 1, "expected header 'query_id\\tdoc_id\\tlabel'"),
    ("two fields", "pools", replace(3, "q1\td2"), 3, "expected 3 tab-separated fields"),
    ("four fields", "qrels", replace(4, "q2\td2\t1\t1"), 4, "expected 3 tab-separated fields"),
    # load_dataset: tokens
    ("empty token list", "queries", replace(2, '{"id": "q2", "tokens": []}'), None,
     "'q2' has an empty token list"),
    ("negative token", "docs", replace(2, '{"id": "d2", "tokens": [-1]}'), None,
     "document 'd2' token -1 outside vocabulary of size 21"),
    # load_dataset: pools
    ("pool of unknown query", "pools", append("q9\td1\t5"), 9, "unknown query id 'q9'"),
    ("pool entry of unknown doc", "pools", append("q1\td9\t5"), 9, "unknown doc id 'd9'"),
    ("rank_hint not an integer", "pools", replace(2, "q1\td1\tfirst"), 2,
     "rank_hint 'first' is not an integer"),
    ("duplicate pool entry", "pools", append("q1\td1\t7"), 9,
     "duplicate pool entry 'd1' for query 'q1'"),
    # load_dataset: qrels
    ("sample of unknown query", "qrels", append("q9\td1\t1"), 9, "unknown query id 'q9'"),
    ("sample of unknown doc", "qrels", append("q1\td9\t1"), 9, "unknown doc id 'd9'"),
    ("label not 0 or 1", "qrels", replace(2, "q1\td1\t2"), 2, "label must be 0 or 1, got '2'"),
    ("duplicate pair", "qrels", append("q1\td1\t0"), 9, "duplicate pair ('q1', 'd1')"),
    ("positive outside pool", "qrels", append("q1\td5\t1"), 9,
     "positive sample doc 'd5' absent from pool of 'q1'"),
    ("negative outside pool", "qrels", append("q2\td5\t0"), 9,
     "negative sample doc 'd5' absent from pool of 'q2'"),
    # a line that breaks several checks fails the first, in the order above
    ("duplicate id without tokens", "queries", replace(3, '{"id": "q2"}'), 3,
     "expected object with 'id' and 'tokens'"),
    ("duplicate id and float tokens", "queries", replace(3, '{"id": "q2", "tokens": [1.5]}'), 3,
     "duplicate id 'q2'"),
    ("duplicate id and token past int64", "docs",
     replace(4, '{"id": "d1", "tokens": [9223372036854775808]}'), 4, "duplicate id 'd1'"),
    ("token past int64 and float token", "docs",
     replace(2, '{"id": "d2", "tokens": [9223372036854775808, 1.5]}'), 2,
     "'tokens' must be a list of integers"),
    ("four fields of unknown ids", "qrels", append("q9\td9\t1\t1"), 9,
     "expected 3 tab-separated fields"),
    ("pool line of unknown query, unknown doc and bad hint", "pools", append("q9\td9\tfirst"), 9,
     "unknown query id 'q9'"),
    ("pool line of unknown doc and bad hint", "pools", append("q1\td9\tfirst"), 9,
     "unknown doc id 'd9'"),
    ("duplicate pool entry with bad hint", "pools", append("q1\td1\tfirst"), 9,
     "rank_hint 'first' is not an integer"),
    ("sample of unknown doc labelled 2", "qrels", append("q1\td9\t2"), 9,
     "unknown doc id 'd9'"),
    ("duplicate pair labelled 2", "qrels", append("q1\td1\t2"), 9,
     "label must be 0 or 1, got '2'"),
    ("sample outside pool labelled 2", "qrels", append("q1\td5\t2"), 9,
     "label must be 0 or 1, got '2'"),
    # of two bad lines in one file, the first fails, whatever its check
    ("bad hint before a two-field line", "pools", then(replace(2, "q1\td1\tfirst"), append("q1")),
     2, "rank_hint 'first' is not an integer"),
    ("positive outside pool before label 2", "qrels",
     then(replace(2, "q1\td5\t1"), append("q1\td1\t2")), 2,
     "positive sample doc 'd5' absent from pool of 'q1'"),
    ("token past int64 before a duplicate id", "queries",
     then(replace(2, '{"id": "q2", "tokens": [9223372036854775808]}'), replace(4, Q2)), 2,
     "token 9223372036854775808 outside the 64-bit integer range"),
    # the empty-list check runs once both JSONL files are read
    ("empty token list before a duplicate id", "queries",
     then(replace(2, '{"id": "q2", "tokens": []}'), replace(4, Q2)), 4, "duplicate id 'q2'"),
]


@pytest.mark.parametrize("case, name, edit, lineno, message", ERROR_CASES,
                         ids=[c[0] for c in ERROR_CASES])
def test_each_load_error_keeps_its_text_and_line(tmp_path, case, name, edit, lineno, message):
    paths = saved_figure_case(tmp_path)
    lines = paths[name].read_text(encoding="utf-8").split("\n")[:-1]
    paths[name].write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_dataset(*paths.values())
    expected = message if lineno is None else f"{paths[name]}:{lineno}: {message}"
    assert str(info.value) == expected


def same_dataset(a: Dataset, b: Dataset) -> bool:
    return (tokens_of(a.queries) == tokens_of(b.queries) and tokens_of(a.docs) == tokens_of(b.docs)
            and samples_of(a) == samples_of(b) and a.pools == b.pools
            and a.vocab_size == b.vocab_size)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
@pytest.mark.parametrize("blank", ["", "\n", "\n  \n"])
def test_line_endings_and_blank_lines_load_like_lf(tmp_path, newline, blank):
    (tmp_path / "lf").mkdir()
    paths = saved_figure_case(tmp_path / "lf")
    reference = load_dataset(*paths.values())
    variant = {}
    for name, path in paths.items():
        text = path.read_text(encoding="utf-8")
        if blank:
            # blank lines after the header and between records; whitespace-only
            # lines count as blank in the JSONL files only
            filler = blank if name in ("queries", "docs") else "\n"
            text = text.replace("\n", "\n" + filler, 2) + filler
        variant[name] = tmp_path / path.name
        variant[name].write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert same_dataset(load_dataset(*variant.values()), reference)


def test_crlf_error_reports_the_same_line(tmp_path):
    paths = saved_figure_case(tmp_path)
    lines = paths["qrels"].read_text(encoding="utf-8").split("\n")[:-1]
    lines[4] = "q3\td2\tyes"
    paths["qrels"].write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
    with pytest.raises(DataError, match=r"qrels\.tsv:5: label must be 0 or 1, got 'yes'$"):
        load_dataset(*paths.values())


def test_invalid_utf8_is_a_data_error(tmp_path):
    paths = saved_figure_case(tmp_path)
    good = paths["pools"].read_bytes()
    paths["pools"].write_bytes(good + b"q1\td\xff\t9\n")
    with pytest.raises(DataError) as info:
        load_dataset(*paths.values())
    bad_at = len(good) + len("q1\td")
    assert str(info.value) == f"{paths['pools']}: not UTF-8 (invalid start byte at byte {bad_at})"


def test_shared_documents_load_like_parsed_ones(tmp_path):
    paths = saved_figure_case(tmp_path)
    parsed = load_dataset(*paths.values())
    paths["docs"].write_text("not json\n", encoding="utf-8")  # must not be read again
    shared = load_dataset(*paths.values(), docs_from=parsed)
    assert same_dataset(shared, parsed)
    assert shared.docs is parsed.docs


IDS = st.text(alphabet="abqd019_-é", min_size=1, max_size=4)
TOKENS = st.lists(st.integers(0, 40), min_size=1, max_size=6).map(tuple)


@st.composite
def small_datasets(draw):
    qids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    dids = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    queries = {q: draw(TOKENS) for q in qids}
    documents = {d: draw(TOKENS) for d in dids}
    pools, samples = {}, []
    for qid in qids:
        if draw(st.booleans()):  # some queries have no pool
            continue
        pool = draw(st.permutations(dids))[:draw(st.integers(1, len(dids)))]
        pools[qid] = tuple(pool)
        for did in pool:
            label = draw(st.sampled_from([None, Label.POSITIVE, Label.NEGATIVE]))
            if label is not None:
                samples.append(Sample(qid, did, label))
    samples = draw(st.permutations(samples))
    vocab = 1 + max(t for tokens in [*queries.values(), *documents.values()] for t in tokens)
    return dataset_of(queries=queries, docs=documents, samples=list(samples), pools=pools,
                      vocab_size=vocab)


@settings(max_examples=100, deadline=None)
@given(small_datasets(), st.randoms(use_true_random=False))
def test_save_load_round_trip_with_shuffled_rank_hints(tmp_path_factory, ds, rnd: random.Random):
    paths = [tmp_path_factory.mktemp("rt") / name for name in
             ("queries.jsonl", "docs.jsonl", "qrels.tsv", "pools.tsv")]
    save_dataset(ds, *paths)
    # rank hints with gaps and negative values, pool lines in random order
    lines = []
    for qid, pool in ds.pools.items():
        hints = sorted(rnd.sample(range(-50, 50), len(pool)))
        lines += [f"{qid}\t{did}\t{hint}" for did, hint in zip(pool, hints)]
    rnd.shuffle(lines)
    paths[3].write_text(POOLS_HEADER + "\n" + "".join(line + "\n" for line in lines),
                        encoding="utf-8")
    assert same_dataset(load_dataset(*paths), ds)
