"""The whole-file corpus loader against the line-by-line one it replaced.

``ingest_reference`` keeps the line-by-line ``load_dataset`` and the
per-query index builder. On random valid corpora (pools of 1 to 40 docs,
shuffled pool lines, tied, negative, signed and 30-digit rank hints,
blank lines, CRLF and CR line endings, a test split loaded with
``docs_from``, files parsed in blocks of as few as one line) both
loaders must give the same dataset, in the same order, and the same
arrays, without running the per-line error path. On the same corpora
with one or two lines corrupted, and on every case of ``test_ingest``'s
error table, both must raise the same ``DataError``, and so must
``dataset_of`` and the per-query builder on hand-assembled values whose
pools name unknown ids.
"""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ingest_reference as reference
from numur import DataError, load_dataset
from numur import corpus
from numur.corpus import POOLS_HEADER, QRELS_HEADER
from scoring_reference import doc_tokens, query_tokens

from conftest import dataset_of, samples_of, tokens_of
from test_ingest import ERROR_CASES, saved_figure_case

FILES = ("queries", "docs", "qrels", "pools")
IDS = st.text(alphabet="abqd019_-é ", min_size=1, max_size=4)
TOKENS = st.lists(st.integers(0, 60), min_size=1, max_size=6)
UNKNOWN = "☃"  # no generated id holds it


def json_line(draw, ident, tokens):
    """One JSONL object, in one of several equivalent spellings."""
    if draw(st.booleans()):  # JSON booleans are integers to both loaders
        tokens = [bool(t) if t in (0, 1) else t for t in tokens]
    obj = {"id": ident, "tokens": tokens}
    if draw(st.booleans()):
        obj = {"tokens": tokens, "id": ident}
    separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (" , ", " : ")]))
    return json.dumps(obj, separators=separators, ensure_ascii=draw(st.booleans()))


def hint_text(draw, hint):
    forms = [str(hint), f" {hint}", f"{hint} "] + ([f"+{hint}"] if hint >= 0 else [])
    return draw(st.sampled_from(forms))


def with_blank_lines(draw, lines, blank):
    """``lines`` with blank lines drawn between them; ``blank`` spells one."""
    out = []
    for line in lines:
        out += [blank] * draw(st.integers(0, 1)) + [line]
    return out


@st.composite
def split_files(draw, qids, dids):
    """The queries, qrels and pools lines of one split over ``dids``."""
    queries = [json_line(draw, q, draw(TOKENS)) for q in qids]
    scale = draw(st.sampled_from([1, 1, 1, 10**30]))  # hints past int64 in one split of four
    pools, qrels = [], []
    for qid in qids:
        if draw(st.integers(0, 4)) == 0:  # some queries have no pool
            continue
        size = draw(st.integers(1, min(40, len(dids))))
        pool = draw(st.permutations(dids))[:size]
        for did in pool:
            hint = draw(st.integers(-3, 3)) * scale
            pools.append(f"{qid}\t{did}\t{hint_text(draw, hint)}")
            label = draw(st.sampled_from([None, "0", "1"]))
            if label is not None:
                qrels.append(f"{qid}\t{did}\t{label}")
    pools = draw(st.permutations(pools))
    qrels = draw(st.permutations(qrels))
    return {"queries": with_blank_lines(draw, queries, draw(st.sampled_from(["", "  "]))),
            "qrels": [QRELS_HEADER] + with_blank_lines(draw, qrels, ""),
            "pools": [POOLS_HEADER] + with_blank_lines(draw, pools, "")}


@st.composite
def corpora(draw):
    """The lines of a valid two-split corpus, by split and file."""
    ids = draw(st.lists(IDS, min_size=3, max_size=60, unique=True))
    n_test = draw(st.integers(0, min(2, len(ids) - 2)))
    n_train = draw(st.integers(1, min(6, len(ids) - n_test - 1)))
    qids, rest = ids[:n_train + n_test], ids[n_train + n_test:]
    dids = rest[:draw(st.integers(1, len(rest)))]
    docs = [json_line(draw, d, draw(st.lists(st.integers(0, 60), min_size=1, max_size=8)))
            for d in dids]
    docs = with_blank_lines(draw, docs, draw(st.sampled_from(["", " \t "])))
    return {"train": {"docs": docs, **draw(split_files(qids[:n_train], dids))},
            "test": {"docs": docs, **draw(split_files(qids[n_train:], dids))},
            "newline": draw(st.sampled_from(["\n", "\r\n", "\r"])), "dids": dids}


def write(tmp, corpus_lines):
    """Write a corpus; the paths of each split's four files."""
    tmp.mkdir(parents=True, exist_ok=True)
    paths = {}
    for split in ("train", "test"):
        paths[split] = []
        for name in FILES:
            path = tmp / (f"{name}.jsonl" if name == "docs" else f"{split}_{name}")
            text = "".join(line + "\n" for line in corpus_lines[split][name])
            path.write_bytes(text.replace("\n", corpus_lines["newline"]).encode("utf-8"))
            paths[split].append(path)
    return paths


def load_both(loader, paths):
    """(train, test) loaded by ``loader``, the test split with docs_from; or the
    text of the DataError it raised."""
    try:
        train = loader(*paths["train"])
        return train, loader(*paths["test"], docs_from=train)
    except DataError as exc:
        return str(exc)


def assert_same_dataset(got, want):
    """``got``, a loaded ``Dataset``, holds the values of ``want``, a reference ``Corpus``."""
    assert list(tokens_of(got.queries).items()) == list(want.queries.items())
    assert list(tokens_of(got.docs).items()) == list(want.docs.items())
    assert samples_of(got) == want.samples
    assert list(got.pools.items()) == list(want.pools.items())
    assert got.vocab_size == want.vocab_size
    for qid, tokens in want.queries.items():
        assert np.array_equal(query_tokens(got, qid), np.asarray(tokens, dtype=np.int64))
    for did, tokens in want.docs.items():
        assert np.array_equal(doc_tokens(got, did), np.asarray(tokens, dtype=np.int64))


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def assert_same_groups(got, want):
    assert len(got) == len(want)
    for (rows, toks), (want_rows, want_toks) in zip(got, want):
        assert_same_array(rows, want_rows)
        assert_same_array(toks, want_toks)


def assert_same_index(got, want):
    """``got``, a ``Dataset``, holds the arrays ``build_index`` gave, ``want``."""
    for name in ("pool_matrix", "pool_ids", "pool_len", "sample_query", "sample_doc",
                 "positive"):
        assert_same_array(getattr(got, name), getattr(want, name))
    assert_same_array(got.docs.id_order, want.id_order)
    assert_same_array(got.queries.id_order, want.query_id_order)
    assert_same_groups(got.docs.groups, want.groups)
    assert_same_groups(got.queries.groups, want.query_groups)
    assert list(got.docs.row.items()) == list(want.doc_row.items())
    assert list(got.queries.row.items()) == list(want.query_row.items())


def line_error_never_runs(*args):
    raise AssertionError("the per-line error path ran on a valid corpus")


# lines per parsed block: small ones put block edges inside these small files
BLOCKS = st.sampled_from([1, 2, 3, corpus.BLOCK_LINES])


@settings(max_examples=150, deadline=None)
@given(corpora(), BLOCKS)
def test_valid_corpora_load_like_the_line_by_line_loader(tmp_path_factory, corpus_lines, block):
    paths = write(tmp_path_factory.mktemp("valid"), corpus_lines)
    with mock.patch.object(corpus, "_line_error", line_error_never_runs), \
            mock.patch.object(corpus, "BLOCK_LINES", block):
        train, test = load_both(load_dataset, paths)
    want_train, want_test = load_both(reference.load_dataset, paths)
    assert_same_dataset(train, want_train)
    assert_same_dataset(test, want_test)
    assert test.docs is train.docs
    want_train_index = reference.build_index(want_train)
    assert_same_index(train, want_train_index)
    assert_same_index(test, reference.build_index(want_test, want_train_index))


def corruption(draw, lines, name, data_lines, dids):
    """``lines`` with one line of file ``name`` corrupted in a way drawn at random;
    ``data_lines`` are lines of the other split, ``dids`` the doc ids. (An edit
    may hold a newline: it is written as two lines.)"""
    # the header of a TSV file in one draw of five
    first = 1 if name in ("qrels", "pools") and len(lines) > 1 and draw(st.integers(0, 4)) else 0
    at = draw(st.integers(first, max(len(lines) - 1, 0)))
    fields = lines[at].split("\t") if lines else [""]
    if name in ("queries", "docs"):
        edits = ["not json", "[1, 2]", '{"id": "x"}', '{"id": "x", "tokens": [1.5]}',
                 '{"id": "x", "tokens": "ab"}', '{"id": "x", "tokens": []}',
                 '{"id": "x", "tokens": [-2]}\n{"id": "y", "tokens": [5, -3]}',
                 "﻿" + lines[at] if lines else "",
                 lines[at] + " " + lines[at] if lines else "",
                 draw(st.sampled_from(data_lines)) if data_lines else "", '{"id": "x",']
        kept = at + draw(st.integers(0, 1))  # the edit replaces line at, or goes before it
        return lines[:at] + [draw(st.sampled_from(edits))] + lines[kept:]
    if at == 0 or len(fields) != 3:  # the header, or a blank line
        edits = [[], lines[1:], ["query\tdoc\tlabel"] + lines[1:]]
        return draw(st.sampled_from(edits)) if at == 0 else lines[:at] + ["x"] + lines[at + 1:]
    qid, did, third = fields
    edits = [f"{qid}\t{did}", f"{qid}\t{did}\t{third}\t{third}", f"{UNKNOWN}\t{did}\t{third}",
             f"{qid}\t{UNKNOWN}\t{third}", f"{qid}\t{did}\tfirst", f"{qid}\t{did}\t2",
             f"{qid}\t{did}\t1.0", f"\t{did}\t{third}",
             f"{qid}\t{draw(st.sampled_from(dids))}\t{third}"]
    edits += [line for line in data_lines if line.split("\t")[:2] != [qid, did]][:3]
    edit = draw(st.sampled_from(edits))
    if draw(st.booleans()):  # a repeated pair, or the edit appended
        return lines + [edit if draw(st.booleans()) else lines[at]]
    return lines[:at] + [edit] + lines[at + 1:]


@st.composite
def corrupted_corpora(draw):
    corpus_lines = draw(corpora())
    for _ in range(draw(st.integers(1, 2))):
        split = draw(st.sampled_from(["train", "test"]))
        name = draw(st.sampled_from(FILES + ("qrels", "pools")))
        lines = corpus_lines[split][name]
        # lines of the other split, which name other queries
        other = [line for line in corpus_lines["test" if split == "train" else "train"][name]
                 if line.strip() and line not in (POOLS_HEADER, QRELS_HEADER)]
        corpus_lines[split][name] = corruption(draw, lines, name, other, corpus_lines["dids"])
        if name == "docs":  # both splits read the one docs file
            corpus_lines["train"]["docs"] = corpus_lines["test"]["docs"] = \
                corpus_lines[split][name]
    return corpus_lines


@settings(max_examples=300, deadline=None)
@given(corrupted_corpora(), BLOCKS)
def test_corrupted_corpora_fail_like_the_line_by_line_loader(tmp_path_factory, corpus_lines,
                                                             block):
    paths = write(tmp_path_factory.mktemp("corrupt"), corpus_lines)
    with mock.patch.object(corpus, "BLOCK_LINES", block):
        got = load_both(load_dataset, paths)
    want = load_both(reference.load_dataset, paths)
    if isinstance(want, str):
        assert got == want
    else:  # the corruption left a valid corpus
        for split, want_split in zip(got, want):
            assert_same_dataset(split, want_split)


@pytest.mark.parametrize("case, name, edit, lineno, message", ERROR_CASES,
                         ids=[c[0] for c in ERROR_CASES])
def test_each_error_case_reads_as_in_the_line_by_line_loader(tmp_path, case, name, edit,
                                                             lineno, message):
    paths = saved_figure_case(tmp_path)
    lines = paths[name].read_text(encoding="utf-8").split("\n")[:-1]
    paths[name].write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
    errors = []
    for loader in (load_dataset, reference.load_dataset):
        with pytest.raises(DataError) as info:
            loader(*paths.values())
        errors.append(str(info.value))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("pools", [
    {"q1": ("d1", "d9")},                      # an unknown doc
    {"q9": ("d1",)},                           # an unknown query
    {"q1": ("d1",), "q9": ("d9",)},            # both, in a later pool
    {"q9": ("d1",), "q1": ("d9",)},            # the unknown query's pool first
], ids=["doc", "query", "later pool", "query first"])
def test_unknown_pool_ids_fail_like_the_per_query_builder(pools):
    errors = []
    for build in (dataset_of, lambda **values: reference.build_index(reference.Corpus(**values))):
        with pytest.raises(DataError) as info:
            build(queries={"q1": (1,)}, docs={"d1": (2,)}, samples=[], pools=pools, vocab_size=3)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
