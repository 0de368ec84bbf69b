"""Shared fixtures: tiny hand-built datasets and the acceptance pipeline.

``dataset_of`` builds a ``Dataset`` from id-keyed values and checks every
invariant of one, naming the first that breaks; the tests build their
hand-made datasets with it.

The acceptance corpus, trained model, retrained model, and reference
unlearning runs are session-scoped; they are the expensive artifacts
that several test modules compare against.
"""

import enum
from collections.abc import Sequence
from itertools import chain
from typing import NamedTuple

import numpy as np
import pytest

from numur import (CorpusSplit, Dataset, DataError, ForgetSpec, RemovalKind, SyntheticConfig,
                   TrainConfig, generate_synthetic, partition, retrain, train)
from numur.corpus import Items, _pool_matrix, _rows_of
from numur.partition import sample_forget_spec

ACCEPT_CORPUS = SyntheticConfig(n_queries=64, n_docs=256, vocab_size=512,
                                positives_per_query=2, pool_size=100,
                                entanglement_rate=0.5, test_fraction=0.2, seed=7)
ACCEPT_TRAIN = TrainConfig(learning_rate=0.05, epochs=30, margin=1.0, seed=7,
                           negatives_per_positive=4, dim=16)
ACCEPT_UNLEARN_LR = 0.5
ACCEPT_MAX_EPOCHS = 200


class Label(enum.Enum):
    POSITIVE = 1
    NEGATIVE = 0


def _check_tokens(kind: str, ident: str, tokens: tuple[int, ...], vocab_size: int) -> None:
    if not tokens:
        raise DataError(f"{kind} {ident!r} has an empty token list")
    if min(tokens) < 0 or max(tokens) >= vocab_size:
        t = next(t for t in tokens if not 0 <= t < vocab_size)
        raise DataError(f"{kind} {ident!r} token {t} outside vocabulary of size {vocab_size}")


def dataset_of(queries: dict[str, Sequence[int]], docs: dict[str, Sequence[int]],
               samples: Sequence[tuple[str, str, Label]], pools: dict[str, Sequence[str]],
               vocab_size: int) -> Dataset:
    """The dataset of id-keyed values: token lists by query id and by doc
    id, (query id, doc id, label) samples and pools of doc ids by query
    id. Rows follow the order of ``queries`` and ``docs``. Raises
    DataError on the first violated invariant, in the order checked."""
    for kind, items in (("query", queries), ("document", docs)):
        for ident, tokens in items.items():
            _check_tokens(kind, ident, tokens, vocab_size)
    seen_pairs: set[tuple[str, str]] = set()
    for qid, did, _ in samples:
        if qid not in queries:
            raise DataError(f"sample references unknown query id {qid!r}")
        if did not in docs:
            raise DataError(f"sample references unknown doc id {did!r}")
        if (qid, did) in seen_pairs:
            raise DataError(f"duplicate sample for pair {(qid, did)!r}")
        seen_pairs.add((qid, did))
        pool = pools.get(qid)
        if pool is None:
            raise DataError(f"query {qid!r} has samples but no pool")
        if did not in pool:
            raise DataError(f"sample doc {did!r} missing from pool of query {qid!r}")
    for qid, pool in pools.items():
        if qid not in queries:
            raise DataError(f"pool references unknown query id {qid!r}")
        if len(set(pool)) != len(pool):
            raise DataError(f"pool of query {qid!r} contains duplicate doc ids")
        for did in pool:
            if did not in docs:
                raise DataError(f"pool of query {qid!r} references unknown doc id {did!r}")
    query_items = Items.of(list(queries), list(queries.values()))
    doc_items = Items.of(list(docs), list(docs.values()))
    pool_queries = _rows_of(list(pools), query_items.row)
    lengths = np.fromiter(map(len, pools.values()), np.intp, len(pools))
    pool_query = pool_queries.repeat(lengths)
    pool_doc = _rows_of(list(chain.from_iterable(pools.values())), doc_items.row)
    return Dataset(query_items, doc_items, _rows_of([s[0] for s in samples], query_items.row),
                   _rows_of([s[1] for s in samples], doc_items.row),
                   np.array([s[2] is Label.POSITIVE for s in samples], dtype=bool),
                   *_pool_matrix(pool_query, pool_doc, len(queries), len(docs)), pool_queries,
                   vocab_size)


class Sample(NamedTuple):
    """A sample by its ids, as ``dataset_of`` takes it and ``samples_of`` reads it."""
    query_id: str
    doc_id: str
    label: Label


def build_dataset(samples, pools, vocab_size=32, extra_docs=()):
    """Assemble a valid Dataset from (query_id, doc_id, label) triples."""
    queries = {}
    documents = {}
    token = [0]

    def next_token():
        token[0] = (token[0] + 1) % vocab_size
        return token[0]

    sample_objs = []
    for qid, did, label in samples:
        if qid not in queries:
            queries[qid] = (next_token(), next_token())
        if did not in documents:
            documents[did] = (next_token(), next_token())
        sample_objs.append(Sample(qid, did, Label.POSITIVE if label else Label.NEGATIVE))
    for did in extra_docs:
        if did not in documents:
            documents[did] = (next_token(), next_token())
    for qid, docs in pools.items():
        if qid not in queries:
            queries[qid] = (next_token(), next_token())
        for did in docs:
            if did not in documents:
                documents[did] = (next_token(), next_token())
    return dataset_of(queries=queries, docs=documents, samples=sample_objs,
                      pools={q: tuple(p) for q, p in pools.items()}, vocab_size=vocab_size)


def empty_dataset(vocab_size):
    """A dataset without queries, docs, samples or pools."""
    return dataset_of(queries={}, docs={}, samples=[], pools={}, vocab_size=vocab_size)


def samples_of(dataset):
    """Every sample of ``dataset`` by its ids, in position order."""
    query_ids, doc_ids = dataset.queries.ids, dataset.docs.ids
    return [Sample(query_ids[q], doc_ids[d], Label.POSITIVE if p else Label.NEGATIVE)
            for q, d, p in zip(dataset.sample_query.tolist(), dataset.sample_doc.tolist(),
                               dataset.positive.tolist())]


def tokens_of(items):
    """The token tuple of each id of ``items`` (a dataset's queries or docs), by id."""
    flat, starts = items.flat.tolist(), items.starts.tolist()
    return {ident: tuple(flat[a:b]) for ident, a, b in zip(items.ids, starts, starts[1:])}


def every(dataset):
    """The positions of all samples of ``dataset``."""
    return np.arange(dataset.n_samples)


def samples_at(dataset, positions):
    """The samples of ``dataset`` at ``positions``, in that order."""
    samples = samples_of(dataset)
    return [samples[i] for i in positions]


def forget_query_ids(dataset, part):
    """The ids of the queries of ``part``'s forget samples."""
    return {s.query_id for s in samples_at(dataset, part.forget)}


def pair_rows(dataset, positions):
    """The (query row, doc row) of the sample at each of ``positions``."""
    return list(zip(dataset.sample_query[positions].tolist(),
                    dataset.sample_doc[positions].tolist()))


def position_of(dataset, query_id, doc_id):
    """The position of the (query_id, doc_id) sample."""
    return next(i for i, s in enumerate(samples_of(dataset))
                if (s.query_id, s.doc_id) == (query_id, doc_id))


def spy(monkeypatch, owner, name):
    """Record the arguments of every later call of ``owner.name`` and let it run."""
    calls, real = [], getattr(owner, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def figure_case_dataset():
    """Seven samples over five queries and five docs; d2 is relevant to three queries."""
    triples = [("q1", "d1", 1), ("q1", "d2", 1), ("q2", "d2", 1), ("q3", "d2", 1),
               ("q4", "d3", 1), ("q4", "d4", 1), ("q5", "d5", 1)]
    pools = {"q1": ["d1", "d2"], "q2": ["d2"], "q3": ["d2"],
             "q4": ["d3", "d4"], "q5": ["d5"]}
    return build_dataset(triples, pools)


@pytest.fixture
def figure_case():
    return figure_case_dataset()


@pytest.fixture(scope="session")
def accept_split() -> CorpusSplit:
    return generate_synthetic(ACCEPT_CORPUS)


@pytest.fixture(scope="session")
def accept_spec(accept_split) -> ForgetSpec:
    return sample_forget_spec(accept_split.train, RemovalKind.DOCUMENT, 0.25, seed=7)


@pytest.fixture(scope="session")
def accept_partition(accept_split, accept_spec):
    return partition(accept_split.train, accept_spec)


@pytest.fixture(scope="session")
def accept_train_result(accept_split):
    return train(accept_split, ACCEPT_TRAIN)


@pytest.fixture(scope="session")
def accept_model(accept_train_result):
    return accept_train_result.model


@pytest.fixture(scope="session")
def accept_retrain_result(accept_split, accept_partition):
    return retrain(accept_split, ACCEPT_TRAIN, accept_partition)
