"""Shared fixtures: tiny hand-built datasets and the acceptance pipeline.

The acceptance corpus, trained model, retrained model, and reference
unlearning runs are session-scoped; they are the expensive artifacts
that several test modules compare against.
"""

from typing import NamedTuple

import numpy as np
import pytest

from numur import (CorpusSplit, Dataset, ForgetSpec, Label, RemovalKind, SyntheticConfig,
                   TrainConfig, generate_synthetic, partition, retrain, train)
from numur.partition import sample_forget_spec

ACCEPT_CORPUS = SyntheticConfig(n_queries=64, n_docs=256, vocab_size=512,
                                positives_per_query=2, pool_size=100,
                                entanglement_rate=0.5, test_fraction=0.2, seed=7)
ACCEPT_TRAIN = TrainConfig(learning_rate=0.05, epochs=30, margin=1.0, seed=7,
                           negatives_per_positive=4, dim=16)
ACCEPT_UNLEARN_LR = 0.5
ACCEPT_MAX_EPOCHS = 200


class Sample(NamedTuple):
    """A sample by its ids, as ``Dataset.of`` takes it and ``samples_of`` reads it."""
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
    return Dataset.of(queries=queries, docs=documents, samples=sample_objs,
                      pools={q: tuple(p) for q, p in pools.items()}, vocab_size=vocab_size)


def empty_dataset(vocab_size):
    """A dataset without queries, docs, samples or pools."""
    return Dataset.of(queries={}, docs={}, samples=[], pools={}, vocab_size=vocab_size)


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
