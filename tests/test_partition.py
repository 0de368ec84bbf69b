import numpy as np
import pytest

from numur import (ConfigError, DataError, ForgetSpec, RemovalKind,
                   entangled_partners, partition)
from numur.partition import load_forget_spec, sample_forget_spec, save_forget_spec

from conftest import (Label, build_dataset, forget_query_ids, position_of, samples_at,
                      samples_of)


def brute_force_partition(dataset, spec):
    """Independent double-scan oracle: test every sample against every forget sample."""
    if spec.kind is RemovalKind.QUERY:
        forget = [s for s in samples_of(dataset) if s.query_id in spec.ids]
    else:
        forget = [s for s in samples_of(dataset) if s.doc_id in spec.ids]
    retained = [s for s in samples_of(dataset) if s not in forget]
    entangled, disjoint = [], []
    for s in retained:
        if any(s.query_id == f.query_id or s.doc_id == f.doc_id for f in forget):
            entangled.append(s)
        else:
            disjoint.append(s)
    return forget, entangled, disjoint


def keyset(samples):
    return [(s.query_id, s.doc_id) for s in samples]


def keys_at(dataset, positions):
    return keyset(samples_at(dataset, positions))


def random_dataset_and_spec(rng):
    n_q = int(rng.integers(2, 7))
    n_d = int(rng.integers(2, 9))
    n_s = int(rng.integers(1, 31))
    seen = set()
    triples = []
    for _ in range(n_s):
        q = f"q{rng.integers(n_q)}"
        d = f"d{rng.integers(n_d)}"
        if (q, d) in seen:
            continue
        seen.add((q, d))
        triples.append((q, d, int(rng.integers(2))))
    pools = {}
    for q, d, _ in triples:
        pools.setdefault(q, set()).add(d)
    pools = {q: sorted(ds) for q, ds in pools.items()}
    dataset = build_dataset(triples, pools)
    kind = RemovalKind.QUERY if rng.random() < 0.5 else RemovalKind.DOCUMENT
    universe = sorted({t[0] for t in triples}) if kind is RemovalKind.QUERY \
        else sorted({t[1] for t in triples})
    k = int(rng.integers(1, len(universe) + 1))
    pick = [universe[int(i)] for i in rng.permutation(len(universe))[:k]]
    return dataset, ForgetSpec(kind=kind, ids=frozenset(pick))


class TestPartition:
    def test_document_removal_worked_example(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2", "d3"}))
        part = partition(figure_case, spec)
        assert keys_at(figure_case, part.forget) == [("q1", "d2"), ("q2", "d2"),
                                                     ("q3", "d2"), ("q4", "d3")]
        assert keys_at(figure_case, part.entangled) == [("q1", "d1"), ("q4", "d4")]
        assert keys_at(figure_case, part.disjoint) == [("q5", "d5")]

    def test_query_removal_worked_example(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q1", "q2"}))
        part = partition(figure_case, spec)
        assert keys_at(figure_case, part.forget) == [("q1", "d1"), ("q1", "d2"), ("q2", "d2")]
        assert keys_at(figure_case, part.entangled) == [("q3", "d2")]
        assert keys_at(figure_case, part.disjoint) == [("q4", "d3"), ("q4", "d4"), ("q5", "d5")]

    def test_isolated_query_stays_disjoint(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q1", "q2", "q3", "q4"}))
        part = partition(figure_case, spec)
        assert keys_at(figure_case, part.disjoint) == [("q5", "d5")]
        assert not len(part.entangled)

    def test_unknown_id_rejected(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset({"q9"}))
        with pytest.raises(DataError, match="q9"):
            partition(figure_case, spec)

    def test_forgetting_everything_rejected(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.QUERY,
                          ids=frozenset({"q1", "q2", "q3", "q4", "q5"}))
        with pytest.raises(ConfigError):
            partition(figure_case, spec)

    def test_sizes_always_partition(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2"}))
        part = partition(figure_case, spec)
        total = len(part.forget) + len(part.entangled) + len(part.disjoint)
        assert total == figure_case.n_samples

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            dataset, spec = random_dataset_and_spec(rng)
            try:
                part = partition(dataset, spec)
            except ConfigError:
                f, _, _ = brute_force_partition(dataset, spec)
                assert len(f) == dataset.n_samples
                continue
            f, e, d = brute_force_partition(dataset, spec)
            assert keys_at(dataset, part.forget) == keyset(f)
            assert keys_at(dataset, part.entangled) == keyset(e)
            assert keys_at(dataset, part.disjoint) == keyset(d)
            assert not (set(keys_at(dataset, part.forget))
                        & set(keys_at(dataset, part.entangled)))
            retained = samples_at(dataset, [*part.entangled, *part.disjoint])
            if spec.kind is RemovalKind.QUERY:
                assert all(s.query_id not in spec.ids for s in retained)
            else:
                assert all(s.doc_id not in spec.ids for s in retained)


class TestEntangledPartners:
    def test_partner_of_shared_doc(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2", "d3"}))
        part = partition(figure_case, spec)
        partners = entangled_partners(part, part.forget)[0]  # of (q1, d2)
        assert keys_at(figure_case, partners) == [("q1", "d1")]

    def test_fully_forgotten_doc_has_no_partner(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2", "d3"}))
        part = partition(figure_case, spec)
        k = next(k for k, i in enumerate(part.forget)
                 if samples_of(figure_case)[i].query_id == "q3")
        assert not len(entangled_partners(part, part.forget)[k])

    def test_non_forget_sample_rejected(self, figure_case):
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d2", "d3"}))
        part = partition(figure_case, spec)
        with pytest.raises(ConfigError, match=r"^pair \('q5', 'd5'\) is not in the forget set$"):
            entangled_partners(part, np.array([position_of(figure_case, "q5", "d5")]))

    def test_partners_match_linear_scan(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            dataset, spec = random_dataset_and_spec(rng)
            try:
                part = partition(dataset, spec)
            except ConfigError:
                continue
            for i, partners in zip(part.forget, entangled_partners(part, part.forget)):
                x = samples_of(dataset)[i]
                got = samples_at(dataset, partners)
                want = [e for e in samples_at(dataset, part.entangled)
                        if e.query_id == x.query_id or e.doc_id == x.doc_id]
                assert got == want


class TestForgetSpecIO:
    def test_round_trip(self, tmp_path):
        spec = ForgetSpec(kind=RemovalKind.DOCUMENT, ids=frozenset({"d1", "d2"}))
        path = tmp_path / "spec.json"
        save_forget_spec(spec, path)
        assert load_forget_spec(path) == spec

    def test_bad_kind(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"kind": "both", "ids": ["x"]}', encoding="utf-8")
        with pytest.raises(DataError):
            load_forget_spec(path)

    def test_empty_ids_rejected(self):
        with pytest.raises(ConfigError):
            ForgetSpec(kind=RemovalKind.QUERY, ids=frozenset())


class TestSampleForgetSpec:
    def test_document_fraction_coverage(self, accept_split):
        spec = sample_forget_spec(accept_split.train, RemovalKind.DOCUMENT, 0.25, seed=7)
        positives = [s for s in samples_of(accept_split.train) if s.label is Label.POSITIVE]
        covered = sum(1 for s in positives if s.doc_id in spec.ids)
        target = round(0.25 * len(positives))
        assert target <= covered <= target + 2

    def test_query_fraction_coverage(self, accept_split):
        spec = sample_forget_spec(accept_split.train, RemovalKind.QUERY, 0.15, seed=3)
        positives = [s for s in samples_of(accept_split.train) if s.label is Label.POSITIVE]
        covered = sum(1 for s in positives if s.query_id in spec.ids)
        target = round(0.15 * len(positives))
        assert target <= covered <= target + 4

    def test_keeps_a_sibling_when_possible(self, accept_split):
        spec = sample_forget_spec(accept_split.train, RemovalKind.DOCUMENT, 0.25, seed=7)
        part = partition(accept_split.train, spec)
        for qid in forget_query_ids(accept_split.train, part):
            retained_pos = [s for s in samples_at(accept_split.train, part.entangled)
                            if s.query_id == qid and s.label is Label.POSITIVE]
            assert retained_pos, f"{qid} lost every positive"

    def test_deterministic(self, accept_split):
        a = sample_forget_spec(accept_split.train, RemovalKind.DOCUMENT, 0.25, seed=7)
        b = sample_forget_spec(accept_split.train, RemovalKind.DOCUMENT, 0.25, seed=7)
        assert a == b

    def test_bad_fraction(self, accept_split):
        with pytest.raises(ConfigError):
            sample_forget_spec(accept_split.train, RemovalKind.DOCUMENT, 0.0, seed=1)
