"""Property tests on random small datasets: the F/E/D partition and the
save/load round trips of models and forget specs."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_scoring_properties import datasets

from numur import (ConfigError, ForgetSpec, RemovalKind, ScoreModel, entangled_partners,
                   load_forget_spec, load_model, partition, save_forget_spec, save_model)

from conftest import samples_at, samples_of


@st.composite
def specs(draw, ds):
    kind = draw(st.sampled_from(RemovalKind))
    known = sorted((ds.queries if kind is RemovalKind.QUERY else ds.docs).ids)
    return ForgetSpec(kind=kind, ids=frozenset(draw(st.lists(st.sampled_from(known),
                                                             min_size=1))))


@settings(max_examples=200, deadline=None)
@given(datasets(), st.data())
def test_partition_is_a_disjoint_cover_and_e_shares_an_id_with_f(ds, data):
    spec = data.draw(specs(ds))
    try:
        part = partition(ds, spec)
    except ConfigError:  # the request would forget every sample
        return
    key = lambda s: (s.query_id, s.doc_id)
    forget, entangled, disjoint = (samples_at(ds, group) for group in
                                   (part.forget, part.entangled, part.disjoint))
    f, e, d = ({key(s) for s in group} for group in (forget, entangled, disjoint))
    assert len(part.forget) + len(part.entangled) + len(part.disjoint) == ds.n_samples
    assert f | e | d == {key(s) for s in samples_of(ds)}
    assert not (f & e or f & d or e & d)

    named = (lambda s: s.query_id in spec.ids) if spec.kind is RemovalKind.QUERY \
        else (lambda s: s.doc_id in spec.ids)
    assert forget == [s for s in samples_of(ds) if named(s)]
    shares = lambda s: any(s.query_id == x.query_id or s.doc_id == x.doc_id
                           for x in forget)
    retained = [s for s in samples_of(ds) if not named(s)]
    assert entangled == [s for s in retained if shares(s)]
    assert disjoint == [s for s in retained if not shares(s)]


@settings(max_examples=100, deadline=None)
@given(datasets(), st.data())
def test_entangled_partners_are_the_linear_scan_of_e(ds, data):
    spec = data.draw(specs(ds))
    try:
        part = partition(ds, spec)
    except ConfigError:  # the request would forget every sample
        return
    for i, partners in zip(part.forget, entangled_partners(part, part.forget)):
        x = samples_of(ds)[i]
        assert samples_at(ds, partners) == [
            e for e in samples_at(ds, part.entangled)
            if e.query_id == x.query_id or e.doc_id == x.doc_id]


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, width=64)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_model_files_round_trip_exactly(tmp_path_factory, vocab, dim, data):
    values = data.draw(st.lists(finite_or_not, min_size=2 * vocab * dim,
                                max_size=2 * vocab * dim))
    model = ScoreModel(np.array(values).reshape(2 * vocab, dim))
    path = tmp_path_factory.mktemp("model") / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.vocab_size, loaded.dim) == (vocab, dim)
    assert loaded.params.tobytes() == model.params.tobytes()  # NaN payloads and -0.0 too


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RemovalKind), st.frozensets(st.text(), min_size=1))
def test_forget_specs_round_trip_exactly(tmp_path_factory, kind, ids):
    path = tmp_path_factory.mktemp("spec") / "spec.json"
    spec = ForgetSpec(kind=kind, ids=ids)
    save_forget_spec(spec, path)
    assert load_forget_spec(path) == spec
