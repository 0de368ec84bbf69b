"""The corpus array image: a load from it is the text parse, or does not happen.

``cli._load_split`` parses the corpus text once and writes the parsed
arrays of both splits to ``corpus/arrays.bin``; later loads read that
image when it was taken of the same text. On random hand-written corpora
(mixed token and pool lengths, tied rank hints, unusual ids, an empty
test split) the image gives the parse's arrays, dtypes, ids, vocabulary
sizes and shared doc side. A damaged, deleted or stale image, and an
image of text edited into another valid corpus, each give the text
path's result; a corpus whose image cannot be written runs without one.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from numur import cli, corpus
from numur.cli import _corpus_paths, _load_split, main
from numur.corpus import POOLS_HEADER, QRELS_HEADER, file_digests, load_dataset, load_image

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = {"corpus": {"n_queries": 12, "n_docs": 48, "vocab_size": 128, "pool_size": 16,
                    "seed": 5},
         "train": {"epochs": 2, "dim": 8, "seed": 5}, "removal_fractions": [0.25]}

# ids with JSON escapes, spaces, non-BMP and line-separator characters, and
# digit strings, which a JSONL file may also spell as JSON numbers
IDS = st.one_of(st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1,
                        max_size=5),
                st.sampled_from(['"', "\\", " x ", " ", "😀", "é"]),
                st.integers(-9, 10**20).map(str))
TOKENS = st.lists(st.integers(0, 40), min_size=1, max_size=9)
UNPOOLED = "\ud800"  # a lone surrogate: a JSONL id no TSV line can name


def image_path(out: Path) -> Path:
    return out / "corpus" / cli.CORPUS_IMAGE


def sources(out: Path) -> list[Path]:
    return sorted(set(_corpus_paths(out, "train") + _corpus_paths(out, "test")))


def jsonl(draw, items) -> list[str]:
    lines = []
    for ident, tokens in items:
        number = ident.lstrip("-").isascii() and ident.lstrip("-").isdigit() \
            and str(int(ident)) == ident
        lines.append(json.dumps({"id": int(ident) if number and draw(st.booleans()) else ident,
                                 "tokens": tokens}))
    return lines


@st.composite
def corpora(draw):
    """The text of each file of a valid two-split corpus, by file name."""
    ids = draw(st.lists(IDS, min_size=3, max_size=24, unique=True))
    n_test = draw(st.integers(0, min(3, len(ids) - 2)))
    n_train = draw(st.integers(1, len(ids) - n_test - 1))
    qids, dids = ids[:n_train + n_test], ids[n_train + n_test:]
    docs = [(d, draw(TOKENS)) for d in dids]
    if draw(st.booleans()):
        docs.append((UNPOOLED, draw(TOKENS)))
    files = {"docs.jsonl": jsonl(draw, docs)}
    for split, split_qids in (("train", qids[:n_train]), ("test", qids[n_train:])):
        pools, qrels = [], []
        for qid in split_qids:
            for did in draw(st.permutations(dids))[:draw(st.integers(0, len(dids)))]:
                pools.append(f"{qid}\t{did}\t{draw(st.integers(-2, 2))}")  # tied hints too
                label = draw(st.sampled_from([None, "0", "1"]))
                if label is not None:
                    qrels.append(f"{qid}\t{did}\t{label}")
        files[f"{split}_queries.jsonl"] = jsonl(draw, [(q, draw(TOKENS)) for q in split_qids])
        files[f"{split}_pools.tsv"] = [POOLS_HEADER] + draw(st.permutations(pools))
        files[f"{split}_qrels.tsv"] = [QRELS_HEADER] + draw(st.permutations(qrels))
    return files


def write_corpus(out: Path, files: dict) -> None:
    (out / "corpus").mkdir(parents=True)
    for name, lines in files.items():
        (out / "corpus" / name).write_text("".join(line + "\n" for line in lines),
                                           encoding="utf-8")


def parsed(out: Path):
    """Both splits of ``out``'s corpus as the text parse gives them."""
    train = load_dataset(*_corpus_paths(out, "train"))
    return train, load_dataset(*_corpus_paths(out, "test"), docs_from=train)


def text_path(out: Path):
    """Both splits of ``out`` as ``_load_split`` gives them without an image."""
    with mock.patch.object(cli, "load_image", lambda *args: None), \
            mock.patch.object(cli, "save_image", lambda *args: None):
        split = _load_split(out)
    return split.train, split.test


def no_parse(*args, **kwargs):
    raise AssertionError("the corpus text was parsed although a valid image was there")


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.writeable == want.flags.writeable
    assert np.array_equal(got, want)


def assert_same_items(got, want):
    assert got.ids == want.ids and list(map(type, got.ids)) == list(map(type, want.ids))
    assert_same_array(got.flat, want.flat)
    assert_same_array(got.starts, want.starts)


def assert_same_splits(got, want):
    """``got`` and ``want``, (train, test) pairs, hold the same values field by field."""
    for ds, want_ds in zip(got, want, strict=True):
        assert_same_items(ds.queries, want_ds.queries)
        assert_same_items(ds.docs, want_ds.docs)
        for name in corpus._SPLIT_ARRAYS:
            assert_same_array(getattr(ds, name), getattr(want_ds, name))
        assert type(ds.vocab_size) is int and ds.vocab_size == want_ds.vocab_size
        assert ds.pools == want_ds.pools
    assert got[1].docs is got[0].docs


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_image_backed_loads_equal_the_text_parse(tmp_path_factory, files):
    out = tmp_path_factory.mktemp("corpus")
    write_corpus(out, files)
    want = parsed(out)
    first = _load_split(out)  # parses and writes the image
    assert image_path(out).is_file()
    with mock.patch.object(cli, "load_dataset", no_parse):
        second = _load_split(out)
    assert_same_splits((first.train, first.test), (second.train, second.test))
    # the image stores the inferred vocabulary sizes, before any stats.json raises them
    assert_same_splits(load_image(image_path(out), file_digests(sources(out))), want)


RUN_TWICE = """
import sys
from numur.cli import main
for args in (["gen"], ["train"], ["partition", "--spec", "spec_document_25"]):
    assert main(["--config", sys.argv[1], "--out", sys.argv[2], *args]) == 0
"""


def test_the_image_bytes_are_deterministic(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    for run, hash_seed in (("one", "1"), ("two", "2")):
        subprocess.run([sys.executable, "-c", RUN_TWICE, str(config), str(tmp_path / run)],
                       check=True, capture_output=True,
                       env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed})
    one = image_path(tmp_path / "one").read_bytes()
    assert one and one == image_path(tmp_path / "two").read_bytes()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A generated and trained run of ``SMALL``, whose corpus has an image."""
    out = tmp_path_factory.mktemp("image") / "runs"
    config = out.parent / "config.json"
    config.write_text(json.dumps(SMALL), encoding="utf-8")
    for args in (["gen"], ["train"]):
        assert main(["--config", str(config), "--out", str(out), *args]) == 0
    assert image_path(out).is_file()
    return out


@pytest.fixture
def run_copy(small_run, tmp_path):
    out = tmp_path / "runs"
    shutil.copytree(small_run, out)
    return out


def test_every_damaged_image_is_refused(small_run):
    data = image_path(small_run).read_bytes()
    digests = file_digests(sources(small_run))
    assert load_image(image_path(small_run), digests) is not None
    path = small_run.parent / "damaged.bin"
    for at in range(len(data)):
        path.write_bytes(data[:at] + bytes([data[at] ^ 0x01]) + data[at + 1:])
        assert load_image(path, digests) is None, f"byte {at} flipped"
    for size in range(0, len(data), 7):
        path.write_bytes(data[:size])
        assert load_image(path, digests) is None, f"cut to {size} bytes"
    path.unlink()
    assert load_image(path, digests) is None
    path.mkdir()
    assert load_image(path, digests) is None


def test_an_image_of_other_text_is_refused(small_run):
    digests = bytearray(file_digests(sources(small_run)))
    for at in range(0, len(digests), 32):
        stale = bytes(digests[:at]) + bytes(32) + bytes(digests[at + 32:])
        assert load_image(image_path(small_run), stale) is None


def corrupt(path: Path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.mark.parametrize("damage", [
    corrupt, lambda path: path.write_bytes(b""),
    lambda path: path.write_bytes(path.read_bytes()[:-1]), Path.unlink,
], ids=["byte-flip", "empty", "truncated", "deleted"])
def test_a_damaged_image_gives_the_text_parse_and_is_rewritten(run_copy, damage):
    good = image_path(run_copy).read_bytes()
    damage(image_path(run_copy))
    split = _load_split(run_copy)
    assert_same_splits((split.train, split.test), text_path(run_copy))
    assert image_path(run_copy).read_bytes() == good


def test_text_edited_into_another_valid_corpus_is_parsed_again(run_copy, tmp_path):
    # the first sample turns negative: another valid corpus, files of the same sizes
    qrels = run_copy / "corpus" / "train_qrels.tsv"
    header, first, *rest = qrels.read_text(encoding="utf-8").split("\n")
    assert first.endswith("\t1")
    qrels.write_text("\n".join([header, first[:-1] + "0", *rest]), encoding="utf-8")
    fresh = tmp_path / "fresh"
    shutil.copytree(run_copy / "corpus", fresh / "corpus")
    image_path(fresh).unlink()
    model = run_copy / "train" / "model.bin"
    spec = run_copy / "specs" / "spec_document_25.json"
    for out in (run_copy, fresh):
        assert main(["--out", str(out), "eval", "--spec", str(spec), "--model", str(model)]) == 0
    split = _load_split(run_copy)
    assert not split.train.positive[0]
    assert_same_splits((split.train, split.test), text_path(run_copy))
    assert image_path(run_copy).read_bytes() == image_path(fresh).read_bytes()
    for name in ("report.json", "distributions.csv"):
        rel = Path("eval") / "train_model_spec_document_25" / name
        assert (run_copy / rel).read_bytes() == (fresh / rel).read_bytes()


def test_text_that_changes_during_the_parse_writes_no_image(run_copy, monkeypatch):
    image_path(run_copy).unlink()
    real = cli.load_dataset

    def edit_while_parsing(*args, **kwargs):
        result = real(*args, **kwargs)
        with open(run_copy / "corpus" / "docs.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")  # a blank line: the same corpus, other bytes
        return result

    monkeypatch.setattr(cli, "load_dataset", edit_while_parsing)
    _load_split(run_copy)
    assert not image_path(run_copy).exists()


def test_a_corpus_whose_image_cannot_be_written_runs_without_one(run_copy, monkeypatch):
    image_path(run_copy).unlink()
    real = corpus.atomic_write

    def read_only_corpus(path):
        if Path(path).parent == run_copy / "corpus":
            raise PermissionError(13, "Permission denied", str(path))
        return real(path)

    monkeypatch.setattr(corpus, "atomic_write", read_only_corpus)
    for args in (["partition", "--spec", "spec_document_25"],
                 ["eval", "--spec", "spec_document_25", "--model",
                  str(run_copy / "train" / "model.bin")]):
        assert main(["--out", str(run_copy), *args]) == 0
    assert sorted(p.name for p in (run_copy / "corpus").iterdir()) == sorted(
        [p.name for p in sources(run_copy)] + ["stats.json"])


def test_a_read_only_corpus_directory_runs_every_command(run_copy):
    image_path(run_copy).unlink()
    corpus_dir = run_copy / "corpus"
    corpus_dir.chmod(0o555)
    try:
        for args in (["train"], ["partition", "--spec", "spec_document_25"],
                     ["retrain", "--spec", "spec_document_25"],
                     ["unlearn", "--spec", "spec_document_25", "--method", "ssd",
                      "--delta", "0.5"],
                     ["eval", "--spec", "spec_document_25", "--model",
                      str(run_copy / "train" / "model.bin")], ["report"]):
            assert main(["--out", str(run_copy), *args]) == 0
        # a user who may write anyway (root) gets an image; anyone else none
        assert image_path(run_copy).exists() == os.access(corpus_dir, os.W_OK)
    finally:
        corpus_dir.chmod(0o755)
