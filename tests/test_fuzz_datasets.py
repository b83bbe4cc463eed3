"""Property tests of the dataset surface: SNIPS directories and TSV files.

Every generated dataset either loads through `load_inputs` into two
consistent corpora or fails with ParseError, EmptySourceError,
LabelMappingError or ContractError. Any other exception fails the test,
and so does any warning (pytest runs with warnings as errors).

SNIPS trees mix intent directories of known and unknown intents, both
file names and a missing file, four encodings, every JSON top-level
type, samples and spans of the wrong shape, non-string span texts and
empty or punctuation-only utterances. TSV files mix column counts,
blank lines, the three line ends, a missing final newline, unknown
intents and empty utterances, in the same encodings.
"""

import json
import shutil

import numpy as np
import pytest

from capsnlu.autodiff import ContractError
from capsnlu.config import RunConfig
from capsnlu.data import EmptySourceError, LabelMappingError, ParseError, load_inputs

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

EXISTING = ("GetWeather", "PlayMusic")
EMERGING = ("RateBook",)
INTENTS = EXISTING + EMERGING + ("BookFlight",)  # the last is neither
VECTOR_WORDS = ["play", "some", "music", "weather", "rate", "book", "get", "café"]
NAMED = (ParseError, EmptySourceError, LabelMappingError, ContractError)

TEXTS = st.one_of(
    st.lists(st.sampled_from(VECTOR_WORDS + ["unseen", "cafés"]), min_size=1, max_size=4).map(" ".join),
    st.sampled_from(["", " ", "?!", "\t", "play\nmusic", "été", "﻿play"]),
)
ENCODINGS = st.sampled_from(["utf-8", "utf-8", "utf-8-sig", "latin-1", "utf-16"])


@st.composite
def spans(draw):
    """One entry of a sample's span list, mostly well formed."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from([None, 3, "text", ["text"]]))
    if kind == 1:
        return {"entity": "x"}
    if kind == 2:
        return {"text": draw(st.sampled_from([None, 1.5, ["a"], {"a": 1}]))}
    return {"text": draw(TEXTS)}


@st.composite
def samples(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from([None, 1, "data", []]))
    if kind == 1:
        return {"data": draw(st.sampled_from([None, "play", {"text": "play"}]))}
    return {"data": draw(st.lists(spans(), max_size=3))}


@st.composite
def snips_documents(draw, intent):
    """The JSON value of one intent's file."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(st.sampled_from([None, 1, 2.5, "text", intent, [intent], True]))
    if kind == 1:
        return {intent: draw(st.sampled_from([None, "data", {"data": []}]))}
    if kind == 2:
        return {"Other": []}
    return {intent: draw(st.lists(samples(), max_size=3))}


@st.composite
def snips_trees(draw):
    """{directory name: None (no file) or (file name, bytes)}."""
    tree = {}
    for intent in draw(st.lists(st.sampled_from(INTENTS), max_size=4, unique=True)):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            tree[intent] = None
            continue
        name = f"train_{intent}.json" if kind == 1 else f"train_{intent}_full.json"
        text = json.dumps(draw(snips_documents(intent)), ensure_ascii=draw(st.booleans()))
        if draw(st.integers(0, 9)) == 0:
            text = text[: draw(st.integers(0, len(text)))]  # a truncated file
        try:
            raw = text.encode(draw(ENCODINGS))
        except UnicodeEncodeError:
            raw = text.encode("utf-8")
        tree[intent] = (name, raw)
    return tree


@st.composite
def tsv_files(draw):
    """The bytes of one TSV file."""
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 9))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "a\tb\tc", "play music"])))
            continue
        lines.append(draw(TEXTS).replace("\n", " ") + "\t" + draw(st.sampled_from(INTENTS + ("",))))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    try:
        return text.encode(draw(ENCODINGS))
    except UnicodeEncodeError:
        return text.encode("utf-8")


def _load(tmp_path_factory, dataset: str, restrict: bool):
    root = tmp_path_factory.getbasetemp()
    vectors = root / "fuzz_dataset_vectors.txt"
    if not vectors.exists():
        rng = np.random.default_rng(0)
        vectors.write_text("".join(f"{w} {rng.normal():.4f} {rng.normal():.4f}\n" for w in VECTOR_WORDS), encoding="utf-8")
    cfg = RunConfig(
        word_dim=2,
        existing_labels=EXISTING,
        emerging_labels=EMERGING,
        dataset_path=dataset,
        embeddings_path=str(vectors),
        restrict_vocab=restrict,
    )
    try:
        table, existing, emerging = load_inputs(cfg)
    except NAMED:
        return
    rows = table.vectors.shape[0]
    for corpus, labels in ((existing, EXISTING), (emerging, EMERGING)):
        assert corpus.label_names == list(labels)
        for ids, label in corpus.samples:
            assert ids and all(isinstance(i, int) and 0 <= i < rows and i != table.pad_id for i in ids)
            assert 0 <= label < len(labels)
    assert table.intent_vectors.shape == (len(EXISTING) + len(EMERGING), 2)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tree=snips_trees(), restrict=st.booleans())
def test_snips_directory_loads_or_fails_by_name(tmp_path_factory, tree, restrict):
    root = tmp_path_factory.getbasetemp() / "fuzz_snips"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    for intent, entry in tree.items():
        (root / intent).mkdir()
        if entry is not None:
            name, raw = entry
            (root / intent / name).write_bytes(raw)
    _load(tmp_path_factory, str(root), restrict)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(raw=tsv_files(), restrict=st.booleans())
def test_tsv_file_loads_or_fails_by_name(tmp_path_factory, raw, restrict):
    path = tmp_path_factory.getbasetemp() / "fuzz_dataset.tsv"
    path.write_bytes(raw)
    _load(tmp_path_factory, str(path), restrict)
