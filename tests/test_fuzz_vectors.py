"""Property test of the word-vector file surface.

Every generated file either loads into a consistent EmbeddingTable or
fails with ParseError or EmptySourceError. Any other exception fails the
test, and so does any warning (pytest runs with warnings as errors).
The files mix headers, duplicates, whitespace variants, blank lines,
short and long rows, empty, non-numeric and non-finite values and the
reserved words, bytes that are not UTF-8 and a leading byte-order mark,
at expected_dim 1-3, with and without `restrict_to`. An error names no
line past the first one that holds a byte that is not UTF-8, and names
that line only as not UTF-8 text. Most of those files fail, so a
third strategy writes only well-formed files, which must load and keep
each word's first row.
"""

import re

import numpy as np
import pytest

from capsnlu.data import OOV_TOKEN, PAD_TOKEN, EmptySourceError, ParseError, load_embeddings

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

WORDS = ["a", "b", "the", "x y", OOV_TOKEN, PAD_TOKEN]
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["", "nan", "inf", "-inf", "1e39", "x", "1_0", "0x1", "--1", "1e", "\udce91"]),
)
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])
GOOD_WORDS = ["a", "b", "the", "café", "naïve"]
SPACES = st.sampled_from([" ", " ", "  "])
GOOD_VALUES = st.floats(allow_nan=False, allow_infinity=False, width=32) | st.integers(-5, 5)


@st.composite
def vector_files(draw, words):
    """(expected_dim, file text, restrict_to) for one vectors file whose
    words are drawn from `words`."""
    dim = draw(st.integers(1, 3))
    lines = []
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 9))} {draw(st.sampled_from([dim, dim + 1]))}")
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        count = dim + draw(st.sampled_from([0, 0, 0, -1, 1]))
        fields = [draw(st.sampled_from(words))] + [draw(VALUES) for _ in range(max(count, 0))]
        line = fields[0]
        for value in fields[1:]:
            line += draw(SEPARATORS) + value
        lines.append(line + draw(st.sampled_from(["", "", " "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))
    restrict = draw(st.none() | st.sets(st.sampled_from(words)))
    return dim, text, restrict


@st.composite
def well_formed_files(draw):
    """(expected_dim, file text, restrict_to, rows) for a vectors file whose
    lines are a `count dim` header, blank lines and rows of a word and
    expected_dim finite float32 values, separated by runs of spaces;
    `rows` maps each word to the values of its first row, in file order."""
    dim = draw(st.integers(1, 3))
    lines, rows = [], {}
    if draw(st.booleans()):
        lines.append(f"{draw(st.integers(0, 9))} {dim}")
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
            continue
        word, values = draw(st.sampled_from(GOOD_WORDS)), [draw(GOOD_VALUES) for _ in range(dim)]
        rows.setdefault(word, values)
        lines.append(word + "".join(draw(SPACES) + repr(v) for v in values) + draw(st.sampled_from(["", " "])))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = draw(st.sampled_from(["", "\ufeff"])) + end.join(lines) + draw(st.sampled_from(["", end]))
    restrict = draw(st.none() | st.sets(st.sampled_from(GOOD_WORDS)))
    return dim, text, restrict, rows


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(case=vector_files(WORDS))
def test_vector_file_loads_or_fails_by_name(tmp_path_factory, case):
    check_vector_file(tmp_path_factory, *case)


# a word that is not UTF-8 fails most files it is in, so it gets its own examples
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=vector_files(WORDS + ["caf\udce9"]))
def test_non_utf8_word_names_its_line(tmp_path_factory, case):
    check_vector_file(tmp_path_factory, *case)


@settings(derandomize=True, database=None, max_examples=120, deadline=None)
@given(case=well_formed_files())
def test_well_formed_file_keeps_first_rows(tmp_path_factory, case):
    dim, text, restrict, rows = case
    kept = {word: values for word, values in rows.items() if restrict is None or word in restrict}
    if not kept:
        path = tmp_path_factory.getbasetemp() / "fuzz_vectors.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(EmptySourceError):
            load_embeddings(path, expected_dim=dim, seed=0, restrict_to=restrict)
        return
    table = check_vector_file(tmp_path_factory, dim, text, restrict)
    assert table is not None and list(table.vocab)[:-2] == list(kept)
    assert table.vectors[:-2].tobytes() == np.array(list(kept.values()), dtype=np.float32).tobytes()


def check_vector_file(tmp_path_factory, dim, text, restrict):
    """The table loaded from `text`, checked, or None after a named error."""
    path = tmp_path_factory.getbasetemp() / "fuzz_vectors.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    # lines end at LF, CRLF or CR; the first one holding a byte that is not UTF-8
    lines = re.split("\r\n|\r|\n", text)
    first_bad = next((n for n, line in enumerate(lines, start=1) if re.search("[\udc80-\udcff]", line)), None)
    try:
        table = load_embeddings(path, expected_dim=dim, seed=0, restrict_to=restrict)
    except (ParseError, EmptySourceError) as exc:
        named = re.search(r":(\d+): ", str(exc))
        line = int(named.group(1)) if named else None
        # no line past the first bad byte's is named, and that one only as not UTF-8
        assert line is None or first_bad is None or line <= first_bad, exc
        assert ("not UTF-8 text" in str(exc)) == (line is not None and line == first_bad), exc
        return None
    assert first_bad is None
    rows = table.vectors.shape[0]
    assert table.vectors.shape == (rows, dim)
    assert len(table.vocab) == rows
    assert sorted(table.vocab.values()) == list(range(rows))
    assert table.oov_id != table.pad_id
    assert (table.vocab[OOV_TOKEN], table.vocab[PAD_TOKEN]) == (table.oov_id, table.pad_id)
    assert not table.vectors[table.pad_id].any()
    assert np.isfinite(table.vectors).all()
    assert not any(word.startswith("\ufeff") for word in table.vocab)
    if restrict is not None:
        assert set(table.vocab) - {OOV_TOKEN, PAD_TOKEN} <= restrict
    return table
