"""The block scan of `data.load_embeddings` against `refops.load_embeddings`,
the same byte grammar read one line at a time.

The reader takes the file in reads of `data._BLOCK_BYTES`; here that is
set to 1-64 bytes, so the files of `test_fuzz_vectors` cross many read
edges: inside a word, a value, a multi-byte character, between the CR
and the LF of a CRLF. Both readers must give the same vocabulary, ids
and vector bytes, in float32 and float64, or the same exception type
and message. A file written in each layout the grammar reads alike
(plain, a space after every value, CRLF, tabs) gives one table.
"""

import numpy as np
import pytest

import refops

from capsnlu import data
from capsnlu.data import ParseError, load_embeddings

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_fuzz_vectors import VALUES, WORDS, outcome, vector_files, well_formed_files


def check_same(path, dim, restrict, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_BLOCK_BYTES", block)
        for dtype in (np.float32, np.float64):
            want = outcome(refops.load_embeddings, path, dim, restrict, dtype)
            assert outcome(load_embeddings, path, dim, restrict, dtype) == want


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=vector_files(WORDS + ["caf\udce9"]), block=st.integers(1, 64))
def test_block_scan_equals_the_per_line_reader(tmp_path_factory, case, block):
    dim, text, restrict = case
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    check_same(path, dim, restrict, block)


# words that start with, hold or are whitespace other than a space, and a
# byte-order mark that is not at the file's start
ODD_WORDS = ["a", "x\x0by", "\x1c", "\x85x", "\u2028", "\u3000y", "\ufeffz", "\xa0"]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(case=vector_files(ODD_WORDS), block=st.integers(1, 64))
def test_block_scan_reads_whitespace_words_as_the_per_line_reader(tmp_path_factory, case, block):
    dim, text, restrict = case
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    check_same(path, dim, restrict, block)


# most files of vector_files fail; these load, so the kept rows are compared
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(case=well_formed_files(), block=st.integers(1, 64))
def test_block_scan_keeps_the_per_line_readers_rows(tmp_path_factory, case, block):
    dim, text, restrict, _ = case
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_text(text, encoding="utf-8")
    check_same(path, dim, restrict, block)


@st.composite
def trailing_space_files(draw):
    """(expected_dim, file text, restrict_to) for a file in word2vec.c's
    and fastText's layout, a space after every value. Now and then a word
    holds whitespace, a control or a non-ASCII character, a line has a
    value too many or too few, a double space, another whitespace
    separator or a bad value; most lines are records, so such a line is
    often the file's first fault."""
    dim = draw(st.integers(1, 3))
    words = ["a", "b", "the"] * 6 + ODD_WORDS + ["caf\xe9", "\x7f", "x\x01", "y\x1b"]
    seps = [" "] * 12 + ["  ", "\x0b", "\x1f", "\t"]
    values = st.integers(-5, 5).map(str) | st.floats(-9, 9, width=32).map(repr) | VALUES
    lines = [f"{draw(st.integers(0, 9))} {dim}"] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(1, 6))):
        line = draw(st.sampled_from(words))
        for _ in range(dim + draw(st.sampled_from([0] * 6 + [-1, 1]))):
            line += draw(st.sampled_from(seps)) + draw(values)
        lines.append(line + draw(st.sampled_from(seps[:6] + ["", "  ", " \x0c", "\x85 "])))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n"]))
    return dim, text, draw(st.none() | st.sets(st.sampled_from(words)))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(case=trailing_space_files(), block=st.integers(1, 64))
def test_block_scan_reads_trailing_space_lines_as_the_per_line_reader(tmp_path_factory, case, block):
    dim, text, restrict = case
    path = tmp_path_factory.getbasetemp() / "blocks.txt"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    check_same(path, dim, restrict, block)


@pytest.mark.parametrize(
    "line",
    [
        b"w 1 2 3",  # dim + 1 spaces, none at the end: a value too many
        b"w 1  2",  # a double space inside
        b"w 1  ",  # a double space at the end
        b"w  1 ",  # a double space after the word
        b"w 1\x0b2 ",  # a vertical tab between values
        b"w\x1f 1 2 ",  # a unit separator ending the word
        b"w 1 2\xc2\x85 ",  # U+0085 (NEL), in UTF-8, before the last space
        b"\x7f 1 2 ",  # DEL, which is not whitespace, as the word
    ],
)
def test_trailing_space_lookalikes(tmp_path, line):
    path = tmp_path / "v.txt"
    path.write_bytes(b"a 1 2 \n" + line + b"\nb 3 4 \n")
    for block in (4, 64):
        check_same(path, 2, None, block)
        check_same(path, 2, {"a", "b"}, block)


@pytest.mark.parametrize(
    "line",
    [b" w 1 2", b"\tw 1 2", b"\rw 1 2 ", b" w 1 2\r", b"  w 1 2", b" \tw  1 2 ", b"\r\r w\t1\r2"],
)
def test_leading_separators(tmp_path, line):
    # a record may start with a separator, or a run of them
    path = tmp_path / "v.txt"
    path.write_bytes(b"a 1 2\n" + line + b"\nb 3 4\n")
    for block in (4, 64):
        check_same(path, 2, None, block)
        check_same(path, 2, {"w", "b"}, block)
    table = load_embeddings(path, expected_dim=2, dtype=np.float64)
    assert list(table.vocab)[:3] == ["a", "w", "b"] and table.vectors[1].tolist() == [1.0, 2.0]


@pytest.mark.parametrize(
    "raw, block",
    [
        (b"a 1 2\r\nb 3 4\r\nc 5\r\nd 7 8\r\n", 6),  # the first read ends at a CR, the next starts with its LF
        (b"a 1 2\r\nb 3 4\r\nc 5\r\nd 7 8\r\n", 13),  # the same, at the second line end
        (b"a 1 2\rb 3 4\rc 5\rd 7 8\r", 6),  # CRs end no line: one line of 12 fields
        (b"a 1 2\r\n\nb 3 4\n", 6),  # an LF that ends an empty line after a CRLF split by the read
        (b"a 1 2\r\n", 6),  # the file ends at the LF of the split CRLF
        (b"a 1 2\rb 3 4\nc 5 6\rd 7\n", 64),  # a CR inside a line, in one read
        (b"a 1 2\rb 3 4\nc 5 6\rd 7\n", 12),  # and in an earlier read
        (b"a 1 2\n \r\t\r\nb 3\n", 64),  # a blank line of separators, CRs among them
    ],
    ids=[
        "crlf-at-1", "crlf-at-2", "cr", "crlf-then-blank", "crlf-at-eof",
        "mixed-one-read", "mixed-two-reads", "blank-lines-crs-end",
    ],
)
def test_crlf_split_across_two_reads(tmp_path, raw, block):
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    check_same(path, 2, None, block)
    check_same(path, 2, {"a", "b", "d"}, block)


@pytest.mark.parametrize(
    "raw",
    [b"appletree 1 2\nb 3 4\nc 5 6\n", b"2 2\nappletree 1 2\nbanana 3.25 -4e1\n", b"\xef\xbb\xbfthe 1 2\n"],
    ids=["first-line", "after-header", "byte-order-mark"],
)
@pytest.mark.parametrize("block", [1, 2, 3, 4])
def test_line_longer_than_a_read(tmp_path, raw, block):
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    check_same(path, 2, None, block)


@pytest.mark.parametrize(
    "raw, block",
    [
        (b"a 1 2\nb\xff 3 4\n", 8),  # the bad byte ends a read
        (b"a 1 2\nb\xff 3 4\n", 7),  # it starts one
        (b"a 1 2\ncaf\xc3\xa9 3 4\n", 10),  # a valid two-byte character split by a read
        (b"a 1 2\ncaf\xc3\n", 10),  # a lead byte whose character a line end cuts short
        (b"a 1 2\nb 3 4\r\xe9 5 6\n", 12),  # a bad byte after a CR, on the same line
    ],
    ids=["ends-a-read", "starts-a-read", "split-character", "cut-character", "after-cr"],
)
def test_non_utf8_byte_at_a_read_edge(tmp_path, raw, block):
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    check_same(path, 2, None, block)
    check_same(path, 2, {"a"}, block)


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u1680", "\u2028", "\u3000"])
def test_other_whitespace_is_a_field(tmp_path, space):
    # only space, tab and CR separate fields: this line is a record whose
    # word and values are that character, so kept it names its values
    path = tmp_path / "v.txt"
    path.write_text(f"a 1 2\n{space} {space} {space}\nb 3 4\n", encoding="utf-8")
    check_same(path, 2, None, 64)
    with pytest.raises(ParseError, match=r"v\.txt:2: non-numeric vector entry"):
        load_embeddings(path, expected_dim=2)
    assert list(load_embeddings(path, expected_dim=2, restrict_to={"a", "b"}).vocab)[:2] == ["a", "b"]


LAYOUTS = {
    "plain": lambda fields: " ".join(fields) + "\n",
    "space-after-every-value": lambda fields: " ".join(fields) + " \n",  # word2vec.c, fastText .vec
    "crlf": lambda fields: " ".join(fields) + "\r\n",
    "tab": lambda fields: "\t".join(fields) + "\n",
}


@pytest.mark.parametrize("restrict", [None, {"w3", "w17", "caf\xe9", "w40"}], ids=["all", "restricted"])
def test_every_layout_gives_one_table(tmp_path, restrict):
    rng = np.random.default_rng(4)
    rows = [["40", "3"]] + [[f"w{i % 45}"] + [f"{x:.9g}" for x in rng.normal(size=3)] for i in range(50)]
    rows[9][0] = "caf\xe9"
    tables = {}
    for name, layout in LAYOUTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(map(layout, rows)), encoding="utf-8")
        for block in (5, 64, 1 << 17):
            check_same(path, 3, restrict, block)
        tables[name] = [outcome(load_embeddings, path, 3, restrict, dtype) for dtype in (np.float32, np.float64)]
    assert len(tables["plain"][0]) == 5  # a table, not an error's type and message
    assert all(table == tables["plain"] for table in tables.values())


def test_unicode_whitespace_words_load_in_every_layout(tmp_path):
    # in fastText's layout, a space after every value, these words were
    # split at their U+00A0, U+3000 or U+2028: "got 4 fields"
    words = ["a\xa0b", "\u4e2d\u3000\u6587", "x\u2028y"]
    for name, layout in LAYOUTS.items():
        path = tmp_path / f"{name}.txt"
        path.write_text("".join(layout([w, str(i), "0.5"]) for i, w in enumerate(words)), encoding="utf-8")
        for restrict in (None, set(words)):
            table = load_embeddings(path, expected_dim=2, restrict_to=restrict, dtype=np.float64)
            assert list(table.vocab)[:3] == words, name
            assert table.vectors[:3].tolist() == [[0.0, 0.5], [1.0, 0.5], [2.0, 0.5]]
            check_same(path, 2, restrict, 7)
