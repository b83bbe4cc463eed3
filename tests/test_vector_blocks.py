"""The block scan of `data.load_embeddings` against `refops.load_embeddings`,
the per-line reader it replaced.

The reader takes the file in reads of `data._BLOCK_BYTES`; here that is
set to 1-64 bytes, so the files of `test_fuzz_vectors` cross many read
edges: inside a word, a value, a multi-byte character, between the CR
and the LF of a CRLF. Both readers must give the same vocabulary, ids
and vector bytes, in float32 and float64, or the same exception type
and message.
"""

import sys

import numpy as np
import pytest

import refops

from capsnlu import data
from capsnlu.data import load_embeddings

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from test_fuzz_vectors import VALUES, WORDS, vector_files, well_formed_files


def outcome(load, path, dim, restrict, dtype):
    """What one reader gives for one file: the table's contents, or the
    exception's type and message."""
    try:
        table = load(path, expected_dim=dim, seed=3, restrict_to=restrict, dtype=dtype)
    except Exception as exc:  # compared, type and message, with the reference's
        return type(exc), str(exc)
    return list(table.vocab.items()), table.oov_id, table.pad_id, table.vectors.dtype, table.vectors.tobytes()


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


def test_trailing_space_records_are_read_on_their_bytes(tmp_path, monkeypatch):
    """Lines that end in a space take the byte path, not the per-line
    rules: only line 1 (a header here) and the line with a tab do."""
    path = tmp_path / "v.txt"
    path.write_bytes(b"4 2\nthe 0.5 -1 \ncaf\xc3\xa9 2 3 \nx\t4 5 \nb 6 7 \n")
    read = []
    line = data._VectorReader.line
    monkeypatch.setattr(data._VectorReader, "line", lambda self, n, text: (read.append(n), line(self, n, text)))
    table = load_embeddings(path, expected_dim=2, dtype=np.float64)
    assert read == [1, 3, 4]  # the header, the non-ASCII word and the tab
    assert list(table.vocab)[:4] == ["the", "caf\xe9", "x", "b"]
    assert table.vectors[:4].tolist() == [[0.5, -1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]]


@pytest.mark.parametrize(
    "raw, block",
    [
        (b"a 1 2\r\nb 3 4\r\nc 5\r\nd 7 8\r\n", 6),  # the first read ends at a CR, the next starts with its LF
        (b"a 1 2\r\nb 3 4\r\nc 5\r\nd 7 8\r\n", 13),  # the same, at the second line end
        (b"a 1 2\rb 3 4\rc 5\rd 7 8\r", 6),  # CR line ends at read edges, with no LF to drop
        (b"a 1 2\r\n\nb 3 4\n", 6),  # an LF that ends an empty line after a CRLF split by the read
        (b"a 1 2\r\n", 6),  # the file ends at the LF of the split CRLF
        (b"a 1 2\rb 3 4\nc 5 6\rd 7\n", 64),  # lines a CR ends come before an LF's, in one read
        (b"a 1 2\rb 3 4\nc 5 6\rd 7\n", 12),  # and in an earlier read
        (b"a 1 2\n \r\t\r\nb 3\n", 64),  # whitespace lines a CR ends, before an LF's
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
        (b"a 1 2\nb 3 4\r\xe9 5 6\n", 12),  # a bad byte on a line a CR ends
    ],
    ids=["ends-a-read", "starts-a-read", "split-character", "cut-character", "after-cr"],
)
def test_non_utf8_byte_at_a_read_edge(tmp_path, raw, block):
    path = tmp_path / "v.txt"
    path.write_bytes(raw)
    check_same(path, 2, None, block)
    check_same(path, 2, {"a"}, block)


@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u1680", "\u2028", "\u3000"])
def test_whitespace_line_with_expected_dim_spaces_is_blank(tmp_path, space):
    # with its 2 spaces it has the field count of a record, but no word
    path = tmp_path / "v.txt"
    path.write_text(f"a 1 2\n{space} {space} {space}\nb 3 4\n", encoding="utf-8")
    check_same(path, 2, None, 64)
    assert list(load_embeddings(path, expected_dim=2).vocab)[:2] == ["a", "b"]


def test_word_head_table_excludes_every_whitespace_lead_byte():
    """A line whose first byte could start a whitespace code point is read
    by the full grammar (it may be a blank line)."""
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        if char.isspace():
            assert not data._WORD_HEAD[char.encode()[0]], hex(code)
