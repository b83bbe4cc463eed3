import json
import logging
import sys
import tracemalloc

import numpy as np
import pytest

import refops
from conftest import toy_config

from capsnlu import data
from capsnlu.autodiff import ContractError
from capsnlu.config import RunConfig
from capsnlu.data import (
    _PARSE_ROWS,
    Corpus,
    EmbeddingTable,
    EmptySourceError,
    EmptyUtteranceError,
    LabelMappingError,
    ParseError,
    dataset_words,
    intent_embedding,
    iter_tsv_records,
    load_dataset,
    load_embeddings,
    load_inputs,
    load_snips,
    split_label_tokens,
    tokenize,
    words_of,
)


def write_vectors(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def per_value_parse(path, expected_dim, dtype):
    """Reference reader: one float() per value, then the cast to dtype."""
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        values = line.split(" ", 1)[1]
        rows.append(np.asarray([float(v) for v in values.split(" ")], dtype))
    assert all(len(r) == expected_dim for r in rows)
    return np.stack(rows)


def random_entries(rng, count):
    """Decimal strings with long mantissas, large exponents and float32
    halfway values, the cases where parse-then-cast rounds twice."""
    out = []
    for _ in range(count):
        kind = rng.integers(3)
        if kind == 0:
            digits = "".join(map(str, rng.integers(0, 10, size=int(rng.integers(1, 26)))))
            out.append(f"{rng.choice(['', '-'])}{digits[:1]}.{digits[1:]}e{int(rng.integers(-330, 331))}")
        elif kind == 1:
            lo = np.float32(rng.normal(scale=10.0 ** int(rng.integers(-38, 38))))
            hi = np.nextafter(lo, np.float32(np.inf))
            out.append(repr((float(lo) + float(hi)) / 2))  # exact in float64
        else:
            out.append(f"{rng.normal():.17g}")
    return out


class TestLoadEmbeddings:
    def test_direct_readback(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1.0 2.0\nb 3.0 4.0\n")
        table = load_embeddings(p, expected_dim=2, seed=5)
        assert set(table.vocab) == {"a", "b", "<oov>", "<pad>"}
        assert table.vocab["a"] == 0 and table.vocab["b"] == 1
        assert table.oov_id == 2 and table.pad_id == 3
        np.testing.assert_allclose(table.vectors[:2], [[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(table.vectors[3], [0.0, 0.0])
        assert (np.abs(table.vectors[2]) <= 0.5 / 2).all()

    def test_wrong_arity_reports_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1.0\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(p, expected_dim=2)
        assert ":1:" in str(exc.value)

    def test_duplicate_keeps_first(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\na 9 9\n")
        table = load_embeddings(p, expected_dim=2)
        np.testing.assert_array_equal(table.vectors[table.vocab["a"]], [1.0, 2.0])

    def test_empty_file(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "")
        with pytest.raises(EmptySourceError):
            load_embeddings(p, expected_dim=2)

    def test_byte_order_mark_alone_is_an_empty_file(self, tmp_path):
        # the mark was read as a one-field row: "expected a word and 2 values, got 1 fields"
        p = tmp_path / "v.txt"
        p.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(EmptySourceError, match=r"v\.txt: no embedding records"):
            load_embeddings(p, expected_dim=2)

    def test_header_detected_and_skipped(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "2 3\na 1 2 3\nb 4 5 6\n")
        table = load_embeddings(p, expected_dim=3)
        assert "2" not in table.vocab
        assert table.vocab["a"] == 0

    def test_restrict_to(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\nb 3 4\nc 5 6\n")
        table = load_embeddings(p, expected_dim=2, restrict_to={"a", "c"})
        assert "b" not in table.vocab
        assert table.vocab["c"] == 1

    @pytest.mark.parametrize("entry", ["nan", "inf", "-Infinity", "1e39"])  # 1e39 overflows float32
    def test_non_finite_entry_names_word(self, tmp_path, entry):
        p = write_vectors(tmp_path / "v.txt", f"a 1 2\nb 3 {entry}\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(p, expected_dim=2)
        assert "'b'" in str(exc.value) and str(p) in str(exc.value)

    def test_non_finite_dropped_row_ignored(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\nb nan 4\n")
        table = load_embeddings(p, expected_dim=2, restrict_to={"a"})
        assert np.isfinite(table.vectors).all()

    def test_streaming_peak_memory(self, tmp_path):
        """A restricted load holds the kept rows, never the whole file."""
        rng = np.random.default_rng(0)
        with open(tmp_path / "v.txt", "w", encoding="utf-8") as fh:
            for i in range(2000):
                fh.write(f"w{i} " + " ".join(f"{x:.6f}" for x in rng.normal(size=300)) + "\n")
        size = (tmp_path / "v.txt").stat().st_size
        tracemalloc.start()
        try:
            table = load_embeddings(tmp_path / "v.txt", expected_dim=300, restrict_to={"w7"})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.vocab["w7"] == 0 and len(table.vectors) == 3
        assert peak < 0.5 * size, f"peak {peak} bytes for a {size}-byte file"

    @pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x0b", "\x0c"])
    def test_word_with_unicode_line_separator(self, tmp_path, sep):
        """Only LF, CRLF and CR end a line; str.splitlines would also break here."""
        p = write_vectors(tmp_path / "v.txt", f"a{sep}b 1 2\nc 3 4\n")
        table = load_embeddings(p, expected_dim=2)
        assert table.vocab[f"a{sep}b"] == 0 and table.vocab["c"] == 1
        np.testing.assert_array_equal(table.vectors[0], [1.0, 2.0])

    def test_tab_among_spaces_names_line(self, tmp_path):
        # a line holding a tab is split at any whitespace: this one loaded
        # the word 'a\t1' with [2, 3]
        p = write_vectors(tmp_path / "v.txt", "b 4 5\na\t1 2 3\n")
        with pytest.raises(ParseError, match=r"v\.txt:2: expected a word and 2 values, got 4 fields"):
            load_embeddings(p, expected_dim=2)

    def test_tab_then_trailing_space_loads(self, tmp_path):
        # it raised "non-numeric vector entry"
        p = write_vectors(tmp_path / "v.txt", "a\t0.0 \n")
        table = load_embeddings(p, expected_dim=1)
        assert table.vocab["a"] == 0 and len(table.vectors) == 3
        np.testing.assert_array_equal(table.vectors[0], [0.0])

    @pytest.mark.parametrize(
        "text, restrict_to",
        [("a 1 2\nb x 4\n", {"a"}), ("a 1 2\na x 4\n", None)],
        ids=["restricted_out", "duplicate"],
    )
    def test_non_numeric_dropped_row_ignored(self, tmp_path, text, restrict_to):
        p = write_vectors(tmp_path / "v.txt", text)
        table = load_embeddings(p, expected_dim=2, restrict_to=restrict_to)
        assert table.vocab["a"] == 0 and len(table.vectors) == 3
        np.testing.assert_array_equal(table.vectors[0], [1.0, 2.0])

    def test_non_numeric_kept_row_names_line(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\nb x 4\n")
        with pytest.raises(ParseError) as exc:
            load_embeddings(p, expected_dim=2)
        assert f"{p}:2:" in str(exc.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_parse_bitwise_equal_to_per_value_float(self, tmp_path, dtype):
        rng = np.random.default_rng(15)
        n = 2 * _PARSE_ROWS + 452
        p = write_vectors(
            tmp_path / "v.txt", "".join(f"w{i} {' '.join(random_entries(rng, 3))}\n" for i in range(n))
        )
        expected = per_value_parse(p, 3, dtype)
        finite = np.isfinite(expected).all(axis=1)  # rows the dtype overflows are restricted out
        assert finite.sum() > _PARSE_ROWS
        kept = {f"w{i}" for i in np.flatnonzero(finite)}
        table = load_embeddings(p, expected_dim=3, dtype=dtype, restrict_to=kept)
        assert table.vectors.dtype == dtype
        assert table.vectors[: table.oov_id].tobytes() == expected[finite].tobytes()

    def test_non_numeric_in_second_chunk_names_its_line(self, tmp_path):
        lines = [f"w{i} {i} 1" for i in range(_PARSE_ROWS + 300)]
        lines[_PARSE_ROWS + 100] = "bad 1 x"
        lines[_PARSE_ROWS + 200] = "worse y 1"
        p = write_vectors(tmp_path / "v.txt", "\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf":{_PARSE_ROWS + 101}: non-numeric"):
            load_embeddings(p, expected_dim=2)

    def test_bad_value_before_field_count_error_is_reported_first(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\nb 3 x\nc 5 6\nd 7\n")
        with pytest.raises(ParseError, match=r":2: non-numeric"):
            load_embeddings(p, expected_dim=2)

    @pytest.mark.parametrize("entry", ["1_0", "\u0661"])  # float() accepts both
    def test_underscore_or_non_ascii_digit_on_kept_line_names_line(self, tmp_path, entry):
        p = write_vectors(tmp_path / "v.txt", f"a 1 2\nb 3 {entry}\n")
        with pytest.raises(ParseError, match=r":2: non-numeric"):
            load_embeddings(p, expected_dim=2)
        table = load_embeddings(p, expected_dim=2, restrict_to={"a"})
        assert table.vocab["a"] == 0 and len(table.vectors) == 3

    def test_empty_value_on_kept_line_names_line(self, tmp_path):
        # numpy's reader skips an empty row, which left the vocabulary one
        # id longer than the table
        p = write_vectors(tmp_path / "v.txt", "a 0.5\nw \nb 0.25\n")
        with pytest.raises(ParseError, match=r":2: non-numeric"):
            load_embeddings(p, expected_dim=1)
        table = load_embeddings(p, expected_dim=1, restrict_to={"a", "b"})
        assert len(table.vocab) == len(table.vectors) == 4
        assert table.vectors[table.vocab["b"], 0] == 0.25

    @pytest.mark.parametrize("word", ["<pad>", "<oov>"])
    def test_reserved_word_on_kept_line_names_line(self, tmp_path, word):
        # the file's word used to take the reserved name, leaving the
        # reserved row without a word: the saved model could not be reloaded
        p = write_vectors(tmp_path / "v.txt", f"a 1 2\n{word} 0.5 0.5\nb 3 4\n")
        with pytest.raises(ParseError, match=rf":2: '{word}' is a reserved word"):
            load_embeddings(p, expected_dim=2)
        table = load_embeddings(p, expected_dim=2, restrict_to={"a", "b"})
        assert len(table.vocab) == len(table.vectors) == 4
        assert table.vocab[word] in (table.oov_id, table.pad_id)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("restrict_to", [None, {"a"}], ids=["all", "restricted"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, end, restrict_to):
        # it escaped as a bare UnicodeDecodeError, with and without restrict_to
        p = tmp_path / "v.txt"
        p.write_bytes(f"a 1 2{end}b\xff 3 4{end}".encode("latin-1"))
        with pytest.raises(ParseError, match=r"v\.txt:2: not UTF-8 text"):
            load_embeddings(p, expected_dim=2, restrict_to=restrict_to)

    def test_non_utf8_byte_far_into_the_file_names_its_line(self, tmp_path):
        # the decoder reads ahead of the lines handed out, several chunks in
        lines = [f"w{i} {i} 1" for i in range(3 * _PARSE_ROWS)] + ["z\udce2 1 2", "y 3 4"]
        p = tmp_path / "v.txt"
        p.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError, match=rf":{3 * _PARSE_ROWS + 1}: not UTF-8 text"):
            load_embeddings(p, expected_dim=2)

    @pytest.mark.parametrize(
        "text, named",
        [("a 1 2\nb 3\nc\udcff 1 2\n", ":2: expected a word"), ("a 1 2\nb 3 x\nc\udcff 1 2\n", ":2: non-numeric")],
        ids=["field-count", "bad-value"],
    )
    def test_error_before_a_non_utf8_byte_is_reported_first(self, tmp_path, text, named):
        # both lines sit in the chunk the decoder read ahead before failing
        p = tmp_path / "v.txt"
        p.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError, match=named):
            load_embeddings(p, expected_dim=2)

    @pytest.mark.parametrize(
        "text, restrict_to",
        [("the 1 2\nb 3 4\n", None), ("2 2\nthe 1 2\nb 3 4\n", None), ("the 1 2\nb 3 4\n", {"the"})],
        ids=["word", "header", "restricted"],
    )
    def test_byte_order_mark_is_dropped(self, tmp_path, text, restrict_to):
        # it was read as part of the first word, so "the" was OOV (and
        # dropped by restrict_to), and a header behind it was a bad row
        p = tmp_path / "v.txt"
        p.write_text(text, encoding="utf-8-sig")
        table = load_embeddings(p, expected_dim=2, restrict_to=restrict_to)
        assert table.vocab["the"] == 0 and not any(w.startswith("\ufeff") for w in table.vocab)
        np.testing.assert_array_equal(table.vectors[0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "text, named",
        [("a 1 2\nb 3\n", r"v\.txt:2: expected a word"), ("2 2\nb\udcff 3 4\n", r"v\.txt:2: not UTF-8 text")],
        ids=["field-count", "header-before-non-utf8"],
    )
    def test_byte_order_mark_keeps_line_numbers(self, tmp_path, text, named):
        p = tmp_path / "v.txt"
        p.write_bytes(("\ufeff" + text).encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError, match=named):
            load_embeddings(p, expected_dim=2)

    @pytest.mark.parametrize("block", [None, 1 << 20], ids=["longer-than-a-read", "inside-a-read"])
    def test_line_of_65536_more_spaces_than_expected_names_its_field_count(self, tmp_path, monkeypatch, block):
        # a 16-bit count of the line's 65538 spaces wraps to 2 and would keep it
        if block:
            monkeypatch.setattr(data, "_BLOCK_BYTES", block)
        p = write_vectors(tmp_path / "v.txt", "a 1 2\nb" + " 0" * (65536 + 2) + "\nc 3 4\n")
        with pytest.raises(ParseError, match=r"v\.txt:2: expected a word and 2 values, got 65539 fields"):
            load_embeddings(p, expected_dim=2)

    @pytest.mark.parametrize("dim", [0, -1, True, 1.0, 2.0, "2", None])
    def test_expected_dim_not_a_positive_int_is_named_before_the_file_is_read(self, tmp_path, dim):
        # 0 gave "non-numeric vector entry", -1 "expected a word and -1
        # values", True and 1.0 numpy's TypeError from the OOV draw
        with pytest.raises(ContractError, match=r"expected_dim must be a positive int"):
            load_embeddings(tmp_path / "missing.txt", expected_dim=dim)

    def test_numpy_int_expected_dim_loads(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\n")
        assert load_embeddings(p, expected_dim=np.int64(2)).vectors.shape == (3, 2)

    def test_str_restrict_to_is_named_before_the_file_is_read(self, tmp_path):
        # `word not in "ab"` was a substring test: "a", "b" and "ab" were all kept
        with pytest.raises(ContractError, match=r"restrict_to must be a collection of words"):
            load_embeddings(tmp_path / "missing.txt", expected_dim=2, restrict_to="ab")

    @pytest.mark.parametrize("dtype", [np.int32, "i8", bool, object, "not a dtype"])
    def test_non_float_dtype_is_named_before_the_file_is_read(self, tmp_path, dtype):
        # np.int32 truncated "1.5" to 1 and zeroed the OOV row
        with pytest.raises(ContractError, match=r"dtype must be a float dtype"):
            load_embeddings(tmp_path / "missing.txt", expected_dim=2, dtype=dtype)

    def test_deterministic(self, tmp_path):
        p = write_vectors(tmp_path / "v.txt", "a 1 2\nb 3 4\n")
        t1 = load_embeddings(p, expected_dim=2, seed=9)
        t2 = load_embeddings(p, expected_dim=2, seed=9)
        assert t1.vocab == t2.vocab
        assert t1.vectors.tobytes() == t2.vectors.tobytes()


@pytest.fixture
def table(tmp_path):
    p = tmp_path / "vecs.txt"
    p.write_text(
        "play 2 2\nmusic 0 4\nget 1 0\nweather 0 1\n",
        encoding="utf-8",
    )
    return load_embeddings(p, expected_dim=2, seed=1)


class TestTokenize:
    def test_direct_lookup(self, table):
        assert tokenize("Play Music", table) == [table.vocab["play"], table.vocab["music"]]

    def test_oov(self, table):
        assert tokenize("play zzzz", table) == [table.vocab["play"], table.oov_id]

    def test_empty_utterance(self, table):
        with pytest.raises(EmptyUtteranceError):
            tokenize("???", table)

    def test_punctuation_separates(self, table):
        assert words_of("play,music?now") == ["play", "music", "now"]

    def test_every_code_point_in_context_equals_the_reference(self):
        # each code point c as "A{c}Σ{c}b", joined: Σ lowercases by its
        # neighbours, and lone surrogates pass through the UTF-8 bytes
        text = "".join(f"A{c}Σ{c}b" for c in map(chr, range(sys.maxunicode + 1)))
        reference = refops.words_of(text)
        assert words_of(text) == reference
        vocab = {w: i for i, w in enumerate(dict.fromkeys(reference[::2]))}
        oov_id = len(vocab)
        table = EmbeddingTable(vocab=vocab, vectors=np.zeros((oov_id + 2, 1)), oov_id=oov_id, pad_id=oov_id + 1)
        assert tokenize(text, table) == [vocab.get(w, oov_id) for w in reference]

    def test_round_trip_every_id_decodes(self, table):
        import numpy as np

        id_to_word = {i: w for w, i in table.vocab.items()}
        rng = np.random.default_rng(0)
        words = list(table.vocab) + ["zzz", "qqq", "Play!"]
        for _ in range(100):
            text = " ".join(rng.choice(words, size=rng.integers(1, 8)))
            for wid in tokenize(text, table):
                assert 0 <= wid < len(table.vectors)
                assert wid in id_to_word


class TestIntentEmbedding:
    def test_singleton(self, table):
        np.testing.assert_allclose(intent_embedding("Play", table), [2.0, 2.0])

    def test_two_token_mean(self, table):
        np.testing.assert_allclose(intent_embedding("GetWeather", table), [0.5, 0.5])

    def test_hand_mean(self, table):
        np.testing.assert_allclose(intent_embedding("PlayMusic", table), [1.0, 3.0])

    def test_sum_mode(self, table):
        np.testing.assert_allclose(intent_embedding("PlayMusic", table, mode="sum"), [2.0, 6.0])

    def test_camel_split(self):
        assert split_label_tokens("AddToPlaylist") == ["add", "to", "playlist"]
        assert split_label_tokens("RateBook") == ["rate", "book"]
        assert split_label_tokens("SearchScreeningEvent") == ["search", "screening", "event"]

    def test_label_without_word_characters_is_named(self, table):
        with pytest.raises(ContractError, match="intent name '__' has no word characters"):
            split_label_tokens("__")
        with pytest.raises(ContractError, match="intent name '-' has no word characters"):
            intent_embedding("-", table)

    def test_unknown_mode_is_named(self, table):
        with pytest.raises(ContractError, match="unknown intent embedding mode 'max'"):
            intent_embedding("PlayMusic", table, mode="max")

    def test_oov_label_token_uses_oov_vector(self, table):
        got = intent_embedding("Zzz", table)
        np.testing.assert_allclose(got, table.vectors[table.oov_id])


def make_snips_dir(root, intent_samples):
    for intent, texts in intent_samples.items():
        d = root / intent
        d.mkdir(parents=True)
        doc = {intent: [{"data": [{"text": t[: len(t) // 2]}, {"text": t[len(t) // 2 :]}]} for t in texts]}
        (d / f"train_{intent}_full.json").write_text(json.dumps(doc), encoding="utf-8")
    return root


class TestLoadSnips:
    EXISTING = ["GetWeather", "PlayMusic"]
    EMERGING = ["AddToPlaylist"]

    def test_routing_and_counts(self, tmp_path, table):
        root = make_snips_dir(
            tmp_path / "snips",
            {
                "GetWeather": ["get weather now", "weather please"],
                "PlayMusic": ["play music", "play some music", "music now"],
                "AddToPlaylist": ["add this song"],
            },
        )
        ex, em = load_snips(root, self.EXISTING, self.EMERGING, table)
        assert len(ex) == 5 and len(em) == 1
        assert ex.label_counts() == {"GetWeather": 2, "PlayMusic": 3}
        assert em.label_counts() == {"AddToPlaylist": 1}
        assert ex.label_names == self.EXISTING and em.label_names == self.EMERGING
        # spans concatenate back to the original utterance
        ids, lab = ex.samples[0]
        assert lab == 0 and len(ids) == 3

    def test_unknown_intent_dir(self, tmp_path, table):
        root = make_snips_dir(tmp_path / "snips", {"Mystery": ["who knows"]})
        with pytest.raises(LabelMappingError):
            load_snips(root, self.EXISTING, self.EMERGING, table)

    def test_overlapping_label_sets(self, tmp_path, table):
        root = make_snips_dir(tmp_path / "snips", {"GetWeather": ["weather"]})
        with pytest.raises(ContractError):
            load_snips(root, ["GetWeather"], ["GetWeather"], table)

    def test_byte_order_mark_is_dropped(self, tmp_path, table):
        # json.loads refused it as invalid JSON
        root = tmp_path / "snips"
        (root / "GetWeather").mkdir(parents=True)
        doc = {"GetWeather": [{"data": [{"text": "weather"}]}]}
        (root / "GetWeather" / "train_GetWeather_full.json").write_text(json.dumps(doc), encoding="utf-8-sig")
        ex, _ = load_snips(root, self.EXISTING, self.EMERGING, table)
        assert ex.samples == [([table.vocab["weather"]], 0)]

    @pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
    def test_malformed_json_names_file(self, tmp_path, table, encoding):
        # the latin-1 retry used to escape as a bare JSONDecodeError
        d = tmp_path / "snips" / "GetWeather"
        d.mkdir(parents=True)
        raw = b'{"GetWeather": [' + (b"\xff" if encoding == "latin-1" else b"\xc3\xbf")
        (d / "train_GetWeather_full.json").write_bytes(raw)
        with pytest.raises(ParseError, match=r"train_GetWeather_full\.json: invalid JSON"):
            load_snips(tmp_path / "snips", self.EXISTING, self.EMERGING, table)

    @pytest.mark.parametrize("doc", ["42", '"GetWeather samples"'])
    def test_top_level_not_an_object_names_file(self, tmp_path, table, doc):
        d = tmp_path / "snips" / "GetWeather"
        d.mkdir(parents=True)
        (d / "train_GetWeather_full.json").write_text(doc, encoding="utf-8")
        with pytest.raises(ParseError, match=r"train_GetWeather_full\.json: expected a top-level"):
            load_snips(tmp_path / "snips", self.EXISTING, self.EMERGING, table)

    def test_malformed_sample(self, tmp_path, table):
        d = tmp_path / "snips" / "GetWeather"
        d.mkdir(parents=True)
        (d / "train_GetWeather_full.json").write_text(
            json.dumps({"GetWeather": [{"nope": []}]}), encoding="utf-8"
        )
        with pytest.raises(ParseError) as exc:
            load_snips(tmp_path / "snips", self.EXISTING, self.EMERGING, table)
        assert "sample 0" in str(exc.value)

    def test_no_sample_in_any_file_is_named(self, tmp_path, table):
        # it loaded into two empty corpora, while an empty TSV file raised
        root = make_snips_dir(tmp_path / "snips", {"GetWeather": [], "AddToPlaylist": []})
        with pytest.raises(EmptySourceError, match=r"snips: no intent file holds a sample"):
            load_snips(root, self.EXISTING, self.EMERGING, table)
        make_snips_dir(root, {"PlayMusic": ["play music"]})
        ex, em = load_snips(root, self.EXISTING, self.EMERGING, table)
        assert len(ex) == 1 and len(em) == 0

    SAMPLES = {
        "GetWeather": ["get weather now", "weather please"],
        "PlayMusic": ["play music", "play some music", "music now"],
        "AddToPlaylist": ["add this song"],
    }

    def test_counts_are_logged_at_info(self, tmp_path, table, caplog):
        root = make_snips_dir(tmp_path / "snips", self.SAMPLES)
        with caplog.at_level(logging.INFO, logger="capsnlu.data"):
            load_snips(root, self.EXISTING, self.EMERGING, table)
        assert caplog.messages == [
            "loaded 6 samples (5 existing over 2 intents, 1 emerging over 1 intents)",
            "  GetWeather                   2",
            "  PlayMusic                    3",
            "  AddToPlaylist                1",
        ]

    def test_counts_are_not_taken_below_info(self, tmp_path, table, caplog, monkeypatch):
        def counted(self):
            raise AssertionError("label counts taken with INFO off")

        root = make_snips_dir(tmp_path / "snips", self.SAMPLES)
        monkeypatch.setattr(Corpus, "label_counts", counted)
        with caplog.at_level(logging.WARNING, logger="capsnlu.data"):
            ex, em = load_snips(root, self.EXISTING, self.EMERGING, table)
        assert (len(ex), len(em)) == (5, 1) and caplog.messages == []

    def test_disjoint_corpora(self, tmp_path, table):
        root = make_snips_dir(
            tmp_path / "snips",
            {"GetWeather": ["weather now"], "AddToPlaylist": ["add music"]},
        )
        ex, em = load_snips(root, self.EXISTING, self.EMERGING, table)
        assert not set(n for n, c in ex.label_counts().items() if c) & set(
            n for n, c in em.label_counts().items() if c
        )


class TestLoadTsv:
    def test_roundtrip(self, tmp_path, table):
        p = tmp_path / "toy.tsv"
        p.write_text("play music\tPlayMusic\nget weather\tGetWeather\n", encoding="utf-8")
        ex, em = load_dataset(p, ["PlayMusic", "GetWeather"], [], table)
        assert len(ex) == 2 and len(em) == 0
        assert ex.samples[0][1] == 0 and ex.samples[1][1] == 1

    def test_bad_columns(self, tmp_path, table):
        p = tmp_path / "toy.tsv"
        p.write_text("no tabs here\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(p, ["A"], [], table)

    def test_unicode_line_separator_stays_in_utterance(self, tmp_path, table):
        p = tmp_path / "toy.tsv"
        p.write_text("play\u2028music\tPlayMusic\n", encoding="utf-8")
        ex, _ = load_dataset(p, ["PlayMusic"], [], table)
        assert ex.samples == [([table.vocab["play"], table.vocab["music"]], 0)]

    # the last head has no mark: it puts line 3 past the decoder's first 8 KiB
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf", b"play " * 2000])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, table, end, bom):
        # found by tests/test_fuzz_datasets.py: it escaped as a bare UnicodeDecodeError
        p = tmp_path / "toy.tsv"
        lines = f"play music\tPlayMusic{end}get weather\tGetWeather{end}".encode()
        p.write_bytes(bom + lines + b"caf\xe9\tPlayMusic\n")
        with pytest.raises(ParseError, match=r"toy\.tsv:3: not UTF-8 text"):
            load_dataset(p, ["PlayMusic", "GetWeather"], [], table)

    def test_first_bad_line_in_file_order_is_named(self, tmp_path, table):
        # the whole file was decoded before any line was read, so the
        # non-UTF-8 byte on line 3 was named instead of line 2's columns
        p = tmp_path / "toy.tsv"
        p.write_bytes(b"play music\tPlayMusic\nget\tweather\tGetWeather\ncaf\xe9\tPlayMusic\n")
        with pytest.raises(ParseError, match=r"toy\.tsv:2: expected 2 tab-separated columns, got 3"):
            load_dataset(p, ["PlayMusic", "GetWeather"], [], table)

    def test_records_before_a_non_utf8_byte_are_streamed(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_bytes(b"play music\tPlayMusic\r\nget weather\tGetWeather\rcaf\xe9\tPlayMusic\n")
        records = iter_tsv_records(p)
        assert next(records) == ("play music", "PlayMusic", p, 1)
        assert next(records) == ("get weather", "GetWeather", p, 2)
        with pytest.raises(ParseError, match=r"toy\.tsv:3: not UTF-8 text"):
            next(records)

    def test_byte_order_mark_is_dropped(self, tmp_path, table):
        # it used to stay on the first word, which then read as OOV
        p = tmp_path / "toy.tsv"
        p.write_text("play music\tPlayMusic\n", encoding="utf-8-sig")
        ex, _ = load_dataset(p, ["PlayMusic"], [], table)
        assert ex.samples == [([table.vocab["play"], table.vocab["music"]], 0)]

    def test_byte_order_mark_alone_is_an_empty_file(self, tmp_path, table):
        p = tmp_path / "toy.tsv"
        p.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(EmptySourceError, match=r"toy\.tsv: no samples"):
            load_dataset(p, ["PlayMusic"], [], table)

    def test_line_ends(self, tmp_path, table):
        p = tmp_path / "toy.tsv"
        p.write_bytes(b"play music\tPlayMusic\r\nget weather\tGetWeather\rplay\tPlayMusic")
        ex, _ = load_dataset(p, ["PlayMusic", "GetWeather"], [], table)
        assert [lab for _, lab in ex.samples] == [0, 1, 0]

    def test_dataset_words(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("Play Music!\tPlayMusic\n", encoding="utf-8")
        assert dataset_words(p) == {"play", "music"}


class TestRecordLocation:
    # a record's error names its file and its sample index (SNIPS layout)
    # or line number (TSV), formatted only when the error is raised
    UTTERANCES = ["play music", "?!", "get weather"]  # the second has no word

    def write(self, tmp_path, layout, intent):
        if layout == "snips":
            root = make_snips_dir(tmp_path / "snips", {intent: self.UTTERANCES})
            return root, f"{root / intent / f'train_{intent}_full.json'}:"
        p = tmp_path / "toy.tsv"
        p.write_text("".join(f"{u}\t{intent}\n" for u in self.UTTERANCES), encoding="utf-8")
        return p, f"{p}:"

    @pytest.mark.parametrize("layout, line", [("snips", 1), ("tsv", 2)])
    def test_empty_utterance_names_its_record(self, tmp_path, table, layout, line):
        path, prefix = self.write(tmp_path, layout, "PlayMusic")
        with pytest.raises(ParseError) as raised:
            load_dataset(path, ["PlayMusic"], [], table)
        assert str(raised.value) == f"{prefix}{line}: utterance reduced to zero tokens: '?!'"

    @pytest.mark.parametrize("layout, line", [("snips", 0), ("tsv", 1)])
    def test_unknown_intent_names_its_record(self, tmp_path, table, layout, line):
        path, prefix = self.write(tmp_path, layout, "Mystery")
        with pytest.raises(LabelMappingError) as raised:
            load_dataset(path, ["PlayMusic"], ["GetWeather"], table)
        assert str(raised.value) == f"{prefix}{line}: intent 'Mystery' is neither an existing nor an emerging label"


class TestLoadInputs:
    SAMPLES = {
        "GetWeather": ["get weather now", "weather please"],
        "PlayMusic": ["play music", "play some music"],
        "AddToPlaylist": ["add this song"],
    }
    VECTORS = "play 2 2\nmusic 0 4\nget 1 0\nweather 0 1\nsong 3 1\nadd 1 3\nextra 9 9\n"

    def config(self, tmp_path, layout, **overrides):
        if layout == "snips":
            data = make_snips_dir(tmp_path / "snips", self.SAMPLES)
        else:
            data = tmp_path / "data.tsv"
            data.write_text("".join(f"{t}\t{i}\n" for i, ts in self.SAMPLES.items() for t in ts), encoding="utf-8")
        vectors = write_vectors(tmp_path / "v.txt", self.VECTORS)
        settings = dict(
            word_dim=2, seed=3, dataset_path=str(data), embeddings_path=str(vectors),
            existing_labels=("GetWeather", "PlayMusic"), emerging_labels=("AddToPlaylist",),
            intent_embedding_mode="sum",
        )
        return RunConfig(**{**settings, **overrides}).validate()

    @pytest.mark.parametrize("layout", ["snips", "tsv"])
    @pytest.mark.parametrize("restrict", [True, False])
    def test_equals_the_steps_it_replaces(self, tmp_path, layout, restrict):
        cfg = self.config(tmp_path, layout, restrict_vocab=restrict)
        table, ex, em = load_inputs(cfg)

        existing, emerging = list(cfg.existing_labels), list(cfg.emerging_labels)
        restrict_to = dataset_words(cfg.dataset_path) if restrict else None
        ref = load_embeddings(cfg.embeddings_path, cfg.word_dim, seed=cfg.seed, restrict_to=restrict_to)
        ref.build_intent_vectors(existing + emerging, mode=cfg.intent_embedding_mode)
        ref_ex, ref_em = load_dataset(cfg.dataset_path, existing, emerging, ref)

        assert list(table.vocab.items()) == list(ref.vocab.items())
        assert ("extra" in table.vocab) == (not restrict)
        assert table.vectors.dtype == ref.vectors.dtype and table.vectors.tobytes() == ref.vectors.tobytes()
        assert table.intent_vectors.tobytes() == ref.intent_vectors.tobytes()
        assert (table.oov_id, table.pad_id) == (ref.oov_id, ref.pad_id)
        for got, want in ((ex, ref_ex), (em, ref_em)):
            assert got.samples == want.samples and got.label_names == want.label_names
        assert ex.label_names == existing and em.label_names == emerging

    def test_restricted_table_keeps_label_tokens(self, toy_paths):
        # "tunes" and "sports" occur in no utterance, so the restricted
        # table dropped them and both intent vectors read the OOV row
        vectors, corpus = toy_paths
        on, off = (
            load_inputs(toy_config(dataset_path=str(corpus), embeddings_path=str(vectors), restrict_vocab=r))[0]
            for r in (True, False)
        )
        assert {"tunes", "sports"} <= on.vocab.keys()
        assert on.intent_vectors.dtype == off.intent_vectors.dtype
        assert on.intent_vectors.tobytes() == off.intent_vectors.tobytes()

    def test_paths_are_checked_dataset_first(self, tmp_path):
        cfg = self.config(tmp_path, "tsv")
        data, missing = cfg.dataset_path, str(tmp_path / "none")
        for dataset_path, embeddings_path, error, message in (
            ("", "", ContractError, "no dataset path configured"),
            (missing, missing, FileNotFoundError, "dataset path not found"),
            (data, "", ContractError, "no embeddings file configured"),
            (data, missing, FileNotFoundError, "embeddings file not found"),
        ):
            cfg.dataset_path, cfg.embeddings_path = dataset_path, embeddings_path
            with pytest.raises(error, match=message):
                load_inputs(cfg)


class TestLoadersUseTheReferenceTokenizer:
    """Each loader's samples are the ids of `refops.words_of`'s words, on
    text heavy in punctuation with words that are not ASCII."""

    EXISTING = ("GetWeather", "PlayMusic")
    EMERGING = ("AddToPlaylist",)
    SAMPLES = {  # in intent-directory order, which the TSV file keeps too
        "AddToPlaylist": ["add ẞ-straße to my 'chill' list!!", "añade «la canción», ¿vale?"],
        "GetWeather": ["Wetter in MÜNCHEN?!", "weather:rain...now", "ΟΔΟΣ, café—naïve\u3000now"],
        "PlayMusic": ['play "Σίσυφος" (live) #1', "play/music;now", "İstanbul'u çal\x85müzik"],
    }
    WORDS = ["add", "ß", "straße", "chill", "la", "canción", "münchen", "weather", "rain", "now",
             "οδος", "café", "play", "σίσυφος", "music", "i\u0307stanbul", "çal", "get"]

    def write(self, tmp_path, layout):
        if layout == "snips":
            return make_snips_dir(tmp_path / "snips", self.SAMPLES)
        data = tmp_path / "data.tsv"
        data.write_text("".join(f"{t}\t{i}\n" for i, ts in self.SAMPLES.items() for t in ts), encoding="utf-8")
        return data

    def expected(self, table):
        """The (existing, emerging) samples by the reference tokenizer."""
        def ids(text):
            return [table.vocab.get(w, table.oov_id) for w in refops.words_of(text)]

        return tuple(
            [(ids(t), labels.index(i)) for i, ts in self.SAMPLES.items() if i in labels for t in ts]
            for labels in (self.EXISTING, self.EMERGING)
        )

    @pytest.mark.parametrize("layout", ["snips", "tsv"])
    def test_samples_are_the_reference_ids(self, tmp_path, layout):
        data = self.write(tmp_path, layout)
        vectors = write_vectors(tmp_path / "v.txt", "".join(f"{w} {i} 1\n" for i, w in enumerate(self.WORDS)))
        table = load_embeddings(vectors, expected_dim=2)
        existing, emerging = list(self.EXISTING), list(self.EMERGING)
        loads = [(table, *load_dataset(data, existing, emerging, table))]
        if layout == "snips":
            loads.append((table, *load_snips(data, existing, emerging, table)))
        for restrict in (True, False):
            cfg = RunConfig(
                word_dim=2, dataset_path=str(data), embeddings_path=str(vectors), restrict_vocab=restrict,
                existing_labels=self.EXISTING, emerging_labels=self.EMERGING,
            ).validate()
            loads.append(load_inputs(cfg))
        for used, ex, em in loads:
            assert (ex.samples, em.samples) == self.expected(used)
            assert any(i != used.oov_id for ids, _ in ex.samples for i in ids)


class TestCorpus:
    def test_subset_keeps_metadata(self, table):
        c = Corpus([([0], 0), ([1], 0)], ["A"], split_tag="all")
        s = c.subset([1], "test")
        assert s.samples == [([1], 0)] and s.split_tag == "test"
        assert s.label_names == ["A"]
