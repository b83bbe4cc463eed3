import json

import numpy as np
import pytest

from capsnlu.autodiff import ContractError
from capsnlu.data import (
    Corpus,
    EmptySourceError,
    EmptyUtteranceError,
    LabelMappingError,
    ParseError,
    dataset_words,
    intent_embedding,
    load_embeddings,
    load_snips,
    load_tsv,
    split_label_tokens,
    tokenize,
    words_of,
)


def write_vectors(path, text):
    path.write_text(text, encoding="utf-8")
    return path


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

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
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
        assert ex.domain == "existing" and em.domain == "emerging"
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

    def test_malformed_sample(self, tmp_path, table):
        d = tmp_path / "snips" / "GetWeather"
        d.mkdir(parents=True)
        (d / "train_GetWeather_full.json").write_text(
            json.dumps({"GetWeather": [{"nope": []}]}), encoding="utf-8"
        )
        with pytest.raises(ParseError) as exc:
            load_snips(tmp_path / "snips", self.EXISTING, self.EMERGING, table)
        assert "sample 0" in str(exc.value)

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
        ex, em = load_tsv(p, ["PlayMusic", "GetWeather"], [], table)
        assert len(ex) == 2 and len(em) == 0
        assert ex.samples[0][1] == 0 and ex.samples[1][1] == 1

    def test_bad_columns(self, tmp_path, table):
        p = tmp_path / "toy.tsv"
        p.write_text("no tabs here\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_tsv(p, ["A"], [], table)

    def test_dataset_words(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("Play Music!\tPlayMusic\n", encoding="utf-8")
        assert dataset_words(p) == {"play", "music"}


class TestCorpus:
    def test_validate_catches_bad_ids(self, table):
        c = Corpus([([99], 0)], ["A"], [], domain="existing")
        with pytest.raises(ContractError):
            c.validate(vocab_size=6)

    def test_subset_keeps_metadata(self, table):
        c = Corpus([([0], 0), ([1], 0)], ["A"], ["B"], split_tag="all")
        s = c.subset([1], "test")
        assert s.samples == [([1], 0)] and s.split_tag == "test"
