"""Shared fixtures: a hand-built separable two-intent toy corpus.

The word vectors put music words near e1, weather words near e2, and
filler near the origin; the emerging label "Tunes" carries exactly the
same vector as the existing label "Music", and "Sports" sits far from
everything.
"""

import io
import multiprocessing
import threading

import numpy as np
import pytest

from capsnlu import config
from capsnlu.config import RunConfig
from capsnlu.data import EmbeddingTable, load_inputs
from capsnlu.model import init_model

TOY_EXISTING = ("Music", "Weather")
TOY_EMERGING = ("Tunes", "Sports")

MUSIC_WORDS = ["play", "music", "song", "tune", "hear"]
WEATHER_WORDS = ["weather", "forecast", "rain", "sunny", "temperature"]
FILLER_WORDS = ["the", "me", "a", "some", "please", "now", "today", "what", "is", "i", "to", "want"]

MUSIC_UTTERANCES = [
    "play some music",
    "play a tune",
    "i want to hear a song",
    "play the song now",
    "hear some music please",
    "play music",
    "i want a tune now",
    "play me a song today",
    "hear the tune",
    "some music please",
]
WEATHER_UTTERANCES = [
    "what is the weather",
    "weather forecast today",
    "is it sunny now",
    "what is the temperature",
    "rain forecast please",
    "the weather today",
    "sunny or rain today",
    "temperature now please",
    "what is the forecast",
    "weather please",
]
# emerging-intent utterances appear only at zero-shot evaluation time:
# "Tunes" reads like the Music class, "Sports" like the Weather class
TUNES_UTTERANCES = [
    "play some music now",
    "hear a tune please",
    "play a song",
    "i want music now",
]
SPORTS_UTTERANCES = [
    "what is the forecast now",
    "rain today please",
    "is it sunny today",
    "the temperature today",
]


def _vector_lines(dim=8, seed=123):
    rng = np.random.default_rng(seed)
    lines = []
    vecs = {}

    def emit(word, base):
        vec = base + rng.normal(scale=0.05, size=dim)
        vecs[word] = vec
        lines.append(word + " " + " ".join(f"{x:.6f}" for x in vec))

    e_music = np.zeros(dim)
    e_music[0] = 1.0
    e_weather = np.zeros(dim)
    e_weather[1] = 1.0
    e_far = np.zeros(dim)
    e_far[2] = 3.0

    for w in MUSIC_WORDS:
        emit(w, e_music)
    for w in WEATHER_WORDS:
        emit(w, e_weather)
    for w in FILLER_WORDS:
        emit(w, np.zeros(dim))
    # label tokens: "tunes" duplicates "music"'s vector exactly,
    # "sports" sits far from every class
    lines.append("tunes " + " ".join(f"{x:.6f}" for x in vecs["music"]))
    emit("sports", e_far)
    return lines


def build_toy_vectors(path, dim=8, seed=123):
    lines = _vector_lines(dim=dim, seed=seed)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def build_toy_corpus(path):
    rows = [f"{u}\t{TOY_EXISTING[0]}" for u in MUSIC_UTTERANCES]
    rows += [f"{u}\t{TOY_EXISTING[1]}" for u in WEATHER_UTTERANCES]
    rows += [f"{u}\t{TOY_EMERGING[0]}" for u in TUNES_UTTERANCES]
    rows += [f"{u}\t{TOY_EMERGING[1]}" for u in SPORTS_UTTERANCES]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def _flip_middle_byte(data: bytes) -> bytes:
    flipped = bytearray(data)
    flipped[len(data) // 2] ^= 0xFF
    return bytes(flipped)


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


# ways a saved params.npz is cut or damaged, each a bytes -> bytes function
ARCHIVE_DAMAGES = {
    "empty": lambda data: b"",
    "cut-at-10": lambda data: data[:10],
    "cut-at-half": lambda data: data[: len(data) // 2],
    "10-short": lambda data: data[:-10],
    "flipped-byte": _flip_middle_byte,
    "plain-npy": lambda data: _npy_bytes(np.zeros(3)),  # np.load reads it as one array
}


def toy_config(**overrides) -> RunConfig:
    cfg = RunConfig(
        word_dim=8,
        hidden_dim=8,
        attn_dim=6,
        heads=2,
        caps_dim=4,
        sigma=0.1,
        penalty_weight=0.0001,
        dropout_keep=1.0,
        learning_rate=0.02,
        batch_size=8,
        epochs=30,
        seed=7,
        existing_labels=TOY_EXISTING,
        emerging_labels=TOY_EMERGING,
        restrict_vocab=False,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg.validate()


def init_layers(rng, word_dim=3, hidden_dim=2, attn_dim=3, heads=2, intents=1, caps_dim=1, dtype=np.float64):
    """`init_model` at these dimensions over a two-row table (OOV, PAD),
    drawing from `rng`: a test of one layer takes its `.semantic` or its
    `.detection`."""
    table = EmbeddingTable(vocab={"<oov>": 0, "<pad>": 1}, vectors=np.zeros((2, word_dim)), oov_id=0, pad_id=1)
    cfg = RunConfig(
        word_dim=word_dim,
        hidden_dim=hidden_dim,
        attn_dim=attn_dim,
        heads=heads,
        caps_dim=caps_dim,
        existing_labels=tuple(f"intent{k}" for k in range(intents)),
        emerging_labels=(),
    )
    return init_model(table, cfg, rng=rng, dtype=dtype)


@pytest.fixture(scope="session")
def toy_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    vectors = build_toy_vectors(root / "vectors.txt")
    corpus = build_toy_corpus(root / "corpus.tsv")
    return vectors, corpus


@pytest.fixture()
def toy_setup(toy_paths):
    vectors_path, corpus_path = toy_paths
    cfg = toy_config(dataset_path=str(corpus_path), embeddings_path=str(vectors_path))
    return (cfg, *load_inputs(cfg))


def use_cpus(monkeypatch, n: int) -> None:
    """Make the process look as if it may run on `n` CPUs, for every
    worker the library starts (see `config.usable_cpus`)."""
    monkeypatch.setattr(config, "usable_cpus", lambda: n)


def _adam_threads():
    return {t for t in threading.enumerate() if t.name.startswith("adam-rows-step")}


@pytest.fixture(autouse=True)
def no_worker_left_running():
    """Fails a test that leaves an Adam pass thread or a child process
    alive: each rows step must end its own thread on every way out of its
    block, and the vectors reader its helper process."""
    yield
    left = _adam_threads()
    assert not left, f"{len(left)} adam-rows-step thread(s) still alive after the test"
    children = multiprocessing.active_children()
    assert not children, f"child process(es) still alive after the test: {children}"
