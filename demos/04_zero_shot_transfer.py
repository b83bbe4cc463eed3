"""Classify an intent the model never saw a single labeled utterance of.

Trains on Music vs Weather, then builds a capsule for the emerging
intent "Tunes" out of (1) the trained encoder's routing products and
(2) how close "tunes" sits to each existing label in embedding space.

Run:  python3 demos/04_zero_shot_transfer.py
"""

import tempfile
from pathlib import Path

import numpy as np

from capsnlu.autodiff import no_grad
from capsnlu.config import RunConfig
from capsnlu.data import load_inputs
from capsnlu.harness import train, zsl_evaluate
from capsnlu.model import forward_batch
from capsnlu.zeroshot import (
    classify_emerging_batch,
    intent_similarity,
    similarity_variance,
    vote_vectors,
    zero_shot_prediction_vectors,
)

MUSIC = ["play some music", "play a tune", "hear a song", "play the song now",
         "i want to hear music", "play music please"]
WEATHER = ["what is the weather", "weather forecast today", "is it sunny",
           "rain forecast please", "the temperature today", "weather please"]
TUNES = ["play a tune now", "hear some music", "play songs please"]

work = Path(tempfile.mkdtemp())
rng = np.random.default_rng(0)
words = sorted({w for u in MUSIC + WEATHER + TUNES for w in u.split()} | {"tunes", "songs"})
music_like = {"play", "music", "song", "songs", "tune", "tunes", "hear"}
weather_like = {"weather", "forecast", "rain", "sunny", "temperature"}
with open(work / "vectors.txt", "w", encoding="utf-8") as fh:
    for w in words:
        base = np.zeros(8)
        if w in music_like:
            base[0] = 1.0
        if w in weather_like:
            base[1] = 1.0
        vec = base + rng.normal(scale=0.05, size=8)
        fh.write(w + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
rows = [f"{u}\tMusic" for u in MUSIC]
rows += [f"{u}\tWeather" for u in WEATHER]
rows += [f"{u}\tTunes" for u in TUNES]
(work / "corpus.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

existing, emerging = ["Music", "Weather"], ["Tunes"]
cfg = RunConfig(
    word_dim=8, hidden_dim=8, attn_dim=6, heads=2, caps_dim=4,
    sigma=0.5, dropout_keep=1.0, learning_rate=0.02, batch_size=6,
    epochs=15, seed=7, existing_labels=tuple(existing),
    emerging_labels=tuple(emerging), restrict_vocab=False,
    dataset_path=str(work / "corpus.tsv"), embeddings_path=str(work / "vectors.txt"),
)
table, corpus, corpus_emerging = load_inputs(cfg)

model, _ = train(cfg, corpus, table)

# label-embedding similarity decides where knowledge flows from
sim = intent_similarity(table.intent_vectors[2:], table.intent_vectors[:2], cfg.sigma)
print("similarity of 'Tunes' to (Music, Weather):", np.round(sim.q[0], 4))
print("row variance (certainty of the transfer):", np.round(similarity_variance(sim.q), 4))

with no_grad():
    ids, _ = corpus_emerging.samples[0]
    fwd = forward_batch(model, [ids], cfg)
votes = vote_vectors(fwd.trace, fwd.P)             # c * p per (intent, head), batch of one
u = zero_shot_prediction_vectors(sim.q, votes)     # mixed by similarity
winners, n = classify_emerging_batch(u, cfg.routing_iterations)
print("emerging activation norms:", np.round(np.linalg.norm(n[0], axis=-1), 4))
print("predicted emerging intent:", emerging[winners[0]])

report, per_intent = zsl_evaluate(model, corpus_emerging, table.intent_vectors, cfg)
print(f"zero-shot accuracy over {len(corpus_emerging)} utterances: {report.accuracy:.2f}")
