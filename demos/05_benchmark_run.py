"""End-to-end benchmark workflow, via the same entry points the CLI uses.

With the real data present this reproduces the published numbers'
regime (5 existing intents supervised, 2 emerging intents zero-shot):

    export CAPSNLU_SNIPS_DIR=/path/to/benchmark
    export CAPSNLU_VECTORS_PATH=/path/to/vectors.txt
    python3 demos/05_benchmark_run.py

Without them, the script synthesizes a small corpus in the benchmark's
exact on-disk layout (per-intent directories of train_<Intent>_full.json
span files) so the identical pipeline still runs end to end.

Run:  python3 demos/05_benchmark_run.py
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from capsnlu.config import RunConfig
from capsnlu.data import load_inputs
from capsnlu.harness import evaluate, stratified_split, train, zsl_evaluate

data_dir = os.environ.get("CAPSNLU_SNIPS_DIR", "")
vectors_path = os.environ.get("CAPSNLU_VECTORS_PATH", "")

if data_dir and vectors_path:
    cfg = RunConfig(dataset_path=data_dir, embeddings_path=vectors_path, epochs=20)
    print("using the real benchmark data")
else:
    print("benchmark data not configured; synthesizing a miniature corpus in the same layout")
    work = Path(tempfile.mkdtemp())
    rng = np.random.default_rng(0)
    keywords = {
        "SearchCreativeWork": ["find", "show", "movie", "novel", "painting"],
        "GetWeather": ["weather", "forecast", "rain", "sunny", "cold"],
        "BookRestaurant": ["book", "table", "restaurant", "dinner", "eat"],
        "PlayMusic": ["play", "music", "song", "album", "artist"],
        "SearchScreeningEvent": ["screening", "cinema", "times", "film", "tickets"],
        "AddToPlaylist": ["add", "playlist", "track", "insert", "list"],
        "RateBook": ["rate", "book", "stars", "rating", "points"],
    }
    filler = [f"word{i}" for i in range(200)]
    for intent, kws in keywords.items():
        d = work / "data" / intent
        d.mkdir(parents=True)
        samples = []
        for _ in range(80):
            length = max(3, int(rng.normal(8, 2)))
            ws = [kws[rng.integers(len(kws))] if rng.random() < 0.5 else filler[rng.integers(len(filler))]
                  for _ in range(length)]
            text = " ".join(ws)
            cut = len(text) // 2
            samples.append({"data": [{"text": text[:cut]}, {"text": text[cut:]}]})
        (d / f"train_{intent}_full.json").write_text(json.dumps({intent: samples}), encoding="utf-8")
    vocab = sorted({w for kws in keywords.values() for w in kws} | set(filler))
    with open(work / "vectors.txt", "w", encoding="utf-8") as fh:
        # SearchCreativeWork's label tokens occur in no utterance, so they
        # get vectors of their own: a label whose tokens are all out of
        # the vocabulary has no embedding, and load_inputs refuses it
        for w in vocab + ["creative", "work"]:
            vec = rng.normal(scale=0.3, size=50)
            fh.write(w + " " + " ".join(f"{x:.4f}" for x in vec) + "\n")
    cfg = RunConfig(
        dataset_path=str(work / "data"),
        embeddings_path=str(work / "vectors.txt"),
        word_dim=50, hidden_dim=16, attn_dim=10, epochs=5,
    )

table, corpus_existing, corpus_emerging = load_inputs(cfg)
print(f"{len(corpus_existing)} existing-intent and {len(corpus_emerging)} emerging-intent utterances, "
      f"vocabulary {len(table.vocab)}")

train_c, val_c, test_c = stratified_split(corpus_existing, cfg.seed)
model, history = train(cfg, train_c, table, val_corpus=val_c)
print("best validation epoch:", history.best_epoch)

report = evaluate(model, test_c, cfg)
print(f"supervised test accuracy over {len(cfg.existing_labels)} existing intents: {report.accuracy:.4f}")

zsl_report, per_intent = zsl_evaluate(model, corpus_emerging, table.intent_vectors, cfg)
print(f"zero-shot accuracy over {len(cfg.emerging_labels)} emerging intents: {zsl_report.accuracy:.4f}")
for name, acc, var in per_intent:
    print(f"  {name:<16} accuracy={acc:.4f} similarity-variance={var:.5f}")
