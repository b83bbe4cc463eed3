"""Train the full capsule pipeline on a two-intent toy corpus.

Builds a small embedding file and TSV corpus on the fly, trains for a
few epochs, reports metrics, and prints where each attention head looks.

Run:  python3 demos/03_train_toy_intents.py
"""

import tempfile
from pathlib import Path

import numpy as np

from capsnlu.autodiff import no_grad
from capsnlu.config import RunConfig
from capsnlu.data import load_inputs
from capsnlu.harness import evaluate, train
from capsnlu.metrics import format_report
from capsnlu.model import forward_batch

MUSIC = ["play some music", "play a tune", "hear a song", "play the song now",
         "i want to hear music", "play music please"]
WEATHER = ["what is the weather", "weather forecast today", "is it sunny",
           "rain forecast please", "the temperature today", "weather please"]

work = Path(tempfile.mkdtemp())
rng = np.random.default_rng(0)
words = sorted({w for u in MUSIC + WEATHER for w in u.split()})
with open(work / "vectors.txt", "w", encoding="utf-8") as fh:
    for w in words:
        base = np.zeros(8)
        if w in ("play", "music", "song", "tune", "hear"):
            base[0] = 1.0
        if w in ("weather", "forecast", "rain", "sunny", "temperature"):
            base[1] = 1.0
        vec = base + rng.normal(scale=0.05, size=8)
        fh.write(w + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
rows = [f"{u}\tMusic" for u in MUSIC] + [f"{u}\tWeather" for u in WEATHER]
(work / "corpus.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

cfg = RunConfig(
    word_dim=8, hidden_dim=8, attn_dim=6, heads=2, caps_dim=4,
    sigma=0.1, dropout_keep=1.0, learning_rate=0.02, batch_size=6,
    epochs=15, seed=7, existing_labels=("Music", "Weather"),
    emerging_labels=(), restrict_vocab=False,
    dataset_path=str(work / "corpus.tsv"), embeddings_path=str(work / "vectors.txt"),
)
table, corpus, _ = load_inputs(cfg)

model, history = train(cfg, corpus, table)
print("loss curve:", " ".join(f"{x:.4f}" for x in history.epoch_losses[::3]))
print()
print(format_report(evaluate(model, corpus, cfg), ["Music", "Weather"]))

id_to_word = {i: w for w, i in table.vocab.items()}
print("attention per head on two utterances:")
with no_grad():
    for ids, lab in corpus.samples[:1] + corpus.samples[-1:]:
        fwd = forward_batch(model, [ids], cfg)
        print(" ", " ".join(id_to_word[i] for i in ids), f"  (true: {['Music', 'Weather'][lab]})")
        for head in range(cfg.heads):
            scores = " ".join(f"{s:.2f}" for s in fwd.A.values[0, head])
            print(f"    head {head}: {scores}")
