"""Seeded SNIPS-shaped inputs: per-intent span files and a word-vector file.

The corpus uses the benchmark's on-disk layout (`<Intent>/train_<Intent>_full.json`,
each sample an ordered list of `{"text": ...}` spans). Structure is planted
so that a working model scores clearly above chance and below 1.0:

- each existing intent owns a word-vector centre; its keywords and label
  tokens sit near that centre, filler words do not;
- each emerging intent has an existing "parent" intent; its keywords and
  label tokens sit near the parent's centre, so the label-embedding
  similarity and the parent's capsule both point at it;
- a fixed share of utterances hold filler words only and cannot be
  classified better than by chance.

The vectors file holds every corpus word (a few filler words are left out
and become out-of-vocabulary) plus distractor words that `restrict_to`
drops, in a seeded order. Only numpy is used; nothing here imports the
code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EXISTING = ("SearchCreativeWork", "GetWeather", "BookRestaurant", "PlayMusic", "SearchScreeningEvent")
EMERGING = ("AddToPlaylist", "RateBook")
PARENT = {"AddToPlaylist": "PlayMusic", "RateBook": "SearchCreativeWork"}
LABEL_TOKENS = {
    "SearchCreativeWork": ("search", "creative", "work"),
    "GetWeather": ("get", "weather"),
    "BookRestaurant": ("book", "restaurant"),
    "PlayMusic": ("play", "music"),
    "SearchScreeningEvent": ("search", "screening", "event"),
    "AddToPlaylist": ("add", "to", "playlist"),
    "RateBook": ("rate", "book"),
}

DIM = 300
CENTRE_SCALE = 0.3     # per-entry scale of intent centres and filler vectors
KEYWORD_NOISE = 0.15   # keyword vectors scatter this far around their centre
LABEL_NOISE = 0.05
KEYWORDS_PER_INTENT = 24
FILLER_WORDS = 8000
OOV_SHARE = 0.02       # filler words left out of the vectors file
KEYWORD_PROB = 0.3     # chance that a position holds a keyword
PARENT_KEYWORD_PROB = 0.3  # emerging utterances: chance a keyword is the parent's
FILLER_ONLY_SHARE = 0.08
MIN_LEN, MAX_LEN = 5, 15
DISTRACTOR_POOL = 512  # distinct vector strings shared by distractor lines


@dataclass(frozen=True)
class Profile:
    """Corpus and vectors-file sizes of one workload."""

    existing_per_intent: int
    emerging_per_intent: int
    vector_lines: int  # total lines of the vectors file, distractors included


PROFILES = {
    "train-snips": Profile(existing_per_intent=260, emerging_per_intent=200, vector_lines=50_000),
    "infer-batch": Profile(existing_per_intent=700, emerging_per_intent=500, vector_lines=9_000),
    "infer-online": Profile(existing_per_intent=200, emerging_per_intent=200, vector_lines=9_000),
}


@dataclass(frozen=True)
class Inputs:
    data_dir: Path
    vectors_path: Path
    vector_lines: int
    existing_utterances: int
    emerging_utterances: int


_SYLLABLES = [c + v for c in "bcdfghjklmnprstvwz" for v in "aeiou"]


def _pseudo_words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """Distinct lowercase consonant-vowel words of 2-4 syllables."""
    out: list[str] = []
    while len(out) < count:
        draws = count - len(out) + 16
        lengths = rng.integers(2, 5, size=draws).tolist()
        picks = rng.integers(len(_SYLLABLES), size=(draws, 4)).tolist()
        for length, row in zip(lengths, picks):
            word = "".join(_SYLLABLES[i] for i in row[:length])
            if word not in taken:
                taken.add(word)
                out.append(word)
                if len(out) == count:
                    break
    return out


def _format_rows(rows: np.ndarray) -> list[str]:
    fmt = " ".join(["%.5f"] * rows.shape[1])
    return [fmt % tuple(row) for row in rows.tolist()]


def _spans(rng: np.random.Generator, words: list[str]) -> list[dict]:
    """Cut an utterance into 1-3 spans at word boundaries; joined they
    give back the text exactly."""
    cuts = sorted(set(rng.integers(1, len(words), size=int(rng.integers(0, 3))).tolist()))
    bounds = [0] + cuts + [len(words)]
    spans = []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        text = " ".join(words[a:b]) + (" " if b < len(words) else "")
        span = {"text": text}
        if i % 2 == 1:
            span.update({"entity": "snips/slot", "slot_name": "slot"})
        spans.append(span)
    return spans


def generate(out_dir, workload: str, seed: int) -> Inputs:
    """Write the corpus under `out_dir/data` and vectors to `out_dir/vectors.txt`."""
    profile = PROFILES[workload]
    rng = np.random.default_rng([seed, 1809_00385])
    out_dir = Path(out_dir)

    taken = {t for toks in LABEL_TOKENS.values() for t in toks}
    centres = {k: rng.normal(scale=CENTRE_SCALE, size=DIM) for k in EXISTING}
    centre_of = {**{k: centres[k] for k in EXISTING}, **{l: centres[PARENT[l]] for l in EMERGING}}

    vectors: dict[str, np.ndarray] = {}
    keywords: dict[str, list[str]] = {}
    for intent in EXISTING + EMERGING:
        keywords[intent] = _pseudo_words(rng, KEYWORDS_PER_INTENT, taken)
        noise = rng.normal(scale=KEYWORD_NOISE, size=(KEYWORDS_PER_INTENT, DIM))
        for word, row in zip(keywords[intent], centre_of[intent] + noise):
            vectors[word] = row
    for intent in EXISTING + EMERGING:
        for tok in LABEL_TOKENS[intent]:
            if tok not in vectors:  # "search" and "book" keep their first owner
                vectors[tok] = centre_of[intent] + rng.normal(scale=LABEL_NOISE, size=DIM)
    # RateBook's label mean (rate + book) / 2 must land on its parent's
    # centre although "book" belongs to BookRestaurant.
    vectors["rate"] = 2 * centres["SearchCreativeWork"] - vectors["book"] + rng.normal(scale=LABEL_NOISE, size=DIM)
    for intent in EXISTING + EMERGING:  # label tokens also occur as keywords
        keywords[intent] = keywords[intent] + [t for t in LABEL_TOKENS[intent] if t != "to"]

    filler = _pseudo_words(rng, FILLER_WORDS, taken)
    filler_vecs = rng.normal(scale=CENTRE_SCALE, size=(FILLER_WORDS, DIM))
    n_oov = int(OOV_SHARE * FILLER_WORDS)
    for word, row in zip(filler[n_oov:], filler_vecs[n_oov:]):
        vectors[word] = row

    def utterance(intent: str) -> list[str]:
        length = int(rng.integers(MIN_LEN, MAX_LEN + 1))
        words = [filler[i] for i in rng.integers(FILLER_WORDS, size=length)]
        if rng.random() < FILLER_ONLY_SHARE:
            return words
        own = keywords[intent]
        parent = keywords.get(PARENT.get(intent, ""), own)
        slots = np.nonzero(rng.random(length) < KEYWORD_PROB)[0].tolist() or [int(rng.integers(length))]
        for pos in slots:
            pool = parent if rng.random() < PARENT_KEYWORD_PROB and intent in PARENT else own
            words[pos] = pool[rng.integers(len(pool))]
        return words

    data_dir = out_dir / "data"
    counts = {"existing": 0, "emerging": 0}
    for domain, intents, per_intent in (
        ("existing", EXISTING, profile.existing_per_intent),
        ("emerging", EMERGING, profile.emerging_per_intent),
    ):
        for intent in intents:
            samples = [{"data": _spans(rng, utterance(intent))} for _ in range(per_intent)]
            d = data_dir / intent
            d.mkdir(parents=True, exist_ok=True)
            (d / f"train_{intent}_full.json").write_text(json.dumps({intent: samples}), encoding="utf-8")
            counts[domain] += per_intent

    words = sorted(vectors)
    real_lines = _format_rows(np.stack([vectors[w] for w in words]).astype(np.float32))
    n_distractors = max(profile.vector_lines - len(words), 0)
    pool = _format_rows(rng.normal(scale=CENTRE_SCALE, size=(DISTRACTOR_POOL, DIM)).astype(np.float32))
    distractors = _pseudo_words(rng, n_distractors, taken)
    picks = rng.integers(DISTRACTOR_POOL, size=n_distractors)
    lines = [f"{w} {v}" for w, v in zip(words, real_lines)]
    lines += [f"{w} {pool[i]}" for w, i in zip(distractors, picks.tolist())]
    order = rng.permutation(len(lines))
    vectors_path = out_dir / "vectors.txt"
    with open(vectors_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines[i] for i in order.tolist()))
        fh.write("\n")
    return Inputs(
        data_dir=data_dir,
        vectors_path=vectors_path,
        vector_lines=len(lines),
        existing_utterances=counts["existing"],
        emerging_utterances=counts["emerging"],
    )
