"""Dataset and word-vector ingestion.

Loads pretrained embeddings from text files, tokenizes utterances,
reads the SNIPS-NLU benchmark layout (per-intent JSON files of text
spans) or a plain two-column TSV, and builds label embeddings by
averaging the word vectors of each intent name's tokens.
"""

from __future__ import annotations

import json
import logging
import re
import string
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import ContractError

log = logging.getLogger(__name__)

OOV_TOKEN = "<oov>"
PAD_TOKEN = "<pad>"

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")
_PARSE_ROWS = 1024  # kept vector rows per numpy parse call


class ParseError(ValueError):
    """A source file line or record could not be parsed."""


class EmptySourceError(ValueError):
    """A source file contained no usable records."""


class EmptyUtteranceError(ValueError):
    """An utterance reduced to zero tokens."""


class LabelMappingError(ValueError):
    """An intent name is not in the declared label sets."""


@dataclass
class EmbeddingTable:
    """Vocabulary-indexed word vectors plus reserved OOV/PAD entries.

    The PAD vector is all-zero and must never be updated; intent vectors
    are means of the label tokens' word vectors (same dimension).
    """

    vocab: dict[str, int]
    vectors: np.ndarray  # |V| x D_W
    oov_id: int
    pad_id: int
    intent_vectors: np.ndarray | None = None  # (K+L) x D_I

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def word_id(self, word: str) -> int:
        return self.vocab.get(word, self.oov_id)

    def build_intent_vectors(self, labels: list[str], mode: str = "mean") -> np.ndarray:
        """Fill `intent_vectors`, one row per label, in the given order."""
        rows = [intent_embedding(name, self, mode=mode) for name in labels]
        self.intent_vectors = np.stack(rows, axis=0)
        return self.intent_vectors


@dataclass
class Corpus:
    """Tokenized utterances with integer intent labels.

    Sample labels index into `existing_labels` or `emerging_labels`
    according to `domain`; the two name lists are always disjoint.
    """

    samples: list[tuple[list[int], int]]
    existing_labels: list[str]
    emerging_labels: list[str]
    split_tag: str = "all"
    domain: str = "existing"

    @property
    def label_names(self) -> list[str]:
        return self.existing_labels if self.domain == "existing" else self.emerging_labels

    def __len__(self) -> int:
        return len(self.samples)

    def label_counts(self) -> dict[str, int]:
        names = self.label_names
        counts = dict.fromkeys(names, 0)
        for _, lab in self.samples:
            counts[names[lab]] += 1
        return counts

    def subset(self, indices, split_tag: str) -> "Corpus":
        return Corpus(
            samples=[self.samples[i] for i in indices],
            existing_labels=self.existing_labels,
            emerging_labels=self.emerging_labels,
            split_tag=split_tag,
            domain=self.domain,
        )


# ----------------------------------------------------------------------
# tokenization


def words_of(text: str) -> list[str]:
    """Lowercase and split on whitespace, discarding punctuation."""
    return text.lower().translate(_PUNCT_TABLE).split()


def tokenize(utterance: str, table: EmbeddingTable) -> list[int]:
    """Map an utterance to word ids; unknown words get the OOV id."""
    words = words_of(utterance)
    if not words:
        raise EmptyUtteranceError(f"utterance reduced to zero tokens: {utterance!r}")
    return [table.word_id(w) for w in words]


def split_label_tokens(label: str) -> list[str]:
    """Split an intent name on camel-case boundaries, lowercased."""
    parts = _CAMEL_RE.findall(label)
    if not parts:
        raise ContractError(f"intent name {label!r} has no word characters")
    return [p.lower() for p in parts]


def intent_embedding(label: str, table: EmbeddingTable, mode: str = "mean") -> np.ndarray:
    """Label embedding: mean (or sum) of the label tokens' word vectors."""
    if mode not in ("mean", "sum"):
        raise ContractError(f"unknown intent embedding mode {mode!r}")
    ids = [table.word_id(t) for t in split_label_tokens(label)]
    rows = table.vectors[ids]
    return rows.sum(axis=0) if mode == "sum" else rows.mean(axis=0)


# ----------------------------------------------------------------------
# pretrained word vectors


def _is_header(line: str) -> bool:
    """True for a `count dim` line of two integers."""
    head = line.split()
    if len(head) != 2:
        return False
    try:
        int(head[0]), int(head[1])
    except ValueError:
        return False
    return True


def _read_values(lines: list[str]) -> np.ndarray:
    # comments=None: the default "#" would silently cut a row short
    return np.loadtxt(lines, dtype=np.float64, delimiter=" ", comments=None, ndmin=2)


def _parse_rows(path: Path, pending: list[str], linenos: list[int], dtype) -> np.ndarray:
    """The kept rows' value strings, parsed in one call to float64 and
    cast to `dtype`; ParseError names the first line that does not parse."""
    try:
        block = _read_values(pending)
    except ValueError:
        for values, lineno in zip(pending, linenos):
            try:
                _read_values([values])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-numeric vector entry") from exc
        raise
    return block.astype(dtype, copy=False)


def load_embeddings(
    path,
    expected_dim: int,
    seed: int = 0,
    restrict_to: set[str] | None = None,
    dtype=np.float32,
) -> EmbeddingTable:
    """Read `word v1 .. vD` lines into an EmbeddingTable in one pass.

    A first line of two integers ("count dim") is a header and is
    skipped. Every other non-blank line must hold a word and
    `expected_dim` values, else ParseError. Duplicate words keep their
    first occurrence, and `restrict_to` drops words outside the given
    set. The file is streamed and only kept lines are parsed, in chunks
    of `_PARSE_ROWS` rows by numpy's text reader, so memory follows the
    kept rows and multi-gigabyte files stay tractable. Values parse to
    float64 and are then cast to `dtype`, which rounds exactly as
    `float()` followed by the cast. The reader's grammar is `float()`'s
    with three exceptions: it rejects underscore digit separators
    ("1_0") and non-ASCII digits, and it takes the ASCII separators
    U+001C..U+001F around a value as whitespace. A non-numeric or
    non-finite value (nan, inf, or one the dtype overflows) raises
    ParseError on a kept line and is ignored on a dropped one; errors
    name the first bad line in file order. Lines break only at LF, CRLF
    or CR, not at the other separators of `str.splitlines` (U+2028,
    U+0085, VT, FF, FS/GS/RS), so a word may contain those. The OOV
    vector is drawn uniformly from [-0.5/D, 0.5/D] with the run seed;
    PAD is zero.
    """
    path = Path(path)
    vocab: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    pending: list[str] = []  # value strings of kept lines not yet parsed
    linenos: list[int] = []

    def flush():
        if pending:
            blocks.append(_parse_rows(path, pending, linenos, dtype))
            pending.clear()
            linenos.clear()

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace() or (lineno == 1 and _is_header(line)):
                continue
            fields = line.rstrip("\n")
            if fields.count(" ") != expected_dim:
                # some vector files use general whitespace; normalise it
                fields = " ".join(line.split())
                if fields.count(" ") != expected_dim:
                    flush()  # a bad value on an earlier kept line is reported first
                    raise ParseError(
                        f"{path}:{lineno}: expected a word and {expected_dim} values, "
                        f"got {fields.count(' ') + 1} fields"
                    )
            word, _, values = fields.partition(" ")
            if word in vocab or (restrict_to is not None and word not in restrict_to):
                continue  # first occurrence wins
            pending.append(values)
            linenos.append(lineno)
            vocab[word] = len(vocab)
            if len(pending) == _PARSE_ROWS:
                flush()
    flush()

    if not blocks:
        raise EmptySourceError(f"{path}: no embedding records")

    rng = np.random.default_rng(seed)
    bound = 0.5 / expected_dim
    oov_vec = rng.uniform(-bound, bound, size=expected_dim).astype(dtype)
    pad_vec = np.zeros(expected_dim, dtype=dtype)
    oov_id = len(vocab)
    pad_id = oov_id + 1
    vocab.setdefault(OOV_TOKEN, oov_id)
    vocab.setdefault(PAD_TOKEN, pad_id)
    vectors = np.vstack(blocks + [oov_vec, pad_vec])
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        word = list(vocab)[int(np.argmin(finite))]  # insertion order is id order
        raise ParseError(f"{path}: word {word!r} has a non-finite vector entry")
    return EmbeddingTable(vocab=vocab, vectors=vectors, oov_id=oov_id, pad_id=pad_id)


# ----------------------------------------------------------------------
# datasets


def iter_snips_records(root):
    """Yield (utterance_text, intent_name, location) from the benchmark layout.

    `root` holds one directory per intent, each with a
    train_<Intent>_full.json file whose samples are ordered lists of
    {"text": ...} spans; the utterance is the concatenation of the spans.
    """
    root = Path(root)
    intent_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not intent_dirs:
        raise EmptySourceError(f"{root}: no intent directories")
    for d in intent_dirs:
        intent = d.name
        for candidate in (f"train_{intent}_full.json", f"train_{intent}.json"):
            fpath = d / candidate
            if fpath.exists():
                break
        else:
            raise ParseError(f"{d}: no train_{intent}[_full].json file")
        raw = fpath.read_bytes()
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError:
            # the published benchmark files carry some latin-1 bytes
            text = raw.decode("latin-1")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{fpath}: invalid JSON: {exc}") from exc
        if intent not in doc or not isinstance(doc[intent], list):
            raise ParseError(f"{fpath}: expected a top-level {intent!r} sample list")
        for i, sample in enumerate(doc[intent]):
            spans = sample.get("data") if isinstance(sample, dict) else None
            if not isinstance(spans, list):
                raise ParseError(f"{fpath}: sample {i}: missing span list")
            try:
                text = "".join(span["text"] for span in spans)
            except (TypeError, KeyError) as exc:
                raise ParseError(f"{fpath}: sample {i}: span without text") from exc
            yield text, intent, f"{fpath}:{i}"


def iter_tsv_records(path):
    """Yield (utterance, intent, location) from `utterance<TAB>intent` lines."""
    path = Path(path)
    any_row = False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            cols = line.rstrip("\n").split("\t")
            if len(cols) != 2:
                raise ParseError(f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
            any_row = True
            yield cols[0], cols[1], f"{path}:{lineno}"
    if not any_row:
        raise EmptySourceError(f"{path}: no samples")


def iter_dataset_records(path):
    """SNIPS directory layout or TSV file, chosen by path type."""
    p = Path(path)
    if p.is_dir():
        yield from iter_snips_records(p)
    else:
        yield from iter_tsv_records(p)


def _route_records(records, existing_labels, emerging_labels, table):
    if set(existing_labels) & set(emerging_labels):
        raise ContractError("existing and emerging label sets overlap")
    existing_idx = {name: i for i, name in enumerate(existing_labels)}
    emerging_idx = {name: i for i, name in enumerate(emerging_labels)}
    ex_samples: list[tuple[list[int], int]] = []
    em_samples: list[tuple[list[int], int]] = []
    for text, intent, loc in records:
        try:
            ids = tokenize(text, table)
        except EmptyUtteranceError as exc:
            raise ParseError(f"{loc}: {exc}") from exc
        if intent in existing_idx:
            ex_samples.append((ids, existing_idx[intent]))
        elif intent in emerging_idx:
            em_samples.append((ids, emerging_idx[intent]))
        else:
            raise LabelMappingError(
                f"{loc}: intent {intent!r} is neither an existing nor an emerging label"
            )
    corpus_existing = Corpus(ex_samples, list(existing_labels), list(emerging_labels), domain="existing")
    corpus_emerging = Corpus(em_samples, list(existing_labels), list(emerging_labels), domain="emerging")
    return corpus_existing, corpus_emerging


def load_snips(root_path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load the benchmark into (existing, emerging) corpora and log counts."""
    corpus_existing, corpus_emerging = _route_records(
        iter_snips_records(root_path), existing_labels, emerging_labels, table
    )
    total = len(corpus_existing) + len(corpus_emerging)
    log.info(
        "loaded %d samples (%d existing over %d intents, %d emerging over %d intents)",
        total,
        len(corpus_existing),
        len(existing_labels),
        len(corpus_emerging),
        len(emerging_labels),
    )
    for name, count in {**corpus_existing.label_counts(), **corpus_emerging.label_counts()}.items():
        log.info("  %-28s %d", name, count)
    return corpus_existing, corpus_emerging


def load_tsv(path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load the two-column TSV fallback format into (existing, emerging)."""
    return _route_records(iter_tsv_records(path), existing_labels, emerging_labels, table)


def load_dataset(path, existing_labels, emerging_labels, table: EmbeddingTable):
    p = Path(path)
    if p.is_dir():
        return load_snips(p, existing_labels, emerging_labels, table)
    return load_tsv(p, existing_labels, emerging_labels, table)


def dataset_words(path) -> set[str]:
    """All corpus words, for restricting a large embedding file."""
    words: set[str] = set()
    for text, _, _ in iter_dataset_records(path):
        words.update(words_of(text))
    return words
