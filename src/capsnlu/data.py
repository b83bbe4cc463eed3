"""Dataset and word-vector ingestion.

Loads pretrained embeddings from text files, tokenizes utterances,
reads the SNIPS-NLU benchmark layout (per-intent JSON files of text
spans) or a plain two-column TSV, and builds label embeddings by
averaging the word vectors of each intent name's tokens. `load_inputs`
turns a RunConfig into a run's table and corpora.
"""

from __future__ import annotations

import io
import json
import logging
import re
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import ContractError
from .config import RunConfig

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
    """Tokenized utterances with integer intent labels, each an index
    into `label_names`."""

    samples: list[tuple[list[int], int]]
    label_names: list[str]
    split_tag: str = "all"

    def __len__(self) -> int:
        return len(self.samples)

    def label_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(self.label_names, 0)
        for _, lab in self.samples:
            counts[self.label_names[lab]] += 1
        return counts

    def subset(self, indices, split_tag: str) -> "Corpus":
        return Corpus([self.samples[i] for i in indices], self.label_names, split_tag)


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
    with np.errstate(over="ignore"):  # an overflowed entry is named by load_embeddings' finite check
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
    PAD is zero. A kept line whose word is one of those two reserved
    names raises ParseError.
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
            if not values:  # "word " at expected_dim 1: numpy's reader would skip the row
                flush()
                raise ParseError(f"{path}:{lineno}: non-numeric vector entry")
            if word in (OOV_TOKEN, PAD_TOKEN):  # it would take the reserved row's name
                flush()
                raise ParseError(f"{path}:{lineno}: {word!r} is a reserved word")
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
    vocab[OOV_TOKEN] = oov_id
    vocab[PAD_TOKEN] = pad_id
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
            text = raw.decode("utf-8-sig")  # a leading byte-order mark is dropped
        except UnicodeDecodeError:
            # the published benchmark files carry some latin-1 bytes
            text = raw.decode("latin-1")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{fpath}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict) or intent not in doc or not isinstance(doc[intent], list):
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
    """Yield (utterance, intent, location) from `utterance<TAB>intent` lines
    of UTF-8 text, a leading byte-order mark dropped; lines end at LF,
    CRLF or CR. A byte that is not UTF-8 raises ParseError naming its
    line."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        before = io.StringIO(exc.object[: exc.start].decode("utf-8"), newline=None).getvalue()
        lineno = before.count("\n") + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text") from exc
    any_row = False
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=1):
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
    return iter_snips_records(p) if p.is_dir() else iter_tsv_records(p)


def _route_records(records, existing_labels, emerging_labels, table):
    """Tokenize each (text, intent, location) record into the existing or
    the emerging corpus by its intent, and log the counts."""
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
    corpus_existing = Corpus(ex_samples, list(existing_labels))
    corpus_emerging = Corpus(em_samples, list(emerging_labels))
    log.info("loaded %d samples (%d existing over %d intents, %d emerging over %d intents)",
             len(ex_samples) + len(em_samples), len(ex_samples), len(existing_labels),
             len(em_samples), len(emerging_labels))
    for name, count in {**corpus_existing.label_counts(), **corpus_emerging.label_counts()}.items():
        log.info("  %-28s %d", name, count)
    return corpus_existing, corpus_emerging


def load_snips(root_path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load the benchmark layout into (existing, emerging) corpora."""
    return _route_records(iter_snips_records(root_path), existing_labels, emerging_labels, table)


def load_tsv(path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load the two-column TSV fallback format into (existing, emerging)."""
    return _route_records(iter_tsv_records(path), existing_labels, emerging_labels, table)


def load_dataset(path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load either format, chosen by path type, into (existing, emerging)."""
    return _route_records(iter_dataset_records(path), existing_labels, emerging_labels, table)


def _record_words(records) -> set[str]:
    return {w for text, _, _ in records for w in words_of(text)}


def dataset_words(path) -> set[str]:
    """All corpus words, for restricting a large embedding file."""
    return _record_words(iter_dataset_records(path))


def require_file(path: str, what: str) -> Path:
    """A configured path that exists: ContractError when none is
    configured, FileNotFoundError when nothing is there."""
    if not path:
        raise ContractError(f"no {what} configured")
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"{what} not found: {p}")
    return p


def load_inputs(cfg: RunConfig):
    """A run's (table, existing, emerging) from its config. Both paths
    are checked first, the dataset's, then the vectors file's. The
    dataset is read once: with `restrict_vocab` its words are the ones
    kept from the vectors file, and its records are then routed into the
    two corpora. The table's intent vectors are those of existing_labels
    + emerging_labels, by `intent_embedding_mode`."""
    data_path = require_file(cfg.dataset_path, "dataset path")
    emb_path = require_file(cfg.embeddings_path, "embeddings file")
    records = list(iter_dataset_records(data_path))
    restrict = _record_words(records) if cfg.restrict_vocab else None
    table = load_embeddings(emb_path, cfg.word_dim, seed=cfg.seed, restrict_to=restrict)
    existing, emerging = list(cfg.existing_labels), list(cfg.emerging_labels)
    table.build_intent_vectors(existing + emerging, mode=cfg.intent_embedding_mode)
    return (table, *_route_records(records, existing, emerging, table))
