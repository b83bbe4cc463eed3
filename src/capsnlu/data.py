"""Dataset and word-vector ingestion.

Loads pretrained embeddings from text files, tokenizes utterances,
reads the SNIPS-NLU benchmark layout (per-intent JSON files of text
spans) or a plain two-column TSV, and builds label embeddings by
averaging the word vectors of each intent name's tokens. `load_inputs`
turns a RunConfig into a run's table and corpora.
"""

from __future__ import annotations

import codecs
import collections
import concurrent.futures
import functools
import itertools
import json
import logging
import mmap
import multiprocessing
import re
import signal
import string
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config
from .autodiff import ContractError
from .config import RunConfig
from .semantic import TokenBatch, id_values

log = logging.getLogger(__name__)

OOV_TOKEN = "<oov>"
PAD_TOKEN = "<pad>"

_PUNCT_BYTES = bytes.maketrans(string.punctuation.encode("ascii"), b" " * len(string.punctuation))
_CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|\d+")
_PARSE_ROWS = 1024  # kept vector rows per numpy parse call
# chunks the helper process holds at most: one to parse, one queued; the
# rest parse here (with every full chunk sent, a 50k-row load read 1.1-1.2x
# the inline parse's time, against 0.65x with this cap)
_HELPER_CHUNKS = 2
_UNDECODED = "\udcff"  # what each run of bytes that is not UTF-8 is decoded to
_BLOCK_BYTES = 1 << 17  # bytes per read of a vectors file: a block and its masks stay in L2
_RESERVED = (OOV_TOKEN.encode(), PAD_TOKEN.encode())
# the bytes that can start a word that is not all whitespace: all but
# space, the ASCII controls and the lead bytes of the other whitespace
# code points (U+0085 and U+00A0; U+1680; U+2000..U+205F; U+3000)
_WORD_HEAD = np.ones(256, dtype=bool)
_WORD_HEAD[: 0x20 + 1] = False
_WORD_HEAD[[0xC2, 0xE1, 0xE2, 0xE3]] = False
codecs.register_error("capsnlu.undecoded", lambda exc: (_UNDECODED, exc.end))


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
    into `label_names`.

    On first batched use (`lengths` or `batch`) the corpus packs every
    utterance's ids into one array (see `semantic.id_values`), with each
    utterance's start and length, once; `samples` is read-only from then
    on, since the packed ids do not follow a change to it."""

    samples: list[tuple[list[int], int]]
    label_names: list[str]
    split_tag: str = "all"

    def __len__(self) -> int:
        return len(self.samples)

    @functools.cached_property
    def _packed(self) -> tuple:
        """(values, starts, lengths) of the corpus's ids, in corpus order."""
        lengths = np.fromiter((len(ids) for ids, _ in self.samples), dtype=np.int64, count=len(self.samples))
        values = id_values(list(itertools.chain.from_iterable(ids for ids, _ in self.samples)))
        return values, np.cumsum(lengths) - lengths, lengths

    @property
    def lengths(self) -> np.ndarray:
        """Each utterance's number of ids (int64), in corpus order."""
        return self._packed[2]

    def batch(self, indices) -> TokenBatch:
        """The utterances at `indices` (an int array), in that order, cut
        from the packed ids by numpy indexing alone."""
        values, starts, lengths = self._packed
        lengths = lengths[indices]
        ends = np.cumsum(lengths)
        at = np.repeat(starts[indices] - ends + lengths, lengths) + np.arange(ends[-1] if ends.size else 0)
        return TokenBatch(values[at], lengths)

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
    """Lowercase, make each ASCII punctuation mark a space, and split on
    Unicode whitespace. The lowercasing runs on the `str`, so Unicode case
    rules (the final sigma, say) apply; the punctuation is mapped on the
    UTF-8 bytes, which gives the same words, since UTF-8 never puts an
    ASCII byte inside a multi-byte sequence ("surrogatepass" carries a
    lone surrogate through)."""
    raw = text.lower().encode("utf-8", "surrogatepass")
    return raw.translate(_PUNCT_BYTES).decode("utf-8", "surrogatepass").split()


def tokenize(utterance: str, table: EmbeddingTable) -> list[int]:
    """Map an utterance to word ids; unknown words get the OOV id."""
    words = words_of(utterance)
    if not words:
        raise EmptyUtteranceError(f"utterance reduced to zero tokens: {utterance!r}")
    return list(map(table.vocab.get, words, itertools.repeat(table.oov_id)))


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


def _as_dtype(block: np.ndarray, dtype, copy: bool = False) -> np.ndarray:
    with np.errstate(over="ignore"):  # an overflowed entry is named by load_embeddings' finite check
        return block.astype(dtype, copy=copy)


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
    return _as_dtype(block, dtype)


_helper_slots = None  # in the helper process: the result slots it shares with the reader


def _init_helper(slots: np.ndarray):
    """Start the helper process: keep the result slots, and ignore Ctrl-C,
    which is the parent's to handle (it shuts the helper down)."""
    global _helper_slots
    _helper_slots = slots
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _parse_into(slot: int, lines: list[str]):
    """The helper's task: one full chunk's values, parsed by `_read_values`
    into result slot `slot`. The values go back through shared memory: a
    result sent through the pipe is read 64 KiB at a time by a thread of
    the parent that waits for the GIL between reads, and while the parent
    ran Python that took ~210 ms per chunk of 1024 300-dim rows, against
    ~35 ms for the parse (2-vCPU host)."""
    _helper_slots[slot] = _read_values(lines)


def _may_fork() -> bool:
    """Whether the vectors reader may start its helper process: the
    process may use two CPUs or more, can fork, and runs no other thread
    that a fork would copy in the middle of its work."""
    return (
        config.usable_cpus() >= 2
        and "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    )


def _checked_text(path: Path, lineno: int, line: str) -> str:
    """`line` without the byte-order mark that may lead line 1; ParseError
    if it holds a byte that is not UTF-8 (read as `_UNDECODED`)."""
    if lineno == 1:
        line = line.removeprefix("\ufeff")  # a byte-order mark is not part of the first line
    if _UNDECODED in line:  # a lone surrogate: valid UTF-8 never decodes to one
        raise ParseError(f"{path}:{lineno}: not UTF-8 text")
    return line


def _text_lines(path: Path):
    """Yield (lineno, line) over the lines of `path` as UTF-8 text, from 1.
    Lines end only at LF, CRLF or CR (each read as "\\n"), and a leading
    byte-order mark is dropped. A line that holds a byte that is not
    UTF-8 raises ParseError naming it."""
    with open(path, "r", encoding="utf-8", errors="capsnlu.undecoded") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = _checked_text(path, lineno, line)
            if not line:  # a byte-order mark was all the file held
                return
            yield lineno, line


def _line_runs(fh):
    """Yield the bytes of the binary file `fh` in runs of whole lines: one
    run per read of `_BLOCK_BYTES` that holds a line end (LF or CR), then
    the file's tail. A line longer than a read is joined whole. When a run
    ends at a CR and the next read starts with LF, that LF is dropped:
    the two are one CRLF line end."""
    head: list[bytes] = []  # what was read since the last line end
    cr = False  # the last run ended at a CR that ended its read
    while chunk := fh.read(_BLOCK_BYTES):
        if cr and chunk.startswith(b"\n"):
            chunk = chunk[1:]
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        cr = cut == len(chunk) and chunk.endswith(b"\r")
        if cut:
            head.append(chunk[:cut])
            yield b"".join(head)
            head = [chunk[cut:]] if cut < len(chunk) else []
        else:
            head.append(chunk)
    if tail := b"".join(head):
        yield tail


def _cr_lines(segment: bytes) -> list[str]:
    """The text lines of one LF-free piece of a file: it is decoded as
    UTF-8, each run of bytes that is not UTF-8 read as `_UNDECODED`, and
    split at each CR, which ends a line (a CR at its end ends the last)."""
    text = segment.decode("utf-8", "capsnlu.undecoded")
    if "\r" not in text:  # a search, where split would step through every character
        return [text]
    lines = text.split("\r")
    if text.endswith("\r"):
        lines.pop()
    return lines


class _VectorReader:
    """The kept rows of one vectors file, taken a run of lines at a time in
    file order, their full chunks parsed by a helper process when one runs
    (see load_embeddings); `close` ends the helper."""

    def __init__(self, path: Path, expected_dim: int, restrict_to, dtype):
        self.path, self.dim, self.dtype = path, expected_dim, dtype
        # words are looked up as UTF-8 bytes; a word with a lone surrogate
        # encodes to bytes that are not UTF-8, which no line's word equals
        self.keep = None if restrict_to is None else {
            w.encode("utf-8", "surrogatepass") for w in restrict_to if isinstance(w, str)
        }
        self.words: dict[bytes, None] = {}  # kept words, in id order
        self.blocks: list = []  # the parsed rows, in file order; None where the helper's are due
        self.due: collections.deque = collections.deque()  # (index in blocks, slot, future, chunk, linenos)
        self.pending: list[str] = []  # value strings of kept lines not yet parsed
        self.linenos: list[int] = []
        self.lines = 0  # lines read so far
        self.more = True  # whether the file holds more after the run being scanned
        self.helper = None  # the helper process's executor, once it is started
        self.slots = None  # its result slots: _HELPER_CHUNKS float64 chunks in memory shared with it
        self.use_helper = None  # whether full chunks may go to the helper; decided at the first one
        self.sent = 0  # chunks sent to the helper; chunk k takes slot k % _HELPER_CHUNKS

    def flush(self):
        """Parse the pending rows: a full chunk on the helper when it runs
        and holds fewer than `_HELPER_CHUNKS`, else here."""
        # cleared before the parse, so a failed chunk is not parsed again
        chunk, at, self.pending, self.linenos = self.pending, self.linenos, [], []
        if not chunk:
            return
        self.settle()
        if len(chunk) == _PARSE_ROWS and len(self.due) < _HELPER_CHUNKS and self.start_helper():
            slot = self.sent % _HELPER_CHUNKS  # free: the chunk sent before the one still due is settled
            try:
                future = self.helper.submit(_parse_into, slot, chunk)
            except Exception:  # the helper died (BrokenProcessPool) or could not fork: parse here from now on
                self.use_helper = False
            else:
                self.due.append((len(self.blocks), slot, future, chunk, at))
                self.blocks.append(None)
                self.sent += 1
                return
        self.blocks.append(_parse_rows(self.path, chunk, at, self.dtype))

    def finish(self):
        """Parse every kept row not yet parsed, in file order."""
        self.settle(wait=True)
        self.flush()

    def start_helper(self) -> bool:
        """Whether full chunks may go to the helper. It is started at the
        first full chunk, if the file holds more and `_may_fork`; else, or
        if it fails to start, every chunk is parsed here."""
        if self.use_helper is None:
            self.use_helper = self.more and _may_fork()
            if self.use_helper:
                try:
                    shared = mmap.mmap(-1, _HELPER_CHUNKS * _PARSE_ROWS * self.dim * 8)
                    self.slots = np.frombuffer(shared, np.float64).reshape(_HELPER_CHUNKS, _PARSE_ROWS, self.dim)
                    self.helper = concurrent.futures.ProcessPoolExecutor(
                        max_workers=1,
                        mp_context=multiprocessing.get_context("fork"),
                        initializer=_init_helper,
                        initargs=(self.slots,),
                    )
                except Exception:  # no process-shared semaphores on this host, say
                    self.use_helper = False
        return self.use_helper

    def settle(self, wait: bool = False):
        """Take the helper's chunks in file order while the oldest is done,
        or with `wait` all of them, cast to `dtype` as `_parse_rows` does.
        A chunk the helper failed on, by a bad value or by dying, is parsed
        again here, which names its first bad line; the chunks still due
        then hold later lines and are dropped."""
        while self.due and (wait or self.due[0][2].done()):
            index, slot, future, chunk, at = self.due.popleft()
            try:
                future.result()
            except Exception:
                try:
                    self.blocks[index] = _parse_rows(self.path, chunk, at, self.dtype)
                except ParseError:
                    self.due.clear()
                    raise
            else:  # a copy: the slot takes a later chunk
                self.blocks[index] = _as_dtype(self.slots[slot], self.dtype, copy=True)

    def close(self):
        """End the helper, if it was started, and wait for its process."""
        if self.helper is not None:
            self.helper.shutdown(cancel_futures=True)

    def offer(self, lineno: int, word: bytes, values: str):
        """Keep a record's row unless its word is already kept or not in
        `restrict_to`."""
        if word in self.words or (self.keep is not None and word not in self.keep):
            return  # first occurrence wins
        if not values:  # "word " at expected_dim 1: numpy's reader would skip the row
            raise ParseError(f"{self.path}:{lineno}: non-numeric vector entry")
        if word in _RESERVED:  # it would take the reserved row's name
            raise ParseError(f"{self.path}:{lineno}: {word.decode()!r} is a reserved word")
        self.pending.append(values)
        self.linenos.append(lineno)
        self.words[word] = None
        if len(self.pending) == _PARSE_ROWS:
            self.flush()

    def line(self, lineno: int, line: str):
        """Read one text line (without its line end) by the full grammar."""
        line = _checked_text(self.path, lineno, line)
        if not line or line.isspace() or (lineno == 1 and _is_header(line)):
            return
        fields = line
        if fields.count(" ") != self.dim or "\t" in fields:
            # some vector files use general whitespace (a tab among
            # spaces would hide in a word or value); normalise it
            fields = " ".join(line.split())
            if fields.count(" ") != self.dim:
                raise ParseError(
                    f"{self.path}:{lineno}: expected a word and {self.dim} values, "
                    f"got {fields.count(' ') + 1} fields"
                )
        word, _, values = fields.partition(" ")
        self.offer(lineno, word.encode(), values)

    def scan(self, run: bytes):
        """Read one run of whole lines. A line is a regular record when it
        is not line 1, has no tab and no CR, a first byte that can start a
        word that is not all whitespace, and either exactly `dim` spaces
        or (word2vec.c's and fastText's layout) `dim` + 1 with one at its
        end, no two in a row and no other byte below 0x20 or above 0x7F.
        A record is split at its first space, on the bytes, and only a
        kept record's values are decoded. An empty line is skipped. Every
        other line, and every line of a run that is not UTF-8, is decoded
        and read by `line`."""
        arr = np.frombuffer(run, np.uint8)
        ends = np.flatnonzero(arr == 10)  # each line's LF, or the run's end
        if not ends.size or ends[-1] != len(run) - 1:
            ends = np.append(ends, len(run))
        starts = np.empty_like(ends)
        starts[0] = 0
        starts[1:] = ends[:-1] + 1
        # a uint16 count per line is the fast sum; a line that could hold
        # 65536 spaces (or tabs) would wrap it
        count = np.int64 if len(run) > 0xFFFF and int((ends - starts).max()) > 0xFFFF else np.uint16
        space = arr == 32
        spaces = np.add.reduceat(space, starts, dtype=count)
        worded = _WORD_HEAD[arr[starts]]
        regular = (spaces == self.dim) & worded
        if regular.any() and (b"\t" in run or b"\r" in run):
            regular &= np.add.reduceat((arr == 9) | (arr == 13), starts, dtype=count) == 0
        lasts = ends  # where each record's values end
        trailing = (spaces == self.dim + 1) & worded & (arr[ends - 1] == 32)
        if trailing.any():
            # str.split reads such a line as dim spaces; only these bytes
            # (and its LF) keep it from splitting anywhere else
            odd = arr.view(np.int8) < 32  # a control byte or a byte above 0x7F
            odd[1:] |= space[1:] & space[:-1]  # a space after a space
            trailing &= np.add.reduceat(odd, starts, dtype=count) == (ends < len(run))
            regular |= trailing
            lasts = ends - trailing
        if not self.lines:
            regular[0] = False  # line 1 may be a header or start with a byte-order mark
        if regular.any() and not run.isascii():
            try:
                run.decode("utf-8")
            except UnicodeDecodeError:
                regular[:] = False  # `line` names the first line that is not UTF-8
        records = np.flatnonzero(regular)
        firsts, lasts = starts[records].tolist(), lasts[records].tolist()
        heads = list(map(run.find, itertools.repeat(b" "), firsts, lasts))  # each record's first space
        words = list(map(run.__getitem__, map(slice, firsts, heads)))
        todo = ~regular & (starts != ends)  # an empty line is blank
        if self.keep is None:
            todo |= regular
        else:
            todo[records[np.fromiter(map(self.keep.__contains__, words), bool, len(words))]] = True
        todo = np.flatnonzero(todo)
        starts, ends, regular = starts.tolist(), ends.tolist(), regular.tolist()
        lineno = self.lines + 1  # line `i` of the run is lineno + i, plus the lines CRs ended
        for i, j in zip(todo.tolist(), np.searchsorted(records, todo).tolist()):
            if regular[i]:
                self.offer(lineno + i, words[j], run[heads[j] + 1 : lasts[j]].decode())
                continue
            segment = run[starts[i] : ends[i]]
            if segment.isspace():  # blank lines: one, plus one per CR before its end
                lineno += segment.count(b"\r") - segment.endswith(b"\r")
                continue
            lines = _cr_lines(segment)
            for k, line in enumerate(lines):
                self.line(lineno + i + k, line)
            lineno += len(lines) - 1
        self.lines = lineno + len(starts) - 1

    def table(self, seed: int) -> EmbeddingTable:
        """The table of the kept rows, plus the OOV row drawn from `seed`
        and the zero PAD row."""
        if not self.blocks:
            raise EmptySourceError(f"{self.path}: no embedding records")
        vocab = {word.decode(): i for i, word in enumerate(self.words)}
        rng = np.random.default_rng(seed)
        bound = 0.5 / self.dim
        oov_vec = rng.uniform(-bound, bound, size=self.dim).astype(self.dtype)
        pad_vec = np.zeros(self.dim, dtype=self.dtype)
        oov_id = len(vocab)
        pad_id = oov_id + 1
        vocab[OOV_TOKEN] = oov_id
        vocab[PAD_TOKEN] = pad_id
        vectors = np.vstack(self.blocks + [oov_vec, pad_vec])
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            word = list(vocab)[int(np.argmin(finite))]  # insertion order is id order
            raise ParseError(f"{self.path}: word {word!r} has a non-finite vector entry")
        return EmbeddingTable(vocab=vocab, vectors=vectors, oov_id=oov_id, pad_id=pad_id)


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
    `expected_dim` values, else ParseError. A line is split at single
    spaces when it holds `expected_dim` of them and no tab, else at runs
    of any whitespace. Duplicate words keep their
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
    ParseError on a kept line and is ignored on a dropped one. A kept
    line whose word is the reserved `<oov>` or `<pad>` raises ParseError,
    and so does a byte that is not UTF-8 on any line, kept or dropped;
    errors name the first bad line in file order. Lines end only at LF,
    CRLF or CR, so a word may hold U+2028, U+0085, VT, FF or FS/GS/RS,
    and a byte-order mark before line 1 is dropped.
    The OOV vector is drawn uniformly from [-0.5/D, 0.5/D] with the run
    seed; PAD is zero.

    The file is scanned in binary blocks of `_BLOCK_BYTES`: per block,
    one ASCII (else UTF-8) check, one newline search and one numpy sum of
    every line's spaces. A line with no tab or CR and a word that is not
    all whitespace is a record when it holds exactly `expected_dim`
    spaces, or one more at its end (word2vec.c's and fastText's layout)
    with no two in a row, no byte below 0x20 and no non-ASCII byte. A
    record is split on its bytes and its word looked up as UTF-8 bytes;
    only the values of kept lines are decoded. An empty line is skipped. Every
    other line (line 1, a blank line, other whitespace, a wrong field
    count, CR or CRLF line ends, a byte that is not UTF-8) is decoded and
    read by the full grammar, one line at a time. So the grammar, the
    kept rows, their ids and every error are those of a reader that
    reads every line that way.

    On a process that may use two CPUs or more (`config.usable_cpus`),
    can fork and runs no other thread, the first full chunk of kept rows
    that has more of the file after its read starts one helper process,
    a fork (a one-worker ProcessPoolExecutor), and the scan goes on while
    the helper parses. It takes each full chunk while it holds fewer than
    `_HELPER_CHUNKS`, and writes the float64 values into memory it shares
    with the reader; the reader parses the other chunks, and the last
    partial one, itself, and casts every chunk to `dtype` in file order,
    so the table's bytes are those of an inline parse. A chunk the helper
    fails on, by a bad value or by dying, is parsed again inline, which
    names its first bad line, and a grammar error first waits for the
    chunks before it, so the first bad line in file order is still the
    one named. The helper costs one fork and the copy-on-write pages it
    touches, and is shut down, its process waited for, before the call
    returns or raises, KeyboardInterrupt included. `ru_maxrss` of
    `RUSAGE_SELF` does not count it. Without a second CPU, without
    `fork`, beside another thread, or if the helper cannot start, every
    chunk parses inline.

    ContractError, before the file is opened: `expected_dim` that is not
    a positive int, a `str` `restrict_to` (it would match substrings),
    or a `dtype` that is not a float dtype.
    """
    if isinstance(expected_dim, bool) or not isinstance(expected_dim, (int, np.integer)) or expected_dim < 1:
        raise ContractError(f"expected_dim must be a positive int, got {expected_dim!r}")
    if isinstance(restrict_to, str):
        raise ContractError(f"restrict_to must be a collection of words, not the str {restrict_to!r}")
    try:
        is_float = np.dtype(dtype).kind == "f"
    except TypeError:
        is_float = False
    if not is_float:
        raise ContractError(f"dtype must be a float dtype, got {dtype!r}")
    reader = _VectorReader(Path(path), int(expected_dim), restrict_to, dtype)
    try:
        with open(path, "rb") as fh:
            try:
                for run, after in itertools.pairwise(itertools.chain(_line_runs(fh), [None])):
                    reader.more = after is not None
                    reader.scan(run)
            except ParseError:
                reader.finish()  # a bad value on an earlier kept line is reported first
                raise
        reader.finish()
    finally:
        reader.close()
    return reader.table(seed)


# ----------------------------------------------------------------------
# datasets


def iter_snips_records(root):
    """Yield (utterance_text, intent_name, file_path, sample_index) from the
    benchmark layout.

    `root` holds one directory per intent, each with a
    train_<Intent>_full.json file whose samples are ordered lists of
    {"text": ...} spans; the utterance is the concatenation of the spans.
    A root with no intent directory, or whose files hold no sample, raises
    EmptySourceError naming it, as an empty TSV file does.
    """
    root = Path(root)
    intent_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not intent_dirs:
        raise EmptySourceError(f"{root}: no intent directories")
    any_sample = False
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
                text = "".join([span["text"] for span in spans])
            except (TypeError, KeyError) as exc:
                raise ParseError(f"{fpath}: sample {i}: span without text") from exc
            any_sample = True
            yield text, intent, fpath, i
    if not any_sample:
        raise EmptySourceError(f"{root}: no intent file holds a sample")


def iter_tsv_records(path):
    """Yield (utterance, intent, path, lineno) from `utterance<TAB>intent` lines
    read by `_text_lines`. The file is streamed: the records before the
    first bad line in file order are yielded, then ParseError names it."""
    path = Path(path)
    any_row = False
    for lineno, line in _text_lines(path):
        if line.isspace():
            continue
        cols = line.rstrip("\n").split("\t")
        if len(cols) != 2:
            raise ParseError(f"{path}:{lineno}: expected 2 tab-separated columns, got {len(cols)}")
        any_row = True
        yield cols[0], cols[1], path, lineno
    if not any_row:
        raise EmptySourceError(f"{path}: no samples")


def iter_dataset_records(path):
    """SNIPS directory layout or TSV file, chosen by path type."""
    p = Path(path)
    return iter_snips_records(p) if p.is_dir() else iter_tsv_records(p)


def _route_records(records, existing_labels, emerging_labels, table):
    """Tokenize each (text, intent, path, index) record into the existing
    or the emerging corpus by its intent, and log the counts at INFO. An
    error names the record as ``path:index``."""
    if set(existing_labels) & set(emerging_labels):
        raise ContractError("existing and emerging label sets overlap")
    existing_idx = {name: i for i, name in enumerate(existing_labels)}
    emerging_idx = {name: i for i, name in enumerate(emerging_labels)}
    ex_samples: list[tuple[list[int], int]] = []
    em_samples: list[tuple[list[int], int]] = []
    for text, intent, path, index in records:
        try:
            ids = tokenize(text, table)
        except EmptyUtteranceError as exc:
            raise ParseError(f"{path}:{index}: {exc}") from exc
        if intent in existing_idx:
            ex_samples.append((ids, existing_idx[intent]))
        elif intent in emerging_idx:
            em_samples.append((ids, emerging_idx[intent]))
        else:
            raise LabelMappingError(
                f"{path}:{index}: intent {intent!r} is neither an existing nor an emerging label"
            )
    corpus_existing = Corpus(ex_samples, list(existing_labels))
    corpus_emerging = Corpus(em_samples, list(emerging_labels))
    if log.isEnabledFor(logging.INFO):  # the per-intent counts serve only these lines
        log.info("loaded %d samples (%d existing over %d intents, %d emerging over %d intents)",
                 len(ex_samples) + len(em_samples), len(ex_samples), len(existing_labels),
                 len(em_samples), len(emerging_labels))
        for name, count in {**corpus_existing.label_counts(), **corpus_emerging.label_counts()}.items():
            log.info("  %-28s %d", name, count)
    return corpus_existing, corpus_emerging


def load_snips(root_path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load the benchmark layout into (existing, emerging) corpora."""
    return _route_records(iter_snips_records(root_path), existing_labels, emerging_labels, table)


def load_dataset(path, existing_labels, emerging_labels, table: EmbeddingTable):
    """Load either format, chosen by path type, into (existing, emerging)."""
    return _route_records(iter_dataset_records(path), existing_labels, emerging_labels, table)


def _record_words(records) -> set[str]:
    return {w for text, _, _, _ in records for w in words_of(text)}


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
    dataset is read once: with `restrict_vocab` its words and every
    label's tokens are the ones kept from the vectors file, and its
    records are then routed into the two corpora. The table's intent
    vectors are those of existing_labels + emerging_labels, by
    `intent_embedding_mode`."""
    data_path = require_file(cfg.dataset_path, "dataset path")
    emb_path = require_file(cfg.embeddings_path, "embeddings file")
    records = list(iter_dataset_records(data_path))
    existing, emerging = list(cfg.existing_labels), list(cfg.emerging_labels)
    restrict = None
    if cfg.restrict_vocab:
        restrict = _record_words(records).union(*map(split_label_tokens, existing + emerging))
    table = load_embeddings(emb_path, cfg.word_dim, seed=cfg.seed, restrict_to=restrict)
    table.build_intent_vectors(existing + emerging, mode=cfg.intent_embedding_mode)
    return (table, *_route_records(records, existing, emerging, table))
