"""Per-op reference vocabulary for the tests.

Each op is a free function that records one node with `autodiff._result`
and a hand-written VJP. The library's graph nodes are fused layers (the
BiLSTM, the attention matrix, routing, ...); the tests build the same
computations out of these small ops and compare values and gradients,
bit for bit where the fused node makes the same numpy calls. Elementwise
ops follow numpy broadcasting. The first operand of a binary op is a
Tensor; a plain number or array second operand becomes a constant of the
first operand's dtype.

`words_of` is the tokenizer's reference: the rule `data.words_of` keeps,
stated on `str` alone. `load_embeddings` is the vectors reader's
reference: the per-line reader that `data.load_embeddings`' block scan
replaced, kept as it was (it shares `data._parse_rows`, the value
parser both use).
"""

from __future__ import annotations

import string
from pathlib import Path
from typing import Sequence

import numpy as np

from capsnlu.autodiff import ContractError, DegenerateRowError, DimensionError, Tensor, _result
from capsnlu.data import (
    _PARSE_ROWS,
    _UNDECODED,
    OOV_TOKEN,
    PAD_TOKEN,
    EmbeddingTable,
    EmptySourceError,
    ParseError,
    _is_header,
    _parse_rows,
)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.values.dtype))


# ----------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)

    def vjp(g):
        return (
            _unbroadcast(g, a.values.shape) if a.requires_grad else None,
            _unbroadcast(g, b.values.shape) if b.requires_grad else None,
        )

    return _result(a.values + b.values, "add", (a, b), vjp)


def sub(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)

    def vjp(g):
        return (
            _unbroadcast(g, a.values.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.values.shape) if b.requires_grad else None,
        )

    return _result(a.values - b.values, "sub", (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)

    def vjp(g):
        return (
            _unbroadcast(g * b.values, a.values.shape) if a.requires_grad else None,
            _unbroadcast(g * a.values, b.values.shape) if b.requires_grad else None,
        )

    return _result(a.values * b.values, "mul", (a, b), vjp)


def div(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)

    def vjp(g):
        ga = _unbroadcast(g / b.values, a.values.shape) if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape)
        return ga, gb

    return _result(a.values / b.values, "div", (a, b), vjp)


def matmul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    if a.values.ndim < 2 or b.values.ndim < 2:
        raise DimensionError(
            f"matmul needs operands of 2 or more dims, got {a.values.shape} and {b.values.shape}"
        )
    if a.values.shape[-1] != b.values.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.values.shape} x {b.values.shape}")
    av, bv = a.values, b.values
    try:
        out = np.matmul(av, bv)
    except ValueError as exc:
        raise DimensionError(f"matmul shapes do not broadcast: {av.shape} x {bv.shape}") from exc

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
        if b.requires_grad:
            gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
        return ga, gb

    return _result(out, "matmul", (a, b), vjp)


# ----------------------------------------------------------------------
# elementwise maps


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.values)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return _result(y, "tanh", (x,), vjp)


def square(x: Tensor) -> Tensor:
    xv = x.values

    def vjp(g):
        return (2.0 * g * xv,)

    return _result(xv * xv, "square", (x,), vjp)


def sqrt(x: Tensor) -> Tensor:
    y = np.sqrt(x.values)

    def vjp(g):
        # d sqrt/dx blows up at 0; the zero limit is what vector norms of
        # an all-zero vector need
        out = np.zeros_like(y)
        np.divide(0.5 * g, y, out=out, where=y > 0)
        return (out,)

    return _result(y, "sqrt", (x,), vjp)


# ----------------------------------------------------------------------
# reductions and shape surgery


def sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    xv = x.values
    out = np.asarray(xv.sum(axis=axis, keepdims=keepdims))

    def vjp(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        return (np.broadcast_to(gg, xv.shape),)

    return _result(out, "sum", (x,), vjp)


def reshape(x: Tensor, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    xv = x.values
    out = xv.reshape(shape)

    def vjp(g):
        return (g.reshape(xv.shape),)

    return _result(out, "reshape", (x,), vjp)


def swapaxes(x: Tensor, a: int, b: int) -> Tensor:
    out = np.swapaxes(x.values, a, b)

    def vjp(g):
        return (np.swapaxes(g, a, b),)

    return _result(out, "swapaxes", (x,), vjp)


def index(x: Tensor, key) -> Tensor:
    """x[key] for basic indexing (ints and slices, e.g. ``np.s_[:, 1]``);
    the result may be a view, which is safe because values are never
    mutated inside a graph."""
    xv = x.values
    out = np.asarray(xv[key])

    def vjp(g):
        buf = np.zeros_like(xv)
        buf[key] += g
        return (buf,)

    return _result(out, "slice", (x,), vjp)


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    """Juxtapose two tensors along `axis`; other extents must agree."""
    av, bv = a.values, b.values
    if av.ndim != bv.ndim:
        raise DimensionError(f"concat rank mismatch: {av.shape} vs {bv.shape}")
    ax = axis % av.ndim
    for i, (m, n) in enumerate(zip(av.shape, bv.shape)):
        if i != ax and m != n:
            raise DimensionError(f"concat shapes {av.shape} and {bv.shape} differ off axis {axis}")
    out = np.concatenate([av, bv], axis=ax)
    na = av.shape[ax]

    def vjp(g):
        sl = [slice(None)] * g.ndim
        sl[ax] = slice(0, na)
        ga = g[tuple(sl)]
        sl[ax] = slice(na, None)
        gb = g[tuple(sl)]
        return (
            ga if a.requires_grad else None,
            gb if b.requires_grad else None,
        )

    return _result(out, "concat", (a, b), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    ts = tuple(tensors)
    if not ts:
        raise ContractError("stack needs at least one tensor")
    shape0 = ts[0].values.shape
    for t in ts[1:]:
        if t.values.shape != shape0:
            raise DimensionError(f"stack shapes differ: {shape0} vs {t.values.shape}")
    out = np.stack([t.values for t in ts], axis=axis)

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) if t.requires_grad else None for i, t in enumerate(ts))

    return _result(out, "stack", ts, vjp)


# ----------------------------------------------------------------------
# softmax


def softmax(x: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Stabilized softmax along `axis`.

    `mask` (broadcastable boolean, True = keep) forces masked positions to
    exactly 0 and normalizes over the rest. A row with nothing to keep is
    an error.
    """
    vals = x.values
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), vals.shape)
        if not m.any(axis=axis).all():
            raise DegenerateRowError("softmax row with every position masked")
        shifted = np.where(m, vals, -np.inf)
        mx = shifted.max(axis=axis, keepdims=True)
        e = np.exp(shifted - mx)
    else:
        mx = vals.max(axis=axis, keepdims=True)
        e = np.exp(vals - mx)
    denom = e.sum(axis=axis, keepdims=True)
    y = e / denom

    def vjp(g):
        if not x.requires_grad:
            return (None,)
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _result(y, "softmax", (x,), vjp)


def row_softmax(x: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis: each row sums to 1 over unmasked spots."""
    return softmax(x, axis=-1, mask=mask)


# ----------------------------------------------------------------------
# tokenizer

_PUNCT_TABLE = str.maketrans({c: " " for c in string.punctuation})


def words_of(text: str) -> list[str]:
    """Lowercase, make each ASCII punctuation mark a space, and split on
    Unicode whitespace, all on `str`."""
    return text.lower().translate(_PUNCT_TABLE).split()


# ----------------------------------------------------------------------
# word vectors


def _text_lines(path: Path):
    """Yield (lineno, line) over the lines of `path` as UTF-8 text, from 1.
    Lines end only at LF, CRLF or CR (each read as "\\n"), and a leading
    byte-order mark is dropped. A line that holds a byte that is not
    UTF-8 raises ParseError naming it."""
    with open(path, "r", encoding="utf-8", errors="capsnlu.undecoded") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno == 1:
                line = line.removeprefix("\ufeff")  # a byte-order mark is not part of the first line
                if not line:  # the mark was all the file held
                    return
            if _UNDECODED in line:  # a lone surrogate: valid UTF-8 never decodes to one
                raise ParseError(f"{path}:{lineno}: not UTF-8 text")
            yield lineno, line


def load_embeddings(
    path,
    expected_dim: int,
    seed: int = 0,
    restrict_to: set[str] | None = None,
    dtype=np.float32,
) -> EmbeddingTable:
    """Read `word v1 .. vD` lines into an EmbeddingTable, one decoded text
    line at a time, by the grammar `data.load_embeddings` documents."""
    path = Path(path)
    vocab: dict[str, int] = {}
    blocks: list[np.ndarray] = []
    pending: list[str] = []  # value strings of kept lines not yet parsed
    linenos: list[int] = []

    def flush():
        nonlocal pending, linenos
        if pending:  # cleared before the parse, so a failed chunk is not parsed again
            chunk, at, pending, linenos = pending, linenos, [], []
            blocks.append(_parse_rows(path, chunk, at, dtype))

    try:
        for lineno, line in _text_lines(path):
            if line.isspace() or (lineno == 1 and _is_header(line)):
                continue
            fields = line.rstrip("\n")
            if fields.count(" ") != expected_dim or "\t" in fields:
                # some vector files use general whitespace (a tab among
                # spaces would hide in a word or value); normalise it
                fields = " ".join(line.split())
                if fields.count(" ") != expected_dim:
                    raise ParseError(
                        f"{path}:{lineno}: expected a word and {expected_dim} values, "
                        f"got {fields.count(' ') + 1} fields"
                    )
            word, _, values = fields.partition(" ")
            if word in vocab or (restrict_to is not None and word not in restrict_to):
                continue  # first occurrence wins
            if not values:  # "word " at expected_dim 1: numpy's reader would skip the row
                raise ParseError(f"{path}:{lineno}: non-numeric vector entry")
            if word in (OOV_TOKEN, PAD_TOKEN):  # it would take the reserved row's name
                raise ParseError(f"{path}:{lineno}: {word!r} is a reserved word")
            pending.append(values)
            linenos.append(lineno)
            vocab[word] = len(vocab)
            if len(pending) == _PARSE_ROWS:
                flush()
    except ParseError:
        flush()  # a bad value on an earlier kept line is reported first
        raise
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
