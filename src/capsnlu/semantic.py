"""Semantic capsules: BiLSTM encoder plus multi-head self-attention.

An utterance of T word vectors becomes a T x 2D_H hidden-state matrix H
(forward and backward LSTM states concatenated per position), and each
of R attention heads turns H into one semantic vector:

    A = softmax(w_s2 @ tanh(w_s1 @ H^T))            # R x T, per row
    M = A @ H                                       # R x 2D_H

with an orthogonality penalty ||A A^T - I||_F^2 pushing heads apart.
Callers pass a batch of token-id sequences (leading batch axis B), as a
list or as a `TokenBatch` (the ids flat, with each utterance's length);
a single utterance is a batch of one (B=1), and `attend` and
`semantic_vectors` take any leading axes (A and H sharing theirs).

The encoder gathers only the real tokens' word vectors, packed in
row-major order, plus the pad row once when the batch has pads. The two
LSTM directions and their input projections x @ w_x + b run as one
recurrence in one graph node, `_run_bilstm`: it projects the packed rows
(one GEMM per direction), then `_bilstm_states` gathers the projections
once into a per-position layout, by a B x T grid of row indices in which
a pad slot indexes the pad row, with the backward direction taking each
sequence in reversed order (within its length, pads left in place); a
batch without pads, told from its lengths, is reversed by a slice. It
steps both directions left to right from a zero state and gathers the
backward states back into reading order; backpropagation through time
is the node's hand-written VJP. A projection depends only on the token's
id, so on a frozen model (read-only weights, as `load_model` returns
them) an evaluation forward builds a |V| x 8D_H table of every word's
projections and the stack of both directions' w_h once, on first use,
and `_bilstm_states` gathers from that table directly, with the token
ids as the grid and the pad id at pad slots, without a graph. Either way
the rows are gathered once, straight into the step layout. The
recurrence is gate-major and time-major: step t's inputs and activations
are one contiguous 4 x 2 x B x D_H block (gate, direction), so each
per-step elementwise operation is one numpy call on contiguous memory,
and every step's h @ w_h goes into one buffer. Trailing pads come after
every real token in either direction and never reach a real position's
state. H rows at pad positions are unspecified: the attention gives them
exactly zero weight, so they never reach M or a gradient.

Dropout at training is one graph node on the gathered rows (parent x,
x * keep with the inverted-dropout mask). The attention head is three
graph nodes with hand-written VJPs: A (`attention_matrix`, parents H,
w_s1 and w_s2), the penalty (parent A) and M (`semantic_vectors`,
parents A and H, one product); `attend` builds the first two. The
penalty is a training regulariser, so a forward builds A alone and
leaves the penalty to its first read. Their forwards make the same numpy
calls as a graph of per-op reference ops would, so their values are
bitwise those of that graph.
"""

from __future__ import annotations

import itertools
import numbers
import sys
import threading
from dataclasses import dataclass, field
from decimal import Decimal
from typing import NamedTuple

import numpy as np

from .autodiff import ContractError, DegenerateRowError, DimensionError, Tensor, _grad_enabled, _result


@dataclass
class LstmParams:
    """Fused gate parameters, gate order (input, forget, output, candidate)."""

    w_x: Tensor  # D_W x 4D_H
    w_h: Tensor  # D_H x 4D_H
    b: Tensor    # 1   x 4D_H

    def trainable(self, prefix: str):
        return [(f"{prefix}.w_x", self.w_x), (f"{prefix}.w_h", self.w_h), (f"{prefix}.b", self.b)]


@dataclass
class SemanticCapsParams:
    lstm_fw: LstmParams
    lstm_bw: LstmParams
    w_s1: Tensor  # D_A x 2D_H
    w_s2: Tensor  # R   x D_A
    # (the seven arrays they were built from, the |V| x 8D_H projection table, the w_h stack)
    _projections: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def heads(self) -> int:
        return self.w_s2.shape[0]

    def trainable(self):
        return (
            self.lstm_fw.trainable("lstm_fw")
            + self.lstm_bw.trainable("lstm_bw")
            + [("w_s1", self.w_s1), ("w_s2", self.w_s2)]
        )


# ----------------------------------------------------------------------
# recurrence


def _input_projections(xv: np.ndarray, fw: LstmParams, bw: LstmParams) -> np.ndarray:
    """x @ w_x + b of both directions for every row of `xv`: one GEMM per
    direction, written into the two halves of one rows x 8D_H buffer
    (forward first), biases added in place."""
    four_dh = fw.w_x.shape[1]
    proj = np.empty((xv.shape[0], 2 * four_dh), dtype=xv.dtype)
    for part, p in ((proj[:, :four_dh], fw), (proj[:, four_dh:], bw)):
        np.matmul(xv, p.w_x.values, out=part)
        part += p.b.values
    return proj


def _reversal_grid(lengths, steps: int):
    """(rows, real, src) of a B x T batch: B x 1 utterance ids, the real
    positions' mask, and each slot's position with each utterance's real
    positions reversed (pads stay), its own inverse."""
    lengths = np.asarray(lengths)[:, None]
    pos = np.arange(steps)
    real = pos < lengths
    return np.arange(lengths.size)[:, None], real, np.where(real, lengths - 1 - pos, pos)


def _bilstm_states(source: np.ndarray, slots: np.ndarray, wv: np.ndarray, lengths, keep: bool = False):
    """Both LSTM directions from a zero state over gathered input projections.

    `source` holds input-projection rows, each the forward then the
    backward direction's x @ w_x + b, and `slots` is a B x T grid of row
    indices into it (T the longest of `lengths`): position t of utterance
    b reads row slots[b, t], and a pad slot (t >= lengths[b]) indexes the
    pad row. `wv` is the 2 x D_H x 4D_H stack of the forward and backward
    w_h. Returns (H, saved): H is B x T x 2D_H, forward states then
    backward, and `saved` is what the VJP of `_run_bilstm` reads: (grid,
    states, kept), grid the `_reversal_grid` when the batch has pads and
    None without, kept one (z, c_{t-1}, tanh(c_t)) per step when `keep`
    is true and None otherwise (no VJP reads it).

    The rows are gathered once, straight into a T x 4 x 2 x B x D_H
    layout (step, gate, direction): the backward direction takes each
    row's real positions in reverse (pads left in place). Both directions
    then step left to right as one stacked recurrence, and the backward
    states are gathered back into reading order. Each step is the cell

        z = h @ w_h + xw_t;  i, f, o = sigmoid(z_i, z_f, z_o);  g = tanh(z_g)
        c = f * c + i * g;   h = o * tanh(c)

    with sigmoid(z) = 0.5 * (1 + tanh(z / 2)), which cannot overflow.

    The recurrence runs gate-major and time-major, so that every per-step
    elementwise operation reads and writes whole contiguous blocks. A
    step's z is one 4 x 2 x B x D_H array whose gate k is z[k]: the
    product h @ w_h goes into one 2 x B x 4D_H buffer, against the stored
    weights, and its gate-major view, made once, is added to the step's
    inputs, in place over them: step t's inputs are read only there, so
    the gathered layout is the one buffer of activations. Products against
    per-gate D_H x D_H blocks would save the strided read, but BLAS may
    round a narrower product differently, and H must stay bitwise equal to
    the per-step cell: on one-thread OpenBLAS 0.3.31 (Haswell kernels),
    over D_H 1-64 and B in {1, 2, 3, 7, 32, 256}, per-gate products differ
    in float32 at D_H = 4 (B = 1) and most D_H from 33, and in float64 at
    B = 1 for each D_H from 2 not a multiple of 4 and at every B for most
    D_H from 17 (20 among them); D_H = 8, 16, 24, 32, 48 and 64 match. The
    states go to a T x 2 x B x D_H buffer.
    """
    n, steps = slots.shape
    dh = wv.shape[1]
    dtype = source.dtype
    grid = None
    if min(lengths) == steps:
        # no pads (every B=1 request, an eval chunk of one length): one
        # row gather in reading order, then two transposed copies, the
        # backward direction reversed by a slice; the piece gather below
        # costs a B=1 request more in index arithmetic than it saves
        full = np.take(source, slots, axis=0).reshape(n, steps, 2, 4, dh)
        xg = np.empty((steps, 4, 2, n, dh), dtype=dtype)
        xg[:, :, 0] = full[:, :, 0].transpose(1, 2, 0, 3)
        xg[:, :, 1] = full[:, ::-1, 1].transpose(1, 2, 0, 3)
    else:  # one gather of D_H-wide pieces (row, direction, gate)
        grid = rows, _, src = _reversal_grid(lengths, steps)
        both = np.stack([slots, slots[rows, src]]).transpose(2, 0, 1)  # T x 2 x B rows
        pieces = both[:, None] * 8 + np.arange(2)[:, None] * 4 + np.arange(4)[:, None, None]
        xg = np.take(source.reshape(-1, dh), pieces, axis=0)
    half, one = np.array(0.5, dtype), np.array(1.0, dtype)  # 0-d arrays dispatch faster than any scalar
    states = np.empty((steps, 2, n, dh), dtype=dtype)
    prod = np.empty((2, n, 4 * dh), dtype=dtype)
    prod_gates = prod.reshape(2, n, 4, dh).transpose(2, 0, 1, 3)
    h = c = np.zeros((2, n, dh), dtype=dtype)
    kept = [] if keep else None
    for t in range(steps):
        np.matmul(h, wv, out=prod)
        z = np.add(prod_gates, xg[t], out=xg[t])
        sig = z[:3]  # i, f, o
        sig *= half
        np.tanh(z, out=z)
        sig += one
        sig *= half
        c_prev, c = c, z[1] * c
        c += z[0] * z[3]
        tc = np.tanh(c)
        h = np.multiply(z[2], tc, out=states[t])
        if keep:
            kept.append((z, c_prev, tc))
    out = np.empty((n, steps, 2 * dh), dtype=dtype)
    out[..., :dh] = states[:, 0].swapaxes(0, 1)
    out[..., dh:] = states[::-1, 1].swapaxes(0, 1) if grid is None else states[src, 1, rows]
    return out, (grid, states, kept)


def _run_bilstm(x: Tensor, fw: LstmParams, bw: LstmParams, lengths) -> Tensor:
    """Both LSTM directions from a zero state, with their input
    projections, as one graph node.

    x holds the real tokens' word vectors packed in row-major (b, t) order:
    sum(lengths) rows, plus one pad row last when the batch has pads.
    Returns H (B x T x 2D_H), forward states then backward. The parents
    are x, fw.w_x, fw.b, bw.w_x, bw.b, fw.w_h and bw.w_h.

    The forward is `_input_projections` over the packed rows, then
    `_bilstm_states` over them with each position's packed row as its
    slot. A GEMM's rows do not depend on how many rows it has (from 2 up),
    so H is bitwise what the projections of the padded batch give; a batch
    without pads has no pad row, so a lone token stays the one-row product
    it always was.

    The VJP, which reuses the reversal grid of a padded batch's gather or
    builds it, is backpropagation through time over the kept activations,
    cell states and tanh(c). The gate arithmetic of a step runs on a
    contiguous gate-major dz, which is then copied into a direction-major
    2 x B x T x 4D_H buffer. There dh_{t-1} is one GEMM per direction
    against the stored w_h and dw_h one GEMM per direction over every
    step's h_{t-1} and dz. The real positions' rows are then gathered back
    into packed order, and dx, dw_x and db are GEMMs and a sum over those
    rows alone. The pad slots' rows are not gathered, so the pad row's
    gradient is exactly zero: the true gradient whenever none reaches H at
    a pad position, as under `attend`, which gives pads zero attention.
    """
    xv = x.values
    lengths = np.asarray(lengths)
    n, steps, total = lengths.size, int(lengths.max()), int(lengths.sum())
    if xv.shape[0] != total + (total != n * steps):
        raise ContractError(f"{xv.shape[0]} packed rows for lengths summing to {total}")
    slots = np.full((n, steps), total)  # pad slots read the pad row, last
    slots[np.arange(steps) < lengths[:, None]] = np.arange(total)
    wv = np.stack([fw.w_h.values, bw.w_h.values])
    proj = _input_projections(xv, fw, bw)
    out, (grid, states, kept) = _bilstm_states(proj, slots, wv, lengths, keep=True)
    dh = states.shape[-1]
    four_dh = 4 * dh
    dtype = xv.dtype
    one = dtype.type(1.0)

    def vjp(grad):
        rows, real, src = grid or _reversal_grid(lengths, steps)
        w_t = np.swapaxes(wv, -1, -2)
        dstates = np.empty_like(states)
        dstates[:, 0] = grad[..., :dh].swapaxes(0, 1)
        dstates[:, 1] = grad[rows, src, dh:].swapaxes(0, 1)
        dz = np.empty((4, 2, n, dh), dtype=dtype)
        dxw = np.empty((2, n, steps, 4, dh), dtype=dtype)
        dh_next = dc_next = 0.0
        for t in reversed(range(steps)):
            a, c_prev, tc = kept[t]
            dh_t = dstates[t] + dh_next
            dc = dh_t * a[2] * (one - tc * tc) + dc_next
            np.multiply(dc, a[3], out=dz[0])
            np.multiply(dc, c_prev, out=dz[1])
            np.multiply(dh_t, tc, out=dz[2])
            dsig, sig = dz[:3], a[:3]
            dsig *= sig
            dsig *= one - sig
            np.multiply(dc * a[0], one - a[3] * a[3], out=dz[3])
            dzt = dxw[:, :, t]
            np.copyto(dzt, dz.transpose(1, 2, 0, 3))
            dh_next = dzt.reshape(2, n, four_dh) @ w_t
            dc_next = dc * a[1]
        dxw = dxw.reshape(2, n, steps, four_dh)
        dw_h = (None, None)
        if fw.w_h.requires_grad or bw.w_h.requires_grad:
            h_prev = states[:-1].transpose(1, 2, 0, 3).reshape(2, -1, dh)
            dw_h = np.swapaxes(h_prev, -1, -2) @ dxw[:, :, 1:].reshape(2, -1, four_dh)
        # packed row p's forward projection sits at its own position and
        # its backward one at its reversed position
        grads = [np.zeros_like(xv) if x.requires_grad else None]
        for p, g in ((fw, dxw[0][real]), (bw, dxw[1][rows, src][real])):
            if x.requires_grad:
                grads[0][:total] += g @ p.w_x.values.T
            grads.append(xv[:total].T @ g if p.w_x.requires_grad else None)
            grads.append(g.sum(axis=0, keepdims=True) if p.b.requires_grad else None)
        return (*grads, *dw_h)

    return _result(out, "bilstm", (x, fw.w_x, fw.b, bw.w_x, bw.b, fw.w_h, bw.w_h), vjp)


_PROJECTION_LOCK = threading.Lock()  # held while a projection table is built


def _is_current(cached: tuple | None, sources: tuple) -> bool:
    return cached is not None and all(a is b for a, b in zip(cached[0], sources))


def _projection_table(embedding: Tensor, params: SemanticCapsParams) -> tuple | None:
    """The frozen model's encoder constants, (table, wv), or None when
    any of the seven arrays they are made from (the embedding and both
    directions' w_x, b and w_h) is writable. table is every word's input
    projections of both directions, the |V| x 8D_H `_input_projections`
    of the whole embedding, and wv the 2 x D_H x 4D_H stack of the
    forward and backward w_h that `_bilstm_states` reads; both are
    read-only. Built on first use and cached on `params`, keyed on those
    seven arrays' identity; read-only arrays are taken as frozen, so
    neither can go stale while it is used. A cached table is read without
    a lock; a missing or stale one is built under a module lock, after a
    second look at the cache, so threads that need it at once build it
    once."""
    fw, bw = params.lstm_fw, params.lstm_bw
    sources = (embedding.values, fw.w_x.values, fw.b.values, bw.w_x.values, bw.b.values, fw.w_h.values, bw.w_h.values)
    if any(a.flags.writeable for a in sources):
        return None
    cached = params._projections
    if not _is_current(cached, sources):
        with _PROJECTION_LOCK:
            cached = params._projections
            if not _is_current(cached, sources):  # another thread may have built it
                table, wv = _input_projections(embedding.values, fw, bw), np.stack(sources[5:])
                table.flags.writeable = wv.flags.writeable = False
                params._projections = cached = (sources, table, wv)
    return cached[1:]


class TokenBatch(NamedTuple):
    """A batch of token-id sequences in one array form: `values` holds
    every utterance's ids in row-major order (see `id_values`) and
    `lengths` (int64) how many ids each utterance has."""

    values: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, seqs) -> "TokenBatch":
        """The batch of a list of token-id sequences."""
        seqs = [list(s) for s in seqs]
        flat = list(itertools.chain.from_iterable(seqs))
        return cls(id_values(flat), np.array([len(s) for s in seqs], dtype=np.int64))


def id_values(flat: list) -> np.ndarray:
    """The token ids of `flat` as one 1-d array: numpy's own array of them
    when that is 1-d and numeric, else a 1-d object array of the given
    objects, so `check_token_ids` names a string, a nested list or an
    int past int64 as given."""
    try:
        values = np.array(flat)
    except ValueError:  # sequences of different lengths among the ids
        values = None
    if values is None or values.ndim != 1 or values.dtype.kind not in "biuf":
        values = np.fromiter(flat, dtype=object, count=len(flat))
    return values


def check_token_ids(batch: TokenBatch, rows: int) -> np.ndarray:
    """The ids of `batch` as int64, once each is one of the embedding's
    `rows` rows. A negative id would read from the end of a table and a
    fraction would be truncated, so an id that is not a row raises
    ContractError naming its utterance within the batch, and so does one
    that is not a real number (a string would parse as a number), naming
    it as given; a Decimal reads as a number. The ids' type, minimum,
    maximum and integrality are checked first; only a batch that fails
    them is searched, and it names its first id that is not a real
    number, if any, then its first id past float64's range, as written,
    before its first other bad id."""
    values, lengths = batch
    if values.dtype.kind == "O":
        for k, v in enumerate(values):
            if not isinstance(v, (numbers.Real, Decimal)):
                raise ContractError(f"utterance {_utterance_at(lengths, k)} has token id {v!r}, not a real number")
        try:
            values = np.fromiter(values, dtype=np.float64, count=len(values))  # ints past int64, Fractions, Decimals
        except OverflowError:
            # only a Python int or Fraction overflows; a numpy scalar would warn on the comparison
            k = next(k for k, v in enumerate(values) if not isinstance(v, np.generic) and abs(v) > sys.float_info.max)
            raise ContractError(
                f"utterance {_utterance_at(lengths, k)} has token id {values[k]}, not a row of the {rows}-row embedding"
            ) from None
    if not values.size or (values.min() >= 0 and values.max() < rows):  # False on NaN: no cast below sees one
        ids = values.astype(np.int64, copy=False)
        if ids is values or (ids == values).all():  # int64 ids are their own cast
            return ids
    values = values.astype(np.float64, copy=False)
    k = int(np.argmin((values >= 0) & (values < rows) & (values == np.floor(values))))
    raise ContractError(
        f"utterance {_utterance_at(lengths, k)} has token id {values[k]:.15g}, not a row of the {rows}-row embedding"
    )


def _utterance_at(lengths, k: int) -> int:
    """The utterance that holds the k-th id of the flattened batch."""
    return int(np.searchsorted(np.cumsum(lengths), k, side="right"))


def _dropout(x: Tensor, keep: np.ndarray) -> Tensor:
    """x * keep as one graph node with parent x; `keep` is the inverted
    dropout mask, already scaled by 1 / keep probability."""
    return _result(x.values * keep, "dropout", (x,), lambda g: (g * keep,))


def encode_tokens(
    token_batch,
    embedding: Tensor,
    params: SemanticCapsParams,
    *,
    pad_id: int | None = None,
    training: bool = False,
    dropout_keep: float = 1.0,
    rng: np.random.Generator | None = None,
):
    """Encode a batch: a `TokenBatch`, or a list of token-id sequences,
    which becomes one at entry (`TokenBatch.of`), padded to the longest
    with `pad_id` (needed, and checked, only when lengths differ). A token
    id that is not a row of the embedding raises ContractError naming its
    utterance (`check_token_ids`), and so does a needed `pad_id` naming
    itself.

    Only the real tokens' rows are gathered, packed in row-major order,
    plus the pad row once when the batch has pads; their projections are
    then gathered once into the recurrence's step layout, every pad slot
    taking the pad row's projection. Dropout draws one number per padded
    position and dimension, B x T x D_W as for a padded batch, and keeps
    the real positions' draws.

    On frozen weights (the embedding and both directions' w_x, b and w_h
    all read-only, as `load_model` leaves them), with no graph recorded
    (not training, under `no_grad`) and at least two tokens, the step
    layout is gathered straight from `_projection_table` by token id, pad
    slots reading the pad id's row, in place of the word vectors' gather,
    two GEMMs and the packed rows, and the recurrence reads its cached w_h
    stack. A GEMM's rows do not depend on how many rows it has, from 2 up,
    so H is bitwise the same; a lone token (B=1, T=1) keeps its one-row
    product.

    Returns (H, mask): H is B x T x 2D_H, the forward and backward LSTM
    states per position, and mask marks the real positions. The backward
    direction runs over each sequence reversed within its length, so pads
    never reach a real position's state. H rows at pad positions are
    unspecified; `attend` masks them out.
    """
    batch = token_batch if isinstance(token_batch, TokenBatch) else TokenBatch.of(token_batch)
    lengths = batch.lengths.tolist()
    if not lengths or min(lengths) == 0:
        raise ContractError("every utterance must have at least one token")
    t_max = max(lengths)
    padded = min(lengths) != t_max
    rows = embedding.shape[0]
    if padded and pad_id is None:
        raise ContractError("ragged batches need a pad_id")
    if padded and not (isinstance(pad_id, (int, np.integer)) and 0 <= pad_id < rows):
        raise ContractError(f"pad_id {pad_id!r} is not a row of the {rows}-row embedding")
    ids = check_token_ids(batch, rows)
    mask = np.arange(t_max) < batch.lengths[:, None]  # B x T

    fw, bw = params.lstm_fw, params.lstm_bw
    if not training and not _grad_enabled() and ids.size >= 2:
        frozen = _projection_table(embedding, params)
        if frozen is not None:
            table, wv = frozen
            if padded:
                slots = np.full(mask.shape, pad_id, dtype=np.int64)
                slots[mask] = ids
            else:
                slots = ids.reshape(mask.shape)
            big_h, _ = _bilstm_states(table, slots, wv, lengths)
            return Tensor(big_h), mask

    x = embedding.take_rows(np.append(ids, pad_id) if padded else ids)  # sum(lengths) [+ 1] x D_W
    if training and dropout_keep < 1.0:
        if rng is None:
            raise ContractError("dropout needs an rng")
        draws = rng.random((len(lengths), t_max, x.shape[1]))  # the padded batch's draws
        keep = np.ones(x.shape, dtype=x.values.dtype)  # the pad row keeps its projection
        keep[: ids.size] = draws[mask] < dropout_keep
        keep[: ids.size] /= dropout_keep
        x = _dropout(x, keep)  # inverted dropout; identity at evaluation

    return _run_bilstm(x, fw, bw, lengths), mask


# ----------------------------------------------------------------------
# attention


def orthogonality_penalty(attn: Tensor) -> Tensor:
    """||A A^T - I||_F^2 per utterance (scalar, or a batch vector), as one
    graph node. Its VJP is (G + G^T) @ A with G = 2 g (A A^T - I)."""
    a = attn.values
    dev = np.matmul(a, np.swapaxes(a, -1, -2)) - np.eye(a.shape[-2], dtype=a.dtype)
    out = np.asarray((dev * dev).sum(axis=(-1, -2)))

    def vjp(g):
        gd = (2.0 * np.asarray(g))[..., None, None] * dev
        return (np.matmul(gd + np.swapaxes(gd, -1, -2), a),)

    return _result(out, "penalty", (attn,), vjp)


def attention_matrix(H: Tensor, params: SemanticCapsParams, pad_mask=None) -> Tensor:
    """Attention matrix A (R x T, rows sum to 1 over real tokens) as one
    graph node with parents H, w_s1 and w_s2; its VJP runs the masked
    softmax, the tanh and both products backwards, with each weight
    gradient one GEMM over every utterance and position. A row whose
    positions are all masked, or a masked row of no positions, raises
    DegenerateRowError; a mask that masks nothing (an array or a nested
    list) takes the unmasked softmax, which has the same bits as the
    masked one. A mask of H's shape is tested for that before it is
    broadcast over the heads, so a pad-free batch does no mask work.
    """
    hv, w1, w2 = H.values, params.w_s1.values, params.w_s2.values
    hidden = np.tanh(np.matmul(w1, np.swapaxes(hv, -1, -2)))  # ... x D_A x T
    logits = np.matmul(w2, hidden)                              # ... x R x T
    if pad_mask is not None:
        keep = np.asarray(pad_mask, dtype=bool)  # ... x T
        # a mask of H's shape that masks nothing leaves the logits as they
        # are; an empty one is checked below, as .all() is True on it
        if not (keep.shape == hv.shape[:-1] and keep.size and keep.all()):
            keep = np.broadcast_to(np.expand_dims(keep, -2), logits.shape)  # over heads
            if not keep.any(axis=-1).all():
                raise DegenerateRowError("softmax row with every position masked")
            logits = np.where(keep, logits, -np.inf)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        heads, d_a = w2.shape
        dlogits = attn * (g - (g * attn).sum(axis=-1, keepdims=True))
        dlogits_t = np.swapaxes(dlogits, -1, -2)                 # ... x T x R
        dpre = np.matmul(dlogits_t, w2)                          # ... x T x D_A
        dpre *= np.swapaxes(1.0 - hidden * hidden, -1, -2)
        dpre = dpre.reshape(-1, d_a)  # one row per utterance and position
        return (
            (dpre @ w1).reshape(hv.shape) if H.requires_grad else None,
            dpre.T @ hv.reshape(-1, hv.shape[-1]) if params.w_s1.requires_grad else None,
            dlogits_t.reshape(-1, heads).T @ np.swapaxes(hidden, -1, -2).reshape(-1, d_a)
            if params.w_s2.requires_grad
            else None,
        )

    return _result(attn, "attend", (H, params.w_s1, params.w_s2), vjp)


def attend(H: Tensor, params: SemanticCapsParams, pad_mask=None):
    """`attention_matrix` and its head-orthogonality penalty, (A, penalty)."""
    attn = attention_matrix(H, params, pad_mask)
    return attn, orthogonality_penalty(attn)


def semantic_vectors(attn: Tensor, H: Tensor) -> Tensor:
    """M = A @ H as one graph node; row r is the r-th semantic vector.
    A and H need the same leading axes, and A's last extent must be H's
    second to last (DimensionError otherwise). The VJP is G @ H^T for A
    and A^T @ G for H."""
    av, hv = attn.values, H.values
    if av.ndim < 2 or hv.ndim < 2:
        raise DimensionError(f"semantic_vectors needs operands of 2 or more dims, got {av.shape} and {hv.shape}")
    if av.shape[-1] != hv.shape[-2] or av.shape[:-2] != hv.shape[:-2]:
        raise DimensionError(f"semantic_vectors shapes do not conform: {av.shape} x {hv.shape}")

    def vjp(g):
        return (
            np.matmul(g, np.swapaxes(hv, -1, -2)) if attn.requires_grad else None,
            np.matmul(np.swapaxes(av, -1, -2), g) if H.requires_grad else None,
        )

    return _result(np.matmul(av, hv), "semantic_vectors", (attn, H), vjp)
