"""Semantic capsules: BiLSTM encoder plus multi-head self-attention.

An utterance of T word vectors becomes a T x 2D_H hidden-state matrix H
(forward and backward LSTM states concatenated per position), and each
of R attention heads turns H into one semantic vector:

    A = softmax(w_s2 @ tanh(w_s1 @ H^T))            # R x T, per row
    M = A @ H                                       # R x 2D_H

with an orthogonality penalty ||A A^T - I||_F^2 pushing heads apart.
Callers pass a batch of token-id sequences (leading batch axis B); a
single utterance is a batch of one (B=1), and `attend` and
`semantic_vectors` broadcast over any leading axes.

The encoder gathers only the real tokens' word vectors, packed in
row-major order, plus the pad row once when the batch has pads. The two
LSTM directions and their input projections x @ w_x + b run as one
recurrence in one graph node, `_run_bilstm`: it projects the packed rows
(one GEMM per direction), then `_bilstm_states` gathers the projections
once into a per-position layout, by a B x T grid of row indices in which
a pad slot indexes the pad row, with the backward direction taking each
sequence in reversed order (within its length, pads left in place). It
steps both directions left to right from a zero state and gathers the
backward states back into reading order; backpropagation through time
is the node's hand-written VJP. A projection depends only on the token's
id, so on a frozen model (read-only weights, as `load_model` returns
them) an evaluation forward builds a |V| x 8D_H table of every word's
projections once, on first use, and `_bilstm_states` gathers from that
table directly, with the token ids as the grid and the pad id at pad
slots, without a graph. Either way the rows are gathered once, straight
into the step layout. The recurrence is gate-major and time-major: step
t's inputs and activations are one contiguous 4 x 2 x B x D_H block
(gate, direction), so each per-step elementwise operation is one numpy
call on contiguous memory. Trailing pads come after every real token in
either direction and never reach a real position's state. H rows at pad
positions are unspecified: the attention gives them exactly zero
weight, so they never reach M or a gradient.

The attention head is two graph nodes with hand-written VJPs, A
(`attention_matrix`, parents H, w_s1 and w_s2) and the penalty (parent
A); `attend` builds both, and M is one product. The penalty is a
training regulariser, so an evaluation forward may build A alone. Their
forwards make the same numpy calls as a graph of per-op Tensor ops
would, so their values are bitwise those of that graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, DegenerateRowError, Tensor, _grad_enabled, _result


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
    # (the five arrays it was built from, the |V| x 8D_H projection table)
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


def glorot(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_lstm_params(rng, word_dim: int, hidden_dim: int, dtype=np.float32) -> LstmParams:
    w_x = np.hstack([glorot(rng, (word_dim, hidden_dim), word_dim, hidden_dim, dtype) for _ in range(4)])
    w_h = np.hstack([glorot(rng, (hidden_dim, hidden_dim), hidden_dim, hidden_dim, dtype) for _ in range(4)])
    b = np.zeros((1, 4 * hidden_dim), dtype=dtype)
    b[0, hidden_dim : 2 * hidden_dim] = 1.0  # open forget gates at the start
    return LstmParams(
        w_x=Tensor(w_x, requires_grad=True),
        w_h=Tensor(w_h, requires_grad=True),
        b=Tensor(b, requires_grad=True),
    )


def init_semantic_params(
    rng, word_dim: int, hidden_dim: int, attn_dim: int, heads: int, dtype=np.float32
) -> SemanticCapsParams:
    return SemanticCapsParams(
        lstm_fw=init_lstm_params(rng, word_dim, hidden_dim, dtype),
        lstm_bw=init_lstm_params(rng, word_dim, hidden_dim, dtype),
        w_s1=Tensor(glorot(rng, (attn_dim, 2 * hidden_dim), 2 * hidden_dim, attn_dim, dtype), requires_grad=True),
        w_s2=Tensor(glorot(rng, (heads, attn_dim), attn_dim, heads, dtype), requires_grad=True),
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


def _bilstm_states(source: np.ndarray, slots: np.ndarray, w_h_fw: np.ndarray, w_h_bw: np.ndarray, lengths):
    """Both LSTM directions from a zero state over gathered input projections.

    `source` holds input-projection rows, each the forward then the
    backward direction's x @ w_x + b, and `slots` is a B x T grid of row
    indices into it: position t of utterance b reads row slots[b, t], and
    a pad slot (t >= lengths[b]) indexes the pad row. Returns (H, saved):
    H is B x T x 2D_H (T the longest length), forward states then
    backward, and `saved` is what the VJP of `_run_bilstm` reads:
    (rows, src, wv, states, kept), kept one (z, c_{t-1}, tanh(c_t)) per
    step.

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
    product h @ w_h (2 x B x 4D_H, against the stored weights) is copied
    into it gate-major before the inputs are added. Products against
    per-gate D_H x D_H blocks would save that copy, but BLAS may round a
    narrower product differently (OpenBLAS does at B=1 for D_H = 2 or 3),
    and H must stay bitwise equal to the per-step cell. The states go to a
    T x 2 x B x D_H buffer.
    """
    lengths = np.asarray(lengths)
    n, steps = lengths.size, int(lengths.max())
    pos = np.arange(steps)
    rows = np.arange(n)[:, None]
    real = pos < lengths[:, None]                          # B x T
    src = np.where(real, lengths[:, None] - 1 - pos, pos)  # its own inverse
    dh = w_h_fw.shape[0]
    dtype = source.dtype
    if real.all():
        # no pads (every B=1 request): one row gather in reading order, then
        # two transposed copies; the piece gather below costs a B=1 request
        # more in index arithmetic than it saves
        full = np.take(source, slots, axis=0).reshape(n, steps, 2, 4, dh)
        xg = np.empty((steps, 4, 2, n, dh), dtype=dtype)
        xg[:, :, 0] = full[:, :, 0].transpose(1, 2, 0, 3)
        xg[:, :, 1] = full[rows, src, 1].transpose(1, 2, 0, 3)
    else:  # one gather of D_H-wide pieces (row, direction, gate)
        both = np.stack([slots, slots[rows, src]]).transpose(2, 0, 1)  # T x 2 x B rows
        pieces = both[:, None] * 8 + np.arange(2)[:, None] * 4 + np.arange(4)[:, None, None]
        xg = np.take(source.reshape(-1, dh), pieces, axis=0)
    wv = np.stack([w_h_fw, w_h_bw])
    half, one = dtype.type(0.5), dtype.type(1.0)  # numpy scalars dispatch faster than Python floats
    acts = np.empty_like(xg)
    states = np.empty((steps, 2, n, dh), dtype=dtype)
    h = c = np.zeros((2, n, dh), dtype=dtype)
    kept = []
    for t in range(steps):
        z = acts[t]
        np.copyto(z, (h @ wv).reshape(2, n, 4, dh).transpose(2, 0, 1, 3))
        z += xg[t]
        sig = z[:3]  # i, f, o
        sig *= half
        np.tanh(z, out=z)
        sig += one
        sig *= half
        c_prev, c = c, z[1] * c
        c += z[0] * z[3]
        tc = np.tanh(c)
        h = np.multiply(z[2], tc, out=states[t])
        kept.append((z, c_prev, tc))
    out = np.empty((n, steps, 2 * dh), dtype=dtype)
    out[..., :dh] = states[:, 0].swapaxes(0, 1)
    out[..., dh:] = states[src, 1, rows]
    return out, (rows, src, wv, states, kept)


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

    The VJP is backpropagation through time over the kept activations,
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
    real = np.arange(lengths.max()) < lengths[:, None]
    total = int(lengths.sum())
    if xv.shape[0] != total + (not real.all()):
        raise ContractError(f"{xv.shape[0]} packed rows for lengths summing to {total}")
    slots = np.full(real.shape, total)  # pad slots read the pad row, last
    slots[real] = np.arange(total)
    proj = _input_projections(xv, fw, bw)
    out, saved = _bilstm_states(proj, slots, fw.w_h.values, bw.w_h.values, lengths)
    rows, src, wv, states, kept = saved
    steps, _, n, dh = states.shape
    four_dh = 4 * dh
    dtype = xv.dtype
    one = dtype.type(1.0)

    def vjp(grad):
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


def _projection_table(embedding: Tensor, params: SemanticCapsParams) -> np.ndarray | None:
    """Every word's input projections of both directions, the |V| x 8D_H
    `_input_projections` of the whole embedding, or None when any of the
    five arrays it is made from (the embedding and both directions' w_x
    and b) is writable. Built on first use and cached on `params`, keyed
    on those arrays' identity; read-only arrays are taken as frozen, so
    the table cannot go stale while it is used."""
    fw, bw = params.lstm_fw, params.lstm_bw
    sources = (embedding.values, fw.w_x.values, fw.b.values, bw.w_x.values, bw.b.values)
    if any(a.flags.writeable for a in sources):
        return None
    cached = params._projections
    if cached is None or any(a is not b for a, b in zip(cached[0], sources)):
        table = _input_projections(embedding.values, fw, bw)
        table.flags.writeable = False
        params._projections = cached = (sources, table)
    return cached[1]


def token_id_array(seqs, lengths: np.ndarray, rows: int) -> np.ndarray:
    """The token ids of `seqs` (utterance b holds lengths[b] of them) in
    row-major order, as int64. A negative id would read from the end of
    a table and a fraction would be truncated, so an id that is not one
    of the embedding's `rows` rows raises ContractError naming its
    utterance."""
    flat = np.fromiter(itertools.chain.from_iterable(seqs), dtype=np.float64, count=int(lengths.sum()))
    good = (flat >= 0) & (flat < rows) & (flat == np.floor(flat))
    if not good.all():
        k = int(np.argmin(good))
        utt = int(np.searchsorted(np.cumsum(lengths), k, side="right"))
        raise ContractError(f"utterance {utt} has token id {flat[k]:.15g}, not a row of the {rows}-row embedding")
    return flat.astype(np.int64)


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
    """Encode a batch: a list of token-id sequences, padded to the longest
    with `pad_id` (needed only when lengths differ). An id that is not a
    row of the embedding raises ContractError naming its utterance.

    Only the real tokens' rows are gathered, packed in row-major order,
    plus the pad row once when the batch has pads; their projections are
    then gathered once into the recurrence's step layout, every pad slot
    taking the pad row's projection. Dropout draws one uniform per padded
    position and dimension, B x T x D_W as for a padded batch, and keeps
    the real positions' draws.

    On frozen weights (the embedding and both directions' w_x and b all
    read-only, as `load_model` leaves them), with no graph recorded (not
    training, under `no_grad`) and at least two tokens, the step layout
    is gathered straight from `_projection_table` by token id, pad slots
    reading the pad id's row, in place of the word vectors' gather, two
    GEMMs and the packed rows. A GEMM's rows do not depend on how many
    rows it has, from 2 up, so H is bitwise the same; a lone token (B=1,
    T=1) keeps its one-row product.

    Returns (H, mask): H is B x T x 2D_H, the forward and backward LSTM
    states per position, and mask marks the real positions. The backward
    direction runs over each sequence reversed within its length, so pads
    never reach a real position's state. H rows at pad positions are
    unspecified; `attend` masks them out.
    """
    seqs = [list(s) for s in token_batch]
    if not seqs or any(len(s) == 0 for s in seqs):
        raise ContractError("every utterance must have at least one token")
    lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
    t_max = int(lengths.max())
    padded = bool((lengths != t_max).any())
    if padded and pad_id is None:
        raise ContractError("ragged batches need a pad_id")
    ids = token_id_array(seqs, lengths, embedding.shape[0])
    mask = np.arange(t_max)[None, :] < lengths[:, None]  # B x T

    fw, bw = params.lstm_fw, params.lstm_bw
    if not training and not _grad_enabled() and ids.size >= 2:
        table = _projection_table(embedding, params)
        if table is not None:
            if padded:
                slots = np.full(mask.shape, pad_id, dtype=np.int64)
                slots[mask] = ids
            else:
                slots = ids.reshape(mask.shape)
            big_h, _ = _bilstm_states(table, slots, fw.w_h.values, bw.w_h.values, lengths)
            return Tensor(big_h), mask

    x = embedding.take_rows(np.append(ids, pad_id) if padded else ids)  # sum(lengths) [+ 1] x D_W
    if training and dropout_keep < 1.0:
        if rng is None:
            raise ContractError("dropout needs an rng")
        draws = rng.random((len(seqs), t_max, x.shape[1]))  # the padded batch's draws
        keep = np.ones(x.shape, dtype=x.values.dtype)  # the pad row keeps its projection
        keep[: ids.size] = draws[mask] < dropout_keep
        keep[: ids.size] /= dropout_keep
        x = x * Tensor(keep)  # inverted dropout; identity at evaluation

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
    positions are all masked raises DegenerateRowError.
    """
    hv, w1, w2 = H.values, params.w_s1.values, params.w_s2.values
    hidden = np.tanh(np.matmul(w1, np.swapaxes(hv, -1, -2)))  # ... x D_A x T
    logits = np.matmul(w2, hidden)                              # ... x R x T
    if pad_mask is None:
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    else:
        keep = np.expand_dims(np.asarray(pad_mask, dtype=bool), -2)  # over heads
        keep = np.broadcast_to(keep, logits.shape)
        if not keep.any(axis=-1).all():
            raise DegenerateRowError("softmax row with every position masked")
        shifted = np.where(keep, logits, -np.inf)
        e = np.exp(shifted - shifted.max(axis=-1, keepdims=True))
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
    """M = A @ H; row r is the r-th semantic vector."""
    return attn @ H
