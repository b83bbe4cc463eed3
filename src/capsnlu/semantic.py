"""Semantic capsules: BiLSTM encoder plus multi-head self-attention.

An utterance of T word vectors becomes a T x 2D_H hidden-state matrix H
(forward and backward LSTM states concatenated per position), and each
of R attention heads turns H into one semantic vector:

    A = row_softmax(w_s2 @ tanh(w_s1 @ H^T))        # R x T
    M = A @ H                                       # R x 2D_H

with an orthogonality penalty ||A A^T - I||_F^2 pushing heads apart.
Callers pass a batch of token-id sequences (leading batch axis B); a
single utterance is a batch of one (B=1), and `attend` and
`semantic_vectors` broadcast over any leading axes.

The two LSTM directions run as one recurrence in one graph node,
`_run_bilstm`: it gathers the backward direction's input projections
into each sequence's reversed order (within its length, pads left in
place), steps both directions left to right from a zero state, and
gathers the backward states back into reading order; backpropagation
through time is its hand-written VJP. Trailing pads come after every
real token in either direction and never reach a real position's state.
H rows at pad positions are unspecified: `attend` gives them exactly
zero attention, so they never reach M or a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor, _result, row_softmax


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


def _run_bilstm(xw_fw: Tensor, xw_bw: Tensor, w_h_fw: Tensor, w_h_bw: Tensor, src: np.ndarray) -> Tensor:
    """Both LSTM directions from a zero state, as one graph node.

    xw_fw and xw_bw (B x T x 4D_H) are each direction's input projections
    x @ w_x + b and w_h_fw, w_h_bw (D_H x 4D_H) its recurrent weights.
    src (B x T) reverses each row's real positions and leaves its pads in
    place, so it is its own inverse: the backward inputs are gathered by
    it, both directions step left to right as one stacked recurrence, and
    the backward states are gathered back by it. Returns H (B x T x 2D_H),
    forward states then backward. Each step is the cell

        z = xw_t + h @ w_h;  i, f, o = sigmoid(z_i, z_f, z_o);  g = tanh(z_g)
        c = f * c + i * g;   h = o * tanh(c)

    with sigmoid(z) = 0.5 * (1 + tanh(z / 2)), which cannot overflow. The
    VJP is backpropagation through time over the kept gate activations,
    cell states and tanh(c), between the same two gathers by src; dw_h is
    one batched GEMM over every step's h_{t-1} and dz.
    """
    rows = np.arange(src.shape[0])[:, None]
    xv = np.stack([xw_fw.values, xw_bw.values[rows, src]])
    wv = np.stack([w_h_fw.values, w_h_bw.values])
    stacks, n, steps, _ = xv.shape
    dh = wv.shape[1]
    h = c = np.zeros((stacks, n, dh), dtype=xv.dtype)
    kept, hs = [], []
    for t in range(steps):
        z = h @ wv
        z += xv[:, :, t]
        sig = 0.5 * (1.0 + np.tanh(0.5 * z[..., : 3 * dh]))  # i, f, o
        g = np.tanh(z[..., 3 * dh :])
        c_prev, c = c, sig[..., dh : 2 * dh] * c + sig[..., :dh] * g
        tc = np.tanh(c)
        h = sig[..., 2 * dh :] * tc
        kept.append((sig, g, c_prev, tc))
        hs.append(h)
    states = np.stack(hs, axis=2)
    out = np.concatenate([states[0], states[1][rows, src]], axis=-1)

    def vjp(grad):
        w_t = np.swapaxes(wv, -1, -2)
        dstates = np.stack([grad[..., :dh], grad[..., dh:][rows, src]])
        dxw = np.empty_like(xv)
        dh_next = dc_next = 0.0
        for t in reversed(range(steps)):
            sig, g, c_prev, tc = kept[t]
            dh_t = dstates[:, :, t] + dh_next
            dc = dh_t * sig[..., 2 * dh :] * (1.0 - tc * tc) + dc_next
            dz = dxw[:, :, t]
            np.multiply(dc, g, out=dz[..., :dh])
            np.multiply(dc, c_prev, out=dz[..., dh : 2 * dh])
            np.multiply(dh_t, tc, out=dz[..., 2 * dh : 3 * dh])
            dz[..., : 3 * dh] *= sig
            dz[..., : 3 * dh] *= 1.0 - sig
            np.multiply(dc * sig[..., :dh], 1.0 - g * g, out=dz[..., 3 * dh :])
            dh_next = dz @ w_t
            dc_next = dc * sig[..., dh : 2 * dh]
        dw = (None, None)
        if w_h_fw.requires_grad or w_h_bw.requires_grad:
            h_prev = states[:, :, :-1].reshape(stacks, -1, dh)
            dw = np.swapaxes(h_prev, -1, -2) @ dxw[:, :, 1:].reshape(stacks, -1, 4 * dh)
        return (
            dxw[0] if xw_fw.requires_grad else None,
            dxw[1][rows, src] if xw_bw.requires_grad else None,
            dw[0] if w_h_fw.requires_grad else None,
            dw[1] if w_h_bw.requires_grad else None,
        )

    return _result(out, "bilstm", (xw_fw, xw_bw, w_h_fw, w_h_bw), vjp)


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
    """Encode a batch: a list of token-id sequences, padded here with
    `pad_id` (needed only when lengths differ). An id that is not a row
    of the embedding raises ContractError naming its utterance.

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
    if pad_id is None:
        if (lengths != t_max).any():
            raise ContractError("ragged batches need a pad_id")
        pad_id = 0
    # a negative id would read from the end of the table and a fraction
    # would be truncated, so every id must be a row of the embedding
    flat = np.asarray([t for s in seqs for t in s], dtype=np.float64)
    vocab = embedding.shape[0]
    good = (flat >= 0) & (flat < vocab) & (flat == np.floor(flat))
    if not good.all():
        k = int(np.argmin(good))
        utt = int(np.searchsorted(np.cumsum(lengths), k, side="right"))
        raise ContractError(f"utterance {utt} has token id {flat[k]:.15g}, not a row of the {vocab}-row embedding")
    mask = np.arange(t_max)[None, :] < lengths[:, None]  # B x T
    ids = np.full((len(seqs), t_max), pad_id, dtype=np.int64)
    ids[mask] = flat

    x = embedding.take_rows(ids)  # B x T x D_W
    if training and dropout_keep < 1.0:
        if rng is None:
            raise ContractError("dropout needs an rng")
        keep = (rng.random(x.shape) < dropout_keep).astype(x.values.dtype) / dropout_keep
        x = x * Tensor(keep)  # inverted dropout; identity at evaluation

    pos = np.arange(t_max)
    src = np.where(mask, lengths[:, None] - 1 - pos, pos)
    fw, bw = params.lstm_fw, params.lstm_bw
    return _run_bilstm(x @ fw.w_x + fw.b, x @ bw.w_x + bw.b, fw.w_h, bw.w_h, src), mask


# ----------------------------------------------------------------------
# attention


def orthogonality_penalty(attn: Tensor) -> Tensor:
    """||A A^T - I||_F^2 per utterance (scalar, or a batch vector)."""
    heads = attn.shape[-2]
    eye = Tensor(np.eye(heads, dtype=attn.values.dtype))
    dev = attn @ attn.swapaxes(-1, -2) - eye
    return dev.square().sum(axis=(-1, -2))


def attend(H: Tensor, params: SemanticCapsParams, pad_mask=None):
    """Attention matrix A (R x T, rows sum to 1 over real tokens) and the
    head-orthogonality penalty."""
    ht = H.swapaxes(-1, -2)                  # ... x 2D_H x T
    hidden = (params.w_s1 @ ht).tanh()       # ... x D_A x T
    logits = params.w_s2 @ hidden            # ... x R x T
    mask = None
    if pad_mask is not None:
        mask = np.expand_dims(np.asarray(pad_mask, dtype=bool), -2)  # broadcast over heads
    attn = row_softmax(logits, mask=mask)
    return attn, orthogonality_penalty(attn)


def semantic_vectors(attn: Tensor, H: Tensor) -> Tensor:
    """M = A @ H; row r is the r-th semantic vector."""
    return attn @ H
