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

The two LSTM directions run as one recurrence in one graph node: the
backward direction's input projections are reversed within each
sequence's length and stacked with the forward direction's (2 x B x T x
4D_H), their recurrent weights are stacked likewise, and `_run_lstm`
steps both stacks left to right from a zero state, with
backpropagation through time as its hand-written VJP. Trailing pads
come after every real token in either direction and never reach a real
position's state. H rows at pad positions are unspecified: `attend`
gives them exactly zero attention, so they never reach M or a gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor, _result, concat, row_softmax, stack


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


def _run_lstm(xw: Tensor, w_h: Tensor) -> Tensor:
    """Stacked left-to-right LSTMs from a zero state, as one graph node.

    xw (S x B x T x 4D_H) holds each of S stacks' precomputed input
    projections x @ w_x + b and w_h (S x D_H x 4D_H) their recurrent
    weights; returns the S x B x T x D_H hidden states. Every stack runs
    the same elementwise steps, in the same order, as the per-step cell

        z = xw_t + h @ w_h;  i, f, o = sigmoid(z_i, z_f, z_o);  g = tanh(z_g)
        c = f * c + i * g;   h = o * tanh(c)

    with sigmoid(z) = 0.5 * (1 + tanh(z / 2)), which cannot overflow. The
    VJP is backpropagation through time over the kept gate activations,
    cell states and tanh(c); dw_h is one batched GEMM over every step's
    h_{t-1} and dz.
    """
    xv, wv = xw.values, w_h.values
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
    out = np.stack(hs, axis=2)

    def vjp(grad):
        w_t = np.swapaxes(wv, -1, -2)
        dxw = np.empty_like(xv)
        dh_next = dc_next = 0.0
        for t in reversed(range(steps)):
            sig, g, c_prev, tc = kept[t]
            dh_t = grad[:, :, t] + dh_next
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
        dw = None
        if w_h.requires_grad:
            h_prev = out[:, :, :-1].reshape(stacks, -1, dh)
            dw = np.swapaxes(h_prev, -1, -2) @ dxw[:, :, 1:].reshape(stacks, -1, 4 * dh)
        return (dxw if xw.requires_grad else None), dw

    return _result(out, "lstm", (xw, w_h), vjp)


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
    `pad_id` (needed only when lengths differ).

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
    ids = np.full((len(seqs), t_max), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
    mask = np.arange(t_max)[None, :] < lengths[:, None]  # B x T

    x = embedding.take_rows(ids)  # B x T x D_W
    if training and dropout_keep < 1.0:
        if rng is None:
            raise ContractError("dropout needs an rng")
        keep = (rng.random(x.shape) < dropout_keep).astype(x.values.dtype) / dropout_keep
        x = x * Tensor(keep)  # inverted dropout; identity at evaluation

    # rev reverses each row's first lengths[b] positions and leaves its
    # pads in place: a constant 0/1 permutation that is its own inverse
    pos = np.arange(t_max)
    src = np.where(mask, lengths[:, None] - 1 - pos, pos)
    rev = Tensor((src[:, :, None] == pos).astype(x.values.dtype))  # B x T x T
    fw, bw = params.lstm_fw, params.lstm_bw
    xw = stack([x @ fw.w_x + fw.b, rev @ (x @ bw.w_x + bw.b)])
    h = _run_lstm(xw, stack([fw.w_h, bw.w_h]))
    return concat(h[0], rev @ h[1], axis=-1), mask


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
