"""Detection capsules: routing-by-agreement over per-intent predictions.

Each semantic vector m_r is transformed once per intent k into a
prediction vector p[k][r] = m_r @ w[k][r]. `prediction_vectors` is one
autodiff node whose forward and VJP are batches of K*R GEMMs over all
utterances at once, one per (intent, head) transform; it reads the
stored K x R x 2D_H x D_P weight in place, so the checkpoint format is
unchanged. Routing then iterates:

    c = softmax(b) over the intent axis        (coupling coefficients)
    s_k = sum_r c[k][r] * p[k][r]
    v_k = squash(s_k)
    b[k][r] += p[k][r] . v_k                   (agreement update)

starting from zero logits b. The first round is therefore uniform: its
couplings are exactly 1/K (exp(0) = 1, and K ones sum to K), so they are
set to 1/K with no softmax. The norm of the activation vector v_k ranks
intents; training minimizes a per-intent max-margin loss plus the
attention orthogonality penalty, one autodiff node (`margin_loss_batch`).

`dynamic_routing` runs the whole loop as one autodiff node: the forward
is raw numpy over the routed iterations (the agreement update after the
last one is skipped, as nothing reads it), and its hand-written VJP
backpropagates through every iteration, the agreement term, squash and
the softmax over intents included, so gradients flow through the whole
loop as the paper requires. The per-iteration b, c, s and v it keeps
for that VJP are the `RoutingTrace` lists.

Callers pass a batch (P of shape B x K x R x D_P); a single utterance is
a batch of one (B=1). The functions broadcast over any leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, Tensor, _result


@dataclass
class DetectionCapsParams:
    w: Tensor  # K x R x 2D_H x D_P, one transform per (intent, head)

    @property
    def num_intents(self) -> int:
        return self.w.shape[0]

    def trainable(self):
        return [("detect.w", self.w)]


@dataclass
class RoutingTrace:
    """Per-iteration record of one routing run.

    The arrays are the routing node's saved activations, shared with its
    VJP, so they are read-only: editing one raises instead of corrupting
    a later backward. `v_final` is the node's output, connected to the
    graph for the loss; vote vectors read the last couplings, `c[-1]`.
    """

    b: list[np.ndarray] = field(default_factory=list)  # logits at iteration start, ... x K x R
    c: list[np.ndarray] = field(default_factory=list)  # coupling coefficients,    ... x K x R
    s: list[np.ndarray] = field(default_factory=list)  # pre-activations,          ... x K x D_P
    v: list[np.ndarray] = field(default_factory=list)  # activation vectors,       ... x K x D_P
    v_final: Tensor | None = None


def init_detection_params(rng, num_intents: int, heads: int, in_dim: int, caps_dim: int, dtype=np.float32):
    bound = np.sqrt(6.0 / (in_dim + caps_dim))
    w = rng.uniform(-bound, bound, size=(num_intents, heads, in_dim, caps_dim)).astype(dtype)
    return DetectionCapsParams(w=Tensor(w, requires_grad=True))


def prediction_vectors(m: Tensor, params: DetectionCapsParams) -> Tensor:
    """P[k][r] = m_r @ w[k][r], shape ... x K x R x D_P, as one graph node.

    The forward is K*R GEMMs (N x 2D_H) @ (2D_H x D_P) over the N
    utterances of the leading axes, on the stored weight as it is; the
    VJP gives w's gradient as K*R GEMMs in that layout and m's as K*R
    GEMMs summed over the intents."""
    w = params.w
    k, r, in_dim, caps_dim = w.shape
    lead = m.shape[:-2]
    if m.shape[-2] != r or m.shape[-1] != in_dim:
        raise ContractError(
            f"semantic vectors {m.shape} do not match transform shape {w.shape}"
        )
    n = math.prod(lead)
    mr = np.swapaxes(m.values.reshape(n, r, in_dim), 0, 1)  # R x N x 2D_H, broadcast over K
    out = np.ascontiguousarray((mr @ w.values).transpose(2, 0, 1, 3))  # N x K x R x D_P

    def vjp(g):
        gk = g.reshape(n, k, r, caps_dim).transpose(1, 2, 0, 3)  # K x R x N x D_P
        gm = gw = None
        if m.requires_grad:
            gm = np.swapaxes((gk @ np.swapaxes(w.values, -1, -2)).sum(axis=0), 0, 1).reshape(m.shape)
        if w.requires_grad:
            gw = np.swapaxes(mr, -1, -2) @ gk
        return gm, gw

    return _result(out.reshape(*lead, k, r, caps_dim), "prediction_vectors", (m, w), vjp)


def squash(s, axis: int = -1) -> np.ndarray:
    """(||s||^2 / (1 + ||s||^2)) * s/||s||; zero maps to zero. Takes an
    array (a Tensor is read through `.values`) and returns an array."""
    s = s.values if isinstance(s, Tensor) else np.asarray(s)
    sumsq = (s * s).sum(axis=axis, keepdims=True)
    return s * (np.sqrt(sumsq) / (sumsq + 1.0))


def dynamic_routing(p: Tensor, iterations: int) -> RoutingTrace:
    """Route predictions p (... x K x R x D_P) for `iterations` rounds,
    as one graph node whose output is `trace.v_final`."""
    if iterations < 1:
        raise ContractError("routing needs at least one iteration")
    pv = p.values
    trace = RoutingTrace()
    b = np.zeros(pv.shape[:-1], dtype=pv.dtype)     # ... x K x R
    real = pv.dtype.type
    for it in range(iterations):
        if it:
            e = np.exp(b - b.max(axis=-2, keepdims=True))
            c = e / e.sum(axis=-2, keepdims=True)   # softmax over intents per head
        else:  # the softmax of the zero logits, exactly
            c = np.full(b.shape, real(1.0) / real(b.shape[-2]))
        s = (c[..., None] * pv).sum(axis=-2)        # ... x K x D_P
        v = squash(s)
        trace.b.append(b)
        trace.c.append(c)
        trace.s.append(s)
        trace.v.append(v)
        if it + 1 < iterations:
            b = b + (pv * v[..., None, :]).sum(axis=-1)  # agreement p . v
    for arr in trace.b + trace.c + trace.s + trace.v:
        arr.flags.writeable = False  # the VJP's saved activations

    def vjp(g):
        gp = gb = None  # gb: dL/d(logits entering the iteration after t)
        for t in reversed(range(iterations)):
            c, s = trace.c[t], trace.s[t]
            if gb is None:
                gv = g
            else:  # agreement b += p . v
                gv = (gb[..., None] * pv).sum(axis=-2)
                gp += gb[..., None] * trace.v[t][..., None, :]
            # squash; d sqrt at a zero norm takes its zero limit
            sumsq = (s * s).sum(axis=-1, keepdims=True)
            norm = np.sqrt(sumsq)
            denom = sumsq + 1.0
            g_ratio = (gv * s).sum(axis=-1, keepdims=True)
            g_norm = np.zeros_like(norm)
            np.divide(0.5 * (g_ratio / denom), norm, out=g_norm, where=norm > 0)
            g_sumsq = -g_ratio * norm / (denom * denom) + g_norm
            gs = gv * (norm / denom) + 2.0 * g_sumsq * s
            # weighted sum s = sum_r c * p, then the softmax over intents
            g_mix = gs[..., None, :] * c[..., None]
            if gp is None:
                gp = g_mix
            else:
                gp += g_mix
            if t:
                gc = (gs[..., None, :] * pv).sum(axis=-1)
                g_soft = c * (gc - (gc * c).sum(axis=-2, keepdims=True))
                gb = g_soft if gb is None else gb + g_soft
        return (gp,)

    trace.v_final = _result(trace.v[-1], "routing", (p,), vjp)
    return trace


def activation_norms(v) -> np.ndarray:
    """||v_k|| per intent; `.argmax(-1)` picks the winning intent, ties
    going to the lowest id. The same numpy calls as `np.linalg.norm(v,
    axis=-1)` on a float array, so the same bits, without its dispatch."""
    vals = v.values if isinstance(v, Tensor) else np.asarray(v)
    return np.sqrt(np.add.reduce(vals * vals, axis=-1))


def _check_margins(downweight, margin_pos, margin_neg, penalty_weight):
    if not (0.0 <= margin_neg < margin_pos <= 1.0):
        raise ContractError(f"margins must satisfy 0 <= m- < m+ <= 1, got {margin_pos}, {margin_neg}")
    if not (0 <= downweight < math.inf and 0 <= penalty_weight < math.inf):
        raise ContractError(f"downweight {downweight} and penalty weight {penalty_weight} must be finite and >= 0")


def margin_loss_batch(
    v: Tensor,
    labels,
    penalty: Tensor,
    *,
    downweight: float = 0.5,
    margin_pos: float = 0.9,
    margin_neg: float = 0.1,
    penalty_weight: float = 0.0,
) -> Tensor:
    """Mean per-utterance max-margin loss plus the weighted mean attention
    penalty, as one graph node (the penalty is a parent only if weighted).

    v: B x K x D_P activation vectors, labels: B true intent ids,
    penalty: B orthogonality penalties (or scalars broadcast by mean).
    """
    _check_margins(downweight, margin_pos, margin_neg, penalty_weight)
    num_intents = v.shape[-2]
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != v.shape[:-2]:
        raise ContractError(f"labels of shape {labels.shape} do not match the batch shape {v.shape[:-2]} of v")
    if (labels < 0).any() or (labels >= num_intents).any():
        raise ContractError(f"label outside the {num_intents} intents")
    x, dtype = v.values, v.dtype
    onehot = (labels[..., None] == np.arange(num_intents)).astype(dtype)
    # the per-op graph's numpy calls, Python scalars cast as `_coerce` does
    norms = np.sqrt((x * x).sum(axis=-1))                  # ... x K
    hinge_pos = np.maximum(np.asarray(margin_pos, dtype) - norms, 0.0)
    hinge_neg = np.maximum(norms - np.asarray(margin_neg, dtype), 0.0)
    weight_neg = (np.asarray(1.0, dtype) - onehot) * np.asarray(downweight, dtype)
    per_utt = (onehot * (hinge_pos * hinge_pos) + weight_neg * (hinge_neg * hinge_neg)).sum(axis=-1)
    inv_count = np.asarray(1.0 / per_utt.size, dtype)
    loss = per_utt.sum() * inv_count
    if penalty_weight:
        pen = penalty.values
        pen_inv_count = np.asarray(1.0 / pen.size, pen.dtype)
        pen_weight = np.asarray(penalty_weight, pen.dtype)
        loss = loss + (pen.sum() * pen_inv_count) * pen_weight

    def vjp(g):
        g_mean = g * inv_count
        g_pos = 2.0 * (g_mean * onehot) * hinge_pos  # 0 where the hinge is off: no mask
        g_neg = 2.0 * (g_mean * weight_neg) * hinge_neg
        g_sumsq = np.zeros_like(norms)  # d sqrt at a zero norm takes its zero limit
        np.divide(0.5 * (-g_pos + g_neg), norms, out=g_sumsq, where=norms > 0)
        gv = 2.0 * g_sumsq[..., None] * x
        if not penalty_weight:
            return (gv,)
        return gv, np.broadcast_to((g * pen_weight) * pen_inv_count, pen.shape)

    return _result(loss, "margin_loss", (v, penalty) if penalty_weight else (v,), vjp)
