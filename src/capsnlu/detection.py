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

starting from zero logits b. The first round therefore couples evenly: its
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

Routing runs capsule-major. The GEMMs leave P in K x R x ... x D_P
memory, and `prediction_vectors` returns it as a ... x K x R x D_P view
with no copy. `dynamic_routing` reads that memory as it is (a P laid out
otherwise, such as the zero-shot u, is copied once), so the softmax over
intents and the weighted sum over heads reduce outer axes of contiguous
blocks, and squash and the agreement reduce the contiguous D_P axis.
Each sum adds its terms in the order the lead-major layout did, so every
value is the same. The VJP returns P's gradient as a ... x K x R x D_P
view of capsule-major memory, which `prediction_vectors`' VJP reads as
it is.

Callers pass a batch (P of shape B x K x R x D_P); a single utterance is
a batch of one (B=1). The functions broadcast over any leading axes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor, _result


@dataclass
class DetectionCapsParams:
    w: Tensor  # K x R x 2D_H x D_P, one transform per (intent, head)

    def trainable(self):
        return [("detect.w", self.w)]


class RoutingTrace:
    """Per-iteration record of one routing run.

    Routing runs capsule-major: it keeps b and c as K x R x ... arrays and
    s and v as K x ... x D_P. The lists `b`, `c`, `s` and `v` give them in
    the caller's layout, as views of shape ... x K x R and ... x K x D_P.
    Each list is made on its first read, since a request reads only
    `c[-1]` and `v_final`. The arrays are the routing node's saved
    activations, shared with its VJP, so every view is read-only: editing
    one raises instead of corrupting a later backward. `v_final` is the
    node's output, its values a read-only ... x K x D_P view too,
    connected to the graph for the loss; vote vectors read the last
    couplings, `c[-1]`.
    """

    def __init__(self, saved: dict, perms: tuple, v_final: Tensor):
        self._saved = saved  # the capsule-major b, c, s and v lists
        self._perms = perms  # K x R x ... and K x ... x D_P to the caller's layout
        self._views: dict = {}
        self.v_final = v_final

    def _lead_major(self, key: str) -> list[np.ndarray]:
        views = self._views.get(key)
        if views is None:
            perm = self._perms[key in "sv"]
            views = self._views[key] = [_read_only(x.transpose(perm)) for x in self._saved[key]]
        return views

    @property
    def b(self) -> list[np.ndarray]:
        """Logits at each iteration's start, ... x K x R."""
        return self._lead_major("b")

    @property
    def c(self) -> list[np.ndarray]:
        """Coupling coefficients, ... x K x R."""
        return self._lead_major("c")

    @property
    def s(self) -> list[np.ndarray]:
        """Pre-activations, ... x K x D_P."""
        return self._lead_major("s")

    @property
    def v(self) -> list[np.ndarray]:
        """Activation vectors, ... x K x D_P."""
        return self._lead_major("v")


def _read_only(view: np.ndarray) -> np.ndarray:
    view.setflags(write=False)
    return view


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
    out = (mr @ w.values).transpose(2, 0, 1, 3)  # N x K x R x D_P, a view of the K x R x N x D_P GEMMs

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
    nl = p.ndim - 3
    lead = tuple(range(nl))
    # K x R x ... x D_P: `prediction_vectors`' memory as it is, else one copy
    pk = np.ascontiguousarray(p.values.transpose(nl, nl + 1, *lead, nl + 2))
    bs, cs, ss, vs = [], [], [], []
    b = np.zeros(pk.shape[:-1], dtype=pk.dtype)     # K x R x ...
    real = pk.dtype.type
    for it in range(iterations):
        if it:
            e = np.exp(b - b.max(axis=0))
            c = e / e.sum(axis=0)                   # softmax over intents per head
        else:  # the softmax of the zero logits, exactly
            c = np.empty_like(b)
            c.fill(real(1.0) / real(b.shape[0]))
        s = (c[..., None] * pk).sum(axis=1)         # K x ... x D_P
        v = squash(s)
        bs.append(b)
        cs.append(c)
        ss.append(s)
        vs.append(v)
        if it + 1 < iterations:
            b = b + (pk * v[:, None]).sum(axis=-1)  # agreement p . v
    lead_kr = (*range(2, nl + 2), 0, 1)             # K x R x ... to ... x K x R
    lead_kd = (*range(1, nl + 1), 0, nl + 1)        # K x ... x D_P to ... x K x D_P

    def vjp(g):
        gv_out = g.transpose(nl, *lead, nl + 1)     # K x ... x D_P
        gp = gb = None  # gb: dL/d(logits entering the iteration after t)
        for t in reversed(range(iterations)):
            c, s = cs[t], ss[t]
            if gb is None:
                gv = gv_out
            else:  # agreement b += p . v
                gv = (gb[..., None] * pk).sum(axis=1)
                gp += gb[..., None] * vs[t][:, None]
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
            g_mix = gs[:, None] * c[..., None]
            if gp is None:
                gp = g_mix
            else:
                gp += g_mix
            if t:
                gc = (gs[:, None] * pk).sum(axis=-1)
                g_soft = c * (gc - (gc * c).sum(axis=0))
                gb = g_soft if gb is None else gb + g_soft
        return (gp.transpose(*lead_kr, nl + 2),)   # a ... x K x R x D_P view

    v_final = _result(_read_only(vs[-1].transpose(lead_kd)), "routing", (p,), vjp)
    return RoutingTrace({"b": bs, "c": cs, "s": ss, "v": vs}, (lead_kr, lead_kd), v_final)


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

    v: B x K x D_P activation vectors (B >= 1), labels: B true intent ids,
    penalty: B orthogonality penalties (or scalars broadcast by mean).
    """
    _check_margins(downweight, margin_pos, margin_neg, penalty_weight)
    num_intents = v.shape[-2]
    labels = np.asarray(labels)
    if labels.shape != v.shape[:-2]:
        raise ContractError(f"labels of shape {labels.shape} do not match the batch shape {v.shape[:-2]} of v")
    if labels.size == 0:  # the mean over no utterance would divide by zero
        raise ContractError(f"empty batch: v of shape {v.shape} holds no utterance")
    if labels.dtype.kind not in "iu":
        # checked before the int64 cast, which would truncate a fraction or parse a string
        if labels.dtype.kind == "f":
            bad = labels[labels != np.floor(labels)].tolist()
        else:
            bad = [x for x in labels.ravel().tolist() if isinstance(x, bool) or not isinstance(x, numbers.Integral)]
        if bad:
            raise ContractError(f"label {bad[0]!r} is not a whole-number class id")
    if (labels < 0).any() or (labels >= num_intents).any():
        raise ContractError(f"label outside the {num_intents} intents")
    labels = labels.astype(np.int64, copy=False)
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
