"""Detection capsules: routing-by-agreement over per-intent predictions.

Each semantic vector m_r is transformed once per intent k into a
prediction vector p[k][r] = m_r @ w[k][r]. Routing then iterates:

    c = softmax(b) over the intent axis        (coupling coefficients)
    s_k = sum_r c[k][r] * p[k][r]
    v_k = squash(s_k)
    b[k][r] += p[k][r] . v_k                   (agreement update)

starting from zero logits b. The norm of the activation vector v_k ranks
intents; training minimizes a per-intent max-margin loss plus the
attention orthogonality penalty. The whole routing loop stays inside the
autodiff graph, so gradients flow through every iteration.

Callers pass a batch (P of shape B x K x R x D_P); a single utterance is
a batch of one (B=1). The functions broadcast over any leading axes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import ContractError, Tensor, softmax


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

    The arrays are detached copies for inspection; `v_final` and
    `c_final` stay connected to the graph for the loss and for vote
    vectors.
    """

    b: list[np.ndarray] = field(default_factory=list)  # logits at iteration start, ... x K x R
    c: list[np.ndarray] = field(default_factory=list)  # coupling coefficients,    ... x K x R
    s: list[np.ndarray] = field(default_factory=list)  # pre-activations,          ... x K x D_P
    v: list[np.ndarray] = field(default_factory=list)  # activation vectors,       ... x K x D_P
    iterations: int = 0
    v_final: Tensor | None = None
    c_final: Tensor | None = None


def init_detection_params(rng, num_intents: int, heads: int, in_dim: int, caps_dim: int, dtype=np.float32):
    bound = np.sqrt(6.0 / (in_dim + caps_dim))
    w = rng.uniform(-bound, bound, size=(num_intents, heads, in_dim, caps_dim)).astype(dtype)
    return DetectionCapsParams(w=Tensor(w, requires_grad=True))


def prediction_vectors(m: Tensor, params: DetectionCapsParams) -> Tensor:
    """P[k][r] = m_r @ w[k][r], shape ... x K x R x D_P."""
    k, r, in_dim, caps_dim = params.w.shape
    lead = m.shape[:-2]
    if m.shape[-2] != r or m.shape[-1] != in_dim:
        raise ContractError(
            f"semantic vectors {m.shape} do not match transform shape {params.w.shape}"
        )
    mx = m.reshape(*lead, 1, r, 1, in_dim)          # broadcast over intents
    p = mx @ params.w                               # ... x K x R x 1 x D_P
    return p.reshape(*lead, k, r, caps_dim)


def squash(s: Tensor, axis: int = -1) -> Tensor:
    """(||s||^2 / (1 + ||s||^2)) * s/||s||; zero maps to zero."""
    sumsq = s.square().sum(axis=axis, keepdims=True)
    norm = sumsq.sqrt()
    return s * (norm / (sumsq + 1.0))


def dynamic_routing(p: Tensor, iterations: int) -> RoutingTrace:
    """Route predictions p (... x K x R x D_P) for `iterations` rounds."""
    if iterations < 1:
        raise ContractError("routing needs at least one iteration")
    lead_kr = p.shape[:-1]  # ... x K x R
    trace = RoutingTrace(iterations=iterations)
    b = Tensor(np.zeros(lead_kr, dtype=p.values.dtype))
    c = None
    v = None
    for _ in range(iterations):
        trace.b.append(np.array(b.values))          # logits entering this iteration
        c = softmax(b, axis=-2)                     # normalize over intents per head
        s = (c.unsqueeze(-1) * p).sum(axis=-2)      # ... x K x D_P
        v = squash(s)
        b = b + (p * v.unsqueeze(-2)).sum(axis=-1)  # agreement p . v
        trace.c.append(np.array(c.values))
        trace.s.append(np.array(s.values))
        trace.v.append(np.array(v.values))
    trace.v_final = v
    trace.c_final = c
    return trace


def activation_norms(v) -> np.ndarray:
    """||v_k|| per intent; `.argmax(-1)` picks the winning intent, ties
    going to the lowest id."""
    vals = v.values if isinstance(v, Tensor) else np.asarray(v)
    return np.linalg.norm(vals, axis=-1)


def _check_margins(downweight, margin_pos, margin_neg, penalty_weight):
    if not (0.0 <= margin_neg < margin_pos <= 1.0):
        raise ContractError(f"margins must satisfy 0 <= m- < m+ <= 1, got {margin_pos}, {margin_neg}")
    if downweight < 0 or penalty_weight < 0:
        raise ContractError("downweight and penalty weight must be non-negative")


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
    """Mean per-utterance max-margin loss plus the mean attention penalty.

    v: B x K x D_P activation vectors, labels: B true intent ids,
    penalty: B orthogonality penalties (or scalars broadcast by mean).
    """
    _check_margins(downweight, margin_pos, margin_neg, penalty_weight)
    num_intents = v.shape[-2]
    labels = np.asarray(labels, dtype=np.int64)
    if (labels < 0).any() or (labels >= num_intents).any():
        raise ContractError(f"label outside the {num_intents} intents")
    onehot = np.zeros(v.shape[:-1], dtype=v.values.dtype)
    np.put_along_axis(onehot, labels.reshape(labels.shape + (1,)), 1.0, axis=-1)
    one = Tensor(onehot)

    norms = v.square().sum(axis=-1).sqrt()          # ... x K
    present = (margin_pos - norms).relu().square()
    absent = (norms - margin_neg).relu().square()
    per_utt = (one * present + downweight * (1.0 - one) * absent).sum(axis=-1)
    loss = per_utt.mean()
    if penalty_weight:
        loss = loss + penalty_weight * penalty.mean()
    return loss
