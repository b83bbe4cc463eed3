"""Zero-shot detection capsules for emerging intents.

No emerging-intent utterance is ever trained on. At inference time the
trained network's own routing products are transferred: the final-round
coupling coefficients and prediction vectors of the existing intents
give vote vectors

    g[k][r] = c[k][r] * p[k][r]

which are mixed by label-embedding similarity

    q[l][k] = softmax_k( -||e_z[l] - e_y[k]||^2 / sigma^2 )
    u[l][r] = sum_k q[l][k] * g[k][r]

and routed once more (same agreement loop, L target capsules) into
emerging activation vectors n[l]; the largest norm wins. Everything here
is pure evaluation over a frozen model. Vote and prediction vectors carry
a leading batch axis; a single utterance is a batch of one (B=1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ContractError, Tensor
from .detection import RoutingTrace, activation_norms, dynamic_routing


@dataclass
class SimilarityMatrix:
    """Row-stochastic emerging-to-existing similarities."""

    q: np.ndarray  # L x K, rows sum to 1, entries in (0, 1]
    sigma: float


def vote_vectors(trace: RoutingTrace, p) -> np.ndarray:
    """g[k][r] = c[k][r] (final iteration) * p[k][r]."""
    c = trace.c[-1]  # routing runs at least one iteration
    pv = p.values if isinstance(p, Tensor) else np.asarray(p)
    if pv.shape[:-1] != c.shape:
        raise ContractError(f"predictions {pv.shape} do not match couplings {c.shape}")
    return c[..., None] * pv


def intent_similarity(emerging_vecs, existing_vecs, sigma: float) -> SimilarityMatrix:
    """Softmax over existing intents of the scaled squared embedding
    distance; `sigma` flattens the distribution as it grows, and must be
    positive with a positive, finite square (the distances' divisor) that
    leaves every scaled distance finite."""
    if not (sigma > 0 and 0 < sigma * sigma < np.inf):
        raise ContractError(f"sigma must be positive with a positive, finite square, got {sigma!r}")
    ez = np.asarray(emerging_vecs, dtype=np.float64)
    ey = np.asarray(existing_vecs, dtype=np.float64)
    if ez.ndim != 2 or ey.ndim != 2 or ez.shape[1] != ey.shape[1]:
        raise ContractError(f"embedding shapes do not conform: {ez.shape} vs {ey.shape}")
    diff = ez[:, None, :] - ey[None, :, :]            # L x K x D_I
    with np.errstate(over="ignore"):
        dist = (diff * diff).sum(axis=-1) / (sigma * sigma)
    if not np.isfinite(dist).all():  # the max shift below would make -inf - -inf = NaN
        raise ContractError(f"sigma {sigma!r} leaves a scaled embedding distance that is not finite")
    neg = -dist
    neg -= neg.max(axis=-1, keepdims=True)
    e = np.exp(neg)
    q = e / e.sum(axis=-1, keepdims=True)
    return SimilarityMatrix(q=q, sigma=float(sigma))


def zero_shot_prediction_vectors(q: np.ndarray, g: np.ndarray) -> np.ndarray:
    """u[b][l][r] = sum_k q[l][k] * g[b][k][r] for votes g of shape
    B x K x R x D_P."""
    q = np.asarray(q)
    g = np.asarray(g)
    if q.ndim != 2 or g.ndim != 4 or q.shape[1] != g.shape[1]:
        raise ContractError(f"similarity {q.shape} does not match votes {g.shape} (B x K x R x D_P)")
    return np.einsum("lk,bkrd->blrd", q, g)


def classify_emerging_batch(u, iterations: int):
    """Route emerging predictions u (B x L x R x D_P) into activation
    vectors n (B x L x D_P); returns (winner ids, n), ties going to the
    lowest id."""
    n = dynamic_routing(Tensor(np.asarray(u)), iterations).v_final.values  # a leaf input records no graph
    return activation_norms(n).argmax(axis=-1), n


def similarity_variance(q: np.ndarray) -> np.ndarray:
    """Population variance of each emerging intent's similarity row."""
    q = np.asarray(q)
    return q.var(axis=-1)
