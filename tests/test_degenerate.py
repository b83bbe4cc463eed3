"""Degenerate shapes through the whole model, in float64.

Each case shrinks one extent to its smallest legal value (K, R, D_P and
D_H of 1; 1 or 2 routing rounds) or feeds an edge-case batch (every
utterance one token long, an utterance of only OOV ids, a batch whose
short rows are mostly pads). Each must give finite-difference gradients
of the full loss within 1e-4, and a float32 copy of the model must agree
with the float64 one on the forward activations.
"""

import numpy as np
import pytest

from capsnlu.autodiff import finite_diff_check, no_grad
from capsnlu.config import RunConfig
from capsnlu.data import EmbeddingTable
from capsnlu.detection import activation_norms
from capsnlu.harness import batch_loss
from capsnlu.model import forward_batch, init_model

VOCAB, OOV, PAD = 6, 6, 7
RAGGED = [[0, 1, 2], [3, 4], [5, 1, 0, 2]]

CASES = {
    "K=1": ({"existing_labels": ("a",)}, RAGGED),
    "R=1": ({"heads": 1}, RAGGED),
    "D_P=1": ({"caps_dim": 1}, RAGGED),
    "D_H=1": ({"hidden_dim": 1}, RAGGED),
    "iterations=1": ({"routing_iterations": 1}, RAGGED),
    "iterations=2": ({"routing_iterations": 2}, RAGGED),
    "T=1": ({}, [[2], [5], [0]]),
    "all_oov": ({}, [[OOV, OOV, OOV], [1, 2]]),
    "mostly_pads": ({}, [[1], [4], [0, 1, 2, 3, 4, 5, 0, 1]]),
}

# about 8 float32 ulps at unit scale: activations, attention weights and
# activation norms all lie in [-1, 1]
FLOAT32_ATOL = 1e-6


def _setup(overrides, dtype, seed=3):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(scale=0.5, size=(VOCAB + 2, 3))
    vectors[PAD] = 0.0
    table = EmbeddingTable(
        vocab={f"w{i}": i for i in range(VOCAB)} | {"<oov>": OOV, "<pad>": PAD},
        vectors=vectors,
        oov_id=OOV,
        pad_id=PAD,
    )
    settings = dict(
        word_dim=3,
        hidden_dim=2,
        attn_dim=2,
        heads=2,
        caps_dim=2,
        routing_iterations=3,
        dropout_keep=1.0,
        penalty_weight=0.5,
        existing_labels=("a", "b", "c"),
        emerging_labels=(),
        seed=seed,
    )
    settings.update(overrides)
    cfg = RunConfig(**settings).validate()
    return init_model(table, cfg, rng=rng, dtype=dtype), cfg


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_shape(case):
    overrides, seqs = CASES[case]
    model, cfg = _setup(overrides, np.float64)
    k = len(cfg.existing_labels)
    labels = [i % k for i in range(len(seqs))]

    err = finite_diff_check(lambda _: batch_loss(model, seqs, labels, cfg, training=False), model.trainable())
    assert err <= 1e-4

    model32, _ = _setup(overrides, np.float32)
    with no_grad():
        fwd64 = forward_batch(model, seqs, cfg)
        fwd32 = forward_batch(model32, seqs, cfg)
    assert fwd32.trace.v_final.values.dtype == np.float32
    assert fwd64.trace.v_final.shape == (len(seqs), k, cfg.caps_dim)
    for name, got, want in (
        ("v", fwd32.trace.v_final.values, fwd64.trace.v_final.values),
        ("A", fwd32.A.values, fwd64.A.values),
        ("norms", activation_norms(fwd32.trace.v_final), activation_norms(fwd64.trace.v_final)),
    ):
        np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT32_ATOL, err_msg=name)
