"""Tour of the autodiff core: the model's nodes, backward, accumulation,
and the finite-difference check.

Every layer of the model is one graph node with a hand-written VJP. Here
the attention head of one utterance is built from its nodes
(`attention_matrix`, `orthogonality_penalty`, `semantic_vectors`) and
closed with the detection capsules and the margin loss, so the loss is a
scalar that backward can start from.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from capsnlu.autodiff import Tensor, finite_diff_check
from capsnlu.config import RunConfig
from capsnlu.data import EmbeddingTable
from capsnlu.detection import dynamic_routing, margin_loss_batch, prediction_vectors
from capsnlu.model import init_model
from capsnlu.semantic import attention_matrix, orthogonality_penalty, semantic_vectors

# Leaves carry values, a zero gradient accumulator, and requires_grad.
# init_model draws every weight (here over a table of just the OOV and PAD
# rows); the tour takes the attention head and the detection capsules.
# H stands in for one utterance's BiLSTM states (T=5 positions, 2D_H=6);
# float64 keeps the finite-difference check below tight.
rng = np.random.default_rng(0)
table = EmbeddingTable(vocab={"<oov>": 0, "<pad>": 1}, vectors=np.zeros((2, 4)), oov_id=0, pad_id=1)
cfg = RunConfig(word_dim=4, hidden_dim=3, attn_dim=4, heads=2, caps_dim=4, existing_labels=("a", "b", "c"), emerging_labels=())
model = init_model(table, cfg, rng=rng, dtype=np.float64)
sem, det = model.semantic, model.detection
H = Tensor(rng.normal(scale=0.5, size=(1, 5, 6)), requires_grad=True)


def head_loss(_=None):
    attn = attention_matrix(H, sem)          # A, R x T: parents H, w_s1, w_s2
    penalty = orthogonality_penalty(attn)    # ||A A^T - I||^2: parent A
    m = semantic_vectors(attn, H)            # M = A H: parents A and H
    trace = dynamic_routing(prediction_vectors(m, det), iterations=3)
    return margin_loss_batch(trace.v_final, [1], penalty, penalty_weight=0.01)


# Every node records its op and parents, so `loss` knows its whole history.
loss = head_loss()
ops, seen, todo = [], set(), [loss]
while todo:
    node = todo.pop()
    if node.parents and id(node) not in seen:
        seen.add(id(node))
        ops.append(node.op)
        todo.extend(node.parents)
print(f"loss = {loss.item():.6f}; recorded nodes: {', '.join(ops)}")

# Reverse mode: one backward pass fills dL/dleaf for every leaf. H reaches
# the loss through A and through M; its gradient is the sum of both paths.
loss.backward()
print("dL/dH[0, 0] =", np.round(H.grad[0, 0], 6))

# Calling backward again accumulates: exactly twice the gradient.
once = H.grad.copy()
loss.backward()
print("accumulated twice?", np.array_equal(H.grad, 2 * once))

# The independent referee: central finite differences over every entry of
# H and of the attention weights, against the nodes' VJPs.
err = finite_diff_check(head_loss, [("H", H), ("w_s1", sem.w_s1), ("w_s2", sem.w_s2)], epsilon=1e-4)
print(f"worst relative disagreement with finite differences: {err:.2e}")
assert err < 1e-4
