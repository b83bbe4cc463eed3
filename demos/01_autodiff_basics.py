"""Tour of the autodiff core: build a graph, differentiate it, verify.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from capsnlu.autodiff import Tensor, finite_diff_check, row_softmax

# Leaves carry values, a zero gradient accumulator, and requires_grad.
w = Tensor(np.array([[0.2, -0.4], [0.7, 0.1]], dtype=np.float64), requires_grad=True)
x = Tensor(np.array([[1.0, 2.0]], dtype=np.float64))

# Every operation records provenance, so `loss` knows its whole history.
hidden = (x @ w).tanh()
attn = row_softmax(hidden)
loss = (attn @ attn.swapaxes(-1, -2) - Tensor(np.eye(1))).square().sum()  # squared Frobenius norm
print(f"loss = {loss.item():.6f}  (op={loss.op!r}, parents={len(loss.parents)})")

# Reverse-mode: one backward pass fills dL/dw for every leaf.
loss.backward()
print("dL/dw =\n", w.grad)

# Calling backward again accumulates: exactly twice the gradient.
once = w.grad.copy()
loss.backward()
print("accumulated twice?", np.allclose(w.grad, 2 * once))

# The independent referee: central finite differences over every entry.
def rebuild(_):
    h = (x @ w).tanh()
    a = row_softmax(h)
    return (a @ a.swapaxes(-1, -2) - Tensor(np.eye(1))).square().sum()

err = finite_diff_check(rebuild, [("w", w)], epsilon=1e-4)
print(f"worst relative disagreement with finite differences: {err:.2e}")
