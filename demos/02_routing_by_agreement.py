"""Watch agreement routing converge, iteration by iteration.

Three semantic heads vote for two intent capsules. Routing starts
undecided (uniform couplings) and sharpens wherever predictions agree
with the emerging consensus.

Run:  python3 demos/02_routing_by_agreement.py
"""

import numpy as np

from capsnlu.autodiff import Tensor
from capsnlu.detection import activation_norms, dynamic_routing, squash

rng = np.random.default_rng(4)

# Intent 0's predictions mostly agree with each other; intent 1's heads
# point in scattered directions.
coherent = np.tile(np.array([1.0, 0.5, -0.2, 0.1]), (3, 1)) + rng.normal(scale=0.05, size=(3, 4))
scattered = rng.normal(scale=0.8, size=(3, 4))
p = Tensor(np.stack([coherent, scattered], axis=0))  # K=2, R=3, D_P=4

print("squash keeps direction, compresses norm into [0, 1):")
for scale in (0.1, 1.0, 10.0):
    v = squash(Tensor(scale * np.array([3.0, 4.0]))).values
    print(f"  ||s||={5 * scale:5.1f} -> ||squash(s)||={np.linalg.norm(v):.4f}")

trace = dynamic_routing(p, iterations=3)
print("\ncoupling coefficients per iteration (rows = intents, cols = heads):")
for it, c in enumerate(trace.c):
    print(f"  iteration {it}:")
    for k in range(c.shape[0]):
        print("   ", " ".join(f"{x:.3f}" for x in c[k]))

norms = activation_norms(trace.v_final)
print("\nactivation norms:", " ".join(f"{n:.4f}" for n in norms))
print("winner:", norms.argmax(), "(the coherent capsule)")
