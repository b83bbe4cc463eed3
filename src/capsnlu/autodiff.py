"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: a node is made by `_result`, which records
its parents and a closure that computes vector-Jacobian products, and
``Tensor.backward`` walks the graph once in reverse topological order.
Gradients accumulate only on leaves, so calling ``backward`` twice
doubles leaf gradients without corrupting intermediate nodes.

The core holds only what the model records: leaves, `_result`, the row
gather `take_rows` (the embedding lookup), ``backward``, `no_grad` and
`finite_diff_check`. Each layer of the model is one node with a
hand-written VJP in its own module (dropout, the BiLSTM, the attention
matrix and its penalty, M = A @ H, the prediction vectors, routing and
the margin loss). There is no generic arithmetic on tensors: the
per-op reference graphs the fused nodes are tested against are built
from free functions in the test suite.

float32 is the working precision for training; gradient checks should
build their graphs in float64, where central differences are trustworthy
at tight tolerances.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

DEFAULT_DTYPE = np.float32

__all__ = [
    "Tensor",
    "DimensionError",
    "DegenerateRowError",
    "ContractError",
    "NumericError",
    "no_grad",
    "finite_diff_check",
]


class DimensionError(ValueError):
    """Operand shapes do not conform."""


class DegenerateRowError(ValueError):
    """A softmax row has no unmasked position."""


class ContractError(ValueError):
    """An argument violates an operation's contract."""


class NumericError(ArithmeticError):
    """A computation produced or met a non-finite value."""


# Per-thread stack so that no_grad() blocks nest and distinct graphs on
# distinct threads stay independent.
_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "stack", None) is None or _STATE.stack[-1]


class no_grad:
    """Disable graph recording inside the block (pure evaluation)."""

    def __enter__(self) -> None:
        if getattr(_STATE, "stack", None) is None:
            _STATE.stack = [True]
        _STATE.stack.append(False)

    def __exit__(self, *exc) -> None:
        _STATE.stack.pop()


class Tensor:
    """A dense array plus a same-shape gradient accumulator.

    ``op``/``parents`` record provenance (empty for leaves); ``grad`` is
    lazily allocated and reads as zeros until a backward pass reaches the
    tensor.
    """

    __slots__ = ("values", "requires_grad", "op", "parents", "_vjp", "_grad")

    def __init__(self, values, requires_grad: bool = False, dtype=None):
        arr = np.asarray(values)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.values = arr
        self.requires_grad = bool(requires_grad)
        self.op = ""
        self.parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None
        self._grad: np.ndarray | None = None

    # ------------------------------------------------------------------
    # bookkeeping

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    @property
    def dtype(self):
        return self.values.dtype

    @property
    def grad(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def reset_grad(self) -> None:
        """Zero the gradient in place (+0.0 everywhere)."""
        if self._grad is not None:  # else it already reads as zeros
            self._grad[...] = 0.0

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        tag = self.op or "leaf"
        return f"Tensor(shape={self.values.shape}, {tag}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # graph building

    def take_rows(self, indices) -> "Tensor":
        """Gather rows along axis 0; duplicate indices accumulate gradient.

        The gradient of a leaf source is scattered straight into its
        ``grad``, so an embedding lookup's backward allocates nothing the
        size of the table; any other source gets a dense buffer."""
        idx = np.asarray(indices)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ContractError("take_rows needs integer indices")
        src, x = self, self.values

        def vjp(g):
            if src._vjp is None:
                _scatter_add_rows(src.grad, idx, g)
                return (None,)
            buf = np.zeros_like(x)
            _scatter_add_rows(buf, idx, g)
            return (buf,)

        return _result(x[idx], "take_rows", (self,), vjp)

    # ------------------------------------------------------------------
    # backward pass

    def backward(self) -> None:
        """Accumulate dL/dleaf into every reachable requires_grad leaf.

        Repeated calls without a gradient reset keep accumulating.
        """
        if self.values.size != 1:
            raise ContractError(f"backward needs a scalar loss, got shape {self.values.shape}")
        if not self.requires_grad:
            return
        order = _topo_order(self)
        pending: dict[Tensor, np.ndarray] = {self: np.ones_like(self.values)}
        for node in order:
            g = pending.pop(node, None)
            if g is None:
                continue
            if node._vjp is None:
                buf = node.grad  # lazily allocated
                buf += g
                continue
            for parent, pg in zip(node.parents, node._vjp(g)):
                if pg is None or not parent.requires_grad:
                    continue
                prev = pending.get(parent)
                pending[parent] = pg if prev is None else prev + pg


def _result(values: np.ndarray, op: str, parents: tuple, vjp) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.values = values
    out._grad = None
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out.op = op
        out.parents = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out.op = ""
        out.parents = ()
        out._vjp = None
    return out


def _scatter_add_rows(dst: np.ndarray, idx: np.ndarray, g: np.ndarray) -> None:
    """dst[idx] += g with repeated indices accumulating: bit for bit
    ``np.add.at(dst, idx, g)``. Each index's first occurrence is added by
    one fancy-indexed ``+=`` and only the repeats go through the slower
    ``np.add.at``, so every row still receives its terms in index order."""
    flat = idx.reshape(-1)
    flat = np.where(flat < 0, flat + dst.shape[0], flat)  # one key per row
    rows = g.reshape(flat.shape + dst.shape[1:])
    uniq, first = np.unique(flat, return_index=True)
    dst[uniq] += rows[first]
    if first.size < flat.size:
        repeat = np.ones(flat.size, dtype=bool)
        repeat[first] = False
        np.add.at(dst, flat[repeat], rows[repeat])


def _topo_order(root: Tensor) -> list[Tensor]:
    """Reverse-topological order (root first), iterative to survive deep
    recurrent chains."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))
    order.reverse()
    return order


# ----------------------------------------------------------------------
# gradient verification


def finite_diff_check(
    loss_fn: Callable,
    params,
    epsilon: float = 1e-4,
) -> float:
    """Compare autodiff gradients against central differences.

    `params` is a dict of named tensors or a list of (name, tensor)
    pairs. `loss_fn(params)` must rebuild the loss graph from the current
    parameter values and be deterministic (no dropout). Returns the worst
    relative error over every parameter entry; when both gradient
    magnitudes are below 1e-8 the absolute difference is used instead.
    A non-finite autodiff gradient raises NumericError, since NaN would
    pass any comparison against a tolerance.
    """
    if epsilon <= 0:
        raise ContractError("epsilon must be positive")
    pairs = list(params.items()) if isinstance(params, dict) else list(params)
    for _, t in pairs:
        t.reset_grad()
    loss = loss_fn(params)
    if not np.isfinite(float(loss.values)):
        raise NumericError("loss is not finite")
    loss.backward()
    snapshots = [(name, t, t.grad.copy().reshape(-1)) for name, t in pairs]
    for name, _, ad in snapshots:
        if not np.isfinite(ad).all():
            raise NumericError(f"autodiff gradient of {name} is not finite")

    worst = 0.0
    with no_grad():
        for name, t, ad in snapshots:
            flat = t.values.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + epsilon
                fp = float(loss_fn(params).values)
                flat[i] = orig - epsilon
                fm = float(loss_fn(params).values)
                flat[i] = orig
                if not (np.isfinite(fp) and np.isfinite(fm)):
                    raise NumericError(f"loss not finite while perturbing {name}[{i}]")
                fd = (fp - fm) / (2.0 * epsilon)
                a = float(ad[i])
                scale = max(abs(a), abs(fd))
                err = abs(a - fd) if scale < 1e-8 else abs(a - fd) / scale
                if err > worst:
                    worst = err
    return worst
