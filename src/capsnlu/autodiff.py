"""Dense tensors with reverse-mode automatic differentiation.

The graph is define-by-run: every operation records its parents and a
closure that computes vector-Jacobian products, and ``Tensor.backward``
walks the graph once in reverse topological order. Gradients accumulate
only on leaves, so calling ``backward`` twice doubles leaf gradients
without corrupting intermediate nodes.

float32 is the working precision for training; gradient checks should
build their graphs in float64, where central differences are trustworthy
at tight tolerances.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float32

__all__ = [
    "Tensor",
    "DimensionError",
    "DegenerateRowError",
    "ContractError",
    "NumericError",
    "no_grad",
    "concat",
    "stack",
    "softmax",
    "row_softmax",
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


# The row record of a gradient known to be all zero.
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_ROWS.flags.writeable = False

# Per-thread stack so that no_grad() blocks nest and distinct graphs on
# distinct threads stay independent.
_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "stack", None) is None or _STATE.stack[-1]


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure evaluation)."""
    if getattr(_STATE, "stack", None) is None:
        _STATE.stack = [True]
    _STATE.stack.append(False)
    try:
        yield
    finally:
        _STATE.stack.pop()


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A dense array plus a same-shape gradient accumulator.

    ``op``/``parents`` record provenance (empty for leaves); ``grad`` is
    lazily allocated and reads as zeros until a backward pass reaches the
    tensor.

    A tensor also records which rows (leading-axis entries) of its
    gradient may be nonzero: sorted row ids, or None when any row may be.
    Only the ``take_rows`` scatter into a leaf adds ids; every other write,
    and every read of the public ``grad`` (whose caller may write any row),
    makes the record None. ``reset_grad`` and ``Adam.step`` use a known
    record to skip rows that are certainly zero.
    """

    __slots__ = ("values", "requires_grad", "op", "parents", "_vjp", "_grad", "_grad_rows")

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
        self._grad_rows: np.ndarray | None = _NO_ROWS

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
        self._grad_rows = None  # the caller may write any row
        return self._grad_buffer()

    def grad_and_rows(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The gradient and the sorted rows of it that may be nonzero (None:
        any row), for a caller that only reads the gradient; unlike reading
        ``grad``, this keeps the record."""
        return self._grad_buffer(), self._grad_rows

    def reset_grad(self, rows=None) -> None:
        """Zero the gradient and empty the row record; with `rows`, zero
        only those rows and keep the record."""
        if self._grad is None:
            return  # reads as zeros, and the record is empty
        if rows is not None:
            self._grad[rows] = 0.0
            return
        self._grad[... if self._grad_rows is None else self._grad_rows] = 0.0
        self._grad_rows = _NO_ROWS

    def _grad_buffer(self) -> np.ndarray:
        if self._grad is None:
            self._grad = np.zeros_like(self.values)
        return self._grad

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        tag = self.op or "leaf"
        return f"Tensor(shape={self.values.shape}, {tag}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # elementwise arithmetic (numpy broadcasting rules apply)

    def __add__(self, other) -> "Tensor":
        other = _coerce(other, self)
        a, b = self, other

        def vjp(g):
            return (
                _unbroadcast(g, a.values.shape) if a.requires_grad else None,
                _unbroadcast(g, b.values.shape) if b.requires_grad else None,
            )

        return _result(a.values + b.values, "add", (a, b), vjp)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = _coerce(other, self)
        a, b = self, other

        def vjp(g):
            return (
                _unbroadcast(g, a.values.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.values.shape) if b.requires_grad else None,
            )

        return _result(a.values - b.values, "sub", (a, b), vjp)

    def __mul__(self, other) -> "Tensor":
        other = _coerce(other, self)
        a, b = self, other

        def vjp(g):
            return (
                _unbroadcast(g * b.values, a.values.shape) if a.requires_grad else None,
                _unbroadcast(g * a.values, b.values.shape) if b.requires_grad else None,
            )

        return _result(a.values * b.values, "mul", (a, b), vjp)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _coerce(other, self)
        a, b = self, other

        def vjp(g):
            ga = _unbroadcast(g / b.values, a.values.shape) if a.requires_grad else None
            gb = None
            if b.requires_grad:
                gb = _unbroadcast(-g * a.values / (b.values * b.values), b.values.shape)
            return ga, gb

        return _result(a.values / b.values, "div", (a, b), vjp)

    # ------------------------------------------------------------------
    # matrix product

    def __matmul__(self, other) -> "Tensor":
        other = _coerce(other, self)
        a, b = self, other
        if a.values.ndim < 2 or b.values.ndim < 2:
            raise DimensionError(
                f"matmul needs operands of 2 or more dims, got {a.values.shape} and {b.values.shape}"
            )
        if a.values.shape[-1] != b.values.shape[-2]:
            raise DimensionError(
                f"matmul inner extents differ: {a.values.shape} x {b.values.shape}"
            )
        av, bv = a.values, b.values
        try:
            out = np.matmul(av, bv)
        except ValueError as exc:
            raise DimensionError(f"matmul shapes do not broadcast: {av.shape} x {bv.shape}") from exc

        def vjp(g):
            ga = gb = None
            if a.requires_grad:
                ga = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
            if b.requires_grad:
                gb = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
            return ga, gb

        return _result(out, "matmul", (a, b), vjp)

    # ------------------------------------------------------------------
    # elementwise maps

    def tanh(self) -> "Tensor":
        y = np.tanh(self.values)

        def vjp(g):
            return (g * (1.0 - y * y),)

        return _result(y, "tanh", (self,), vjp)

    def square(self) -> "Tensor":
        x = self.values

        def vjp(g):
            return (2.0 * g * x,)

        return _result(x * x, "square", (self,), vjp)

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.values)

        def vjp(g):
            # d sqrt/dx blows up at 0; the zero limit is what callers
            # (e.g. vector norms of an all-zero vector) need.
            out = np.zeros_like(y)
            np.divide(0.5 * g, y, out=out, where=y > 0)
            return (out,)

        return _result(y, "sqrt", (self,), vjp)

    # ------------------------------------------------------------------
    # reductions and shape surgery

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        x = self.values
        out = np.asarray(x.sum(axis=axis, keepdims=keepdims))

        def vjp(g):
            gg = np.asarray(g)
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            return (np.broadcast_to(gg, x.shape),)

        return _result(out, "sum", (self,), vjp)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        x = self.values
        out = x.reshape(shape)

        def vjp(g):
            return (g.reshape(x.shape),)

        return _result(out, "reshape", (self,), vjp)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out = np.swapaxes(self.values, a, b)

        def vjp(g):
            return (np.swapaxes(g, a, b),)

        return _result(out, "swapaxes", (self,), vjp)

    def __getitem__(self, key) -> "Tensor":
        # basic indexing only (ints and slices); the result may be a view,
        # which is safe because values are never mutated inside a graph
        x = self.values
        out = np.asarray(x[key])

        def vjp(g):
            buf = np.zeros_like(x)
            buf[key] += g
            return (buf,)

        return _result(out, "slice", (self,), vjp)

    def take_rows(self, indices) -> "Tensor":
        """Gather rows along axis 0; duplicate indices accumulate gradient.

        The gradient of a leaf source is scattered straight into its
        ``grad``, so an embedding lookup's backward allocates nothing the
        size of the table, and the rows written join the leaf's row
        record; any other source gets a dense buffer."""
        idx = np.asarray(indices)
        if not np.issubdtype(idx.dtype, np.integer):
            raise ContractError("take_rows needs integer indices")
        src, x = self, self.values

        def vjp(g):
            if src._vjp is None:
                written = _scatter_add_rows(src._grad_buffer(), idx, g)
                if src._grad_rows is not None:
                    src._grad_rows = np.union1d(src._grad_rows, written)
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
                buf = node.grad  # lazily allocated; any row may now be nonzero
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
    out._grad_rows = _NO_ROWS
    if any(p.requires_grad for p in parents) and _grad_enabled():
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


def _scatter_add_rows(dst: np.ndarray, idx: np.ndarray, g: np.ndarray) -> np.ndarray:
    """dst[idx] += g with repeated indices accumulating: bit for bit
    ``np.add.at(dst, idx, g)`` whenever ``dst`` holds no -0.0. Returns the
    sorted ids of the rows written.

    Rows of ``g`` that are all zero (of either sign) are skipped: adding
    them leaves every entry of ``dst`` as it was, save a -0.0 that +0.0
    would turn into +0.0. A ``.grad`` buffer never holds -0.0, since it
    starts at +0.0 and a sum that starts at +0.0 never reaches -0.0. Pad
    positions of a ragged batch carry such all-zero rows. Of the rows
    kept, each index's first occurrence is added by one fancy-indexed
    ``+=`` and only the repeats go through the slower ``np.add.at``, so
    every row still receives its terms in index order."""
    flat = idx.reshape(-1)
    flat = np.where(flat < 0, flat + dst.shape[0], flat)  # one key per row
    rows = g.reshape(flat.shape + dst.shape[1:])
    kept = np.flatnonzero(rows.any(axis=tuple(range(1, rows.ndim))))
    uniq, first = np.unique(flat[kept], return_index=True)
    dst[uniq] += rows[kept[first]]
    if first.size < kept.size:
        repeat = np.ones(kept.size, dtype=bool)
        repeat[first] = False
        np.add.at(dst, flat[kept[repeat]], rows[kept[repeat]])
    return uniq


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.values.dtype))


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
# free functions


def concat(a: Tensor, b: Tensor, axis: int) -> Tensor:
    """Juxtapose two tensors along `axis`; other extents must agree."""
    av, bv = a.values, b.values
    if av.ndim != bv.ndim:
        raise DimensionError(f"concat rank mismatch: {av.shape} vs {bv.shape}")
    ax = axis % av.ndim
    for i, (m, n) in enumerate(zip(av.shape, bv.shape)):
        if i != ax and m != n:
            raise DimensionError(f"concat shapes {av.shape} and {bv.shape} differ off axis {axis}")
    out = np.concatenate([av, bv], axis=ax)
    na = av.shape[ax]

    def vjp(g):
        sl = [slice(None)] * g.ndim
        sl[ax] = slice(0, na)
        ga = g[tuple(sl)]
        sl[ax] = slice(na, None)
        gb = g[tuple(sl)]
        return (
            ga if a.requires_grad else None,
            gb if b.requires_grad else None,
        )

    return _result(out, "concat", (a, b), vjp)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack same-shape tensors along a new axis."""
    ts = tuple(tensors)
    if not ts:
        raise ContractError("stack needs at least one tensor")
    shape0 = ts[0].values.shape
    for t in ts[1:]:
        if t.values.shape != shape0:
            raise DimensionError(f"stack shapes differ: {shape0} vs {t.values.shape}")
    out = np.stack([t.values for t in ts], axis=axis)

    def vjp(g):
        return tuple(
            np.take(g, i, axis=axis) if t.requires_grad else None for i, t in enumerate(ts)
        )

    return _result(out, "stack", ts, vjp)


def softmax(x: Tensor, axis: int = -1, mask=None) -> Tensor:
    """Stabilized softmax along `axis`.

    `mask` (broadcastable boolean, True = keep) forces masked positions to
    exactly 0 and normalizes over the rest. A row with nothing to keep is
    an error.
    """
    vals = x.values
    if mask is not None:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), vals.shape)
        if not m.any(axis=axis).all():
            raise DegenerateRowError("softmax row with every position masked")
        shifted = np.where(m, vals, -np.inf)
        mx = shifted.max(axis=axis, keepdims=True)
        e = np.exp(shifted - mx)
    else:
        mx = vals.max(axis=axis, keepdims=True)
        e = np.exp(vals - mx)
    denom = e.sum(axis=axis, keepdims=True)
    y = e / denom

    def vjp(g):
        if not x.requires_grad:
            return (None,)
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    return _result(y, "softmax", (x,), vjp)


def row_softmax(x: Tensor, mask=None) -> Tensor:
    """Softmax over the last axis: each row sums to 1 over unmasked spots."""
    return softmax(x, axis=-1, mask=mask)


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
