"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the seam generator: broadcast arithmetic, (batched)
matmul, reshapes, gathers, reductions, softmax-family primitives, GELU, and
the pooling ops the hourglass decoder needs.  Gradient correctness is pinned
by finite-difference tests rather than by construction.  An op whose inputs
need no gradient returns a leaf, so inference builds no graph.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """Node in the computation graph."""

    __slots__ = ("value", "grad", "parents", "vjps", "requires_grad")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # an op on inputs that need no gradient is a leaf: keeping its parents
        # and VJP closures would only hold memory no backward pass reads
        self.parents = parents if self.requires_grad else ()
        self.vjps = vjps if self.requires_grad else ()

    @property
    def shape(self):
        return self.value.shape

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __neg__(self):
        return scale(self, -1.0)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    return Tensor(value, requires_grad=True)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum gradient over axes that were broadcast in the forward pass."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value + b.value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(g, b.value.shape),
        ),
    )


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value - b.value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g, a.value.shape),
            lambda g: _unbroadcast(-g, b.value.shape),
        ),
    )


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    return Tensor(
        a.value * b.value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.value * s, parents=(a,), vjps=(lambda g: g * s,))


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)

    def swap(x):
        return np.swapaxes(x, -1, -2)

    x, w = a.value, b.value
    if x.ndim > 2 and w.ndim == 2:
        # one (rows, k) @ (k, m) product instead of one per batch entry
        out = (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])
    else:
        out = x @ w
    return Tensor(
        out,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g @ swap(b.value), a.value.shape),
            lambda g: _unbroadcast(swap(a.value) @ g, b.value.shape),
        ),
    )


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    return Tensor(
        np.transpose(a.value, axes),
        parents=(a,),
        vjps=(lambda g: np.transpose(g, np.argsort(axes)),),
    )


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.value.shape
    return Tensor(
        a.value.reshape(shape), parents=(a,), vjps=(lambda g: g.reshape(old),)
    )


def concat_rows(tensors, axis: int = 0) -> Tensor:
    """Concatenate along ``axis`` (rows by default)."""
    ts = [as_tensor(t) for t in tensors]
    sizes = [t.value.shape[axis] for t in ts]
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    lead = (slice(None),) * (axis % ts[0].value.ndim)

    def make_vjp(i):
        index = lead + (slice(offsets[i], offsets[i + 1]),)
        return lambda g: g[index]

    return Tensor(
        np.concatenate([t.value for t in ts], axis=axis),
        parents=tuple(ts),
        vjps=tuple(make_vjp(i) for i in range(len(ts))),
    )


def slice_rows(a, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[start:stop] = g
        return out

    return Tensor(a.value[start:stop], parents=(a,), vjps=(vjp,))


def gather_rows(table, indices) -> Tensor:
    """Row lookup (embeddings); gradient scatters with accumulation."""
    table = as_tensor(table)
    idx = np.asarray(indices, dtype=np.int64)
    shape = table.value.shape

    def vjp(g):
        out = np.zeros(shape)
        np.add.at(out, idx, g)
        return out

    return Tensor(table.value[idx], parents=(table,), vjps=(vjp,))


def take_per_row(a, col_indices) -> Tensor:
    """out[i] = a[i, col_indices[i]] for a 2D tensor."""
    a = as_tensor(a)
    idx = np.asarray(col_indices, dtype=np.int64)
    n = a.value.shape[0]
    rows = np.arange(n)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[rows, idx] = g
        return out

    return Tensor(a.value[rows, idx], parents=(a,), vjps=(vjp,))


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.value.shape
    return Tensor(
        a.value.sum(), parents=(a,), vjps=(lambda g: np.broadcast_to(g, shape).copy(),)
    )


def mean_axis(a, axis: int, keepdims: bool = True) -> Tensor:
    a = as_tensor(a)
    n = a.value.shape[axis]
    shape = a.value.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g / n, shape).copy()

    return Tensor(
        a.value.mean(axis=axis, keepdims=keepdims), parents=(a,), vjps=(vjp,)
    )


def power(a, k: float) -> Tensor:
    a = as_tensor(a)
    return Tensor(
        a.value**k, parents=(a,), vjps=(lambda g: g * k * a.value ** (k - 1),)
    )


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return Tensor(s, parents=(a,), vjps=(vjp,))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.value - a.value.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse

    def vjp(g):
        return g - np.exp(out) * g.sum(axis=axis, keepdims=True)

    return Tensor(out, parents=(a,), vjps=(vjp,))


def gelu(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out = x * cdf

    def vjp(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * x * x)
        return g * (cdf + x * pdf)

    return Tensor(out, parents=(a,), vjps=(vjp,))


def log_sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    # stable: log sigma(x) = -log1p(exp(-x)) for x >= 0, x - log1p(exp(x)) else
    with np.errstate(over="ignore"):
        out = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))
    sig_neg = 1.0 / (1.0 + np.exp(np.clip(x, -500, 500)))  # sigma(-x)

    def vjp(g):
        return g * sig_neg

    return Tensor(out, parents=(a,), vjps=(vjp,))


def mean_pool_causal(a, factor: int, start: int = 0) -> Tensor:
    """Shift right by (factor - 1) rows, zero-pad, mean-pool groups of `factor`.

    Rows are axis -2; leading axes are batch axes.  Pooled row k is the mean
    of input rows k * factor - (factor - 1) .. k * factor (zero below row 0),
    so it depends only on input rows <= k * factor, which preserves
    autoregressive causality across the downsampling.  Of the
    ceil(n / factor) pooled rows, rows ``start`` onward are returned: a
    decoder that caches the earlier ones pools only the rows it lacks.
    """
    a = as_tensor(a)
    shape = a.value.shape
    lead, n, d = shape[:-2], shape[-2], shape[-1]
    m = -(-n // factor)  # ceil
    lo = start * factor - (factor - 1)  # input row under the first pooled slot
    hi = (m - 1) * factor + 1  # one past the last input row used
    src = max(lo, 0)
    window = np.zeros(lead + ((m - start) * factor, d))
    window[..., src - lo :, :] = a.value[..., src:hi, :]
    out = window.reshape(lead + (m - start, factor, d)).mean(axis=-2)

    def vjp(g):
        spread = np.repeat(g / factor, factor, axis=-2)
        grad = np.zeros(shape)
        grad[..., src:hi, :] = spread[..., src - lo :, :]
        return grad

    return Tensor(out, parents=(a,), vjps=(vjp,))


def repeat_upsample(a, factor: int, out_len: int, start: int = 0) -> Tensor:
    """Repeat each row `factor` times and truncate to out_len rows.

    Rows are axis -2; leading axes are batch axes.  Output row r is input row
    r // factor; rows ``start`` .. out_len - 1 are returned.
    """
    a = as_tensor(a)
    shape = a.value.shape
    lead, m, d = shape[:-2], shape[-2], shape[-1]
    first = start // factor  # input row of output row `start`
    lo, hi = start - first * factor, out_len - first * factor
    rep = np.repeat(a.value[..., first:, :], factor, axis=-2)[..., lo:hi, :]

    def vjp(g):
        full = np.zeros(lead + ((m - first) * factor, d))
        full[..., lo:hi, :] = g
        grad = np.zeros(shape)
        grad[..., first:, :] = full.reshape(lead + (m - first, factor, d)).sum(axis=-2)
        return grad

    return Tensor(rep, parents=(a,), vjps=(vjp,))


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad node reachable from loss."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            pg = vjp(g)
            parent.grad = pg if parent.grad is None else parent.grad + pg
