"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the seam generator: broadcast arithmetic, (batched)
matmul, reshapes, gathers, reductions, GELU, the pooling ops the hourglass
decoder needs, and three fused ops with hand-written VJPs: ``layer_norm``,
scaled-dot-product ``attention`` and ``log_softmax_pick``.  Each fused forward
runs the numpy operations of the composed graph it replaces in the same
order, so its values are bit-identical to that graph's, at one node instead
of about ten.  Gradient correctness is pinned by finite-difference tests
rather than by construction.  An op whose inputs need no gradient returns a
leaf, so inference builds no graph; ``backward`` frees the graph as it goes.
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
        # every batch entry's rows against one weight: one flat (rows, k) @
        # (k, m) GEMM per direction, not a product per batch entry and, for
        # the weight gradient, a sum over the batch afterwards
        def flat(t):
            return t.reshape(-1, t.shape[-1])

        out = (flat(x) @ w).reshape(x.shape[:-1] + w.shape[-1:])
        vjps = (
            lambda g: (flat(g) @ w.T).reshape(x.shape),
            lambda g: flat(x).T @ flat(g),
        )
    else:
        out = x @ w
        vjps = (
            lambda g: _unbroadcast(g @ swap(w), x.shape),
            lambda g: _unbroadcast(swap(x) @ g, w.shape),
        )
    return Tensor(out, parents=(a, b), vjps=vjps)


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


def sum_all(a) -> Tensor:
    a = as_tensor(a)
    shape = a.value.shape
    return Tensor(
        a.value.sum(), parents=(a,), vjps=(lambda g: np.broadcast_to(g, shape).copy(),)
    )


def layer_norm(x, g, b, eps: float) -> Tensor:
    """(x - mean) / sqrt(var + eps) * g + b over the last axis."""
    x, g, b = as_tensor(x), as_tensor(g), as_tensor(b)
    centered = x.value - x.value.mean(axis=-1, keepdims=True)
    var = (centered**2.0).mean(axis=-1, keepdims=True)
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    out = xhat * g.value + b.value

    def vjp_x(grad):
        d = grad * g.value
        return inv * (
            d - d.mean(axis=-1, keepdims=True) - xhat * (d * xhat).mean(axis=-1, keepdims=True)
        )

    return Tensor(
        out,
        parents=(x, g, b),
        vjps=(
            vjp_x,
            lambda grad: _unbroadcast(grad * xhat, g.value.shape),
            lambda grad: _unbroadcast(grad, b.value.shape),
        ),
    )


def attention(q, k, v, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k^T / sqrt(dh) + mask) @ v over split heads (..., n, dh).

    Leading axes broadcast, so one condition's keys and values (heads, m,
    dh) serve a batch of queries (B, heads, n, dh).  ``mask`` is additive,
    over (query row, key row).
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    factor = 1.0 / np.sqrt(q.value.shape[-1])
    scores = (q.value @ np.swapaxes(k.value, -1, -2)) * factor
    if mask is not None:
        scores = scores + mask
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)

    shared = [None, None]  # (upstream gradient, its scaled softmax backward)

    def dscores(g):
        # backward hands the q and k VJPs the same g: compute this once for both
        if shared[0] is not g:
            dw = g @ np.swapaxes(v.value, -1, -2)
            shared[:] = g, weights * (dw - (dw * weights).sum(axis=-1, keepdims=True)) * factor
        return shared[1]

    return Tensor(
        weights @ v.value,
        parents=(q, k, v),
        vjps=(
            lambda g: _unbroadcast(dscores(g) @ k.value, q.value.shape),
            lambda g: _unbroadcast(np.swapaxes(dscores(g), -1, -2) @ q.value, k.value.shape),
            lambda g: _unbroadcast(np.swapaxes(weights, -1, -2) @ g, v.value.shape),
        ),
    )


def log_softmax_pick(a, cols) -> Tensor:
    """out[i] = log_softmax(a[i])[cols[i]] for a 2D tensor."""
    a = as_tensor(a)
    idx = np.asarray(cols, dtype=np.int64)
    rows = np.arange(a.value.shape[0])
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    lse = np.log(total)

    def vjp(g):
        out = e * (-g[:, None] / total)
        out[rows, idx] += g
        return out

    return Tensor(z[rows, idx] - lse[:, 0], parents=(a,), vjps=(vjp,))


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
    """Populate .grad on every requires_grad leaf reachable from loss.

    The pass consumes the graph: each interior node gives up its gradient,
    parents and VJPs once they have been passed on, so a graph is
    differentiated once.
    """
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
    while order:
        node = order.pop()
        g = node.grad
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad:
                continue
            pg = vjp(g)
            parent.grad = pg if parent.grad is None else parent.grad + pg
        if node.parents:
            # spent: dropping the links frees each activation once no VJP
            # still to run holds it, so the pass releases the graph as it goes
            node.grad = None
            node.parents = node.vjps = ()
