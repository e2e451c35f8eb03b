"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery for the seam generator: broadcast arithmetic, (batched)
matmul, reshapes, gathers, reductions, GELU, rsqrt, the pooling ops the
hourglass decoder needs, and three fused ops with hand-written VJPs:
``layer_norm``, scaled-dot-product ``attention`` and ``log_softmax_pick``.  Each fused forward
runs the numpy operations of the composed graph it replaces in the same
order, so its values are bit-identical to that graph's, at one node instead
of about ten.  Gradient correctness is pinned by finite-difference tests
rather than by construction.

An array in gives an array out: an op none of whose arguments is a
``Tensor`` returns a bare ``ndarray`` with the same values, so code written
once runs on Tensors for training and on plain arrays for inference.  On
that array path an op computes its forward value and returns it before it
builds any VJP closure or ``Vertex``, and a float64 ``ndarray`` argument is
used as it is, unconverted, so inference pays only for the numpy calls.  An
op on Tensors that need no gradient returns a leaf; ``backward`` frees the
graph as it goes.

A ``Tensor`` is a handle: its forward ``value`` and its graph ``Vertex``.
The vertex holds what ``backward`` reads (gradient, parent vertices, VJP
closures) and no forward value, so an activation lives only as long as the
model code holds its handle, unless a VJP saved it.  An op's VJPs capture
shapes and the arrays their formulas read, never an input only for its
shape: ``add`` keeps two shapes, ``gelu`` keeps only its slope, computed
in the forward pass once the array path has returned.  ``backward`` runs
each VJP once, so a VJP may overwrite an array that only it holds:
``gelu``'s slope and ``log_softmax_pick``'s exponentials are multiplied
in place into the gradient they return, with no second array of their size.

``gelu``'s ``erf`` (``scipy.special.erf``) is imported at ``gelu``'s first
call and kept in a module global, not imported with this module: a process
that never runs the model (evaluate, project, unwrap, tokenize, prefpairs)
then never pays the start-up time and memory of loading ``scipy.special``.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_erf = None  # scipy.special.erf, bound by gelu's first call
_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Vertex:
    """A Tensor's place in the computation graph: its gradient, its parents'
    vertices and one VJP closure per parent, but no forward value."""

    __slots__ = ("grad", "parents", "vjps", "requires_grad")

    def __init__(self, parents=(), vjps=(), requires_grad=False):
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # an op on inputs that need no gradient is a leaf: keeping its parents
        # and VJP closures would only hold memory no backward pass reads
        self.parents = parents if self.requires_grad else ()
        self.vjps = vjps if self.requires_grad else ()


class Tensor:
    """Handle on a forward value and its graph vertex.  ``parents`` are
    Tensors; the vertex links to their vertices, not to their values."""

    __slots__ = ("value", "vertex")

    def __init__(self, value, parents=(), vjps=(), requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.vertex = Vertex(tuple(p.vertex for p in parents), vjps, requires_grad)

    @property
    def shape(self):
        return self.value.shape

    @property
    def grad(self):
        return self.vertex.grad

    @property
    def requires_grad(self):
        return self.vertex.requires_grad


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


_FLOAT64 = np.dtype(np.float64)


def _value(x) -> np.ndarray:
    """The float64 array of an op argument, Tensor or array-like; a float64
    ndarray is returned as it is."""
    if isinstance(x, Tensor):
        return x.value
    if type(x) is np.ndarray and x.dtype is _FLOAT64:
        return x
    return np.asarray(x, dtype=np.float64)


def _plain(*args) -> bool:
    """Whether no op argument is a Tensor.  Such an op returns its bare value
    before it builds any VJP closure or node."""
    for a in args:
        if isinstance(a, Tensor):
            return False
    return True


def _node(value, parents, vjps) -> Tensor:
    """An op's result node over its arguments (an array argument becomes a leaf)."""
    return Tensor(value, parents=tuple(as_tensor(q) for q in parents), vjps=vjps)


def add(a, b) -> Tensor | np.ndarray:
    x, y = _value(a), _value(b)
    out = x + y
    if _plain(a, b):
        return out
    xs, ys = x.shape, y.shape
    return _node(out, (a, b), (lambda g: _unbroadcast(g, xs), lambda g: _unbroadcast(g, ys)))


def sub(a, b) -> Tensor | np.ndarray:
    x, y = _value(a), _value(b)
    out = x - y
    if _plain(a, b):
        return out
    xs, ys = x.shape, y.shape
    return _node(out, (a, b), (lambda g: _unbroadcast(g, xs), lambda g: _unbroadcast(-g, ys)))


def mul(a, b) -> Tensor | np.ndarray:
    x, y = _value(a), _value(b)
    out = x * y
    if _plain(a, b):
        return out
    return _node(
        out,
        (a, b),
        (lambda g: _unbroadcast(g * y, x.shape), lambda g: _unbroadcast(g * x, y.shape)),
    )


def scale(a, s: float) -> Tensor | np.ndarray:
    out = _value(a) * s
    if _plain(a):
        return out
    return _node(out, (a,), (lambda g: g * s,))


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def _flat(t: np.ndarray) -> np.ndarray:
    return t.reshape(-1, t.shape[-1])


def matmul(a, b) -> Tensor | np.ndarray:
    """Matrix product over the last two axes; leading (batch) axes broadcast."""
    x, w = _value(a), _value(b)
    # every batch entry's rows against one weight: one flat (rows, k) @
    # (k, m) GEMM per direction, not a product per batch entry and, for
    # the weight gradient, a sum over the batch afterwards
    batch_rows = x.ndim > 2 and w.ndim == 2
    if batch_rows:
        out = (_flat(x) @ w).reshape(x.shape[:-1] + w.shape[-1:])
    else:
        out = x @ w
    if _plain(a, b):
        return out
    if batch_rows:
        vjps = (
            lambda g: (_flat(g) @ w.T).reshape(x.shape),
            lambda g: _flat(x).T @ _flat(g),
        )
    else:
        vjps = (
            lambda g: _unbroadcast(g @ _swap(w), x.shape),
            lambda g: _unbroadcast(_swap(x) @ g, w.shape),
        )
    return _node(out, (a, b), vjps)


def transpose(a, axes) -> Tensor | np.ndarray:
    out = np.transpose(_value(a), axes)
    if _plain(a):
        return out
    return _node(out, (a,), (lambda g: np.transpose(g, np.argsort(axes)),))


def reshape(a, shape) -> Tensor | np.ndarray:
    x = _value(a)
    out = x.reshape(shape)
    if _plain(a):
        return out
    xs = x.shape
    return _node(out, (a,), (lambda g: g.reshape(xs),))


def concat_rows(tensors, axis: int = 0) -> Tensor | np.ndarray:
    """Concatenate along ``axis`` (rows by default)."""
    tensors = tuple(tensors)
    values = [_value(t) for t in tensors]
    out = np.concatenate(values, axis=axis)
    if _plain(*tensors):
        return out
    offsets = list(accumulate((x.shape[axis] for x in values), initial=0))
    lead = (slice(None),) * (axis % values[0].ndim)

    def make_vjp(i):
        index = lead + (slice(offsets[i], offsets[i + 1]),)
        return lambda g: g[index]

    return _node(out, tensors, tuple(make_vjp(i) for i in range(len(values))))


def slice_rows(a, start: int, stop: int) -> Tensor | np.ndarray:
    x = _value(a)
    if _plain(a):
        return x[start:stop]
    xs = x.shape

    def vjp(g):
        out = np.zeros(xs)
        out[start:stop] = g
        return out

    return _node(x[start:stop], (a,), (vjp,))


def gather_rows(table, indices) -> Tensor | np.ndarray:
    """Row lookup (embeddings); gradient scatters with accumulation."""
    x = _value(table)
    idx = np.asarray(indices, dtype=np.int64)
    if _plain(table):
        return x[idx]
    xs = x.shape

    def vjp(g):
        out = np.zeros(xs)
        np.add.at(out, idx, g)
        return out

    return _node(x[idx], (table,), (vjp,))


def sum_all(a) -> Tensor | np.ndarray:
    x = _value(a)
    out = np.asarray(x.sum())
    if _plain(a):
        return out
    xs = x.shape
    return _node(out, (a,), (lambda g: np.broadcast_to(g, xs).copy(),))


def layer_norm(x, g, b, eps: float) -> Tensor | np.ndarray:
    """(x - mean) / sqrt(var + eps) * g + b over the last axis."""
    xv, gv, bv = _value(x), _value(g), _value(b)
    bs = bv.shape
    n = xv.shape[-1]
    # np.add.reduce(...) / n is what ndarray.mean computes, without its wrapper
    centered = xv - np.add.reduce(xv, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered**2.0, axis=-1, keepdims=True) / n
    inv = (var + eps) ** -0.5
    xhat = centered * inv
    out = xhat * gv + bv
    if _plain(x, g, b):
        return out

    def vjp_x(grad):
        d = grad * gv
        return inv * (
            d - d.mean(axis=-1, keepdims=True) - xhat * (d * xhat).mean(axis=-1, keepdims=True)
        )

    return _node(
        out,
        (x, g, b),
        (
            vjp_x,
            lambda grad: _unbroadcast(grad * xhat, gv.shape),
            lambda grad: _unbroadcast(grad, bs),
        ),
    )


def attention(q, k, v, mask: np.ndarray | None = None) -> Tensor | np.ndarray:
    """softmax(q @ k^T / sqrt(dh) + mask) @ v over split heads (..., n, dh).

    Leading axes broadcast, so one condition's keys and values (heads, m,
    dh) serve a batch of queries (B, heads, n, dh).  ``mask`` is additive,
    over (query row, key row).
    """
    qv, kv, vv = _value(q), _value(k), _value(v)
    factor = 1.0 / np.sqrt(qv.shape[-1])
    # the softmax runs in place in the one scores array, in the composed
    # graph's order of operations, so its values are those bit for bit
    weights = qv @ np.swapaxes(kv, -1, -2)
    weights *= factor
    if mask is not None:
        weights += mask
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    out = weights @ vv
    if _plain(q, k, v):
        return out

    shared = [None, None]  # (upstream gradient, its scaled softmax backward)

    def dscores(g):
        # backward hands the q and k VJPs the same g: compute this once for both
        if shared[0] is not g:
            ds = g @ np.swapaxes(vv, -1, -2)
            ds -= (ds * weights).sum(axis=-1, keepdims=True)
            ds *= weights
            ds *= factor
            shared[:] = g, ds
        return shared[1]

    return _node(
        out,
        (q, k, v),
        (
            lambda g: _unbroadcast(dscores(g) @ kv, qv.shape),
            lambda g: _unbroadcast(np.swapaxes(dscores(g), -1, -2) @ qv, kv.shape),
            lambda g: _unbroadcast(np.swapaxes(weights, -1, -2) @ g, vv.shape),
        ),
    )


def log_softmax_pick(a, cols) -> Tensor | np.ndarray:
    """out[i] = log_softmax(a[i])[cols[i]] for a 2D tensor."""
    x = _value(a)
    idx = np.asarray(cols, dtype=np.int64)
    rows = np.arange(x.shape[0])
    z = x - x.max(axis=-1, keepdims=True)
    picked = z[rows, idx]
    e = np.exp(z, out=z)  # z's picks are taken: one array of x's size, not two
    total = e.sum(axis=-1, keepdims=True)
    lse = np.log(total)
    out = picked - lse[:, 0]
    if _plain(a):
        return out

    def vjp(g):
        grad = np.multiply(e, -g[:, None] / total, out=e)
        grad[rows, idx] += g
        return grad

    return _node(out, (a,), (vjp,))


def gelu(a) -> Tensor | np.ndarray:
    """x * Phi(x) with Phi(x) = 0.5 * (1 + erf(x / sqrt 2)); the slope is
    Phi(x) + x * exp(-x^2 / 2) / sqrt(2 pi).

    Both are computed in place in two arrays, by the same operations in the
    same order as the composed expressions (IEEE + and * commute exactly), so
    the values are those of the formulas bit for bit.

    ``erf`` is imported here at the first call, and kept in ``_erf`` for
    the later ones, so that a process that never runs the model never
    imports ``scipy.special``.
    """
    global _erf
    if _erf is None:
        from scipy.special import erf as _erf
    x = _value(a)
    out = np.multiply(x, _INV_SQRT2)
    _erf(out, out=out)
    out += 1.0
    out *= 0.5  # Phi(x)
    if _plain(a):
        return np.multiply(out, x, out=out)
    slope = np.multiply(x, -0.5)
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    slope *= x
    slope += out
    np.multiply(out, x, out=out)
    return _node(out, (a,), (lambda g: np.multiply(g, slope, out=slope),))


def rsqrt(a) -> Tensor | np.ndarray:
    """x ** -0.5 elementwise, as ``layer_norm`` computes its inverse deviation."""
    out = _value(a) ** -0.5
    if _plain(a):
        return out
    return _node(out, (a,), (lambda g: g * (-0.5 * out**3),))


def log_sigmoid(a) -> Tensor | np.ndarray:
    x = _value(a)
    # stable: log sigma(x) = -log1p(exp(-x)) for x >= 0, x - log1p(exp(x)) else
    with np.errstate(over="ignore"):
        out = np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))
    if _plain(a):
        return out
    sig_neg = 1.0 / (1.0 + np.exp(np.clip(x, -500, 500)))  # sigma(-x)

    def vjp(g):
        return g * sig_neg

    return _node(out, (a,), (vjp,))


def mean_pool_causal(a, factor: int, start: int = 0) -> Tensor | np.ndarray:
    """Shift right by (factor - 1) rows, zero-pad, mean-pool groups of `factor`.

    Rows are axis -2; leading axes are batch axes.  Pooled row k is the mean
    of input rows k * factor - (factor - 1) .. k * factor (zero below row 0),
    so it depends only on input rows <= k * factor, which preserves
    autoregressive causality across the downsampling.  Of the
    ceil(n / factor) pooled rows, rows ``start`` onward are returned: a
    decoder that caches the earlier ones pools only the rows it lacks.
    """
    x = _value(a)
    shape = x.shape
    lead, n, d = shape[:-2], shape[-2], shape[-1]
    m = -(-n // factor)  # ceil
    lo = start * factor - (factor - 1)  # input row under the first pooled slot
    hi = (m - 1) * factor + 1  # one past the last input row used
    src = max(lo, 0)
    window = np.zeros(lead + ((m - start) * factor, d))
    window[..., src - lo :, :] = x[..., src:hi, :]
    out = window.reshape(lead + (m - start, factor, d)).mean(axis=-2)
    if _plain(a):
        return out

    def vjp(g):
        spread = np.repeat(g / factor, factor, axis=-2)
        grad = np.zeros(shape)
        grad[..., src:hi, :] = spread[..., src - lo :, :]
        return grad

    return _node(out, (a,), (vjp,))


def repeat_upsample(a, factor: int, out_len: int, start: int = 0) -> Tensor | np.ndarray:
    """Repeat each row `factor` times and truncate to out_len rows.

    Rows are axis -2; leading axes are batch axes.  Output row r is input row
    r // factor; rows ``start`` .. out_len - 1 are returned.
    """
    x = _value(a)
    shape = x.shape
    lead, m, d = shape[:-2], shape[-2], shape[-1]
    first = start // factor  # input row of output row `start`
    lo, hi = start - first * factor, out_len - first * factor
    rep = np.repeat(x[..., first:, :], factor, axis=-2)[..., lo:hi, :]
    if _plain(a):
        return rep

    def vjp(g):
        full = np.zeros(lead + ((m - first) * factor, d))
        full[..., lo:hi, :] = g
        grad = np.zeros(shape)
        grad[..., first:, :] = full.reshape(lead + (m - first, factor, d)).sum(axis=-2)
        return grad

    return _node(rep, (a,), (vjp,))


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad leaf reachable from loss.

    The pass walks vertices only: it reads ``loss.value`` for the seed
    gradient's shape and no other forward value, so the activations still
    alive are those the VJPs saved.  A leaf's gradient is added to the
    ``.grad`` it already holds, so gradients accumulate over backward passes
    on several graphs that share leaves: training builds and differentiates
    one condition group's graph at a time, and peak memory is set by the
    largest group, not the dataset.  The pass consumes the graph: each
    interior vertex gives up its gradient, parents and VJPs once they have
    been passed on, so a graph is differentiated once.
    """
    root = loss.vertex
    order: list[Vertex] = []
    seen: set[int] = set()
    stack: list[tuple[Vertex, bool]] = [(root, False)]
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

    root.grad = np.ones_like(loss.value)
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
            # spent: dropping the links frees each saved array once no VJP
            # still to run holds it, so the pass releases the graph as it goes
            node.grad = None
            node.parents = node.vjps = ()
