"""Conditional autoregressive seam generator.

Two point-cloud encoder branches (topology and geometry) with identical
architectures but separate parameters produce ``tokens_per_branch`` latent
tokens each; their concatenation conditions an hourglass transformer decoder
over the seam token vocabulary.

In a branch the cloud's FPS anchors attend to all its points.  The point
embedding is affine in xyz and feeds the key/value layer norm directly, so
every key and value is a fixed affine map of the point's [x y z 1] row
scaled by its inverse deviation, and the attention runs over those (N, 4)
rows with no per-point key or value formed (``_encode_branch`` gives the
identity; a change to that embedding must revisit it).

The decoder downsamples by 3 (coordinate level) and then by 2 (endpoint
level) with shift-right mean pooling, and upsamples back with
nearest-repeat plus residual merges; both resamplings preserve causality.
Layers follow a repeating pattern of three causal self-attention layers
then one cross-attention layer over the condition.

Decoding is incremental.  Because of that causality a row of any level,
once created, never changes, so a decode keeps each self-attention layer's
keys and values and each level's output rows, and a new token computes only
the rows it creates: one coordinate row per token; an endpoint row when
token index n = 3k arrives (the mean of coordinate outputs 3k-2 .. 3k, zero
below 0); a valley row when endpoint row k is even (the mean of endpoint
rows k-1, k); and the endpoint-post row k together with its endpoint row.
The logits of token n are ``head(post[n // 3] + coord[n])``.  Cross-attention
projects the condition once per decode.  On plain arrays the kept rows live
in buffers sized once to ``config.max_seq_len``, which a step writes in place
(``_DecodeState``); on Tensors they are concatenated.  The teacher-forced
forward pass is the same code run once over the whole sequence from an
empty cache.
``sample_batch`` decodes several candidates for one condition as one batch;
each candidate draws from its own seeded generator, and its logits match a
decode of it alone up to float rounding, so a batch gives the samples of one
``sample`` call per seed.

The forward code is written once over ``autodiff`` ops.  Training runs it on
``ParameterStore.as_tensors()`` in one loop, ``train``, for both stages:
each step differentiates the graph one condition group at a time,
accumulating the gradients, and updates by plain SGD.  A stage supplies
only a per-item term and a constant weight (``nll_train``: each sequence's
log-probability; ``dpo.dpo_train``: each pair's logistic loss).
``nll`` reads the NLL with no graph;
inference (``encode_condition``, ``sequence_logprob``, ``sample_batch``)
runs it on ``params.arrays``, where every op returns a plain ndarray before
any graph bookkeeping, and a decode appends no row by concatenation.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import asdict, dataclass, field, fields
from functools import reduce

import numpy as np

from seamkit import autodiff as ad
from seamkit.sampling import ConditioningClouds, fps_anchors
from seamkit.tokenizer import BOS, EOS, PAD, VOCAB_SIZE, TokenSequence

LN_EPS = 1e-5
MASK_VALUE = -1e30
COORD_FACTOR = 3  # tokens per coordinate-level pooling window
ENDPOINT_FACTOR = 2  # endpoint rows per valley row
FF_MULT = 4  # feed-forward hidden width as a multiple of d_model


class ModelError(Exception):
    pass


class CheckpointError(ModelError):
    pass


class TrainingError(ModelError):
    pass


# Least value of each int field of ModelConfig; four layers hold the first
# cross-attention layer.
_CONFIG_MINIMUMS = {
    "tokens_per_branch": 1,
    "d_model": 1,
    "n_layers": 4,
    "n_heads": 1,
    "max_segments": 1,
    "seed": 0,
}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters and the init seed.

    Vocabulary, resampling and feed-forward sizes are module constants.
    Desk defaults keep every property test fast; the paper-scale values
    (tokens_per_branch=3072, d_model=1024, n_layers=24) are representable but
    not exercised by the test harness.  Every field must be an ``int`` (not
    a ``bool``) of at least ``_CONFIG_MINIMUMS``, and ``n_heads`` must
    divide ``d_model``.  Anything else raises ``ModelError``.  Training
    moves every parameter.
    """

    tokens_per_branch: int = 32
    d_model: int = 64
    n_layers: int = 8
    n_heads: int = 2
    max_segments: int = 64
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ModelError(f"{f.name} must be an int, got {value!r}")
            elif value < _CONFIG_MINIMUMS[f.name]:
                raise ModelError(f"{f.name} must be >= {_CONFIG_MINIMUMS[f.name]}, got {value}")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")

    @property
    def max_seq_len(self) -> int:
        return 6 * self.max_segments + 2

    def stage_layers(self) -> tuple[int, int, int, int]:
        """Layer counts (coord_pre, endpoint_pre, valley, endpoint_post).

        The total splits as evenly as possible across the three hourglass
        levels; the endpoint level's share splits between its pre- and
        post-valley stages.
        """
        base, rem = divmod(self.n_layers, 3)
        coord, ep, seg = (base + (1 if i < rem else 0) for i in range(3))
        ep_pre = (ep + 1) // 2
        return coord, ep_pre, seg, ep - ep_pre


def _is_cross_layer(i: int) -> bool:
    # repeating pattern: three self-attention layers, then one cross-attention
    return i % 4 == 3


@dataclass
class ParameterStore:
    """Named float64 weight arrays and the config they were built for."""

    arrays: dict
    config: ModelConfig

    def copy(self) -> "ParameterStore":
        return ParameterStore(arrays={k: v.copy() for k, v in self.arrays.items()}, config=self.config)

    def as_tensors(self) -> dict:
        """Name -> ``autodiff.parameter`` of every array, for a training
        graph: each one requires a gradient.  Inference and graph-free
        scoring (``sequence_logprob``, ``_group_logprobs_t``) run on
        ``arrays`` directly and build no graph."""
        return {k: ad.parameter(v) for k, v in self.arrays.items()}


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter, in the order they are created."""
    d = config.d_model
    h = FF_MULT * d
    shapes: dict[str, tuple] = {}

    def ln(name):
        shapes[f"{name}.g"] = (d,)
        shapes[f"{name}.b"] = (d,)

    shapes["embed.token"] = (VOCAB_SIZE, d)
    shapes["embed.pos"] = (config.max_seq_len, d)
    # cross-attention is permutation-invariant over its keys; positions on the
    # condition stream keep the topology-then-geometry order observable
    shapes["embed.cond_pos"] = (2 * config.tokens_per_branch, d)
    for br in ("topo", "geom"):
        shapes[f"enc.{br}.point.w"] = (3, d)
        shapes[f"enc.{br}.point.b"] = (d,)
        ln(f"enc.{br}.attn.lnq")
        ln(f"enc.{br}.attn.lnkv")
        for nm in ("wq", "wk", "wv", "wo"):
            shapes[f"enc.{br}.attn.{nm}"] = (d, d)
        ln(f"enc.{br}.ff.ln")
        shapes[f"enc.{br}.ff.w1"] = (d, h)
        shapes[f"enc.{br}.ff.b1"] = (h,)
        shapes[f"enc.{br}.ff.w2"] = (h, d)
        shapes[f"enc.{br}.ff.b2"] = (d,)
    for i in range(config.n_layers):
        ln(f"dec.{i}.ln1")
        for nm in ("wq", "wk", "wv", "wo"):
            shapes[f"dec.{i}.attn.{nm}"] = (d, d)
        if _is_cross_layer(i):
            ln(f"dec.{i}.lnctx")
        ln(f"dec.{i}.ln2")
        shapes[f"dec.{i}.ff.w1"] = (d, h)
        shapes[f"dec.{i}.ff.b1"] = (h,)
        shapes[f"dec.{i}.ff.w2"] = (h, d)
        shapes[f"dec.{i}.ff.b2"] = (d,)
    ln("head.ln")
    shapes["head.w"] = (d, VOCAB_SIZE)
    shapes["head.b"] = (VOCAB_SIZE,)
    return shapes


def init_parameters(config: ModelConfig) -> ParameterStore:
    """Layer-norm gains 1, biases 0, weights N(0, 0.02) drawn in creation order."""
    rng = np.random.default_rng(config.seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _parameter_shapes(config).items():
        kind = name.rsplit(".", 1)[1]
        if kind == "g":
            arrays[name] = np.ones(shape)
        elif kind in ("b", "b1", "b2"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, 0.02, size=shape)
    return ParameterStore(arrays=arrays, config=config)


# ---------------------------------------------------------------------------
# Forward building blocks (on autodiff Tensors or plain arrays)


def _layer_norm(x, g, b):
    return ad.layer_norm(x, g, b, LN_EPS)


def _swapped(ndim: int, i: int, j: int) -> tuple:
    axes = list(range(ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return tuple(axes)


def _split_heads(x, n_heads: int):
    """(..., n, d) -> (..., heads, n, d / heads)."""
    *lead, n, d = x.shape
    split = ad.reshape(x, (*lead, n, n_heads, d // n_heads))
    return ad.transpose(split, _swapped(len(split.shape), -3, -2))


def _merge_heads(x):
    *lead, h, n, dh = x.shape
    return ad.reshape(ad.transpose(x, _swapped(len(x.shape), -3, -2)), (*lead, n, h * dh))


def _project_kv(kv_in, p, prefix: str, n_heads: int):
    k = _split_heads(ad.matmul(kv_in, p[f"{prefix}.wk"]), n_heads)
    v = _split_heads(ad.matmul(kv_in, p[f"{prefix}.wv"]), n_heads)
    return k, v


def _attention(q_in, k, v, p, prefix: str, n_heads: int, mask: np.ndarray | None):
    q = _split_heads(ad.matmul(q_in, p[f"{prefix}.wq"]), n_heads)
    out = _merge_heads(ad.attention(q, k, v, mask))
    return ad.matmul(out, p[f"{prefix}.wo"])


def _ff(x, p, prefix: str):
    hidden = ad.gelu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
    return ad.add(ad.matmul(hidden, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])


def _decoder_layer(x, state: _DecodeState, i: int, causal_mask: np.ndarray | None, cap: int):
    p = state.p
    normed = _layer_norm(x, p[f"dec.{i}.ln1.g"], p[f"dec.{i}.ln1.b"])
    k, v = state.keys_values(i, normed, cap)
    mask = None if _is_cross_layer(i) else causal_mask
    att = _attention(normed, k, v, p, f"dec.{i}.attn", state.config.n_heads, mask)
    x = ad.add(x, att)
    ff = _ff(_layer_norm(x, p[f"dec.{i}.ln2.g"], p[f"dec.{i}.ln2.b"]), p, f"dec.{i}.ff")
    return ad.add(x, ff)


def _causal_mask(n_new: int, n_total: int) -> np.ndarray | None:
    """Additive mask of the last ``n_new`` of ``n_total`` rows over all of them;
    None when no row has a later one to hide (a single new row)."""
    if n_new == 1:
        return None
    visible = np.tri(n_new, n_total, n_total - n_new, dtype=bool)
    return np.where(visible, 0.0, MASK_VALUE)


def _canonical_cloud(points: np.ndarray) -> np.ndarray:
    """Sort rows by (x, y, z) so the encoder is invariant to input order."""
    pts = np.asarray(points, dtype=np.float64)
    order = np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))
    return pts[order]


def _prepare_condition(clouds: ConditioningClouds, config: ModelConfig) -> tuple:
    """Per branch (topology, then geometry), the homogeneous coordinates
    ``[x y z 1]`` of the canonical cloud (``_encode_branch``'s basis) and its
    FPS anchor rows.  Both depend only on the clouds, so they are computed
    once per condition, not once per encoder pass."""
    prepared = []
    for branch, points in (("topo", clouds.topo_points), ("geom", clouds.geom_points)):
        pts = _canonical_cloud(points)
        if len(pts) < config.tokens_per_branch:
            raise ModelError(
                f"{branch} cloud has {len(pts)} points < tokens_per_branch={config.tokens_per_branch}"
            )
        basis = np.column_stack([pts, np.ones(len(pts))])
        prepared.append((branch, basis, fps_anchors(pts, config.tokens_per_branch)))
    return tuple(prepared)


def _encode_branch(branch: str, basis: np.ndarray, anchors: np.ndarray, p, config: ModelConfig):
    """One encoder branch: the cloud's FPS anchors attend to all its points,
    then a feed-forward block.

    The anchor rows are embedded, layer-normed and projected to queries.  The
    keys and values are those of the composed encoder (embed every point,
    layer-norm, project by ``wk`` and ``wv``), but no per-point key or value
    is formed.  A point's embedding is affine in its xyz, f = x A with x =
    [x y z 1] and A = [``point.w``; ``point.b``], so with Ac = A minus its
    row means and G = Ac Ac^T / d, the point's layer norm is r (x Ac) g + beta
    with r = (x G x^T + eps)^-1/2.  Its key is therefore r x (Ac g wk) + beta
    wk and its value r x (Ac g wv) + beta wv: per head, the keys and values
    are the (N, 4) rows r x, which all heads share, times a 4-column
    projection.  Attention runs on those rows, with each query mapped
    through its head's key projection.  The beta wk term adds one constant to
    all of a query's scores, which softmax removes, and the beta wv term is
    added once to the output, since the weights sum to 1.  This holds only
    while the point embedding is affine in xyz and feeds the key/value layer
    norm directly; a change to that embedding must revisit it.
    """
    pre = f"enc.{branch}.attn"
    d, n_heads = config.d_model, config.n_heads
    embed = ad.concat_rows(
        [p[f"enc.{branch}.point.w"], ad.reshape(p[f"enc.{branch}.point.b"], (1, d))]
    )
    queries = ad.matmul(basis[anchors], embed)
    q_norm = _layer_norm(queries, p[f"{pre}.lnq.g"], p[f"{pre}.lnq.b"])
    q = _split_heads(ad.matmul(q_norm, p[f"{pre}.wq"]), n_heads)

    centered = ad.sub(embed, ad.matmul(embed, np.full((d, 1), 1.0 / d)))  # Ac
    gram = ad.scale(ad.matmul(centered, ad.transpose(centered, (1, 0))), 1.0 / d)
    width = basis.shape[1]
    var = ad.matmul(ad.mul(ad.matmul(basis, gram), basis), np.ones((width, 1)))  # x G x^T
    rows = ad.mul(basis, ad.rsqrt(ad.add(var, LN_EPS)))  # r x
    gained = ad.mul(centered, p[f"{pre}.lnkv.g"])
    # attention scales scores by the key width it sees, 4, not the head width
    key_proj = ad.scale(ad.matmul(gained, p[f"{pre}.wk"]), math.sqrt(width * n_heads / d))
    value_proj = _split_heads(ad.matmul(gained, p[f"{pre}.wv"]), n_heads)
    q_rows = ad.matmul(q, ad.transpose(_split_heads(key_proj, n_heads), (0, 2, 1)))
    mixed = ad.matmul(ad.attention(q_rows, rows, rows), value_proj)
    value_bias = ad.matmul(ad.reshape(p[f"{pre}.lnkv.b"], (1, d)), p[f"{pre}.wv"])
    att = ad.matmul(ad.add(_merge_heads(mixed), value_bias), p[f"{pre}.wo"])
    x = ad.add(queries, att)
    ff = _ff(_layer_norm(x, p[f"enc.{branch}.ff.ln.g"], p[f"enc.{branch}.ff.ln.b"]), p, f"enc.{branch}.ff")
    return ad.add(x, ff)


def _encode_condition_t(prepared: tuple, p, config: ModelConfig):
    """Condition embedding of a ``_prepare_condition`` result."""
    return ad.concat_rows([_encode_branch(*branch, p, config) for branch in prepared])


def encode_condition(clouds: ConditioningClouds, params: ParameterStore) -> np.ndarray:
    """Condition embedding: (2 * tokens_per_branch, d_model)."""
    prepared = _prepare_condition(clouds, params.config)
    return _encode_condition_t(prepared, params.arrays, params.config)


def _levels(config: ModelConfig) -> dict[str, tuple[range, int]]:
    """Per hourglass level, its decoder layers and its row count at
    ``config.max_seq_len`` tokens: L coordinate rows, ceil(L/3) endpoint
    and post rows, ceil(L/6) valley rows."""
    n_coord, n_ep_pre, n_valley, _ = config.stage_layers()
    ep_pre = n_coord + n_ep_pre
    valley = ep_pre + n_valley
    n = config.max_seq_len
    n_ep = -(-n // COORD_FACTOR)
    return {
        "coord": (range(n_coord), n),
        "endpoint": (range(n_coord, ep_pre), n_ep),
        "valley": (range(ep_pre, valley), -(-n_ep // ENDPOINT_FACTOR)),
        "post": (range(valley, config.n_layers), n_ep),
    }


class _DecodeState:
    """Per-layer K/V caches and per-level output rows of one decode.

    Rows carry any leading batch axes of the tokens.  Each call of
    ``_decode_t`` appends the rows its new tokens create (the rules are in
    the module docstring).  Self-attention layers append their new keys and
    values; cross-attention layers project the condition once, here.

    ``rows`` maps a level, or a self-attention layer's ``(i, "k")`` and
    ``(i, "v")``, to every row so far.  On Tensors each append is an
    ``autodiff.concat_rows`` node, so a training graph spans the decode.  On
    plain arrays each entry has a buffer, allocated at its first append with
    ``np.empty`` to its level's row count at ``config.max_seq_len``
    (``_levels``): an append writes the new rows in place, and ``rows`` holds
    the view of the filled rows ``[..., :n, :]`` that attention, pooling
    and upsampling read.  No step copies the prefix.
    """

    def __init__(self, cond, p, config: ModelConfig):
        self.p = p
        self.config = config
        self.levels = _levels(config)
        self.n_tokens = 0
        self.rows: dict = {}
        cond = ad.add(cond, ad.slice_rows(p["embed.cond_pos"], 0, cond.shape[0]))
        self.buffers: dict | None = None if isinstance(cond, ad.Tensor) else {}
        self.cross: dict[int, tuple] = {}
        for i in range(config.n_layers):
            if _is_cross_layer(i):
                ctx = _layer_norm(cond, p[f"dec.{i}.lnctx.g"], p[f"dec.{i}.lnctx.b"])
                self.cross[i] = _project_kv(ctx, p, f"dec.{i}.attn", config.n_heads)

    def append(self, key, new, cap: int):
        """Every row of ``key`` after appending ``new`` along axis -2."""
        old = self.rows.get(key)
        if self.buffers is None:
            self.rows[key] = new if old is None else ad.concat_rows([old, new], axis=-2)
            return self.rows[key]
        n0 = 0 if old is None else old.shape[-2]
        n1 = n0 + new.shape[-2]
        buf = self.buffers.get(key)
        if buf is None:
            buf = self.buffers[key] = np.empty(new.shape[:-2] + (cap, new.shape[-1]))
        buf[..., n0:n1, :] = new
        self.rows[key] = buf[..., :n1, :]
        return self.rows[key]

    def keys_values(self, i: int, normed, cap: int):
        """Keys and values layer i attends to: the condition's, or every row so far."""
        if _is_cross_layer(i):
            return self.cross[i]
        k, v = _project_kv(normed, self.p, f"dec.{i}.attn", self.config.n_heads)
        return self.append((i, "k"), k, cap), self.append((i, "v"), v, cap)

    def run_level(self, level: str, x):
        """Run the level's layers on its new rows ``x``; keep their outputs."""
        layers, cap = self.levels[level]
        old = self.rows.get(level)
        n_new = x.shape[-2]
        n_total = n_new + (0 if old is None else old.shape[-2])
        mask = _causal_mask(n_new, n_total)
        for i in layers:
            x = _decoder_layer(x, self, i, mask, cap)
        self.append(level, x, cap)
        return x

    def keep_batch(self, batch_rows) -> None:
        """Keep only these entries of the batch axis (a decode on plain
        arrays): each buffer is replaced by one that holds the filled rows of
        the kept entries."""
        idx = np.asarray(batch_rows, dtype=np.int64)
        for key, filled in self.rows.items():
            n = filled.shape[-2]
            buf = np.empty((len(idx),) + self.buffers[key].shape[1:])
            buf[..., :n, :] = filled[idx]
            self.buffers[key] = buf
            self.rows[key] = buf[..., :n, :]


def _decode_t(state: _DecodeState, tokens: np.ndarray):
    """Append ``tokens`` (..., c) to the decode; next-token logits (..., c, vocab).

    Position i of the result depends only on tokens <= i.  From a fresh state
    this is the full teacher-forced forward pass.
    """
    config, p = state.config, state.p
    n0 = state.n_tokens
    n1 = n0 + tokens.shape[-1]
    if tokens.size == 0:
        raise ModelError("prefix must contain at least BOS")
    if tokens.min() < 0 or tokens.max() >= VOCAB_SIZE:
        raise ModelError("token id outside the vocabulary")
    if n1 > config.max_seq_len:
        raise ModelError(f"sequence length {n1} exceeds cap {config.max_seq_len}")
    state.n_tokens = n1
    cf, ef = COORD_FACTOR, ENDPOINT_FACTOR

    x = ad.add(
        ad.gather_rows(p["embed.token"], tokens),
        ad.slice_rows(p["embed.pos"], n0, n1),
    )
    coord = state.run_level("coord", x)
    k0, k1 = -(-n0 // cf), -(-n1 // cf)  # endpoint rows this call creates
    if k1 > k0:
        pooled = ad.mean_pool_causal(state.rows["coord"], cf, k0)
        ep = state.run_level("endpoint", pooled)
        j0, j1 = -(-k0 // ef), -(-k1 // ef)
        if j1 > j0:
            pooled = ad.mean_pool_causal(state.rows["endpoint"], ef, j0)
            state.run_level("valley", pooled)
        up = ad.repeat_upsample(state.rows["valley"], ef, k1, k0)
        state.run_level("post", ad.add(up, ep))

    x = ad.add(ad.repeat_upsample(state.rows["post"], cf, n1, n0), coord)
    h = _layer_norm(x, p["head.ln.g"], p["head.ln.b"])
    return ad.add(ad.matmul(h, p["head.w"]), p["head.b"])


def _decoder_logits_t(tokens: np.ndarray, cond, p, config: ModelConfig):
    return _decode_t(_DecodeState(cond, p, config), tokens)


def _token_array(tokens) -> np.ndarray:
    if isinstance(tokens, TokenSequence):
        return tokens.tokens
    return np.asarray(tokens, dtype=np.int64)


def _check_complete(t: np.ndarray) -> None:
    if len(t) < 2 or t[0] != BOS or t[-1] != EOS:
        raise ModelError("sequence must start with BOS and end with EOS")
    body = t[1:-1]
    if len(body) % 6 != 0 or (len(body) and body.max() >= 1024):
        raise ModelError("sequence body must be coordinate tokens in groups of 6")


def _sequence_logprobs_t(seqs, cond, p, config: ModelConfig) -> list:
    """Teacher-forced log-probabilities of complete sequences under one condition.

    The sequences are decoded as one ``(B, n_max)`` batch, right-padded with
    PAD.  The decoder is causal, so padding never reaches a real position.
    Each sequence's picked log-probabilities are summed over its own rows
    only, so its value is that of a decode of it alone up to float rounding.
    """
    n_max = max(len(t) for t in seqs) - 1
    inputs = np.full((len(seqs), n_max), PAD, dtype=np.int64)
    targets = np.full((len(seqs), n_max), PAD, dtype=np.int64)
    for b, t in enumerate(seqs):
        inputs[b, : len(t) - 1] = t[:-1]
        targets[b, : len(t) - 1] = t[1:]
    logits = _decoder_logits_t(inputs, cond, p, config)
    picked = ad.log_softmax_pick(ad.reshape(logits, (-1, VOCAB_SIZE)), targets.ravel())
    return [
        ad.sum_all(ad.slice_rows(picked, b * n_max, b * n_max + len(t) - 1))
        for b, t in enumerate(seqs)
    ]


def sequence_logprob(tokens, cond: np.ndarray, params: ParameterStore) -> float:
    """Log probability of a complete sequence under teacher forcing."""
    t = _token_array(tokens)
    _check_complete(t)
    cond = np.asarray(cond, dtype=np.float64)
    val = float(_sequence_logprobs_t([t], cond, params.arrays, params.config)[0])
    if not np.isfinite(val):
        raise ModelError("non-finite sequence log-probability")
    return val


# ---------------------------------------------------------------------------
# Sampling


@dataclass(frozen=True)
class SampleResult:
    """Sampled token sequence, repaired to a well-formed layout if needed."""

    tokens: TokenSequence
    malformed: bool
    n_steps: int


def _sample_rows(logits: np.ndarray, temperature: float, top_p: float, rngs) -> list[int]:
    """One token per row of ``logits`` (B, vocab); row b draws ``rngs[b].random()``.

    Nucleus (top-p) sampling on the value-sorted distribution: the smallest
    prefix of the probabilities in descending order whose sum reaches
    ``top_p`` is renormalized and sampled.  Equal probabilities rank by
    token index, so the token at sorted position ``pick`` of value v is the
    ``pick - #(p > v)``-th token of value v.  ``temperature`` ~ 0 is argmax.
    """
    if temperature < 1e-12:
        return [int(t) for t in np.argmax(logits, axis=1)]
    z = (logits - logits.max(axis=1, keepdims=True)) / temperature
    probs = np.exp(z)
    probs /= probs.sum(axis=1, keepdims=True)
    desc = -np.sort(-probs, axis=1)
    csum = np.cumsum(desc, axis=1)
    out = []
    for row, sorted_row, c, rng in zip(probs, desc, csum, rngs):
        cut = int(np.searchsorted(c, top_p, side="left"))
        kept = sorted_row[: cut + 1]
        kept = kept / kept.sum()
        u = rng.random()
        pick = min(int(np.searchsorted(np.cumsum(kept), u, side="right")), len(kept) - 1)
        v = sorted_row[pick]
        out.append(int(np.flatnonzero(row == v)[pick - np.count_nonzero(row > v)]))
    return out


def sample_batch(
    cond: np.ndarray,
    params: ParameterStore,
    temperature: float = 1.0,
    top_p: float = 1.0,
    seeds=(0,),
) -> list[SampleResult]:
    """One sample per seed, decoded together as one batch; see ``sample``.

    The candidates share the condition, so its cross-attention keys and
    values are projected once.  Each decode step writes the rows of one token
    per unfinished candidate into the decode's preallocated K/V and level-row
    buffers (see ``_DecodeState``) instead of re-running or copying the
    prefix.  Candidate i draws from its own ``default_rng(seeds[i])``, one
    draw per step when ``temperature > 0`` (one ``_sample_rows`` call per
    step serves every candidate); its logits match a decode of it alone up
    to float rounding, so its result is that of ``sample(..., seed=seeds[i])``.
    A finished candidate leaves the batch: ``_DecodeState.keep_batch`` copies
    the filled rows of the others.
    """
    if not 0 <= temperature < math.inf:
        raise ModelError(f"temperature must be >= 0 and finite, got {temperature!r}")
    if not (0 < top_p <= 1):
        raise ModelError("top_p must be in (0, 1]")
    config = params.config
    max_body = 6 * config.max_segments
    rngs = [np.random.default_rng(s) for s in seeds]
    seqs = [[BOS] for _ in rngs]
    malformed = [False] * len(rngs)
    steps = [0] * len(rngs)
    state = _DecodeState(np.asarray(cond, dtype=np.float64), params.arrays, config)
    active = list(range(len(rngs)))
    while active:
        last = np.array([[seqs[i][-1]] for i in active], dtype=np.int64)
        logits = _decode_t(state, last)[:, -1]
        drawn = _sample_rows(logits, temperature, top_p, [rngs[i] for i in active])
        still = []
        for row, (i, nxt) in enumerate(zip(active, drawn)):
            steps[i] += 1
            if nxt not in (EOS, BOS, PAD):
                seqs[i].append(nxt)
            body = len(seqs[i]) - 1
            if nxt in (BOS, PAD):
                malformed[i] = True
            elif nxt == EOS or body >= max_body:
                malformed[i] = body % 6 != 0
            else:
                still.append(row)
        if len(still) < len(active):
            state.keep_batch(still)
            active = [active[row] for row in still]
    results = []
    for seq, bad, n_steps in zip(seqs, malformed, steps):
        body = seq[1 : 1 + 6 * ((len(seq) - 1) // 6)]
        out = TokenSequence(tokens=np.asarray([BOS, *body, EOS], dtype=np.int64))
        results.append(SampleResult(tokens=out, malformed=bad, n_steps=n_steps))
    return results


def sample(
    cond: np.ndarray,
    params: ParameterStore,
    temperature: float = 1.0,
    top_p: float = 1.0,
    seed: int = 0,
) -> SampleResult:
    """Autoregressive sampling until EOS or the model's segment cap,
    ``config.max_segments``.

    Deterministic given the seed: one ``default_rng(seed)`` serves every
    draw.  If the decoder stops mid-segment (EOS or a stray special token
    inside a coordinate block, or the cap is reached) the sequence is
    repaired by truncating to the last complete segment and flagged
    ``malformed``.  The decode is incremental: each step computes only the
    rows its token creates at each hourglass level (``sample_batch`` with
    one seed).
    """
    return sample_batch(cond, params, temperature, top_p, (seed,))[0]


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class _ConditionBatch:
    """``groups[g]`` is (clouds, {bytes: token array} of its distinct
    sequences); ``index[i]`` is item i's (group, key of each of its
    sequences).  ``prepared`` holds each group's ``_prepare_condition``
    from its first use on (``condition``)."""

    groups: list
    index: list
    config: ModelConfig
    prepared: dict = field(default_factory=dict)

    def condition(self, g: int) -> tuple:
        """Group g's prepared condition, computed at its first use."""
        if g not in self.prepared:
            self.prepared[g] = _prepare_condition(self.groups[g][0], self.config)
        return self.prepared[g]


def _group_conditions(items, config: ModelConfig) -> _ConditionBatch:
    """Group (clouds, token arrays) items by the content of their clouds:
    the one path on which NLL pretraining and DPO score sequences.

    Items whose clouds hold equal point arrays share a group even when they
    carry distinct ``ConditioningClouds`` objects; groups come in order of
    first use.  Each group keeps each distinct sequence once and prepares
    its condition once, at its first pass (``_ConditionBatch.condition``),
    so a run that scores nothing prepares nothing; an item repeated in
    ``items`` keeps one index entry per occurrence.  Every sequence must be
    complete (BOS, 6-token segments, EOS), else ``ModelError``.
    """
    groups: list = []
    index: list = []
    group_ids: dict = {}
    for clouds, seqs in items:
        for t in seqs:
            _check_complete(t)
        key = tuple(
            (pts.shape, np.ascontiguousarray(pts, dtype=np.float64).tobytes())
            for pts in (clouds.topo_points, clouds.geom_points)
        )
        g = group_ids.setdefault(key, len(groups))
        if g == len(groups):
            groups.append((clouds, {}))
        keys = tuple(t.tobytes() for t in seqs)
        groups[g][1].update(zip(keys, seqs))
        index.append((g, *keys))
    return _ConditionBatch(groups=groups, index=index, config=config)


def _condition_logprobs_t(prepared: tuple, seqs: dict, p, config: ModelConfig) -> dict:
    """{key: log-probability} of one group's sequences (Tensors on Tensor
    parameters, arrays on arrays): one condition encoding and one padded
    decode (``_sequence_logprobs_t``)."""
    cond = _encode_condition_t(prepared, p, config)
    return dict(zip(seqs, _sequence_logprobs_t(list(seqs.values()), cond, p, config)))


def _group_logprobs_t(batch: _ConditionBatch, p, config: ModelConfig) -> list[dict]:
    """Per group, ``_condition_logprobs_t`` of its sequences.

    On a store's ``arrays`` it builds no graph and gives the Tensor path's
    values bit for bit: the tests score DPO references with it."""
    return [
        _condition_logprobs_t(batch.condition(g), seqs, p, config)
        for g, (_, seqs) in enumerate(batch.groups)
    ]


def train(
    params: ParameterStore, batch: _ConditionBatch, term, weight: float, steps: int, lr: float, on_step=None
) -> ParameterStore:
    """``steps`` SGD steps on ``weight`` times the sum of ``term`` over
    ``batch``'s items (at least one); returns the trained store.  The one
    training loop: ``nll_train`` and ``dpo.dpo_train`` supply only the term
    and the weight.

    Each step builds and differentiates the objective one condition group
    at a time: the group's condition is encoded and its sequences scored
    (``_condition_logprobs_t``), ``term(i, logprobs)`` gives item i's Tensor
    term from its sequences' log-probabilities (in ``batch.index[i]``'s
    order), and ``autodiff.backward`` runs on the group's weighted sum.
    Leaf gradients accumulate, so peak memory is set by the largest
    condition group, not by the batch, as long as ``term`` keeps only plain
    floats or arrays past its call.  The loss is the per-item term floats
    summed in item order, times ``weight``; a non-finite loss raises
    ``TrainingError``.  ``on_step(step, loss, grads)`` (name -> gradient,
    None where no path reached) runs before the update and may raise.  The
    update is ``old - lr * grad``, a copy where there is no gradient.
    ``params`` is read-only and dropped at step 0's update, and each step's
    gradients before the next pass, so when the caller keeps no name for
    ``params`` (CPython 3.11 and later move a call's arguments to the
    callee) later steps hold one store.
    """
    members: list[list[int]] = [[] for _ in batch.groups]
    for i, (g, *_) in enumerate(batch.index):
        members[g].append(i)
    values = [0.0] * len(batch.index)
    for step in range(steps):
        p = params.as_tensors()
        for g, ((_, seqs), items) in enumerate(zip(batch.groups, members)):
            logprobs = _condition_logprobs_t(batch.condition(g), seqs, p, params.config)
            terms = [term(i, [logprobs[k] for k in batch.index[i][1:]]) for i in items]
            for i, t in zip(items, terms):
                values[i] = float(t.value)
            ad.backward(ad.scale(reduce(ad.add, terms), weight))
        loss = reduce(operator.add, values) * weight
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss at step {step}")
        grads = {name: t.grad for name, t in p.items()}
        if on_step is not None:
            on_step(step, loss, grads)
        params = ParameterStore(
            arrays={
                name: old.copy() if grads[name] is None else old - lr * grads[name]
                for name, old in params.arrays.items()
            },
            config=params.config,
        )
        del p, grads  # spent: free this step's gradients before the next pass
    return params


def _nll_objective(examples, config: ModelConfig) -> tuple[_ConditionBatch, float]:
    """(clouds, tokens) examples as one-sequence items of ``_group_conditions``,
    and the NLL weight: minus one over the number of predicted positions."""
    batch = _group_conditions([(c, (_token_array(t),)) for c, t in examples], config)
    if not batch.index:
        raise TrainingError("empty batch")
    n_predicted = sum(len(batch.groups[g][1][k]) - 1 for g, k in batch.index)
    return batch, -1.0 / n_predicted


def nll(params: ParameterStore, examples) -> float:
    """Mean next-token NLL of the (clouds, tokens) examples: minus the sum of
    their log-probabilities, in example order, over the number of predicted
    positions.  Scored on ``params.arrays`` (``_group_logprobs_t``), so it
    builds no graph and equals ``nll_train``'s loss at the same store bit
    for bit."""
    batch, weight = _nll_objective(examples, params.config)
    lps = _group_logprobs_t(batch, params.arrays, params.config)
    return reduce(operator.add, (float(lps[g][k]) for g, k in batch.index)) * weight


def nll_train(
    params: ParameterStore, examples, steps: int, lr: float, on_step=None
) -> tuple[ParameterStore, list]:
    """``steps`` SGD steps (``train``) on the mean next-token NLL of the
    (clouds, tokens) examples (``nll``), grouped once, so each condition is
    prepared once per call: each item's term is its sequence
    log-probability.  Returns (trained store, each step's loss before its
    update)."""
    batch, weight = _nll_objective(examples, params.config)
    losses: list = []

    def record(step, loss, grads):
        losses.append(loss)
        if on_step is not None:
            on_step(step, loss, grads)

    return train(params, batch, lambda i, lps: lps[0], weight, steps, lr, record), losses


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"SEAMKITCKPT1\n"


def save_checkpoint(params: ParameterStore) -> bytes:
    """Deterministic binary container: magic, JSON header, raw float64 buffers.

    The one-line JSON header has exactly the keys ``config`` (every
    ``ModelConfig`` field) and ``arrays`` (``name`` and ``shape`` of each
    parameter, in the order of the little-endian buffers that follow).
    """
    header = {
        "config": asdict(params.config),
        "arrays": [
            {"name": k, "shape": list(v.shape)} for k, v in params.arrays.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    # one join reads every array's buffer in place: no per-array byte copies
    buffers = (np.ascontiguousarray(v, dtype="<f8") for v in params.arrays.values())
    return b"".join([_CKPT_MAGIC, blob, *buffers])


def _header_shape(value) -> tuple:
    """A checkpoint header's shape entry, a list of JSON integers (not booleans)."""
    if not isinstance(value, list) or any(type(n) is not int for n in value):
        raise ValueError(f"shape {value!r} is not a list of integers")
    return tuple(value)


def load_checkpoint(data: bytes) -> ParameterStore:
    """Parse a ``save_checkpoint`` container.

    Raises ``CheckpointError`` for a wrong magic; a header without its
    terminating newline, not JSON, or whose keys are not exactly ``config``
    and ``arrays``; unknown, missing or invalid config keys; a shape that
    is not a list of integers; parameter names or shapes that differ from
    the configuration's; a truncated buffer; a non-finite weight; or bytes
    after the last buffer.  An unknown header or config key, such as one a
    former format carried, is named, and so is every missing config key: a
    header without ``seed`` would otherwise load with the default seed.
    """
    if not data.startswith(_CKPT_MAGIC):
        raise CheckpointError("not a seamkit checkpoint")
    rest = data[len(_CKPT_MAGIC) :]
    nl = rest.find(b"\n")
    if nl < 0:
        raise CheckpointError("header has no terminating newline")
    try:
        header = json.loads(rest[:nl].decode())
        config_keys = dict(header["config"])
        specs = [(str(a["name"]), _header_shape(a["shape"])) for a in header["arrays"]]
    except (UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed header: {exc!r}") from exc
    names = {f.name for f in fields(ModelConfig)}
    unknown = sorted(set(config_keys) - names)
    if unknown:
        raise CheckpointError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(names - set(config_keys))
    if missing:
        raise CheckpointError(f"missing config keys: {', '.join(missing)}")
    unknown = sorted(set(header) - {"config", "arrays"})
    if unknown:
        raise CheckpointError(f"unknown header keys: {', '.join(unknown)}")
    try:
        config = ModelConfig(**config_keys)
    except (ModelError, TypeError) as exc:
        raise CheckpointError(f"invalid config: {exc}") from exc
    expected = _parameter_shapes(config)
    if [name for name, _ in specs] != list(expected):
        raise CheckpointError("parameter names do not match the configuration")
    arrays = {}
    offset = nl + 1
    for name, shape in specs:
        if shape != expected[name]:
            raise CheckpointError(f"shape mismatch for {name}: {shape} != {expected[name]}")
        size = 8 * math.prod(shape)
        raw = rest[offset : offset + size]
        if len(raw) != size:
            raise CheckpointError(f"truncated buffer for {name}")
        arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"non-finite weights in {name}")
        offset += size
    if offset != len(rest):
        raise CheckpointError(f"{len(rest) - offset} trailing bytes after the last buffer")
    return ParameterStore(arrays=arrays, config=config)
