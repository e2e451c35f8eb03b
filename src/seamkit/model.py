"""Conditional autoregressive seam generator.

Two point-cloud encoder branches (topology and geometry) with identical
architectures but separate parameters produce ``tokens_per_branch`` latent
tokens each; their concatenation conditions an hourglass transformer decoder
over the seam token vocabulary.  The decoder downsamples by 3 (coordinate
level) and then by 2 (endpoint level) with shift-right mean pooling, and
upsamples back with nearest-repeat plus residual merges; both resamplings
preserve causality.  Layers follow a repeating pattern of three causal
self-attention layers then one cross-attention layer over the condition.

Decoding is incremental.  Because of that causality a row of any level,
once created, never changes, so a decode keeps each self-attention layer's
keys and values and each level's output rows, and a new token computes only
the rows it creates: one coordinate row per token; an endpoint row when
token index n = 3k arrives (the mean of coordinate outputs 3k-2 .. 3k, zero
below 0); a valley row when endpoint row k is even (the mean of endpoint
rows k-1, k); and the endpoint-post row k together with its endpoint row.
The logits of token n are ``head(post[n // 3] + coord[n])``.  Cross-attention
projects the condition once per decode.  The teacher-forced forward pass is
the same code run once over the whole sequence from an empty cache.
``sample_batch`` decodes several candidates for one condition as one batch;
each candidate draws from its own seeded generator, and its logits match a
decode of it alone up to float rounding, so a batch gives the samples of one
``sample`` call per seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from seamkit import autodiff as ad
from seamkit.sampling import ConditioningClouds, fps_anchors
from seamkit.tokenizer import BOS, EOS, PAD, VOCAB_SIZE, TokenSequence

LN_EPS = 1e-5
MASK_VALUE = -1e30


class ModelError(Exception):
    pass


class CheckpointError(ModelError):
    pass


class TrainingError(ModelError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    Desk defaults keep every property test fast; the paper-scale values
    (tokens_per_branch=3072, d_model=1024, n_layers=24) are representable but
    not exercised by the test harness.
    """

    tokens_per_branch: int = 32
    d_model: int = 64
    n_layers: int = 8
    n_heads: int = 2
    vocab_size: int = VOCAB_SIZE
    coord_factor: int = 3
    endpoint_factor: int = 2
    max_segments: int = 512
    ff_mult: int = 4
    train_topo_encoder: bool = True
    train_geom_encoder: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.coord_factor != 3 or self.endpoint_factor != 2:
            raise ModelError("resampling factors are fixed at 3 (coordinate) and 2 (endpoint)")
        if self.vocab_size != VOCAB_SIZE:
            raise ModelError(f"vocabulary is fixed at {VOCAB_SIZE}")
        if self.d_model % self.n_heads != 0:
            raise ModelError("d_model must be divisible by n_heads")
        if self.n_layers < 4:
            raise ModelError("need at least 4 layers (one cross-attention layer)")

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

    @classmethod
    def paper_scale(cls, **overrides) -> "ModelConfig":
        args = dict(tokens_per_branch=3072, d_model=1024, n_layers=24, n_heads=16)
        args.update(overrides)
        return cls(**args)


def _is_cross_layer(i: int) -> bool:
    # repeating pattern: three self-attention layers, then one cross-attention
    return i % 4 == 3


@dataclass
class ParameterStore:
    """Named float64 weight arrays with a role tag (policy or reference)."""

    arrays: dict
    config: ModelConfig
    role: str = "policy"

    def names(self) -> list[str]:
        return list(self.arrays)

    def copy(self, role: str | None = None) -> "ParameterStore":
        return ParameterStore(
            arrays={k: v.copy() for k, v in self.arrays.items()},
            config=self.config,
            role=self.role if role is None else role,
        )

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def trainable_names(self) -> list[str]:
        out = []
        for name in self.arrays:
            if name.startswith("enc.topo.") and not self.config.train_topo_encoder:
                continue
            if name.startswith("enc.geom.") and not self.config.train_geom_encoder:
                continue
            out.append(name)
        return out

    def as_tensors(self, trainable: bool = False) -> dict:
        train = set(self.trainable_names()) if trainable else set()
        return {
            k: ad.Tensor(v, requires_grad=(k in train)) for k, v in self.arrays.items()
        }


def _parameter_shapes(config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape of every parameter, in the order they are created."""
    d = config.d_model
    h = config.ff_mult * d
    shapes: dict[str, tuple] = {}

    def ln(name):
        shapes[f"{name}.g"] = (d,)
        shapes[f"{name}.b"] = (d,)

    shapes["embed.token"] = (config.vocab_size, d)
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
    shapes["head.w"] = (d, config.vocab_size)
    shapes["head.b"] = (config.vocab_size,)
    return shapes


def init_parameters(config: ModelConfig, role: str = "policy") -> ParameterStore:
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
    return ParameterStore(arrays=arrays, config=config, role=role)


# ---------------------------------------------------------------------------
# Forward building blocks (operate on autodiff Tensors)


def _layer_norm(x, g, b):
    mu = ad.mean_axis(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.mean_axis(ad.power(centered, 2.0), axis=-1, keepdims=True)
    inv = ad.power(ad.add(var, ad.Tensor(LN_EPS)), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), g), b)


def _swapped(ndim: int, i: int, j: int) -> tuple:
    axes = list(range(ndim))
    axes[i], axes[j] = axes[j], axes[i]
    return tuple(axes)


def _split_heads(x, n_heads: int):
    """(..., n, d) -> (..., heads, n, d / heads)."""
    *lead, n, d = x.value.shape
    split = ad.reshape(x, (*lead, n, n_heads, d // n_heads))
    return ad.transpose(split, _swapped(split.value.ndim, -3, -2))


def _merge_heads(x):
    *lead, h, n, dh = x.value.shape
    return ad.reshape(ad.transpose(x, _swapped(x.value.ndim, -3, -2)), (*lead, n, h * dh))


def _project_kv(kv_in, p, prefix: str, n_heads: int):
    k = _split_heads(ad.matmul(kv_in, p[f"{prefix}.wk"]), n_heads)
    v = _split_heads(ad.matmul(kv_in, p[f"{prefix}.wv"]), n_heads)
    return k, v


def _attention(q_in, k, v, p, prefix: str, n_heads: int, mask: np.ndarray | None):
    q = _split_heads(ad.matmul(q_in, p[f"{prefix}.wq"]), n_heads)
    dh = q.value.shape[-1]
    kt = ad.transpose(k, _swapped(k.value.ndim, -1, -2))
    scores = ad.scale(ad.matmul(q, kt), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, ad.Tensor(mask))
    weights = ad.softmax(scores, axis=-1)
    out = _merge_heads(ad.matmul(weights, v))
    return ad.matmul(out, p[f"{prefix}.wo"])


def _ff(x, p, prefix: str):
    hidden = ad.gelu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
    return ad.add(ad.matmul(hidden, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])


def _decoder_layer(x, state: _DecodeState, i: int, causal_mask: np.ndarray | None):
    p = state.p
    normed = _layer_norm(x, p[f"dec.{i}.ln1.g"], p[f"dec.{i}.ln1.b"])
    k, v = state.keys_values(i, normed)
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


def _encode_branch(points: np.ndarray, p, branch: str, config: ModelConfig):
    pts = _canonical_cloud(points)
    if len(pts) < config.tokens_per_branch:
        raise ModelError(
            f"{branch} cloud has {len(pts)} points < tokens_per_branch={config.tokens_per_branch}"
        )
    anchors = fps_anchors(pts, config.tokens_per_branch)
    feats = ad.add(ad.matmul(ad.Tensor(pts), p[f"enc.{branch}.point.w"]), p[f"enc.{branch}.point.b"])
    queries = ad.gather_rows(feats, anchors)
    q_norm = _layer_norm(queries, p[f"enc.{branch}.attn.lnq.g"], p[f"enc.{branch}.attn.lnq.b"])
    kv_norm = _layer_norm(feats, p[f"enc.{branch}.attn.lnkv.g"], p[f"enc.{branch}.attn.lnkv.b"])
    k, v = _project_kv(kv_norm, p, f"enc.{branch}.attn", config.n_heads)
    att = _attention(q_norm, k, v, p, f"enc.{branch}.attn", config.n_heads, mask=None)
    x = ad.add(queries, att)
    ff = _ff(_layer_norm(x, p[f"enc.{branch}.ff.ln.g"], p[f"enc.{branch}.ff.ln.b"]), p, f"enc.{branch}.ff")
    return ad.add(x, ff)


def _encode_condition_t(clouds: ConditioningClouds, p, config: ModelConfig):
    topo = _encode_branch(clouds.topo_points, p, "topo", config)
    geom = _encode_branch(clouds.geom_points, p, "geom", config)
    return ad.concat_rows([topo, geom])


def encode_condition(clouds: ConditioningClouds, params: ParameterStore) -> np.ndarray:
    """Condition embedding: (2 * tokens_per_branch, d_model)."""
    p = params.as_tensors()
    return _encode_condition_t(clouds, p, params.config).value


class _DecodeState:
    """Per-layer K/V caches and per-level output rows of one decode.

    Rows carry any leading batch axes of the tokens.  Each call of
    ``_decode_t`` appends the rows its new tokens create (the rules are in
    the module docstring).  Self-attention layers append their new keys and
    values; cross-attention layers project the condition once, here.
    """

    def __init__(self, cond, p, config: ModelConfig):
        self.p = p
        self.config = config
        self.n_tokens = 0
        self.rows: dict[str, ad.Tensor] = {}
        self.kv: dict[int, tuple] = {}
        cond = ad.add(cond, ad.slice_rows(p["embed.cond_pos"], 0, cond.value.shape[0]))
        for i in range(config.n_layers):
            if _is_cross_layer(i):
                ctx = _layer_norm(cond, p[f"dec.{i}.lnctx.g"], p[f"dec.{i}.lnctx.b"])
                self.kv[i] = _project_kv(ctx, p, f"dec.{i}.attn", config.n_heads)

    def keys_values(self, i: int, normed):
        """Keys and values layer i attends to: the condition's, or every row so far."""
        if _is_cross_layer(i):
            return self.kv[i]
        k, v = _project_kv(normed, self.p, f"dec.{i}.attn", self.config.n_heads)
        if i in self.kv:
            k_old, v_old = self.kv[i]
            k = ad.concat_rows([k_old, k], axis=-2)
            v = ad.concat_rows([v_old, v], axis=-2)
        self.kv[i] = (k, v)
        return k, v

    def run_level(self, level: str, x, layers):
        """Run ``layers`` on the new rows ``x`` of ``level``; keep their outputs."""
        old = self.rows.get(level)
        n_new = x.value.shape[-2]
        n_total = n_new + (0 if old is None else old.value.shape[-2])
        mask = _causal_mask(n_new, n_total)
        for i in layers:
            x = _decoder_layer(x, self, i, mask)
        self.rows[level] = x if old is None else ad.concat_rows([old, x], axis=-2)
        return x

    def keep_batch(self, batch_rows) -> None:
        """Keep only these entries of the batch axis (a decode without gradients)."""
        idx = np.asarray(batch_rows, dtype=np.int64)
        self.rows = {k: ad.Tensor(t.value[idx]) for k, t in self.rows.items()}
        self.kv = {
            i: kv if _is_cross_layer(i) else tuple(ad.Tensor(t.value[idx]) for t in kv)
            for i, kv in self.kv.items()
        }


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
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise ModelError("token id outside the vocabulary")
    if n1 > config.max_seq_len:
        raise ModelError(f"sequence length {n1} exceeds cap {config.max_seq_len}")
    state.n_tokens = n1
    n_coord, n_ep_pre, n_valley, _ = config.stage_layers()
    ep_pre = n_coord + n_ep_pre
    valley = ep_pre + n_valley
    cf, ef = config.coord_factor, config.endpoint_factor

    x = ad.add(
        ad.gather_rows(p["embed.token"], tokens),
        ad.slice_rows(p["embed.pos"], n0, n1),
    )
    coord = state.run_level("coord", x, range(n_coord))
    k0, k1 = -(-n0 // cf), -(-n1 // cf)  # endpoint rows this call creates
    if k1 > k0:
        pooled = ad.mean_pool_causal(state.rows["coord"], cf, k0)
        ep = state.run_level("endpoint", pooled, range(n_coord, ep_pre))
        j0, j1 = -(-k0 // ef), -(-k1 // ef)
        if j1 > j0:
            pooled = ad.mean_pool_causal(state.rows["endpoint"], ef, j0)
            state.run_level("valley", pooled, range(ep_pre, valley))
        up = ad.repeat_upsample(state.rows["valley"], ef, k1, k0)
        state.run_level("post", ad.add(up, ep), range(valley, config.n_layers))

    x = ad.add(ad.repeat_upsample(state.rows["post"], cf, n1, n0), coord)
    h = _layer_norm(x, p["head.ln.g"], p["head.ln.b"])
    return ad.add(ad.matmul(h, p["head.w"]), p["head.b"])


def _decoder_logits_t(tokens: np.ndarray, cond, p, config: ModelConfig):
    return _decode_t(_DecodeState(cond, p, config), tokens)


def decoder_logits(
    tokens, cond: np.ndarray, params: ParameterStore
) -> np.ndarray:
    """Per-position next-token logits; position i depends only on tokens <= i."""
    t = _token_array(tokens)
    p = params.as_tensors()
    return _decoder_logits_t(t, ad.Tensor(cond), p, params.config).value


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
    logp = ad.log_softmax(ad.reshape(logits, (-1, config.vocab_size)), axis=-1)
    picked = ad.take_per_row(logp, targets.ravel())
    return [
        ad.sum_all(ad.slice_rows(picked, b * n_max, b * n_max + len(t) - 1))
        for b, t in enumerate(seqs)
    ]


def _sequence_logprob_t(t: np.ndarray, cond, p, config: ModelConfig):
    return _sequence_logprobs_t([t], cond, p, config)[0]


def sequence_logprob(tokens, cond: np.ndarray, params: ParameterStore) -> float:
    """Log probability of a complete sequence under teacher forcing."""
    t = _token_array(tokens)
    _check_complete(t)
    p = params.as_tensors()
    val = float(_sequence_logprob_t(t, ad.Tensor(cond), p, params.config).value)
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


def _sample_next(logits: np.ndarray, temperature: float, top_p: float, rng) -> int:
    if temperature < 1e-12:
        return int(np.argmax(logits))
    z = (logits - logits.max()) / temperature
    probs = np.exp(z)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = int(np.searchsorted(csum, top_p, side="left"))
    keep = order[: cut + 1]
    kept = probs[keep]
    kept /= kept.sum()
    u = rng.random()
    pick = int(np.searchsorted(np.cumsum(kept), u, side="right"))
    return int(keep[min(pick, len(keep) - 1)])


def sample_batch(
    cond: np.ndarray,
    params: ParameterStore,
    temperature: float = 1.0,
    top_p: float = 1.0,
    seeds=(0,),
    max_segments: int | None = None,
) -> list[SampleResult]:
    """One sample per seed, decoded together as one batch; see ``sample``.

    The candidates share the condition, so its cross-attention keys and
    values are projected once.  Each decode step appends one token per
    unfinished candidate to the per-level K/V caches (see ``_DecodeState``)
    instead of re-running the prefix.  Candidate i draws from its own
    ``default_rng(seeds[i])``, one draw per step when ``temperature > 0``;
    its logits match a decode of it alone up to float rounding, so its
    result is that of ``sample(..., seed=seeds[i])``.  A finished candidate
    leaves the batch.
    """
    if temperature < 0:
        raise ModelError("temperature must be >= 0")
    if not (0 < top_p <= 1):
        raise ModelError("top_p must be in (0, 1]")
    config = params.config
    cap_segments = config.max_segments if max_segments is None else max_segments
    max_body = 6 * cap_segments
    rngs = [np.random.default_rng(s) for s in seeds]
    seqs = [[BOS] for _ in rngs]
    malformed = [False] * len(rngs)
    steps = [0] * len(rngs)
    state = _DecodeState(ad.Tensor(cond), params.as_tensors(), config)
    active = list(range(len(rngs)))
    while active:
        last = np.array([[seqs[i][-1]] for i in active], dtype=np.int64)
        logits = _decode_t(state, last).value[:, -1]
        still = []
        for row, i in enumerate(active):
            nxt = _sample_next(logits[row], temperature, top_p, rngs[i])
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
    max_segments: int | None = None,
) -> SampleResult:
    """Autoregressive sampling until EOS or the segment cap.

    Deterministic given the seed: one ``default_rng(seed)`` serves every
    draw.  If the decoder stops mid-segment (EOS or a stray special token
    inside a coordinate block, or the cap is reached) the sequence is
    repaired by truncating to the last complete segment and flagged
    ``malformed``.  The decode is incremental: each step computes only the
    rows its token creates at each hourglass level (``sample_batch`` with
    one seed).
    """
    return sample_batch(cond, params, temperature, top_p, (seed,), max_segments)[0]


# ---------------------------------------------------------------------------
# Training


def _batch_nll_t(batch, p, config: ModelConfig):
    """Mean next-token NLL over all predicted positions in the batch."""
    total = None
    count = 0
    for clouds, tokens in batch:
        t = _token_array(tokens)
        _check_complete(t)
        cond = _encode_condition_t(clouds, p, config)
        lp = _sequence_logprob_t(t, cond, p, config)
        total = lp if total is None else ad.add(total, lp)
        count += len(t) - 1
    return ad.scale(total, -1.0 / count)


def nll_train_step(
    batch, params: ParameterStore, lr: float
) -> tuple[ParameterStore, float]:
    """One SGD step on mean next-token NLL; returns (updated params, loss)."""
    if not batch:
        raise TrainingError("empty batch")
    p = params.as_tensors(trainable=True)
    loss = _batch_nll_t(batch, p, params.config)
    value = float(loss.value)
    if not np.isfinite(value):
        raise TrainingError(f"non-finite NLL loss {value!r}")
    if lr == 0.0:
        return params.copy(), value
    ad.backward(loss)
    new = params.copy()
    for name in params.trainable_names():
        g = p[name].grad
        if g is not None:
            new.arrays[name] = new.arrays[name] - lr * g
    return new, value


# ---------------------------------------------------------------------------
# Checkpoints

_CKPT_MAGIC = b"SEAMKITCKPT1\n"


def save_checkpoint(params: ParameterStore) -> bytes:
    """Deterministic binary container: magic, JSON header, raw float64 buffers."""
    header = {
        "role": params.role,
        "config": asdict(params.config),
        "arrays": [
            {"name": k, "shape": list(v.shape)} for k, v in params.arrays.items()
        ],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    buffers = b"".join(
        np.ascontiguousarray(v, dtype="<f8").tobytes() for v in params.arrays.values()
    )
    return _CKPT_MAGIC + blob + buffers


def load_checkpoint(data: bytes) -> ParameterStore:
    """Parse a ``save_checkpoint`` container.

    Raises ``CheckpointError`` for a wrong magic; a header without its
    terminating newline, not JSON or missing a field; unknown or invalid
    config keys; parameter names or shapes that differ from the
    configuration's; a truncated buffer; or bytes after the last buffer.
    """
    if not data.startswith(_CKPT_MAGIC):
        raise CheckpointError("not a seamkit checkpoint")
    rest = data[len(_CKPT_MAGIC) :]
    nl = rest.find(b"\n")
    if nl < 0:
        raise CheckpointError("header has no terminating newline")
    try:
        header = json.loads(rest[:nl].decode())
        role, config_keys = str(header["role"]), dict(header["config"])
        specs = [(str(a["name"]), tuple(int(n) for n in a["shape"])) for a in header["arrays"]]
    except (UnicodeDecodeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed header: {exc!r}") from exc
    unknown = sorted(set(config_keys) - {f.name for f in fields(ModelConfig)})
    if unknown:
        raise CheckpointError(f"unknown config keys: {', '.join(unknown)}")
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
        offset += size
    if offset != len(rest):
        raise CheckpointError(f"{len(rest) - offset} trailing bytes after the last buffer")
    return ParameterStore(arrays=arrays, config=config, role=role)
