"""Conditional autoregressive seam generator.

Two point-cloud encoder branches (topology and geometry) with identical
architectures but separate parameters produce ``tokens_per_branch`` latent
tokens each; their concatenation conditions an hourglass transformer decoder
over the seam token vocabulary.  The decoder downsamples by 3 (coordinate
level) and then by 2 (endpoint level) with shift-right mean pooling, and
upsamples back with nearest-repeat plus residual merges; both resamplings
preserve causality.  Layers follow a repeating pattern of three causal
self-attention layers then one cross-attention layer over the condition.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

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


def init_parameters(config: ModelConfig, role: str = "policy") -> ParameterStore:
    rng = np.random.default_rng(config.seed)
    d = config.d_model
    h = config.ff_mult * d
    std = 0.02
    arrays: dict[str, np.ndarray] = {}

    def w(name, *shape):
        arrays[name] = rng.normal(0.0, std, size=shape)

    def ln(name):
        arrays[f"{name}.g"] = np.ones(d)
        arrays[f"{name}.b"] = np.zeros(d)

    w("embed.token", config.vocab_size, d)
    w("embed.pos", config.max_seq_len, d)
    # cross-attention is permutation-invariant over its keys; positions on the
    # condition stream keep the topology-then-geometry order observable
    w("embed.cond_pos", 2 * config.tokens_per_branch, d)
    for br in ("topo", "geom"):
        w(f"enc.{br}.point.w", 3, d)
        arrays[f"enc.{br}.point.b"] = np.zeros(d)
        ln(f"enc.{br}.attn.lnq")
        ln(f"enc.{br}.attn.lnkv")
        for nm in ("wq", "wk", "wv", "wo"):
            w(f"enc.{br}.attn.{nm}", d, d)
        ln(f"enc.{br}.ff.ln")
        w(f"enc.{br}.ff.w1", d, h)
        arrays[f"enc.{br}.ff.b1"] = np.zeros(h)
        w(f"enc.{br}.ff.w2", h, d)
        arrays[f"enc.{br}.ff.b2"] = np.zeros(d)
    for i in range(config.n_layers):
        ln(f"dec.{i}.ln1")
        for nm in ("wq", "wk", "wv", "wo"):
            w(f"dec.{i}.attn.{nm}", d, d)
        if _is_cross_layer(i):
            ln(f"dec.{i}.lnctx")
        ln(f"dec.{i}.ln2")
        w(f"dec.{i}.ff.w1", d, h)
        arrays[f"dec.{i}.ff.b1"] = np.zeros(h)
        w(f"dec.{i}.ff.w2", h, d)
        arrays[f"dec.{i}.ff.b2"] = np.zeros(d)
    ln("head.ln")
    w("head.w", d, config.vocab_size)
    arrays["head.b"] = np.zeros(config.vocab_size)
    return ParameterStore(arrays=arrays, config=config, role=role)


# ---------------------------------------------------------------------------
# Forward building blocks (operate on autodiff Tensors)


def _layer_norm(x, g, b):
    mu = ad.mean_axis(x, axis=1, keepdims=True)
    centered = ad.sub(x, mu)
    var = ad.mean_axis(ad.power(centered, 2.0), axis=1, keepdims=True)
    inv = ad.power(ad.add(var, ad.Tensor(LN_EPS)), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), g), b)


def _split_heads(x, n_heads: int):
    n, d = x.value.shape
    dh = d // n_heads
    return ad.transpose(ad.reshape(x, (n, n_heads, dh)), (1, 0, 2))


def _merge_heads(x):
    h, n, dh = x.value.shape
    return ad.reshape(ad.transpose(x, (1, 0, 2)), (n, h * dh))


def _attention(q_in, kv_in, p, prefix: str, n_heads: int, mask: np.ndarray | None):
    q = _split_heads(ad.matmul(q_in, p[f"{prefix}.wq"]), n_heads)
    k = _split_heads(ad.matmul(kv_in, p[f"{prefix}.wk"]), n_heads)
    v = _split_heads(ad.matmul(kv_in, p[f"{prefix}.wv"]), n_heads)
    dh = q.value.shape[-1]
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(dh))
    if mask is not None:
        scores = ad.add(scores, ad.Tensor(mask))
    weights = ad.softmax(scores, axis=-1)
    out = _merge_heads(ad.matmul(weights, v))
    return ad.matmul(out, p[f"{prefix}.wo"])


def _ff(x, p, prefix: str):
    hidden = ad.gelu(ad.add(ad.matmul(x, p[f"{prefix}.w1"]), p[f"{prefix}.b1"]))
    return ad.add(ad.matmul(hidden, p[f"{prefix}.w2"]), p[f"{prefix}.b2"])


def _decoder_layer(x, cond, p, i: int, n_heads: int, causal_mask: np.ndarray):
    normed = _layer_norm(x, p[f"dec.{i}.ln1.g"], p[f"dec.{i}.ln1.b"])
    if _is_cross_layer(i):
        ctx = _layer_norm(cond, p[f"dec.{i}.lnctx.g"], p[f"dec.{i}.lnctx.b"])
        att = _attention(normed, ctx, p, f"dec.{i}.attn", n_heads, mask=None)
    else:
        att = _attention(normed, normed, p, f"dec.{i}.attn", n_heads, mask=causal_mask)
    x = ad.add(x, att)
    ff = _ff(_layer_norm(x, p[f"dec.{i}.ln2.g"], p[f"dec.{i}.ln2.b"]), p, f"dec.{i}.ff")
    return ad.add(x, ff)


def _causal_mask(n: int) -> np.ndarray:
    return np.where(np.tril(np.ones((n, n), dtype=bool)), 0.0, MASK_VALUE)


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
    att = _attention(q_norm, kv_norm, p, f"enc.{branch}.attn", config.n_heads, mask=None)
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


def _decoder_logits_t(tokens: np.ndarray, cond, p, config: ModelConfig):
    n = len(tokens)
    if n < 1:
        raise ModelError("prefix must contain at least BOS")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise ModelError("token id outside the vocabulary")
    if n > config.max_seq_len:
        raise ModelError(f"sequence length {n} exceeds cap {config.max_seq_len}")

    x = ad.add(
        ad.gather_rows(p["embed.token"], tokens),
        ad.slice_rows(p["embed.pos"], 0, n),
    )
    cond = ad.add(cond, ad.slice_rows(p["embed.cond_pos"], 0, cond.value.shape[0]))
    n_coord, n_ep_pre, n_valley, n_ep_post = config.stage_layers()
    heads = config.n_heads
    li = 0

    mask0 = _causal_mask(n)
    for _ in range(n_coord):
        x = _decoder_layer(x, cond, p, li, heads, mask0)
        li += 1

    res_coord = x
    x = ad.mean_pool_causal(x, config.coord_factor)
    m1 = x.value.shape[0]
    mask1 = _causal_mask(m1)
    for _ in range(n_ep_pre):
        x = _decoder_layer(x, cond, p, li, heads, mask1)
        li += 1

    res_ep = x
    x = ad.mean_pool_causal(x, config.endpoint_factor)
    m2 = x.value.shape[0]
    mask2 = _causal_mask(m2)
    for _ in range(n_valley):
        x = _decoder_layer(x, cond, p, li, heads, mask2)
        li += 1

    x = ad.add(ad.repeat_upsample(x, config.endpoint_factor, m1), res_ep)
    for _ in range(n_ep_post):
        x = _decoder_layer(x, cond, p, li, heads, mask1)
        li += 1

    x = ad.add(ad.repeat_upsample(x, config.coord_factor, n), res_coord)
    h = _layer_norm(x, p["head.ln.g"], p["head.ln.b"])
    return ad.add(ad.matmul(h, p["head.w"]), p["head.b"])


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


def _sequence_logprob_t(t: np.ndarray, cond, p, config: ModelConfig):
    logits = _decoder_logits_t(t[:-1], cond, p, config)
    logp = ad.log_softmax(logits, axis=-1)
    return ad.sum_all(ad.take_per_row(logp, t[1:]))


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


def sample(
    cond: np.ndarray,
    params: ParameterStore,
    temperature: float = 1.0,
    top_p: float = 1.0,
    seed: int = 0,
    max_segments: int | None = None,
) -> SampleResult:
    """Autoregressive sampling until EOS or the segment cap.

    Deterministic given the seed.  If the decoder stops mid-segment (EOS or a
    stray special token inside a coordinate block, or the cap is reached) the
    sequence is repaired by truncating to the last complete segment and
    flagged ``malformed``.
    """
    if temperature < 0:
        raise ModelError("temperature must be >= 0")
    if not (0 < top_p <= 1):
        raise ModelError("top_p must be in (0, 1]")
    config = params.config
    cap_segments = config.max_segments if max_segments is None else max_segments
    max_body = 6 * cap_segments
    rng = np.random.default_rng(seed)
    p = params.as_tensors()
    cond_t = ad.Tensor(cond)

    tokens = [BOS]
    malformed = False
    steps = 0
    while True:
        logits = _decoder_logits_t(
            np.asarray(tokens, dtype=np.int64), cond_t, p, config
        ).value[-1]
        nxt = _sample_next(logits, temperature, top_p, rng)
        steps += 1
        if nxt == EOS:
            if (len(tokens) - 1) % 6 != 0:
                malformed = True
            break
        if nxt in (BOS, PAD):
            malformed = True
            break
        tokens.append(nxt)
        if len(tokens) - 1 >= max_body:
            if (len(tokens) - 1) % 6 != 0:
                malformed = True
            break
    body = tokens[1:]
    body = body[: 6 * (len(body) // 6)]
    out = TokenSequence(tokens=np.asarray([BOS, *body, EOS], dtype=np.int64))
    return SampleResult(tokens=out, malformed=malformed, n_steps=steps)


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
    if not data.startswith(_CKPT_MAGIC):
        raise CheckpointError("not a seamkit checkpoint")
    rest = data[len(_CKPT_MAGIC) :]
    nl = rest.index(b"\n")
    header = json.loads(rest[:nl].decode())
    config = ModelConfig(**header["config"])
    offset = nl + 1
    arrays = {}
    for spec in header["arrays"]:
        shape = tuple(spec["shape"])
        size = int(np.prod(shape)) if shape else 1
        raw = rest[offset : offset + 8 * size]
        if len(raw) != 8 * size:
            raise CheckpointError(f"truncated buffer for {spec['name']}")
        arrays[spec["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        offset += 8 * size
    store = ParameterStore(arrays=arrays, config=config, role=header["role"])
    template = init_parameters(config)
    if store.names() != template.names():
        raise CheckpointError("parameter names do not match the configuration")
    for name in template.names():
        if store.arrays[name].shape != template.arrays[name].shape:
            raise CheckpointError(
                f"shape mismatch for {name}: "
                f"{store.arrays[name].shape} != {template.arrays[name].shape}"
            )
    return store
