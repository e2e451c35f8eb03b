import json

import numpy as np
import pytest

from seamkit import autodiff as ad
from seamkit.model import (
    CheckpointError,
    ModelConfig,
    ModelError,
    _decode_t,
    _DecodeState,
    _sample_next,
    _sequence_logprob_t,
    _sequence_logprobs_t,
    decoder_logits,
    encode_condition,
    init_parameters,
    load_checkpoint,
    nll_train_step,
    sample,
    sample_batch,
    save_checkpoint,
    sequence_logprob,
)
from seamkit.sampling import ConditioningClouds
from seamkit.shapes import make_cube
from seamkit.tokenizer import BOS, EOS, PAD, VOCAB_SIZE, TokenSequence, decode

from tests.util import DESK_CONFIG, TINY_CONFIG, training_example


def rand_clouds(rng, n, config):
    k = max(n, config.tokens_per_branch)
    return ConditioningClouds(
        topo_points=rng.normal(size=(k, 3)) * 0.2,
        geom_points=rng.normal(size=(k, 3)) * 0.2,
        seed=0,
    )


def random_body(rng, n_segments):
    return rng.integers(0, 1024, size=6 * n_segments)


def complete_sequence(rng, n_segments):
    return np.concatenate(([BOS], random_body(rng, n_segments), [EOS])).astype(np.int64)


def test_config_validation():
    with pytest.raises(ModelError):
        ModelConfig(coord_factor=2)
    with pytest.raises(ModelError):
        ModelConfig(endpoint_factor=3)
    with pytest.raises(ModelError):
        ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ModelError):
        ModelConfig(n_layers=3)
    paper = ModelConfig.paper_scale()
    assert paper.tokens_per_branch == 3072
    assert paper.d_model == 1024
    assert paper.n_layers == 24
    assert paper.stage_layers() == (8, 4, 8, 4)
    assert DESK_CONFIG.stage_layers() == (3, 2, 2, 1)
    assert sum(DESK_CONFIG.stage_layers()) == DESK_CONFIG.n_layers


def test_encode_condition_shape_and_order():
    rng = np.random.default_rng(0)
    params = init_parameters(TINY_CONFIG)
    clouds = rand_clouds(rng, 20, TINY_CONFIG)
    e = encode_condition(clouds, params)
    assert e.shape == (2 * TINY_CONFIG.tokens_per_branch, TINY_CONFIG.d_model)
    # topology first: swapping the clouds swaps the halves
    swapped = ConditioningClouds(
        topo_points=clouds.geom_points, geom_points=clouds.topo_points, seed=0
    )
    # different branch parameters, so halves will not match exactly; check
    # that each half responds to its own branch input
    e2 = encode_condition(swapped, params)
    l = TINY_CONFIG.tokens_per_branch
    assert not np.allclose(e[:l], e2[:l])
    assert not np.allclose(e[l:], e2[l:])


def test_encode_condition_too_small_cloud():
    rng = np.random.default_rng(1)
    params = init_parameters(TINY_CONFIG)
    clouds = ConditioningClouds(
        topo_points=rng.normal(size=(4, 3)),
        geom_points=rng.normal(size=(20, 3)),
        seed=0,
    )
    with pytest.raises(ModelError):
        encode_condition(clouds, params)


def test_encode_condition_permutation_bit_identical():
    rng = np.random.default_rng(2)
    params = init_parameters(TINY_CONFIG)
    clouds = rand_clouds(rng, 24, TINY_CONFIG)
    base = encode_condition(clouds, params)
    for _ in range(3):
        perm = rng.permutation(len(clouds.topo_points))
        shuffled = ConditioningClouds(
            topo_points=clouds.topo_points[perm],
            geom_points=clouds.geom_points,
            seed=0,
        )
        out = encode_condition(shuffled, params)
        np.testing.assert_array_equal(out, base)


def test_encode_condition_zeroed_geometry_branch():
    rng = np.random.default_rng(3)
    params = init_parameters(TINY_CONFIG)
    for name in list(params.arrays):
        if name.startswith("enc.geom."):
            params.arrays[name] = np.zeros_like(params.arrays[name])
    l = TINY_CONFIG.tokens_per_branch
    outs = []
    for _ in range(3):
        clouds = rand_clouds(rng, 20, TINY_CONFIG)
        outs.append(encode_condition(clouds, params))
    # geometry half is constant across inputs, topology half varies
    np.testing.assert_array_equal(outs[0][l:], outs[1][l:])
    np.testing.assert_array_equal(outs[1][l:], outs[2][l:])
    assert not np.array_equal(outs[0][:l], outs[1][:l])


def test_decoder_logits_shape_and_range_check():
    rng = np.random.default_rng(4)
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    toks = complete_sequence(rng, 2)
    logits = decoder_logits(toks, cond, params)
    assert logits.shape == (len(toks), VOCAB_SIZE)
    with pytest.raises(ModelError):
        decoder_logits(np.array([BOS, 2000]), cond, params)


def test_hourglass_causality_desk_config():
    rng = np.random.default_rng(5)
    params = init_parameters(DESK_CONFIG)
    cond = encode_condition(rand_clouds(rng, 40, DESK_CONFIG), params)
    for n in range(2, 33):
        toks = rng.integers(0, 1024, size=n)
        toks[0] = BOS
        base = decoder_logits(toks, cond, params)
        for j in range(n):
            mod = toks.copy()
            mod[j] = (mod[j] + 1 + rng.integers(0, 1022)) % 1024
            out = decoder_logits(mod, cond, params)
            np.testing.assert_array_equal(out[:j], base[:j])


def test_pad_count_does_not_change_real_logits():
    rng = np.random.default_rng(6)
    params = init_parameters(DESK_CONFIG)
    cond = encode_condition(rand_clouds(rng, 40, DESK_CONFIG), params)
    toks = rng.integers(0, 1024, size=13)
    toks[0] = BOS
    base = decoder_logits(toks, cond, params)
    for k in range(1, 6):
        padded = np.concatenate([toks, [PAD] * k])
        out = decoder_logits(padded, cond, params)
        # bit-exactness across different sequence lengths is not attainable
        # (BLAS reassociates sums per shape); the fixed-shape causality test
        # above covers the exact no-leakage guarantee
        np.testing.assert_allclose(out[: len(toks)], base, rtol=0, atol=1e-12)


def test_condition_sensitivity():
    rng = np.random.default_rng(7)
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    toks = complete_sequence(rng, 1)
    a = decoder_logits(toks, cond, params)
    b = decoder_logits(toks, np.zeros_like(cond), params)
    assert not np.allclose(a, b)
    # swapping the branch halves changes logits too
    l = TINY_CONFIG.tokens_per_branch
    swapped = np.concatenate([cond[l:], cond[:l]])
    c = decoder_logits(toks, swapped, params)
    assert not np.allclose(a, c)


def test_sequence_logprob_uniform_head():
    rng = np.random.default_rng(8)
    params = init_parameters(TINY_CONFIG)
    params.arrays["head.w"] = np.zeros_like(params.arrays["head.w"])
    params.arrays["head.b"] = np.zeros_like(params.arrays["head.b"])
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    toks = complete_sequence(rng, 2)
    lp = sequence_logprob(toks, cond, params)
    assert lp == pytest.approx(-(len(toks) - 1) * np.log(VOCAB_SIZE), rel=1e-12)


def test_sequence_logprob_normalization_and_replay():
    rng = np.random.default_rng(9)
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    toks = complete_sequence(rng, 2)
    logits = decoder_logits(toks[:-1], cond, params)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    # teacher-forced logprob equals the stepwise replay along the same path
    total = 0.0
    for i in range(len(toks) - 1):
        step_logits = decoder_logits(toks[: i + 1], cond, params)[-1]
        zs = step_logits - step_logits.max()
        total += zs[toks[i + 1]] - np.log(np.exp(zs).sum())
    assert sequence_logprob(toks, cond, params) == pytest.approx(total, abs=1e-9)
    with pytest.raises(ModelError):
        sequence_logprob(toks[:-1], cond, params)  # incomplete


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_batched_logprobs_match_per_sequence(config):
    rng = np.random.default_rng(21)
    params = init_parameters(config)
    p = params.as_tensors()
    cond = ad.Tensor(encode_condition(rand_clouds(rng, 16, config), params))
    seqs = [complete_sequence(rng, n) for n in (3, 0, 1, 5, 2)]
    seqs.append(seqs[0].copy())  # a duplicate scores like its twin
    batched = [float(t.value) for t in _sequence_logprobs_t(seqs, cond, p, config)]
    assert batched[-1] == batched[0]
    for t, got in zip(seqs, batched):
        lone = float(_sequence_logprob_t(t, cond, p, config).value)
        assert got == pytest.approx(lone, rel=1e-12, abs=0)
        # the same value from the unbatched (1-D) decode and a numpy log-softmax
        logits = decoder_logits(t[:-1], cond.value, params)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        direct = float(logp[np.arange(len(t) - 1), t[1:]].sum())
        assert got == pytest.approx(direct, rel=1e-12, abs=0)


def test_sample_greedy_limit_and_determinism():
    rng = np.random.default_rng(10)
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    greedy = sample(cond, params, temperature=0.0, top_p=1.0, seed=0, max_segments=4)
    near0 = sample(cond, params, temperature=1e-9, top_p=1.0, seed=3, max_segments=4)
    assert greedy.tokens == near0.tokens
    a = sample(cond, params, temperature=1.0, top_p=0.9, seed=42, max_segments=4)
    b = sample(cond, params, temperature=1.0, top_p=0.9, seed=42, max_segments=4)
    assert a.tokens == b.tokens and a.n_steps == b.n_steps
    # repaired output always decodes
    decode(a.tokens)


@pytest.mark.parametrize("config", [DESK_CONFIG, TINY_CONFIG], ids=["desk", "tiny"])
def test_cached_step_logits_match_full_forward(config):
    # one token per step through the K/V caches, every prefix length 1..97
    # (every residue mod 6, so every pooling boundary of both levels)
    rng = np.random.default_rng(14)
    params = init_parameters(config)
    cond = encode_condition(rand_clouds(rng, 40, config), params)
    toks = rng.integers(0, 1024, size=97)
    toks[0] = BOS
    state = _DecodeState(ad.Tensor(cond), params.as_tensors(), config)
    for n in range(1, len(toks) + 1):
        step = _decode_t(state, toks[n - 1 : n]).value[-1]
        full = decoder_logits(toks[:n], cond, params)[-1]
        np.testing.assert_allclose(step, full, rtol=0, atol=1e-10)


def test_sample_batch_matches_single_seed_samples():
    rng = np.random.default_rng(15)
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    # EOS likely enough that the candidates stop at different steps
    eos_params = params.copy()
    eos_params.arrays["head.b"][EOS] = np.log(VOCAB_SIZE / 8)
    seeds = [3, 4, 5, 6]
    for p, temperature, top_p in ((params, 0.0, 1.0), (params, 1.0, 0.9), (eos_params, 1.0, 0.9)):
        batch = sample_batch(cond, p, temperature, top_p, seeds, max_segments=4)
        single = [sample(cond, p, temperature, top_p, s, max_segments=4) for s in seeds]
        assert [(r.tokens, r.n_steps, r.malformed) for r in batch] == [
            (r.tokens, r.n_steps, r.malformed) for r in single
        ]
    assert len({r.n_steps for r in batch}) > 1


def test_sample_next_matches_softmax_frequencies():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=40) * 2.0  # small vocab keeps the check sharp
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    n = 100_000
    draws = np.array([_sample_next(logits, 1.0, 1.0, rng) for _ in range(n)])
    counts = np.bincount(draws, minlength=len(logits))
    mu = n * probs
    sigma = np.sqrt(n * probs * (1 - probs))
    check = mu >= 5
    assert np.all(np.abs(counts[check] - mu[check]) <= 3 * sigma[check] + 1e-9)


def test_sample_top_p_restricts_support():
    rng = np.random.default_rng(12)
    logits = np.array([10.0, 9.0, -5.0, -50.0])
    seen = {_sample_next(logits, 1.0, 0.95, rng) for _ in range(200)}
    assert seen <= {0, 1}


def test_nll_train_step_zero_lr_and_descent():
    mesh = make_cube(n=1, with_uv=True)
    clouds, tokens = training_example(mesh, DESK_CONFIG, seed=0)
    params = init_parameters(DESK_CONFIG)
    batch = [(clouds, tokens)]
    same, loss0 = nll_train_step(batch, params, lr=0.0)
    for name in params.names():
        np.testing.assert_array_equal(same.arrays[name], params.arrays[name])
    stepped, _ = nll_train_step(batch, params, lr=0.1)
    _, loss1 = nll_train_step(batch, stepped, lr=0.0)
    assert loss1 < loss0


def test_nll_gradient_matches_finite_differences():
    mesh = make_cube(n=1, with_uv=True)
    clouds, tokens = training_example(mesh, TINY_CONFIG, seed=0)
    params = init_parameters(TINY_CONFIG)
    batch = [(clouds, tokens)]

    from seamkit.model import _batch_nll_t

    p = params.as_tensors(trainable=True)
    loss = _batch_nll_t(batch, p, params.config)
    from seamkit import autodiff as ad

    ad.backward(loss)

    rng = np.random.default_rng(13)
    names = params.trainable_names()
    checked = 0
    h = 1e-4
    while checked < 20:
        name = names[int(rng.integers(len(names)))]
        grad = p[name].grad
        if grad is None:
            continue
        i = int(rng.integers(params.arrays[name].size))
        if abs(grad.flat[i]) < 1e-7:
            continue  # finite differences are noise-dominated at near-zero slope

        def loss_at(delta):
            trial = params.copy()
            trial.arrays[name] = trial.arrays[name].copy()
            trial.arrays[name].flat[i] += delta
            pt = trial.as_tensors()
            return float(_batch_nll_t(batch, pt, trial.config).value)

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        rel = abs(grad.flat[i] - fd) / max(abs(fd), 1e-12)
        assert rel < 1e-4, f"{name}[{i}]: grad={grad.flat[i]}, fd={fd}"
        checked += 1


def test_overfit_single_mesh():
    mesh = make_cube(n=1, with_uv=True)
    clouds, tokens = training_example(mesh, DESK_CONFIG, seed=0)
    params = init_parameters(DESK_CONFIG)
    batch = [(clouds, tokens)]
    _, initial = nll_train_step(batch, params, lr=0.0)
    losses = []
    for _ in range(500):
        params, loss = nll_train_step(batch, params, lr=0.5)
        losses.append(loss)
    assert losses[-1] < 0.2 * initial, f"final {losses[-1]:.4f} vs initial {initial:.4f}"


def test_checkpoint_round_trip_and_validation():
    params = init_parameters(TINY_CONFIG)
    blob = save_checkpoint(params)
    assert save_checkpoint(params) == blob  # deterministic bytes
    back = load_checkpoint(blob)
    assert back.role == params.role
    assert back.config == params.config
    for name in params.names():
        np.testing.assert_array_equal(back.arrays[name], params.arrays[name])
    with pytest.raises(CheckpointError):
        load_checkpoint(b"garbage")
    truncated = blob[: len(blob) - 100]
    with pytest.raises(CheckpointError):
        load_checkpoint(truncated)


def _with_header(blob, edit):
    magic, header, rest = blob.split(b"\n", 2)
    doc = json.loads(header)
    edit(doc)
    return magic + b"\n" + json.dumps(doc).encode() + b"\n" + rest


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: b"SEAMKITCKPT1\ngarbage", "no terminating newline"),
        (lambda blob: b"SEAMKITCKPT1\nnot json\n", "malformed header"),
        (lambda blob: _with_header(blob, lambda d: d.pop("arrays")), "malformed header"),
        (lambda blob: _with_header(blob, lambda d: d["config"].update(bogus=1)), "unknown config keys: bogus"),
        (lambda blob: _with_header(blob, lambda d: d["config"].update(n_heads=3)), "invalid config"),
        (lambda blob: _with_header(blob, lambda d: d["arrays"].reverse()), "names do not match"),
        (lambda blob: _with_header(blob, lambda d: d["arrays"][0].update(shape=[2, 2])), "shape mismatch"),
        (lambda blob: blob + b"\0\0", "2 trailing bytes"),
    ],
)
def test_corrupt_checkpoint_raises(corrupt, message):
    blob = save_checkpoint(init_parameters(TINY_CONFIG))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(corrupt(blob))
