import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamkit import autodiff as ad
from seamkit.model import (
    CheckpointError,
    ModelConfig,
    ModelError,
    _decode_t,
    _decoder_logits_t,
    _DecodeState,
    _check_complete,
    _encode_condition_t,
    _prepare_condition,
    _sample_rows,
    _sequence_logprobs_t,
    _token_array,
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

from tests import loop_reference as ref
from tests.util import DESK_CONFIG, TINY_CONFIG, stepped_gradients, traced_peak, training_example


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
        ModelConfig(d_model=30, n_heads=4)
    with pytest.raises(ModelError):
        ModelConfig(n_layers=3)
    with pytest.raises(ModelError, match="n_heads must be >= 1, got 0"):
        ModelConfig(n_heads=0)
    for field, bad in (
        ("tokens_per_branch", 8.0),
        ("d_model", "64"),
        ("n_layers", True),
        ("max_segments", np.int64(8)),
        ("seed", None),
    ):
        with pytest.raises(ModelError, match=f"{field} must be an int"):
            ModelConfig(**{field: bad})
    for field, low in (("tokens_per_branch", 0), ("d_model", 0), ("max_segments", 0), ("seed", -1)):
        with pytest.raises(ModelError, match=f"{field} must be >= "):
            ModelConfig(**{field: low})
    paper = ModelConfig(tokens_per_branch=3072, d_model=1024, n_layers=24, n_heads=16)
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
    logits = _decoder_logits_t(toks, cond, params.arrays, params.config)
    assert logits.shape == (len(toks), VOCAB_SIZE)
    with pytest.raises(ModelError):
        _decoder_logits_t(np.array([BOS, 2000]), cond, params.arrays, params.config)


def test_hourglass_causality_desk_config():
    rng = np.random.default_rng(5)
    params = init_parameters(DESK_CONFIG)
    cond = encode_condition(rand_clouds(rng, 40, DESK_CONFIG), params)
    for n in range(2, 33):
        toks = rng.integers(0, 1024, size=n)
        toks[0] = BOS
        base = _decoder_logits_t(toks, cond, params.arrays, params.config)
        for j in range(n):
            mod = toks.copy()
            mod[j] = (mod[j] + 1 + rng.integers(0, 1022)) % 1024
            out = _decoder_logits_t(mod, cond, params.arrays, params.config)
            np.testing.assert_array_equal(out[:j], base[:j])


def test_pad_count_does_not_change_real_logits():
    rng = np.random.default_rng(6)
    params = init_parameters(DESK_CONFIG)
    cond = encode_condition(rand_clouds(rng, 40, DESK_CONFIG), params)
    toks = rng.integers(0, 1024, size=13)
    toks[0] = BOS
    base = _decoder_logits_t(toks, cond, params.arrays, params.config)
    for k in range(1, 6):
        padded = np.concatenate([toks, [PAD] * k])
        out = _decoder_logits_t(padded, cond, params.arrays, params.config)
        # bit-exactness across different sequence lengths is not attainable
        # (BLAS reassociates sums per shape); the fixed-shape causality test
        # above covers the exact no-leakage guarantee
        np.testing.assert_allclose(out[: len(toks)], base, rtol=0, atol=1e-12)


def test_condition_sensitivity():
    rng = np.random.default_rng(7)
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(rng, 16, TINY_CONFIG), params)
    toks = complete_sequence(rng, 1)
    a = _decoder_logits_t(toks, cond, params.arrays, params.config)
    b = _decoder_logits_t(toks, np.zeros_like(cond), params.arrays, params.config)
    assert not np.allclose(a, b)
    # swapping the branch halves changes logits too
    l = TINY_CONFIG.tokens_per_branch
    swapped = np.concatenate([cond[l:], cond[:l]])
    c = _decoder_logits_t(toks, swapped, params.arrays, params.config)
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
    logits = _decoder_logits_t(toks[:-1], cond, params.arrays, params.config)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    # teacher-forced logprob equals the stepwise replay along the same path
    total = 0.0
    for i in range(len(toks) - 1):
        step_logits = _decoder_logits_t(toks[: i + 1], cond, params.arrays, params.config)[-1]
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
        lone = float(_sequence_logprobs_t([t], cond, p, config)[0].value)
        assert got == pytest.approx(lone, rel=1e-12, abs=0)
        # the same value from the unbatched (1-D) decode and a numpy log-softmax
        logits = _decoder_logits_t(t[:-1], cond.value, params.arrays, params.config)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        direct = float(logp[np.arange(len(t) - 1), t[1:]].sum())
        assert got == pytest.approx(direct, rel=1e-12, abs=0)


def test_sample_greedy_limit_and_determinism():
    rng = np.random.default_rng(10)
    config = replace(TINY_CONFIG, max_segments=4)
    params = init_parameters(config)
    cond = encode_condition(rand_clouds(rng, 16, config), params)
    greedy = sample(cond, params, temperature=0.0, top_p=1.0, seed=0)
    near0 = sample(cond, params, temperature=1e-9, top_p=1.0, seed=3)
    assert greedy.tokens == near0.tokens
    a = sample(cond, params, temperature=1.0, top_p=0.9, seed=42)
    b = sample(cond, params, temperature=1.0, top_p=0.9, seed=42)
    assert a.tokens == b.tokens and a.n_steps == b.n_steps
    # repaired output always decodes
    decode(a.tokens)


@pytest.mark.parametrize(
    "config, on_arrays",
    [(DESK_CONFIG, False), (TINY_CONFIG, False), (DESK_CONFIG, True), (TINY_CONFIG, True)],
    ids=["desk", "tiny", "desk-arrays", "tiny-arrays"],
)
def test_cached_step_logits_match_full_forward(config, on_arrays):
    # one token per step through the K/V caches (concatenated Tensors, or
    # the preallocated buffers of a decode on arrays), every prefix length
    # 1..97 (every residue mod 6, so every pooling boundary of both levels)
    rng = np.random.default_rng(14)
    params = init_parameters(config)
    cond = encode_condition(rand_clouds(rng, 40, config), params)
    toks = rng.integers(0, 1024, size=97)
    toks[0] = BOS
    if on_arrays:
        state = _DecodeState(cond, params.arrays, config)
    else:
        state = _DecodeState(ad.Tensor(cond), params.as_tensors(), config)
    for n in range(1, len(toks) + 1):
        step = _decode_t(state, toks[n - 1 : n])
        step = (step if on_arrays else step.value)[-1]
        full = _decoder_logits_t(toks[:n], cond, params.arrays, params.config)[-1]
        np.testing.assert_allclose(step, full, rtol=0, atol=1e-10)


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_array_path_matches_tensor_path(config):
    # inference runs the model code on params.arrays; training on Tensors
    rng = np.random.default_rng(16)
    params = init_parameters(config)
    p = params.as_tensors()
    clouds = rand_clouds(rng, 40, config)
    cond = encode_condition(clouds, params)
    assert type(cond) is np.ndarray
    graph_cond = _encode_condition_t(_prepare_condition(clouds, config), p, config)
    np.testing.assert_array_equal(cond, graph_cond.value)
    toks = rng.integers(0, 1024, size=(2, 37))
    toks[:, 0] = BOS
    plain = _DecodeState(cond, params.arrays, config)
    graph = _DecodeState(ad.Tensor(cond), p, config)
    for n in range(toks.shape[1]):
        step = _decode_t(plain, toks[:, n : n + 1])
        assert type(step) is np.ndarray
        np.testing.assert_array_equal(step, _decode_t(graph, toks[:, n : n + 1]).value)
    seqs = [complete_sequence(rng, n) for n in (3, 0, 5)]
    got = _sequence_logprobs_t(seqs, cond, params.arrays, config)
    want = _sequence_logprobs_t(seqs, ad.Tensor(cond), p, config)
    np.testing.assert_array_equal(np.array(got), np.array([t.value for t in want]))


def test_sample_rows_matches_per_row_reference():
    # 10k random draws against the per-candidate stable-argsort sampler:
    # batches of 1-5 rows, vocabularies of 2-1027 (log-uniform), tied
    # probabilities, greedy and near-greedy temperatures, top_p down to 1e-9
    rng = np.random.default_rng(17)
    temperatures = (0.0, 1e-6, None)
    top_ps = (1.0, 1e-9, None, None)
    mismatches = 0
    for case in range(10_000):
        b = int(rng.integers(1, 6))
        v = int(np.exp(rng.uniform(np.log(2), np.log(1028))))
        if case % 3 == 0:
            logits = rng.integers(-3, 3, size=(b, v)).astype(np.float64)  # many ties
        elif case % 3 == 1:
            logits = np.round(rng.normal(size=(b, v)) * 3.0, 1)
        else:
            logits = rng.normal(size=(b, v)) * rng.uniform(0.1, 5.0)
        temperature = temperatures[case % 3]
        if temperature is None:
            temperature = float(rng.uniform(0.5, 1.7))
        top_p = top_ps[(case // 3) % 4]
        if top_p is None:
            top_p = float(rng.uniform(1e-9, 1.0))
        seeds = rng.integers(0, 2**31, size=b)
        got = _sample_rows(logits, temperature, top_p, [np.random.default_rng(s) for s in seeds])
        want = [
            ref.sample_next(row, temperature, top_p, np.random.default_rng(s))
            for row, s in zip(logits, seeds)
        ]
        mismatches += got != want
    assert mismatches == 0


def test_sample_stays_within_the_model_segment_cap():
    params = init_parameters(TINY_CONFIG)
    cond = encode_condition(rand_clouds(np.random.default_rng(18), 16, TINY_CONFIG), params)
    cap = TINY_CONFIG.max_segments
    assert sample(cond, params, 0.0, 1.0).n_steps <= 6 * cap + 1


def eos_biased(params):
    """A copy of ``params`` whose head makes EOS likely enough that
    candidates stop at different steps."""
    out = params.copy()
    out.arrays["head.b"][EOS] = np.log(VOCAB_SIZE / 8)
    return out


def assert_batch_matches_single_seeds(cond, p, temperature, top_p, seeds):
    batch = sample_batch(cond, p, temperature, top_p, seeds)
    single = [sample(cond, p, temperature, top_p, s) for s in seeds]
    assert [(r.tokens, r.n_steps, r.malformed) for r in batch] == [
        (r.tokens, r.n_steps, r.malformed) for r in single
    ]
    return [r.n_steps for r in batch]


def test_sample_batch_matches_single_seed_samples():
    rng = np.random.default_rng(15)
    config = replace(TINY_CONFIG, max_segments=4)
    params = init_parameters(config)
    cond = encode_condition(rand_clouds(rng, 16, config), params)
    seeds = [3, 4, 5, 6]
    for p, temperature, top_p in ((params, 0.0, 1.0), (params, 1.0, 0.9), (eos_biased(params), 1.0, 0.9)):
        steps = assert_batch_matches_single_seeds(cond, p, temperature, top_p, seeds)
    assert len(set(steps)) > 1
    # the desk model (max_segments=64): keep_batch drops candidates from the
    # decode buffers of every level at three or more different steps, and
    # others decode on after one drop at step 7 or later (the token of step
    # 7, index 6, creates the second valley row)
    params = init_parameters(DESK_CONFIG)
    cond = encode_condition(rand_clouds(rng, 40, DESK_CONFIG), params)
    steps = sorted(set(assert_batch_matches_single_seeds(cond, eos_biased(params), 1.0, 0.9, range(8))))
    assert len(steps) >= 3 and steps[-2] >= 7


def test_array_sample_concatenates_no_rows_and_builds_no_graph(monkeypatch):
    # a decode on plain arrays writes its rows into preallocated buffers and
    # its ops return before any graph bookkeeping
    counts = {"concat_rows": 0, "Vertex": 0}
    concat_rows, vertex_init = ad.concat_rows, ad.Vertex.__init__

    def counted_concat_rows(*args, **kwargs):
        counts["concat_rows"] += 1
        return concat_rows(*args, **kwargs)

    def counted_vertex_init(self, *args, **kwargs):
        counts["Vertex"] += 1
        vertex_init(self, *args, **kwargs)

    monkeypatch.setattr(ad, "concat_rows", counted_concat_rows)
    monkeypatch.setattr(ad.Vertex, "__init__", counted_vertex_init)
    params = init_parameters(DESK_CONFIG)
    cond = encode_condition(rand_clouds(np.random.default_rng(19), 40, DESK_CONFIG), params)
    counts.update(concat_rows=0, Vertex=0)  # the encoder concatenates its two branches
    results = sample_batch(cond, eos_biased(params), 1.0, 0.9, range(5))
    assert max(r.n_steps for r in results) > 1
    assert counts == {"concat_rows": 0, "Vertex": 0}
    # the counters see a Tensor decode, which concatenates and builds nodes
    state = _DecodeState(ad.Tensor(cond), params.as_tensors(), DESK_CONFIG)
    for token in (BOS, 0):
        _decode_t(state, np.array([token]))
    assert counts["concat_rows"] > 0 and counts["Vertex"] > 0


def test_sample_next_matches_softmax_frequencies():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=40) * 2.0  # small vocab keeps the check sharp
    z = logits - logits.max()
    probs = np.exp(z) / np.exp(z).sum()
    n = 100_000
    draws = np.array([_sample_rows(logits[None], 1.0, 1.0, [rng])[0] for _ in range(n)])
    counts = np.bincount(draws, minlength=len(logits))
    mu = n * probs
    sigma = np.sqrt(n * probs * (1 - probs))
    check = mu >= 5
    assert np.all(np.abs(counts[check] - mu[check]) <= 3 * sigma[check] + 1e-9)


def test_sample_top_p_restricts_support():
    rng = np.random.default_rng(12)
    logits = np.array([10.0, 9.0, -5.0, -50.0])
    seen = {_sample_rows(logits[None], 1.0, 0.95, [rng])[0] for _ in range(200)}
    assert seen <= {0, 1}


def test_nll_train_step_zero_lr_and_descent():
    mesh = make_cube(n=1, with_uv=True)
    clouds, tokens = training_example(mesh, DESK_CONFIG, seed=0)
    params = init_parameters(DESK_CONFIG)
    batch = [(clouds, tokens)]
    same, loss0 = nll_train_step(batch, params, lr=0.0)
    for name in params.arrays:
        np.testing.assert_array_equal(same.arrays[name], params.arrays[name])
    stepped, _ = nll_train_step(batch, params, lr=0.1)
    _, loss1 = nll_train_step(batch, stepped, lr=0.0)
    assert loss1 < loss0


def test_nll_gradient_matches_finite_differences():
    mesh = make_cube(n=1, with_uv=True)
    clouds, tokens = training_example(mesh, TINY_CONFIG, seed=0)
    params = init_parameters(TINY_CONFIG)
    batch = [(clouds, tokens)]

    p = params.as_tensors()
    loss = ref.batch_nll_t(batch, p, params.config)
    from seamkit import autodiff as ad

    ad.backward(loss)

    rng = np.random.default_rng(13)
    names = list(params.arrays)
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
            return float(ref.batch_nll_t(batch, pt, trial.config).value)

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        rel = abs(grad.flat[i] - fd) / max(abs(fd), 1e-12)
        assert rel < 1e-4, f"{name}[{i}]: grad={grad.flat[i]}, fd={fd}"
        checked += 1


def loop_batch_nll_t(batch, p, config):
    """The per-example NLL that the grouped ``batch_nll_t`` replaced: one
    condition encoding and one decode per example."""
    total = None
    count = 0
    for clouds, tokens in batch:
        t = _token_array(tokens)
        _check_complete(t)
        cond = _encode_condition_t(_prepare_condition(clouds, config), p, config)
        lp = _sequence_logprobs_t([t], cond, p, config)[0]
        total = lp if total is None else ad.add(total, lp)
        count += len(t) - 1
    return ad.scale(total, -1.0 / count)


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_grouped_nll_matches_per_example_loop(config, monkeypatch):
    from seamkit import model

    rng = np.random.default_rng(22)
    params = init_parameters(config)
    a, b = rand_clouds(rng, 16, config), rand_clouds(rng, 16, config)
    a_copy = ConditioningClouds(
        topo_points=a.topo_points.copy(), geom_points=a.geom_points.copy(), seed=0
    )
    s1, s2, s3 = (complete_sequence(rng, n) for n in (3, 1, 4))
    # equal-content clouds in distinct objects, an exact duplicate example,
    # a second condition, and a sequence shared across conditions
    batch = [(a, s1), (a_copy, TokenSequence(tokens=s2)), (a, s1.copy()), (b, s3), (b, s2)]

    p = params.as_tensors()
    loss = ref.batch_nll_t(batch, p, config)
    ad.backward(loss)
    q = params.as_tensors()
    expected = loop_batch_nll_t(batch, q, config)
    ad.backward(expected)
    assert float(loss.value) == pytest.approx(float(expected.value), rel=1e-12, abs=0)
    for name in params.arrays:
        g, g_ref = p[name].grad, q[name].grad
        assert (g is None) == (g_ref is None), name
        if g is not None:
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref)), name

    calls = {"encode": 0, "decode": 0, "fps": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for key, name in [
        ("encode", "_encode_condition_t"),
        ("decode", "_decoder_logits_t"),
        ("fps", "fps_anchors"),
    ]:
        monkeypatch.setattr(model, name, counted(key, getattr(model, name)))
    ref.batch_nll_t(batch, params.as_tensors(), config)
    # two conditions: each prepared (two FPS branches), encoded and decoded once
    assert calls == {"encode": 2, "decode": 2, "fps": 4}


def test_nll_steps_over_a_grouped_batch_match_raw_examples(monkeypatch):
    from seamkit import model
    from seamkit.model import _nll_batch

    mesh = make_cube(n=1, with_uv=True)
    clouds, tokens = training_example(mesh, TINY_CONFIG, seed=0)
    short = TokenSequence(tokens=np.concatenate((tokens.tokens[:7], [EOS])))
    # one condition; two distinct sequences, one of them repeated
    raw = [(clouds, tokens), (clouds, short), (clouds, short)]
    calls = {"fps": 0}
    original = model.fps_anchors

    def counted(*args, **kwargs):
        calls["fps"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(model, "fps_anchors", counted)

    def three_steps(batch):
        params, losses = init_parameters(TINY_CONFIG), []
        for _ in range(3):
            params, loss = nll_train_step(batch, params, lr=0.1)
            losses.append(loss)
        return params, losses

    from_raw, raw_losses = three_steps(raw)
    assert calls["fps"] == 6
    calls["fps"] = 0
    from_grouped, grouped_losses = three_steps(_nll_batch(raw, TINY_CONFIG))
    assert calls["fps"] == 2
    assert grouped_losses == raw_losses
    for name in from_raw.arrays:
        np.testing.assert_array_equal(from_grouped.arrays[name], from_raw.arrays[name])
    with pytest.raises(model.TrainingError, match="empty batch"):
        nll_train_step([], from_raw, lr=0.1)


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_accumulated_nll_gradients_match_one_graph(config, monkeypatch):
    from seamkit import model

    rng = np.random.default_rng(23)
    params = init_parameters(config)
    a, b, c = (rand_clouds(rng, 16, config) for _ in range(3))
    s1, s2, s3, s4 = (complete_sequence(rng, n) for n in (3, 1, 4, 2))
    # three conditions, a repeated example, a sequence under two conditions
    batch = [(a, s1), (b, s2), (c, s3), (a, s1), (c, s2), (b, s4)]
    q = params.as_tensors()
    expected = ref.batch_nll_t(batch, q, config)
    ad.backward(expected)

    seen = stepped_gradients(monkeypatch, model)
    _, loss = nll_train_step(batch, params, lr=0.1)
    (grads,) = seen
    # the loss sums the per-example log-probabilities in example order
    assert loss == float(expected.value)
    for name in params.arrays:
        g, g_ref = grads[name], q[name].grad
        assert (g is None) == (g_ref is None), name
        if g is not None:
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref)), name


def test_nll_step_peak_memory_is_set_by_one_condition_group():
    from seamkit.model import _nll_batch

    params = init_parameters(TINY_CONFIG)

    def peak(n_conditions):
        rng = np.random.default_rng(24)
        examples = [
            (rand_clouds(rng, 16, TINY_CONFIG), complete_sequence(rng, 4))
            for _ in range(n_conditions)
        ]
        batch = _nll_batch(examples, TINY_CONFIG)
        return traced_peak(lambda: nll_train_step(batch, params, lr=0.1))

    one, eight = peak(1), peak(8)
    # one graph over all eight conditions would peak near 7x the one-condition step
    assert eight < 1.5 * one, (one, eight)


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
    assert back.config == params.config
    for name in params.arrays:
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
        (lambda blob: _with_header(blob, lambda d: d["config"].update(n_heads=0)), "invalid config: n_heads"),
        (
            lambda blob: _with_header(blob, lambda d: d["config"].update(train_topo_encoder="no")),
            "unknown config keys: train_topo_encoder",
        ),
        (
            lambda blob: _with_header(blob, lambda d: d["config"].update(tokens_per_branch=8.0)),
            "invalid config: tokens_per_branch must be an int",
        ),
        (lambda blob: _with_header(blob, lambda d: d["arrays"].reverse()), "names do not match"),
        (lambda blob: _with_header(blob, lambda d: d["arrays"][0].update(shape=[2, 2])), "shape mismatch"),
        # a one-byte edit that makes a shape entry the float infinity
        (lambda blob: blob.replace(b"[16,1027]", b"[16e1027]", 1), "not a list of integers"),
        (lambda blob: _with_header(blob, lambda d: d["arrays"][0].update(shape=[1027, 16.5])), "not a list of integers"),
        (lambda blob: _with_header(blob, lambda d: d["arrays"][0].update(shape=[1027, True])), "not a list of integers"),
        (lambda blob: _with_header(blob, lambda d: d["arrays"][0].update(shape="1027")), "not a list of integers"),
        (lambda blob: blob + b"\0\0", "2 trailing bytes"),
        (lambda blob: _with_header(blob, lambda d: d.update(role="policy")), "unknown header keys: role"),
        (lambda blob: blob[:-8] + np.float64(np.nan).tobytes(), "non-finite weights in head.b"),
        # a header without its seed would otherwise load with seed 0
        (lambda blob: _with_header(blob, lambda d: d["config"].pop("seed")), "missing config keys: seed"),
        (
            lambda blob: _with_header(blob, lambda d: [d["config"].pop(k) for k in ("seed", "n_heads")]),
            "missing config keys: n_heads, seed",
        ),
    ],
)
def test_corrupt_checkpoint_raises(corrupt, message):
    blob = save_checkpoint(init_parameters(TINY_CONFIG))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(corrupt(blob))


_TINY_BLOB = save_checkpoint(init_parameters(TINY_CONFIG))
_HEADER_END = _TINY_BLOB.index(b"\n", len(b"SEAMKITCKPT1\n")) + 1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(0, _HEADER_END - 1), st.integers(0, 255))
# the one edit found by a sweep of every position and byte: "[16e1027]" is infinite
@example(_TINY_BLOB.index(b"[16,1027]") + 3, ord("e"))
def test_any_one_byte_header_edit_loads_or_raises_checkpoint_error(position, value):
    """An edit may leave a valid checkpoint (say, another seed); nothing but
    ``CheckpointError`` may come out of one that is not."""
    edited = bytearray(_TINY_BLOB)
    edited[position] = value
    try:
        load_checkpoint(bytes(edited))
    except CheckpointError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, len(_TINY_BLOB) - 1))
def test_any_truncation_raises_checkpoint_error(length):
    with pytest.raises(CheckpointError):
        load_checkpoint(_TINY_BLOB[:length])


def test_checkpoint_header_contract():
    """The header holds exactly ``config`` (every ModelConfig field) and
    ``arrays``; a header of a former format, with ``role``, the fixed model
    factors and the encoder-freeze flags, is rejected naming those keys."""
    params = init_parameters(TINY_CONFIG)
    blob = save_checkpoint(params)
    header = json.loads(blob.split(b"\n", 2)[1])
    assert sorted(header) == ["arrays", "config"]
    assert sorted(header["config"]) == sorted(f.name for f in fields(ModelConfig))
    assert [f.name for f in fields(ModelConfig)] == [
        "tokens_per_branch",
        "d_model",
        "n_layers",
        "n_heads",
        "max_segments",
        "seed",
    ]

    def former(doc):
        doc["role"] = "policy"
        doc["config"].update(vocab_size=VOCAB_SIZE, coord_factor=3, endpoint_factor=2, ff_mult=4)
        doc["config"].update(train_topo_encoder=True, train_geom_encoder=True)

    message = (
        "unknown config keys: coord_factor, endpoint_factor, ff_mult, "
        "train_geom_encoder, train_topo_encoder, vocab_size"
    )
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(_with_header(blob, former))
