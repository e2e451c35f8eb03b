import numpy as np
import pytest

from seamkit.dpo import (
    DPOConfig,
    DPOError,
    LN2,
    PreferencePair,
    ScoredSeams,
    build_pairs,
    dominates,
    dpo_loss,
    dpo_margin_loss,
    dpo_train,
    read_pair_records,
    write_pair_records,
    PairRecord,
)
from seamkit.metrics import SeamMetrics
from seamkit.model import init_parameters, save_checkpoint
from seamkit.sampling import ConditioningClouds
from seamkit.tokenizer import SeamSet, canonicalize

from tests import loop_reference as ref
from tests.util import TINY_CONFIG, DESK_CONFIG


def metrics(d, f):
    return SeamMetrics(distortion=d, fragments=f, runtime_s=0.0, excluded_triangles=0)


def scored(rng, d, f, n_segments=2):
    seams = canonicalize(SeamSet(segments=rng.uniform(-0.5, 0.5, size=(n_segments, 2, 3))))
    return ScoredSeams(seams=seams, metrics=metrics(d, f))


def rand_clouds(rng, config):
    k = 2 * config.tokens_per_branch
    return ConditioningClouds(
        topo_points=rng.normal(size=(k, 3)) * 0.2,
        geom_points=rng.normal(size=(k, 3)) * 0.2,
        seed=0,
    )


def test_dominates_and_config_validation():
    assert dominates(metrics(1, 2), metrics(2, 3), "joint")
    assert not dominates(metrics(1, 3), metrics(2, 2), "joint")
    assert dominates(metrics(1, 3), metrics(2, 2), "distortion-only")
    assert dominates(metrics(2, 2), metrics(1, 3), "density-only")
    with pytest.raises(DPOError):
        DPOConfig(beta=0.0)


def test_build_pairs_trivial_cases():
    rng = np.random.default_rng(0)
    a = scored(rng, 1, 2)
    b = scored(rng, 2, 3)
    assert build_pairs([a.metrics, b.metrics], "joint") == [(0, 1)]
    # non-dominated in joint mode
    c = scored(rng, 1, 3)
    d = scored(rng, 2, 2)
    assert build_pairs([c.metrics, d.metrics], "joint") == []
    with pytest.raises(DPOError):
        build_pairs([a.metrics], "joint")
    with pytest.raises(DPOError, match="unknown pairing mode 'bogus'"):
        build_pairs([a.metrics, b.metrics], "bogus")


def test_pair_invariant_enforced():
    rng = np.random.default_rng(1)
    good = scored(rng, 1, 1)
    bad = scored(rng, 2, 2)
    with pytest.raises(DPOError):
        PreferencePair(condition=None, positive=bad, negative=good, mode="joint")


def test_build_pairs_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        cands = [
            scored(rng, float(rng.uniform(0, 5)), int(rng.integers(1, 6)))
            for _ in range(5)
        ]
        for mode in ("joint", "distortion-only", "density-only"):
            got = build_pairs([c.metrics for c in cands], mode)
            expected = []
            for i in range(5):
                for j in range(5):
                    if i == j:
                        continue
                    mi, mj = cands[i].metrics, cands[j].metrics
                    if mode == "joint":
                        ok = mi.distortion < mj.distortion and mi.fragments < mj.fragments
                    elif mode == "distortion-only":
                        ok = mi.distortion < mj.distortion
                    else:
                        ok = mi.fragments < mj.fragments
                    if ok:
                        expected.append((i, j))
            assert got == expected
            # antisymmetry
            assert not any((b, a) in got for a, b in got)


def test_margin_loss_hand_values():
    # beta=1, margin = delta+ - delta- = 2 -> -log sigma(2)
    val = float(dpo_margin_loss(np.array([2.0]), beta=1.0)[0])
    assert val == pytest.approx(0.126928011, abs=1e-6)
    assert float(dpo_margin_loss(np.array([0.0]), beta=1.0)[0]) == pytest.approx(LN2, abs=1e-12)
    # beta -> 0+ gives ln 2 from either side
    for m in (5.0, -5.0):
        v = float(dpo_margin_loss(np.array([m]), beta=1e-9)[0])
        assert v == pytest.approx(LN2, abs=1e-8)


def make_pairs(rng, config, n_pairs, cloud=None):
    pairs = []
    for _ in range(n_pairs):
        cond = cloud if cloud is not None else rand_clouds(rng, config)
        pos = scored(rng, float(rng.uniform(0, 1)), int(rng.integers(1, 3)))
        neg = ScoredSeams(
            seams=canonicalize(SeamSet(segments=rng.uniform(-0.5, 0.5, size=(3, 2, 3)))),
            metrics=metrics(pos.metrics.distortion + 1.0, pos.metrics.fragments + 1),
        )
        pairs.append(PreferencePair(condition=cond, positive=pos, negative=neg))
    return pairs


def test_loss_is_ln2_at_policy_equals_reference():
    rng = np.random.default_rng(3)
    params = init_parameters(TINY_CONFIG)
    for trial in range(10):
        pairs = make_pairs(rng, TINY_CONFIG, n_pairs=int(rng.integers(1, 4)))
        for beta in (0.01, 0.1, 1.0):
            loss = dpo_loss(params, params, pairs, beta=beta)
            assert loss == pytest.approx(LN2, abs=1e-9)


def test_dpo_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    policy = init_parameters(TINY_CONFIG)
    reference = init_parameters(TINY_CONFIG).copy()
    # move the policy off the reference so margins are nonzero
    for name in policy.trainable_names():
        policy.arrays[name] = policy.arrays[name] + 0.01 * rng.normal(
            size=policy.arrays[name].shape
        )
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=2)
    beta = 0.5

    from seamkit import autodiff as ad
    from seamkit.dpo import _dpo_loss_t, _reference_logprobs

    refs = _reference_logprobs(pairs, reference)
    p = policy.as_tensors()
    loss, _ = _dpo_loss_t(pairs, p, policy.config, refs, beta)
    ad.backward(loss)

    names = policy.trainable_names()
    checked = 0
    h = 1e-4
    while checked < 20:
        name = names[int(rng.integers(len(names)))]
        grad = p[name].grad
        if grad is None:
            continue
        i = int(rng.integers(policy.arrays[name].size))
        if abs(grad.flat[i]) < 1e-7:
            continue

        def loss_at(delta):
            trial = policy.copy()
            trial.arrays[name] = trial.arrays[name].copy()
            trial.arrays[name].flat[i] += delta
            pt = trial.as_tensors()
            l, _ = _dpo_loss_t(pairs, pt, trial.config, refs, beta)
            return float(l.value)

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        rel = abs(grad.flat[i] - fd) / max(abs(fd), 1e-12)
        assert rel < 1e-4, f"{name}[{i}]"
        checked += 1


def test_dpo_train_single_pair_converges():
    rng = np.random.default_rng(5)
    reference = init_parameters(TINY_CONFIG).copy()
    policy = reference.copy()
    ref_blob = save_checkpoint(reference)
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=1)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=300)
    trained, history = dpo_train(policy, reference, pairs, config)
    assert len(history) == 300
    final = dpo_loss(trained, reference, pairs, beta=config.beta)
    assert final < LN2
    assert history[-1].accuracy == 1.0
    # reference untouched, byte-for-byte
    assert save_checkpoint(reference) == ref_blob


def test_dpo_first_step_increases_margin():
    rng = np.random.default_rng(6)
    reference = init_parameters(TINY_CONFIG).copy()
    policy = reference.copy()
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=1)
    config = DPOConfig(beta=0.5, learning_rate=1e-3, steps=1)
    trained, history = dpo_train(policy, reference, pairs, config)
    assert history[0].loss == pytest.approx(LN2, abs=1e-9)
    from seamkit.dpo import _reference_logprobs, _dpo_loss_t

    refs = _reference_logprobs(pairs, reference)
    _, margins = _dpo_loss_t(pairs, trained.as_tensors(), trained.config, refs, config.beta)
    assert margins[0] > 0


def test_dpo_train_empty_dataset_is_noop():
    policy = init_parameters(TINY_CONFIG)
    reference = policy.copy()
    trained, history = dpo_train(policy, reference, [], DPOConfig(steps=10))
    assert history == []
    assert save_checkpoint(trained) == save_checkpoint(policy)


def test_pair_records_round_trip():
    rec = PairRecord(
        mesh_path="meshes/cube.obj",
        seed=7,
        positive_index=2,
        negative_index=4,
        positive_metrics=metrics(0.5, 3),
        negative_metrics=metrics(1.5, 6),
        mode="joint",
    )
    text = write_pair_records([rec, rec])
    back = read_pair_records(text)
    assert back == [rec, rec]


def two_condition_pairs(rng, config):
    """Pairs over two conditions with shared positives, a negative shared
    across conditions, distinct cloud objects holding equal arrays, a repeated
    pair, and token sequences of 1 to 4 segments (so the batch is padded)."""
    a, b = rand_clouds(rng, config), rand_clouds(rng, config)
    a_copy = ConditioningClouds(
        topo_points=a.topo_points.copy(), geom_points=a.geom_points.copy(), seed=0
    )
    pos_a = scored(rng, 0.1, 1, n_segments=3)
    pos_b = scored(rng, 0.2, 1, n_segments=1)

    def neg(n_segments):
        return scored(rng, 5.0, 9, n_segments=n_segments)

    shared_neg = neg(2)
    return [
        PreferencePair(condition=a, positive=pos_a, negative=shared_neg),
        PreferencePair(condition=a_copy, positive=pos_a, negative=neg(4)),
        PreferencePair(condition=b, positive=pos_b, negative=shared_neg),
        PreferencePair(condition=a_copy, positive=pos_a, negative=shared_neg),
        PreferencePair(condition=b, positive=pos_b, negative=neg(1)),
    ]


def per_pair_logprobs_t(pairs, p, config):
    """(positive, negative) log-probabilities pair by pair: one encoding and
    two unbatched decodes each."""
    from seamkit import autodiff as ad
    from seamkit.dpo import pair_tokens
    from seamkit.model import _decoder_logits_t, _encode_condition_t, _prepare_condition

    out = []
    for pair in pairs:
        cond = _encode_condition_t(_prepare_condition(pair.condition, config), p, config)
        lps = []
        for tokens in pair_tokens(pair):
            t = tokens.tokens
            logp = ref.log_softmax(_decoder_logits_t(t[:-1], cond, p, config), axis=-1)
            lps.append(ad.sum_all(ref.take_per_row(logp, t[1:])))
        out.append(tuple(lps))
    return out


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_reference_logprobs_match_per_pair_loop(config):
    from seamkit.dpo import _batch_pairs, _reference_logprobs

    rng = np.random.default_rng(7)
    params = init_parameters(config)
    pairs = two_condition_pairs(rng, config)
    batch = _batch_pairs(pairs, config)
    assert [len(seqs) for _, seqs in batch.groups] == [3, 3]
    got = _reference_logprobs(pairs, params)
    expected = per_pair_logprobs_t(pairs, params.as_tensors(), config)
    for (pos, neg), (lp_pos, lp_neg) in zip(got, expected):
        assert pos == pytest.approx(float(lp_pos.value), rel=1e-12, abs=0)
        assert neg == pytest.approx(float(lp_neg.value), rel=1e-12, abs=0)


def test_dpo_gradients_match_per_pair_loss():
    from seamkit import autodiff as ad
    from seamkit.dpo import _dpo_loss_t, _reference_logprobs

    rng = np.random.default_rng(8)
    reference = init_parameters(TINY_CONFIG).copy()
    policy = reference.copy()
    for name in policy.trainable_names():
        policy.arrays[name] = policy.arrays[name] + 0.01 * rng.normal(
            size=policy.arrays[name].shape
        )
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    beta = 0.5

    p = policy.as_tensors()
    loss, margins = _dpo_loss_t(pairs, p, policy.config, _reference_logprobs(pairs, reference), beta)
    ad.backward(loss)

    refs = per_pair_logprobs_t(pairs, reference.as_tensors(), TINY_CONFIG)
    q = policy.as_tensors()
    terms = []
    expected_margins = []
    for (lp_pos, lp_neg), (ref_pos, ref_neg) in zip(per_pair_logprobs_t(pairs, q, TINY_CONFIG), refs):
        margin = ad.sub(ad.sub(lp_pos, ref_pos), ad.sub(lp_neg, ref_neg))
        expected_margins.append(float(margin.value))
        terms.append(ad.scale(ad.log_sigmoid(ad.scale(margin, beta)), -1.0))
    expected = terms[0]
    for t in terms[1:]:
        expected = ad.add(expected, t)
    expected = ad.scale(expected, 1.0 / len(terms))
    ad.backward(expected)

    assert float(loss.value) == pytest.approx(float(expected.value), rel=1e-12, abs=0)
    np.testing.assert_allclose(margins, expected_margins, rtol=1e-10, atol=0)
    for name in policy.trainable_names():
        g, g_ref = p[name].grad, q[name].grad
        assert (g is None) == (g_ref is None), name
        if g is not None:
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref)), name


def count_passes(monkeypatch):
    """Counts of condition encodings, decodes and FPS anchor picks from now on."""
    from seamkit import model

    calls = {"encode": 0, "decode": 0, "fps": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(model, "_encode_condition_t", counted("encode", model._encode_condition_t))
    monkeypatch.setattr(model, "_decoder_logits_t", counted("decode", model._decoder_logits_t))
    monkeypatch.setattr(model, "fps_anchors", counted("fps", model.fps_anchors))
    return calls


def composed_separate_pass_losses(policy, reference, pairs, config):
    """Per-step losses of DPO with one reference pass before step 0 (whatever
    the reference) on the composed ops of ``loop_reference``."""
    from seamkit import autodiff as ad
    from seamkit.dpo import _batch_pairs, _dpo_loss_t, _reference_logprobs
    from seamkit.model import _sgd_step

    losses = []
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in ref.COMPOSED_OPS.items():
            mp.setattr(ad, name, fn)
        batch = _batch_pairs(pairs, policy.config)
        refs = _reference_logprobs(batch, reference)
        for _ in range(config.steps):
            p = policy.as_tensors()
            loss, _ = _dpo_loss_t(batch, p, policy.config, refs, config.beta)
            losses.append(float(loss.value))
            ad.backward(loss)
            policy = _sgd_step(policy, p, config.learning_rate)
    return losses


def test_dpo_pass_encodes_and_decodes_once_per_condition(monkeypatch):
    calls = count_passes(monkeypatch)
    rng = np.random.default_rng(9)
    policy = init_parameters(TINY_CONFIG)
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    dpo_train(policy, policy.copy(), pairs, DPOConfig(learning_rate=1e-3, steps=2))
    # two steps, each over two conditions; the reference is the starting
    # policy, so step 0's pass gives its log-probabilities; each condition's
    # two branches pick their FPS anchors once per dpo_train
    assert calls == {"encode": 4, "decode": 4, "fps": 4}


def test_reference_off_the_policy_runs_its_own_pass(monkeypatch):
    rng = np.random.default_rng(12)
    policy = init_parameters(TINY_CONFIG)
    reference = policy.copy()
    reference.arrays["head.b"] = reference.arrays["head.b"].copy()
    reference.arrays["head.b"][5] += 1e-3
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=2)
    expected = composed_separate_pass_losses(policy, reference, pairs, config)
    calls = count_passes(monkeypatch)
    _, history = dpo_train(policy, reference, pairs, config)
    # the reference pass plus two steps, each over two conditions
    assert calls == {"encode": 6, "decode": 6, "fps": 4}
    assert history[0].loss != LN2
    np.testing.assert_allclose([h.loss for h in history], expected, rtol=1e-12, atol=0)


def test_dpo_train_matches_composed_ops():
    from seamkit import autodiff as ad
    from seamkit.dpo import _margin_loss_t

    rng = np.random.default_rng(13)
    policy = init_parameters(TINY_CONFIG)
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=20)
    _, history = dpo_train(policy, policy.copy(), pairs, config)
    losses = [h.loss for h in history]
    # step 0: every margin is exactly 0, so the loss is the mean of ln 2 terms
    first = history[0]
    assert (first.margin_mean, first.margin_min, first.accuracy) == (0.0, 0.0, 0.0)
    zero = ad.Tensor(0.0)
    at_zero = float(_margin_loss_t([(zero, zero)] * len(pairs), config.beta)[0].value)
    assert losses[0] == at_zero == pytest.approx(LN2, rel=1e-15)
    expected = composed_separate_pass_losses(policy, policy.copy(), pairs, config)
    assert expected[0] == at_zero
    np.testing.assert_allclose(losses, expected, rtol=1e-10, atol=0)
    assert losses[-1] < 0.5 * LN2


def test_frozen_encoder_branch_stays_frozen():
    from dataclasses import replace

    from seamkit.dpo import pair_tokens
    from seamkit.model import nll_train_step

    rng = np.random.default_rng(11)
    config = replace(TINY_CONFIG, train_geom_encoder=False)
    params = init_parameters(config)
    pairs = make_pairs(rng, config, n_pairs=2)
    nll_batch = [(pair.condition, pair_tokens(pair)[0]) for pair in pairs]
    stepped, _ = nll_train_step(nll_batch, params, lr=0.1)
    trained, _ = dpo_train(
        params, params.copy(), pairs, DPOConfig(beta=0.5, learning_rate=0.1, steps=1)
    )
    for after in (stepped, trained):
        for name in params.names():
            if name.startswith("enc.geom."):
                assert np.array_equal(after.arrays[name], params.arrays[name]), name
        assert any(
            not np.array_equal(after.arrays[name], params.arrays[name])
            for name in params.names()
            if name.startswith("enc.topo.")
        )


def test_dpo_step_log_diagnostics():
    from seamkit import autodiff as ad
    from seamkit.dpo import _dpo_loss_t, _reference_logprobs

    rng = np.random.default_rng(10)
    reference = init_parameters(TINY_CONFIG).copy()
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=3)
    trained, history = dpo_train(reference.copy(), reference, pairs, config)
    first = history[0]
    assert first.loss == pytest.approx(LN2, abs=1e-12) and first.accuracy == 0.0
    assert (first.reward_chosen, first.reward_rejected) == (0.0, 0.0)
    assert (first.margin_mean, first.margin_min) == (0.0, 0.0)
    p = reference.as_tensors()
    loss, _ = _dpo_loss_t(pairs, p, TINY_CONFIG, _reference_logprobs(pairs, reference), config.beta)
    ad.backward(loss)
    norm = np.sqrt(sum(np.sum(p[n].grad ** 2) for n in reference.trainable_names()))
    assert first.grad_norm == pytest.approx(norm, rel=1e-12)
    last = history[-1]
    assert last.margin_mean == pytest.approx(last.reward_chosen - last.reward_rejected, rel=1e-9)
    assert last.margin_min <= last.margin_mean
    assert last.margin_mean > 0 and last.loss < LN2


@pytest.mark.parametrize(
    "line, message",
    [
        ("not json", "line 2: not a JSON record"),
        ('{"seed": 0}', "line 2: missing key 'mesh'"),
        ("[1, 2]", "line 2: malformed record"),
    ],
)
def test_read_pair_records_names_the_bad_line(line, message):
    rec = PairRecord(
        mesh_path="m.obj",
        seed=0,
        positive_index=0,
        negative_index=1,
        positive_metrics=metrics(0.5, 3),
        negative_metrics=metrics(1.5, 6),
    )
    text = write_pair_records([rec]) + line + "\n"
    with pytest.raises(DPOError, match=message):
        read_pair_records(text)
    bad_mode = rec.to_json().replace('"joint"', '"bogus"')
    with pytest.raises(DPOError, match="line 1: malformed record"):
        read_pair_records(bad_mode)


@pytest.mark.parametrize(
    "mode, positive, negative",
    [
        ("joint", metrics(0.5, 3), metrics(1.5, 3)),
        ("joint", metrics(1.5, 3), metrics(0.5, 6)),
        ("distortion-only", metrics(1.5, 3), metrics(1.5, 6)),
        ("density-only", metrics(0.5, 6), metrics(1.5, 6)),
    ],
)
def test_read_pair_records_rejects_a_non_dominating_pair(mode, positive, negative):
    good = PairRecord("m.obj", 0, 0, 1, metrics(0.5, 3), metrics(1.5, 6), mode=mode)
    bad = PairRecord("m.obj", 0, 0, 2, positive, negative, mode=mode)
    with pytest.raises(DPOError, match=f"line 2: malformed record .*in mode '{mode}'"):
        read_pair_records(write_pair_records([good, bad]))


def test_read_pair_records_rejects_one_candidate_on_both_sides():
    good = PairRecord("m.obj", 0, 0, 1, metrics(0.5, 3), metrics(1.5, 6))
    same = PairRecord("m.obj", 0, 2, 2, metrics(0.5, 3), metrics(1.5, 6))
    with pytest.raises(DPOError, match="line 2: malformed record .*both 2"):
        read_pair_records(write_pair_records([good, same]))


def test_dpo_train_aborts_when_the_loss_stays_high(monkeypatch):
    from seamkit import dpo
    from seamkit.model import TrainingError

    # the step-0 loss is ln 2, above 0.5 * ln 2, and stays there for a small step
    monkeypatch.setattr(dpo, "DIVERGENCE_FACTOR", 0.5)
    monkeypatch.setattr(dpo, "DIVERGENCE_PATIENCE", 2)
    rng = np.random.default_rng(14)
    policy = init_parameters(TINY_CONFIG)
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=1e-3, steps=5)
    with pytest.raises(TrainingError, match=r"DPO diverged: .* above 0.5 \* ln2 for 2 steps"):
        dpo_train(policy, policy.copy(), pairs, config)
    # one step is within the patience
    _, history = dpo_train(policy, policy.copy(), pairs, DPOConfig(beta=0.5, learning_rate=1e-3, steps=1))
    assert [h.loss for h in history] == [pytest.approx(LN2, rel=1e-15)]
