import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamkit import autodiff as ad
from seamkit.dpo import (
    PAIRING_MODES,
    DPOConfig,
    DPOError,
    LN2,
    build_pairs,
    dominates,
    dpo_train,
    read_pair_records,
    write_pair_records,
    PairRecord,
)
from seamkit.metrics import SeamMetrics
from seamkit.model import _group_conditions, _group_logprobs_t, init_parameters, save_checkpoint
from seamkit.sampling import ConditioningClouds
from seamkit.tokenizer import SeamSet, canonicalize, encode

from tests import loop_reference as ref
from tests.loop_reference import dpo_objective as _objective
from tests.util import (
    DESK_CONFIG,
    HANDS_OVER_ARGUMENTS,
    TINY_CONFIG,
    stepped_gradients,
    stores_alive_per_pass,
    traced_peak,
)


def metrics(d, f):
    return SeamMetrics(distortion=d, fragments=f, runtime_s=0.0, excluded_triangles=0)


def seam_tokens(rng, n_segments=2):
    """The token array of a random seam set of ``n_segments`` segments."""
    seams = SeamSet(segments=rng.uniform(-0.5, 0.5, size=(n_segments, 2, 3)))
    return encode(canonicalize(seams)).tokens


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


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"beta": -1.0}, "beta"),
        ({"beta": float("inf")}, "beta"),
        ({"beta": float("nan")}, "beta"),
        ({"learning_rate": -1e-3}, "learning_rate"),
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"learning_rate": float("inf")}, "learning_rate"),
        ({"steps": -3}, "steps"),
        ({"steps": 2.0}, "steps"),
        ({"steps": True}, "steps"),
        ({"steps": -3, "learning_rate": float("nan")}, "learning_rate"),
    ],
    ids=[
        "beta-negative",
        "beta-inf",
        "beta-nan",
        "lr-negative",
        "lr-nan",
        "lr-inf",
        "steps-negative",
        "steps-float",
        "steps-bool",
        "lr-checked-before-steps",
    ],
)
def test_dpo_config_rejects_values_outside_the_cli_ranges(kwargs, field):
    with pytest.raises(DPOError, match=f"^{field} must be"):
        DPOConfig(**kwargs)


def test_dpo_config_accepts_the_range_edges():
    DPOConfig(beta=1e-300, learning_rate=0.0, steps=0)


def test_build_pairs_trivial_cases():
    a = metrics(1, 2)
    b = metrics(2, 3)
    assert build_pairs([a, b], "joint") == [(0, 1)]
    # non-dominated in joint mode
    c = metrics(1, 3)
    d = metrics(2, 2)
    assert build_pairs([c, d], "joint") == []
    with pytest.raises(DPOError):
        build_pairs([a], "joint")
    with pytest.raises(DPOError, match="unknown pairing mode 'bogus'"):
        build_pairs([a, b], "bogus")


def test_pair_invariant_enforced():
    good, bad = metrics(1, 1), metrics(2, 2)
    PairRecord("m.obj", 0, 0, 1, good, bad, mode="joint")
    with pytest.raises(ValueError, match="do not strictly dominate the negative's in mode 'joint'"):
        PairRecord("m.obj", 0, 0, 1, bad, good, mode="joint")
    with pytest.raises(ValueError, match="are both 0: a pair needs two distinct candidates"):
        PairRecord("m.obj", 0, 0, 0, good, bad, mode="joint")
    with pytest.raises(ValueError, match="mode must be one of .*, got 'bogus'"):
        PairRecord("m.obj", 0, 0, 1, good, bad, mode="bogus")


def test_build_pairs_matches_bruteforce_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        cands = [metrics(float(rng.uniform(0, 5)), int(rng.integers(1, 6))) for _ in range(5)]
        for mode in ("joint", "distortion-only", "density-only"):
            got = build_pairs(cands, mode)
            expected = []
            for i in range(5):
                for j in range(5):
                    if i == j:
                        continue
                    mi, mj = cands[i], cands[j]
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


def margin_loss(margin, beta):
    """The objective of one pair whose reward margin is ``margin``: log-ratios
    (margin, 0), from log-probabilities (margin, 0) over a zero reference."""
    loss, _, margins = _objective([(np.array(margin), np.array(0.0))], [(0.0, 0.0)], beta)
    assert margins == [margin]
    return float(loss)


def test_margin_loss_hand_values():
    # beta=1, margin = delta+ - delta- = 2 -> -log sigma(2)
    val = margin_loss(2.0, beta=1.0)
    assert val == pytest.approx(0.126928011, abs=1e-6)
    assert margin_loss(0.0, beta=1.0) == pytest.approx(LN2, abs=1e-12)
    # beta -> 0+ gives ln 2 from either side
    for m in (5.0, -5.0):
        v = margin_loss(m, beta=1e-9)
        assert v == pytest.approx(LN2, abs=1e-8)


def make_pairs(rng, config, n_pairs):
    """``dpo_train`` items: (clouds, (chosen tokens, rejected tokens))."""
    pairs = []
    for _ in range(n_pairs):
        cond = rand_clouds(rng, config)
        pairs.append((cond, (seam_tokens(rng, int(rng.integers(1, 3))), seam_tokens(rng, 3))))
    return pairs


def pair_logprobs(batch, lps):
    """Per pair, the (chosen, rejected) entries of ``_group_logprobs_t``
    output ``lps``."""
    return [(lps[g][chosen], lps[g][rejected]) for g, chosen, rejected in batch.index]


def dpo_loss_t(pairs, p, config, refs, beta):
    """The batch objective of the items over parameters ``p`` (Tensors give
    a graph, arrays a value); returns (loss, margin floats)."""
    batch = _group_conditions(pairs, config)
    loss, _, margins = _objective(pair_logprobs(batch, _group_logprobs_t(batch, p, config)), refs, beta)
    return loss, margins


def reference_logprobs(pairs, reference):
    """Per pair, the (chosen, rejected) log-probabilities (arrays) under the
    store ``reference``: ``_group_logprobs_t`` on its arrays, which builds
    no graph."""
    batch = _group_conditions(pairs, reference.config)
    return pair_logprobs(batch, _group_logprobs_t(batch, reference.arrays, reference.config))


def dpo_loss(policy, reference, pairs, beta):
    """The objective's value at ``policy`` against ``reference``."""
    loss, _ = dpo_loss_t(pairs, policy.arrays, policy.config, reference_logprobs(pairs, reference), beta)
    return float(loss)


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
    for name in policy.arrays:
        policy.arrays[name] = policy.arrays[name] + 0.01 * rng.normal(
            size=policy.arrays[name].shape
        )
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=2)
    beta = 0.5

    refs = reference_logprobs(pairs, reference)
    p = policy.as_tensors()
    loss, _ = dpo_loss_t(pairs, p, policy.config, refs, beta)
    ad.backward(loss)

    names = list(policy.arrays)
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
            l, _ = dpo_loss_t(pairs, pt, trial.config, refs, beta)
            return float(l.value)

        fd = (loss_at(h) - loss_at(-h)) / (2 * h)
        rel = abs(grad.flat[i] - fd) / max(abs(fd), 1e-12)
        assert rel < 1e-4, f"{name}[{i}]"
        checked += 1


def test_dpo_train_single_pair_converges():
    rng = np.random.default_rng(5)
    reference = init_parameters(TINY_CONFIG).copy()
    ref_blob = save_checkpoint(reference)
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=1)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=300)
    trained, history = dpo_train(reference, pairs, config)
    assert len(history) == 300
    final = dpo_loss(trained, reference, pairs, beta=config.beta)
    assert final < LN2
    assert history[-1].accuracy == 1.0
    # the starting policy, the reference, untouched byte for byte
    assert save_checkpoint(reference) == ref_blob


def test_dpo_first_step_increases_margin():
    rng = np.random.default_rng(6)
    reference = init_parameters(TINY_CONFIG).copy()
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=1)
    config = DPOConfig(beta=0.5, learning_rate=1e-3, steps=1)
    trained, history = dpo_train(reference, pairs, config)
    assert history[0].loss == pytest.approx(LN2, abs=1e-9)
    refs = reference_logprobs(pairs, reference)
    _, margins = dpo_loss_t(pairs, trained.as_tensors(), trained.config, refs, config.beta)
    assert margins[0] > 0


def test_dpo_train_empty_dataset_is_noop():
    policy = init_parameters(TINY_CONFIG)
    trained, history = dpo_train(policy, [], DPOConfig(steps=10))
    assert history == []
    assert save_checkpoint(trained) == save_checkpoint(policy)


def test_dpo_train_rejects_an_incomplete_sequence():
    from seamkit.model import ModelError

    rng = np.random.default_rng(15)
    policy = init_parameters(TINY_CONFIG)
    (clouds, (chosen, rejected)), = make_pairs(rng, TINY_CONFIG, n_pairs=1)
    with pytest.raises(ModelError, match="must start with BOS and end with EOS"):
        dpo_train(policy, [(clouds, (chosen, rejected[:-1]))], DPOConfig(steps=1))


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


_finite = st.floats(allow_nan=False, allow_infinity=False)
_count = st.integers(0, 2**40)


@st.composite
def _pair_records(draw):
    """A readable record in any pairing mode: the positive's metrics are
    strictly lower in what the mode compares, and drawn freely otherwise."""
    mode = draw(st.sampled_from(PAIRING_MODES))
    d = sorted(draw(st.lists(_finite, min_size=2, max_size=2, unique=True)))
    f = sorted(draw(st.lists(_count, min_size=2, max_size=2, unique=True)))
    if mode == "density-only":
        d = draw(st.permutations(d))
    if mode == "distortion-only":
        f = draw(st.permutations(f))
    pos, neg = draw(st.lists(_count, min_size=2, max_size=2, unique=True))
    positive, negative = (
        SeamMetrics(distortion=d[i], fragments=f[i], runtime_s=draw(_finite), excluded_triangles=draw(_count))
        for i in (0, 1)
    )
    return PairRecord(
        mesh_path=draw(st.text()),
        seed=draw(_count),
        positive_index=pos,
        negative_index=neg,
        positive_metrics=positive,
        negative_metrics=negative,
        mode=mode,
    )


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(_pair_records(), max_size=5))
def test_pair_records_property_round_trip(records):
    assert read_pair_records(write_pair_records(records)) == records


def two_condition_pairs(rng, config):
    """Pairs over two conditions with shared positives, a negative shared
    across conditions, distinct cloud objects holding equal arrays, a repeated
    pair, and token sequences of 1 to 4 segments (so the batch is padded)."""
    a, b = rand_clouds(rng, config), rand_clouds(rng, config)
    a_copy = ConditioningClouds(
        topo_points=a.topo_points.copy(), geom_points=a.geom_points.copy(), seed=0
    )
    pos_a = seam_tokens(rng, 3)
    pos_b = seam_tokens(rng, 1)
    shared_neg = seam_tokens(rng, 2)
    return [
        (a, (pos_a, shared_neg)),
        (a_copy, (pos_a, seam_tokens(rng, 4))),
        (b, (pos_b, shared_neg)),
        (a_copy, (pos_a, shared_neg)),
        (b, (pos_b, seam_tokens(rng, 1))),
    ]


def per_pair_logprobs_t(pairs, p, config):
    """(positive, negative) log-probabilities pair by pair: one encoding and
    two unbatched decodes each."""
    from seamkit.model import _decoder_logits_t, _encode_condition_t, _prepare_condition

    out = []
    for clouds, seqs in pairs:
        cond = _encode_condition_t(_prepare_condition(clouds, config), p, config)
        lps = []
        for t in seqs:
            logp = ref.log_softmax(_decoder_logits_t(t[:-1], cond, p, config), axis=-1)
            lps.append(ad.sum_all(ref.take_per_row(logp, t[1:])))
        out.append(tuple(lps))
    return out


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_reference_logprobs_match_per_pair_loop(config):
    rng = np.random.default_rng(7)
    params = init_parameters(config)
    pairs = two_condition_pairs(rng, config)
    batch = _group_conditions(pairs, config)
    assert [len(seqs) for _, seqs in batch.groups] == [3, 3]
    got = reference_logprobs(pairs, params)
    expected = per_pair_logprobs_t(pairs, params.as_tensors(), config)
    for (pos, neg), (lp_pos, lp_neg) in zip(got, expected):
        assert pos == pytest.approx(float(lp_pos.value), rel=1e-12, abs=0)
        assert neg == pytest.approx(float(lp_neg.value), rel=1e-12, abs=0)


def test_dpo_gradients_match_per_pair_loss():
    rng = np.random.default_rng(8)
    reference = init_parameters(TINY_CONFIG).copy()
    policy = reference.copy()
    for name in policy.arrays:
        policy.arrays[name] = policy.arrays[name] + 0.01 * rng.normal(
            size=policy.arrays[name].shape
        )
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    beta = 0.5

    p = policy.as_tensors()
    loss, margins = dpo_loss_t(pairs, p, policy.config, reference_logprobs(pairs, reference), beta)
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
    for name in policy.arrays:
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


def composed_separate_pass_losses(policy, pairs, config):
    """Per-step losses of DPO on the composed ops of ``loop_reference``, with
    the reference log-probabilities read by a separate array pass over the
    starting policy before step 0 (``reference_logprobs``), not off step 0's
    own pass as ``dpo_train`` reads them."""
    from seamkit.model import _sgd_step

    losses = []
    with pytest.MonkeyPatch.context() as mp:
        for name, fn in ref.COMPOSED_OPS.items():
            mp.setattr(ad, name, fn)
        batch = _group_conditions(pairs, policy.config)
        refs = reference_logprobs(pairs, policy)
        for _ in range(config.steps):
            p = policy.as_tensors()
            lps = _group_logprobs_t(batch, p, policy.config)
            loss, _, _ = _objective(pair_logprobs(batch, lps), refs, config.beta)
            losses.append(float(loss.value))
            ad.backward(loss)
            policy = _sgd_step(policy, p, config.learning_rate)
    return losses


def test_dpo_pass_encodes_and_decodes_once_per_condition(monkeypatch):
    calls = count_passes(monkeypatch)
    rng = np.random.default_rng(9)
    policy = init_parameters(TINY_CONFIG)
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    dpo_train(policy, pairs, DPOConfig(learning_rate=1e-3, steps=2))
    # two steps, each over two conditions; the reference is the starting
    # policy, so step 0's pass gives its log-probabilities; each condition's
    # two branches pick their FPS anchors once per dpo_train
    assert calls == {"encode": 4, "decode": 4, "fps": 4}


# one case: the reference is the starting policy, as the id says
@pytest.mark.parametrize("reference", ["policy"], ids=["policy reference"])
def test_conditions_are_prepared_at_their_first_pass(monkeypatch, reference):
    from seamkit import model

    rng = np.random.default_rng(14)
    policy = init_parameters(TINY_CONFIG)
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    prepared = []
    original = model._prepare_condition

    def counted(clouds, config):
        prepared.append(clouds)
        return original(clouds, config)

    monkeypatch.setattr(model, "_prepare_condition", counted)
    # a zero-step run scores nothing
    dpo_train(policy, pairs, DPOConfig(steps=0))
    assert prepared == []
    dpo_train(policy, pairs, DPOConfig(learning_rate=1e-3, steps=2))
    # two conditions, each prepared once over both steps
    assert len(prepared) == 2


def test_dpo_train_matches_composed_ops():
    rng = np.random.default_rng(13)
    policy = init_parameters(TINY_CONFIG)
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=20)
    _, history = dpo_train(policy, pairs, config)
    losses = [h.loss for h in history]
    # step 0: every margin is exactly 0, so the loss is the mean of ln 2 terms
    first = history[0]
    assert (first.margin_mean, first.margin_min, first.accuracy) == (0.0, 0.0, 0.0)
    zero = ad.Tensor(0.0)
    at_zero = float(_objective([(zero, zero)] * len(pairs), [(0.0, 0.0)] * len(pairs), config.beta)[0].value)
    assert losses[0] == at_zero == pytest.approx(LN2, rel=1e-15)
    expected = composed_separate_pass_losses(policy, pairs, config)
    assert expected[0] == at_zero
    np.testing.assert_allclose(losses, expected, rtol=1e-10, atol=0)
    assert losses[-1] < 0.5 * LN2


def test_every_parameter_trains():
    from seamkit.model import nll_train_step

    rng = np.random.default_rng(11)
    params = init_parameters(TINY_CONFIG)
    pairs = make_pairs(rng, TINY_CONFIG, n_pairs=2)
    nll_batch = [(clouds, chosen) for clouds, (chosen, _) in pairs]
    stepped, _ = nll_train_step(nll_batch, params, lr=0.1)
    trained, _ = dpo_train(params, pairs, DPOConfig(beta=0.5, learning_rate=0.1, steps=1))
    for after in (stepped, trained):
        assert list(after.arrays) == list(params.arrays)
        for name, start in params.arrays.items():
            assert not np.array_equal(after.arrays[name], start), name


def test_dpo_step_log_diagnostics():
    rng = np.random.default_rng(10)
    reference = init_parameters(TINY_CONFIG).copy()
    pairs = two_condition_pairs(rng, TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.05, steps=3)
    trained, history = dpo_train(reference, pairs, config)
    first = history[0]
    assert first.loss == pytest.approx(LN2, abs=1e-12) and first.accuracy == 0.0
    assert (first.reward_chosen, first.reward_rejected) == (0.0, 0.0)
    assert (first.margin_mean, first.margin_min) == (0.0, 0.0)
    p = reference.as_tensors()
    loss, _ = dpo_loss_t(pairs, p, TINY_CONFIG, reference_logprobs(pairs, reference), config.beta)
    ad.backward(loss)
    norm = np.sqrt(sum(np.sum(p[n].grad ** 2) for n in reference.arrays))
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


def edited_record(record, **changes):
    """The JSON line of ``record`` with keys replaced: a line that no
    ``PairRecord`` construction could write."""
    d = json.loads(record.to_json())
    d.update(changes)
    return json.dumps(d) + "\n"


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
    bad = edited_record(
        PairRecord("m.obj", 0, 0, 2, metrics(0.5, 3), metrics(1.5, 6), mode=mode),
        positive_metrics=positive.to_dict(),
        negative_metrics=negative.to_dict(),
    )
    with pytest.raises(DPOError, match=f"line 2: malformed record .*in mode '{mode}'"):
        read_pair_records(write_pair_records([good]) + bad)


def test_read_pair_records_rejects_one_candidate_on_both_sides():
    good = PairRecord("m.obj", 0, 0, 1, metrics(0.5, 3), metrics(1.5, 6))
    same = edited_record(PairRecord("m.obj", 0, 2, 3, metrics(0.5, 3), metrics(1.5, 6)), negative_index=2)
    with pytest.raises(DPOError, match="line 2: malformed record .*both 2"):
        read_pair_records(write_pair_records([good]) + same)


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
        dpo_train(policy, pairs, config)
    # one step is within the patience
    _, history = dpo_train(policy, pairs, DPOConfig(beta=0.5, learning_rate=1e-3, steps=1))
    assert [h.loss for h in history] == [pytest.approx(LN2, rel=1e-15)]


def three_condition_pairs(rng, config):
    """Pairs over three conditions: one item repeated, and one candidate the
    rejected side of two pairs under different conditions."""
    a, b, c = (rand_clouds(rng, config) for _ in range(3))
    shared = seam_tokens(rng, 2)
    repeated = (a, (seam_tokens(rng, 1), shared))
    return [
        repeated,
        (b, (seam_tokens(rng, 3), shared)),
        (c, (seam_tokens(rng, 2), seam_tokens(rng, 4))),
        repeated,
        (a, (seam_tokens(rng, 2), seam_tokens(rng, 3))),
    ]


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_accumulated_dpo_gradients_match_one_graph(config, monkeypatch):
    from seamkit import dpo

    rng = np.random.default_rng(14)
    reference = init_parameters(config)
    pairs = three_condition_pairs(rng, config)
    beta = 0.5

    # step 1, where the margins are no longer 0: the policy after one step
    # against the starting policy, as one graph over every condition group
    policy, _ = dpo_train(reference, pairs, DPOConfig(beta=beta, learning_rate=0.1, steps=1))
    batch = _group_conditions(pairs, config)
    assert len(batch.groups) == 3
    q = policy.as_tensors()
    lps = pair_logprobs(batch, _group_logprobs_t(batch, q, config))
    loss, _, margins = _objective(lps, reference_logprobs(pairs, reference), beta)
    ad.backward(loss)

    seen = stepped_gradients(monkeypatch, dpo)
    _, history = dpo_train(reference, pairs, DPOConfig(beta=beta, learning_rate=0.1, steps=2))
    _, grads = seen
    # the logged loss sums the per-pair terms in pair order, as the one graph does
    assert history[1].loss == float(loss.value)
    assert history[1].accuracy == np.mean([m > 0 for m in margins]) > 0
    assert history[1].margin_min == pytest.approx(beta * min(margins), rel=1e-9)
    for name in policy.arrays:
        g, g_ref = grads[name], q[name].grad
        assert (g is None) == (g_ref is None), name
        if g is not None:
            assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref)), name


def distinct_condition_pairs(n_conditions):
    """One pair (3 and 4 segments) under each of ``n_conditions`` conditions."""
    rng = np.random.default_rng(15)
    return [
        (rand_clouds(rng, TINY_CONFIG), (seam_tokens(rng, 3), seam_tokens(rng, 4)))
        for _ in range(n_conditions)
    ]


def test_dpo_step_peak_memory_is_set_by_one_condition_group():
    policy = init_parameters(TINY_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.1, steps=1)

    def peak(n_conditions):
        pairs = distinct_condition_pairs(n_conditions)
        return traced_peak(lambda: dpo_train(policy, pairs, config))

    one, eight = peak(1), peak(8)
    # one graph over all eight conditions would peak near 7x the one-condition step
    assert eight < 1.5 * one, (one, eight)


@HANDS_OVER_ARGUMENTS
def test_dpo_train_frees_a_starting_store_its_caller_does_not_hold(monkeypatch):
    track, alive = stores_alive_per_pass(monkeypatch)
    pairs = distinct_condition_pairs(2)
    config = DPOConfig(beta=0.5, learning_rate=0.1, steps=3)
    stores = [track(init_parameters(TINY_CONFIG))]
    dpo_train(stores.pop(), pairs, config)
    # step 0 reads the store as policy and reference; no later step holds it
    assert alive == [[True], [False], [False]]


def test_dpo_train_reads_the_policy_as_its_own_reference():
    rng = np.random.default_rng(16)
    policy = init_parameters(DESK_CONFIG)
    before = policy.copy()
    pairs = three_condition_pairs(rng, DESK_CONFIG)
    config = DPOConfig(beta=0.5, learning_rate=0.1, steps=2)
    trained, history = dpo_train(policy, pairs, config)
    # the starting policy is read-only, so the CLI passes it uncopied
    assert save_checkpoint(policy) == save_checkpoint(before) != save_checkpoint(trained)
    # step 0 reads its own log-probabilities as the reference: every margin is 0
    assert (history[0].margin_mean, history[0].margin_min) == (0.0, 0.0)
    assert history[0].loss == pytest.approx(LN2, rel=1e-15)
