import weakref

import numpy as np
import pytest

from seamkit import autodiff as ad
from tests import loop_reference as ref
from tests.util import traced_peak


def central_diff(f, x, i, h=1e-6):
    xp = x.copy()
    xm = x.copy()
    xp.flat[i] += h
    xm.flat[i] -= h
    return (f(xp) - f(xm)) / (2 * h)


def check_grad(build, x0, n_checks=10, h=1e-6, rtol=1e-6, atol=1e-9, seed=0):
    """build(param_tensor) -> scalar Tensor; compares backward to central differences."""
    p = ad.parameter(x0)
    loss = build(p)
    ad.backward(loss)
    grad = p.grad
    assert grad is not None and grad.shape == x0.shape

    def f(x):
        return float(build(ad.parameter(x)).value)

    rng = np.random.default_rng(seed)
    idx = rng.choice(x0.size, size=min(n_checks, x0.size), replace=False)
    for i in idx:
        fd = central_diff(f, x0, i, h)
        got = grad.flat[i]
        assert got == pytest.approx(fd, rel=rtol, abs=atol), f"index {i}"


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 3))
    b = rng.normal(size=3)

    def build(p):
        y = ad.add(ad.mul(p, p), ad.Tensor(b))  # x*x + b broadcast
        return ad.sum_all(ad.mul(y, ad.Tensor(rng_w)))

    rng_w = rng.normal(size=(4, 3))
    check_grad(build, x)

    def build_bias(p):
        y = ad.add(ad.Tensor(x), p)
        return ad.sum_all(ref.power(y, 2.0))

    check_grad(build_bias, b)


def test_matmul_2d_and_batched():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 4))
    w = rng.normal(size=(4, 3))

    def build(p):
        return ad.sum_all(ref.power(ad.matmul(ad.Tensor(a), p), 2.0))

    check_grad(build, w)

    batched = rng.normal(size=(2, 3, 4))
    other = rng.normal(size=(2, 4, 3))

    def build_b(p):
        return ad.sum_all(ref.power(ad.matmul(p, ad.Tensor(other)), 2.0))

    check_grad(build_b, batched)


def test_reshape_transpose_concat_slice():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4))

    def build(p):
        t = ad.transpose(ad.reshape(p, (2, 3, 4)), (1, 0, 2))
        flat = ad.reshape(t, (6, 4))
        joined = ad.concat_rows([flat, ad.slice_rows(flat, 0, 2)])
        return ad.sum_all(ref.power(joined, 3.0))

    check_grad(build, x)


def test_gather_and_take():
    rng = np.random.default_rng(3)
    table = rng.normal(size=(7, 4))
    idx = np.array([0, 3, 3, 6, 1])

    def build(p):
        rows = ad.gather_rows(p, idx)
        picked = ref.take_per_row(rows, np.array([0, 1, 2, 3, 0]))
        return ad.sum_all(ref.power(picked, 2.0))

    check_grad(build, table)


def test_mean_axis_and_power():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 6))
    w = rng.normal(size=(5, 6))

    def build(p):
        mu = ref.mean_axis(p, axis=1, keepdims=True)
        centered = ad.sub(p, mu)
        var = ref.mean_axis(ref.power(centered, 2.0), axis=1, keepdims=True)
        inv = ref.power(ad.add(var, ad.Tensor(1e-5)), -0.5)
        return ad.sum_all(ad.mul(ad.mul(centered, inv), ad.Tensor(w)))

    check_grad(build, x, rtol=1e-5)


def test_softmax_and_log_softmax():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 9))
    w = rng.normal(size=(4, 9))

    def build_s(p):
        return ad.sum_all(ad.mul(ref.softmax(p, axis=-1), ad.Tensor(w)))

    check_grad(build_s, x)

    def build_ls(p):
        return ad.sum_all(ad.mul(ref.log_softmax(p, axis=-1), ad.Tensor(w)))

    check_grad(build_ls, x)
    # normalization: exp(log_softmax) sums to 1
    ls = ref.log_softmax(ad.Tensor(x), axis=-1).value
    np.testing.assert_allclose(np.exp(ls).sum(axis=-1), 1.0, atol=1e-12)


def test_gelu_and_log_sigmoid():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(30,)) * 2

    def build_g(p):
        return ad.sum_all(ad.gelu(p))

    check_grad(build_g, x)

    def build_lsig(p):
        return ad.sum_all(ad.log_sigmoid(p))

    check_grad(build_lsig, x)
    # extreme values stay finite
    big = ad.log_sigmoid(ad.Tensor(np.array([-1000.0, 1000.0])))
    assert np.isfinite(big.value).all()
    assert big.value[0] == pytest.approx(-1000.0)
    assert big.value[1] == pytest.approx(0.0, abs=1e-12)


def test_rsqrt():
    rng = np.random.default_rng(8)
    x = rng.uniform(1e-3, 4.0, size=(5, 4))
    w = rng.normal(size=x.shape)

    def build(p):
        return ad.sum_all(ad.mul(ad.rsqrt(p), ad.Tensor(w)))

    check_grad(build, x, n_checks=20)
    # the inverse deviation layer_norm computes, bit for bit
    np.testing.assert_array_equal(ad.rsqrt(x), x**-0.5)


def test_pool_and_upsample():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 7, 12):
        x = rng.normal(size=(n, 3))

        def build_pool(p):
            return ad.sum_all(ref.power(ad.mean_pool_causal(p, 3), 2.0))

        check_grad(build_pool, x)

        def build_up(p):
            pooled = ad.mean_pool_causal(p, 2)
            up = ad.repeat_upsample(pooled, 2, n)
            return ad.sum_all(ref.power(up, 2.0))

        check_grad(build_up, x)


def test_pool_causality_structure():
    # pooled token k must depend only on input rows <= k * factor
    n, factor = 10, 3
    rng = np.random.default_rng(8)
    x = rng.normal(size=(n, 2))
    base = ad.mean_pool_causal(ad.Tensor(x), factor).value
    for j in range(n):
        x2 = x.copy()
        x2[j] += 1.0
        out = ad.mean_pool_causal(ad.Tensor(x2), factor).value
        changed = np.flatnonzero(np.abs(out - base).sum(axis=1) > 0)
        if len(changed):
            assert changed.min() * factor >= j


def test_pool_length_algebra():
    # len -> ceil(len/3) -> ceil(len/6); upsampling restores the length
    for n in range(1, 65):
        x = ad.Tensor(np.zeros((n, 2)))
        p1 = ad.mean_pool_causal(x, 3)
        assert p1.value.shape[0] == -(-n // 3)
        p2 = ad.mean_pool_causal(p1, 2)
        assert p2.value.shape[0] == -(--(-n // 3) // 2)
        u1 = ad.repeat_upsample(p2, 2, p1.value.shape[0])
        assert u1.value.shape[0] == p1.value.shape[0]
        u0 = ad.repeat_upsample(u1, 3, n)
        assert u0.value.shape[0] == n


def test_grad_accumulation_over_shared_node():
    x = ad.parameter(np.array([2.0, 3.0]))
    y = ad.add(x, x)  # dy/dx = 2
    loss = ad.sum_all(ad.mul(y, y))  # d/dx (2x)^2 = 8x
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 8 * x.value)


def test_ops_on_non_grad_inputs_are_leaves():
    rng = np.random.default_rng(9)
    x, w = ad.Tensor(rng.normal(size=(2, 3, 4))), ad.Tensor(rng.normal(size=(4, 2)))
    out = ad.gelu(ad.matmul(ad.add(x, x), w))
    assert not out.requires_grad and out.vertex.parents == () and out.vertex.vjps == ()
    tracked = ad.matmul(x, ad.parameter(w.value))
    assert tracked.requires_grad and len(tracked.vertex.parents) == 2


def test_batched_rows_and_start_rows():
    # (batch, rows, d) inputs; a 2D weight's gradient sums over the batch
    rng = np.random.default_rng(10)
    x = rng.normal(size=(3, 7, 4))
    w = rng.normal(size=(4, 2))
    check_grad(lambda p: ad.sum_all(ref.power(ad.matmul(ad.Tensor(x), p), 2.0)), w)
    check_grad(lambda p: ad.sum_all(ref.power(ad.concat_rows([p, p], axis=-2), 3.0)), x)
    # rows `start` onward of pooling / upsampling are the tail of the full result
    for factor, start in ((3, 1), (3, 2), (2, 3)):
        pooled = ad.mean_pool_causal(ad.Tensor(x), factor).value
        tail = ad.mean_pool_causal(ad.Tensor(x), factor, start).value
        np.testing.assert_array_equal(tail, pooled[:, start:])
        np.testing.assert_array_equal(
            tail[1], ad.mean_pool_causal(ad.Tensor(x[1]), factor, start).value
        )
        out_len = 7 * factor - 1
        up = ad.repeat_upsample(ad.Tensor(x), factor, out_len).value
        up_tail = ad.repeat_upsample(ad.Tensor(x), factor, out_len, start).value
        np.testing.assert_array_equal(up_tail, up[:, start:])
        check_grad(
            lambda p: ad.sum_all(ref.power(ad.mean_pool_causal(p, factor, start), 2.0)), x
        )
        check_grad(
            lambda p: ad.sum_all(ref.power(ad.repeat_upsample(p, factor, out_len, start), 2.0)),
            x,
        )


def test_backward_releases_the_graph():
    x = ad.parameter(np.array([2.0, 3.0]))
    y = ad.mul(x, x)
    loss = ad.sum_all(ad.add(y, x))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.value + 1)
    for node in (y, loss):
        assert node.grad is None and node.vertex.parents == () and node.vertex.vjps == ()


def test_graph_keeps_only_the_arrays_its_vjps_read():
    rng = np.random.default_rng(11)
    x, w, b = (ad.parameter(rng.normal(size=s)) for s in ((5, 4), (4, 3), (3,)))
    h = ad.matmul(x, w)
    y = ad.add(h, b)
    out = ad.gelu(y)
    loss = ad.sum_all(out)
    product, pre_act, act = (weakref.ref(t.value) for t in (h, y, out))
    del h, y, out
    # add keeps only shapes and sum_all its input's shape; gelu keeps only its slope
    assert product() is None and act() is None
    assert pre_act() is None
    ad.backward(loss)
    assert all(ref() is None for ref in (product, pre_act, act))
    assert all(p.grad is not None for p in (x, w, b))


def test_log_softmax_pick_backward_writes_into_its_exponentials():
    rng = np.random.default_rng(12)
    rows, cols = 512, 1027
    logits = ad.parameter(rng.normal(size=(rows, cols)))
    loss = ad.sum_all(ad.log_softmax_pick(logits, rng.integers(0, cols, size=rows)))
    # the VJP's saved exponentials become the gradient: no second (512, 1027) array
    assert traced_peak(lambda: ad.backward(loss)) < rows * cols * 8
    assert logits.grad.shape == (rows, cols)


def weighted_sum(out, seed=20):
    """sum(out * w) for a fixed random w, so every output element matters."""
    w = np.random.default_rng(seed).normal(size=out.value.shape)
    return ad.sum_all(ad.mul(out, ad.Tensor(w)))


def fused_cases():
    """(name, fused op, composed op, inputs, keyword args) of every fused op."""
    from seamkit.model import _causal_mask

    rng = np.random.default_rng(21)
    d = 8
    gain, bias = rng.normal(size=d), rng.normal(size=d)
    return [
        ("layer_norm 1 batch axis", ad.layer_norm, ref.layer_norm,
         (rng.normal(size=(5, d)), gain, bias), {"eps": 1e-5}),
        ("layer_norm 2 batch axes", ad.layer_norm, ref.layer_norm,
         (rng.normal(size=(3, 4, d)), gain, bias), {"eps": 1e-5}),
        ("attention causal", ad.attention, ref.attention,
         tuple(rng.normal(size=(2, 2, n, 4)) for n in (3, 5, 5)), {"mask": _causal_mask(3, 5)}),
        ("attention no mask", ad.attention, ref.attention,
         tuple(rng.normal(size=(2, 2, n, 4)) for n in (3, 6, 6)), {"mask": None}),
        ("attention shared keys", ad.attention, ref.attention,
         (rng.normal(size=(2, 2, 3, 4)), rng.normal(size=(2, 6, 4)), rng.normal(size=(2, 6, 4))),
         {"mask": None}),
        ("log_softmax_pick", ad.log_softmax_pick, ref.log_softmax_pick,
         (rng.normal(size=(6, 11)) * 3,), {"cols": np.array([4, 0, 4, 10, 4, 7])}),
        ("matmul 3-D rows", ad.matmul, ref.matmul,
         (rng.normal(size=(3, 7, 4)), rng.normal(size=(4, 5))), {}),
        ("matmul 4-D rows", ad.matmul, ref.matmul,
         (rng.normal(size=(2, 3, 7, 4)), rng.normal(size=(4, 5))), {}),
    ]


@pytest.mark.parametrize("case", range(len(fused_cases())), ids=[c[0] for c in fused_cases()])
def test_fused_ops_match_composed_references(case):
    _, fused, composed, inputs, kwargs = fused_cases()[case]
    got_in = [ad.parameter(x) for x in inputs]
    ref_in = [ad.parameter(x) for x in inputs]
    got, expected = fused(*got_in, **kwargs), composed(*ref_in, **kwargs)
    np.testing.assert_array_equal(got.value, expected.value)
    ad.backward(weighted_sum(got))
    ad.backward(weighted_sum(expected))
    for a, b in zip(got_in, ref_in):
        assert a.grad.shape == b.grad.shape
        assert np.max(np.abs(a.grad - b.grad)) <= 1e-12 * np.max(np.abs(b.grad))


@pytest.mark.parametrize("case", range(len(fused_cases())), ids=[c[0] for c in fused_cases()])
def test_fused_ops_match_finite_differences(case):
    _, fused, _, inputs, kwargs = fused_cases()[case]
    for i, x in enumerate(inputs):

        def build(p):
            args = [ad.Tensor(v) for v in inputs]
            args[i] = p
            return weighted_sum(fused(*args, **kwargs))

        check_grad(build, x, rtol=1e-5)


def op_cases():
    """(name, op over positional arguments, argument arrays) for every op."""
    rng = np.random.default_rng(23)

    def r(*shape):
        return rng.normal(size=shape)

    return [
        ("add", ad.add, (r(2, 3), r(3))),
        ("sub", ad.sub, (r(2, 3), r(2, 1))),
        ("mul", ad.mul, (r(2, 3), r(3))),
        ("scale", lambda a: ad.scale(a, 0.5), (r(2, 3),)),
        ("matmul", ad.matmul, (r(2, 4, 3), r(3, 5))),
        ("matmul-batched", ad.matmul, (r(2, 4, 3), r(2, 3, 5))),
        ("transpose", lambda a: ad.transpose(a, (1, 0, 2)), (r(2, 4, 3),)),
        ("reshape", lambda a: ad.reshape(a, (4, 6)), (r(2, 4, 3),)),
        ("concat_rows", lambda a, b: ad.concat_rows([a, b], axis=-2), (r(2, 4, 3), r(2, 1, 3))),
        ("slice_rows", lambda a: ad.slice_rows(a, 1, 3), (r(4, 3),)),
        ("gather_rows", lambda a: ad.gather_rows(a, [0, 2, 0]), (r(4, 3),)),
        ("sum_all", ad.sum_all, (r(2, 3),)),
        ("layer_norm", lambda x, g, b: ad.layer_norm(x, g, b, 1e-5), (r(2, 4, 3), r(3), r(3))),
        ("attention", ad.attention, (r(2, 4, 3), r(2, 5, 3), r(2, 5, 3))),
        ("log_softmax_pick", lambda a: ad.log_softmax_pick(a, [1, 0, 2]), (r(3, 4),)),
        ("gelu", ad.gelu, (r(2, 3),)),
        ("rsqrt", ad.rsqrt, (r(2, 3) ** 2,)),
        ("log_sigmoid", ad.log_sigmoid, (r(2, 3) * 10,)),
        ("mean_pool_causal", lambda a: ad.mean_pool_causal(a, 3, 1), (r(2, 7, 3),)),
        ("repeat_upsample", lambda a: ad.repeat_upsample(a, 2, 5, 1), (r(2, 3, 3),)),
    ]


@pytest.mark.parametrize("case", range(len(op_cases())), ids=[c[0] for c in op_cases()])
def test_ops_return_arrays_for_arrays_and_tensors_for_any_tensor(case):
    _, op, inputs = op_cases()[case]
    bare = op(*inputs)
    assert type(bare) is np.ndarray
    for i in range(len(inputs)):
        args = list(inputs)
        args[i] = ad.parameter(inputs[i])
        node = op(*args)
        assert isinstance(node, ad.Tensor) and node.requires_grad
        np.testing.assert_array_equal(node.value, bare)
    leaf = op(*(ad.Tensor(x) for x in inputs))
    assert isinstance(leaf, ad.Tensor) and not leaf.requires_grad and leaf.vertex.parents == ()
    np.testing.assert_array_equal(leaf.value, bare)
