"""Self-tests of the benchmark's own arithmetic and tracing.

The file name does not match ``test_*.py``, so the repository's test run
does not collect it.  Run it explicitly:

    python3 -m pytest -q perfbench/selftest.py
"""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        clock.now += 0.5
        traced_leaf(3.0)

    def outer():
        traced_middle()
        clock.now += 4.0

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    summary = spans.op_summary(tracer)
    assert summary["outer.total_s"] == 10.5
    assert summary["outer.self_s"] == 4.0
    assert summary["middle.self_s"] == 1.5
    assert summary["leaf.calls"] == 2
    assert summary["leaf.self_s"] == 5.0
    assert sum(v for k, v in summary.items() if k.endswith(".self_s")) == 10.5


def test_function_bound_in_two_modules_is_traced_on_both_paths_and_restored():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    core.work = work
    user.work = work  # as after `from fakepkg.core import work`
    user.run = lambda x: user.work(x)
    pkg.core = core
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    try:
        seen = []
        tracer = spans.Tracer()
        observe = lambda counts, args, kwargs, result: seen.append(result)  # noqa: E731
        with spans.installed(tracer, {"core.work": observe}, "fakepkg"):
            assert core.work is not work and user.work is core.work
            assert core.work(1) == 2
            assert user.run(5) == 6
        assert spans.op_summary(tracer)["core.work.calls"] == 2
        assert seen == [2, 6]
        assert core.work is work and user.work is work
    finally:
        for name in mods:
            del sys.modules[name]


def test_wrapping_is_undone_when_the_traced_code_raises():
    core = types.ModuleType("fakepkg2.core")

    def fail():
        raise ValueError("boom")

    core.fail = fail
    sys.modules["fakepkg2.core"] = core
    try:
        tracer = spans.Tracer()
        try:
            with spans.installed(tracer, {"core.fail": None}, "fakepkg2"):
                core.fail()
        except ValueError:
            pass
        assert core.fail is fail
        name, start, end, parent = tracer.spans[0]
        assert name == "core.fail" and end >= start and parent is None
    finally:
        del sys.modules["fakepkg2.core"]


def test_no_p90_without_ten_samples_beyond_it():
    assert run.tail_percentile(range(99), percentiles=(90.0,)) is None
    assert run.tail_percentile(range(100), percentiles=(90.0,)) == (90.0, 89)
    # with 20 samples only p50 leaves ten beyond it; p75 does not
    assert run.tail_percentile(range(20), percentiles=(90.0, 75.0)) is None
    assert run.tail_percentile(range(1000)) == (99.0, 989)
    assert run.tail_percentile(range(200)) == (95.0, 189)


def test_per_layer_value_is_a_per_op_median():
    ops = [
        {"key": "cylinder", "layers": {"a.calls": 3, "cylinder.x.total_s": 2.0}},
        {"key": "sphere", "layers": {}},
        {"key": "cylinder", "layers": {"a.calls": 5, "cylinder.x.total_s": 4.0}},
    ]
    assert run.per_layer_value("a.calls", ops) == 3
    assert run.per_layer_value("b.calls", ops) == 0.0
    assert run.per_layer_value("cylinder.x.total_s", ops) == 3.0
