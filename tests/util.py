"""Shared helpers for the test modules."""

import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from seamkit.mesh import IndexedMesh, SeamEdgeSet, content_lines, extract_uv_seams, normalize
from seamkit.model import ModelConfig, init_parameters
from seamkit.projection import seam_edges_to_segments
from seamkit.sampling import build_conditioning_clouds
from seamkit.shapes import grid_vertex, make_grid
from seamkit.tokenizer import canonicalize, encode
from seamkit.unwrap import cut_mesh, unwrap_atlas

DESK_CONFIG = ModelConfig(
    tokens_per_branch=32, d_model=64, n_layers=8, n_heads=2, max_segments=64, seed=0
)

TINY_CONFIG = ModelConfig(
    tokens_per_branch=8, d_model=16, n_layers=4, n_heads=2, max_segments=16, seed=1
)


def training_example(mesh, config, seed=0, seam_edges=None):
    """(clouds, tokens) for one mesh with its artist seams."""
    norm, _ = normalize(mesh)
    if seam_edges is None:
        seam_edges = extract_uv_seams(norm)
    seams = canonicalize(seam_edges_to_segments(norm, seam_edges))
    tokens = encode(seams)
    n = max(2 * config.tokens_per_branch, 48)
    clouds = build_conditioning_clouds(norm, n_topo=n, n_geom=n, seed=seed)
    return clouds, tokens


def read_xyz(text):
    """Points of an XYZ text (``sampling.write_xyz``): one "x y z" row per line."""
    rows = [[float(p) for p in line.split()] for _, line in content_lines(text)]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def desk_params(config=None, seed=None):
    config = config or DESK_CONFIG
    if seed is not None:
        config = ModelConfig(**{**config.__dict__, "seed": seed})
    return init_parameters(config)


def sliver_grid_atlas():
    """A 3x3 grid with one zero-area triangle along its bottom edge, unwrapped
    without seams: one island, with the sliver (the last triangle) excluded."""
    grid = make_grid(3, 3)
    sliver = [grid_vertex(3, 0, 0), grid_vertex(3, 1, 0), grid_vertex(3, 2, 0)]
    mesh = IndexedMesh(vertices=grid.vertices, triangles=np.vstack([grid.triangles, [sliver]]))
    atlas = unwrap_atlas(cut_mesh(mesh, SeamEdgeSet()))
    assert atlas.excluded.tolist() == [False] * grid.n_triangles + [True]
    return atlas


def traced_peak(fn) -> int:
    """Peak bytes that ``tracemalloc`` sees allocated while ``fn()`` runs,
    above what was allocated when it started.

    Under an outer session (``python -X tracemalloc``, ``PYTHONTRACEMALLOC``
    or a caller's ``tracemalloc.start()``) starting again is a no-op that
    keeps the earlier peak, so the peak is reset here, and only a session
    started here is stopped."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


# CPython 3.11 moves a Python function's arguments into the callee's frame;
# before, the caller's stack holds them until the call returns
HANDS_OVER_ARGUMENTS = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="the caller holds a call's arguments until it returns"
)


def stores_alive_per_pass(monkeypatch):
    """(track, alive): ``track(store)`` returns the store after taking weak
    references to it and its arrays; from now on each step of
    ``model.train`` appends to ``alive``, as its pass starts
    (``ParameterStore.as_tensors``), whether each tracked store, or any of
    its arrays, is still alive."""
    from seamkit.model import ParameterStore

    tracked: list = []
    alive: list = []
    as_tensors = ParameterStore.as_tensors

    def watched(store):
        alive.append([any(ref() is not None for ref in refs) for refs in tracked])
        return as_tensors(store)

    def track(store):
        tracked.append([weakref.ref(store), *map(weakref.ref, store.arrays.values())])
        return store

    monkeypatch.setattr(ParameterStore, "as_tensors", watched)
    return track, alive


def stepped_gradients(monkeypatch, module):
    """Gradients that ``model.train``, called through ``module``, hands its
    ``on_step`` from now on, one dict of parameter name -> gradient per step."""
    seen = []
    train = module.train

    def capture(params, batch, term, weight, steps, lr, on_step=None):
        def record(step, loss, grads):
            seen.append(dict(grads))
            if on_step is not None:
                on_step(step, loss, grads)

        return train(params, batch, term, weight, steps, lr, record)

    monkeypatch.setattr(module, "train", capture)
    return seen
