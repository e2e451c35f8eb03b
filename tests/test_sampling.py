import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamkit.mesh import DegenerateInputError, IndexedMesh
from seamkit.sampling import (
    build_conditioning_clouds,
    fps_anchors,
    sample_surface,
    sample_topology,
    write_xyz,
)
from seamkit.shapes import make_grid, make_perturbed_grid

from tests import loop_reference as ref
from tests.util import read_xyz


def single_triangle():
    return IndexedMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float),
        triangles=np.array([[0, 1, 2]]),
    )


def test_topology_exact_vertices():
    mesh = single_triangle()
    pts = sample_topology(mesh, 3, seed=0)
    np.testing.assert_array_equal(pts, mesh.vertices)


def test_topology_single_positive_edge():
    # B == C makes edge BC zero-length and AB, AC the same geometric segment,
    # so every interior sample lies on that one segment.
    mesh = IndexedMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=float),
        triangles=np.array([[0, 1, 2]]),
    )
    k = 50
    pts = sample_topology(mesh, 3 + k, seed=1)
    interior = pts[3:]
    # distance from the segment (0,0,0)-(1,0,0)
    t = np.clip(interior[:, 0], 0, 1)
    proj = np.stack([t, np.zeros_like(t), np.zeros_like(t)], axis=1)
    assert np.linalg.norm(interior - proj, axis=1).max() <= 1e-9
    assert (interior[:, 0] > 0).all() and (interior[:, 0] < 1).all()


def test_topology_truncation_keeps_fps_subsample():
    mesh = make_grid(4, 4)
    pts = sample_topology(mesh, 5, seed=0)
    expected = mesh.vertices[fps_anchors(mesh.vertices, 5)]
    np.testing.assert_array_equal(pts, expected)


def test_topology_edge_counts_match_multinomial():
    mesh = make_perturbed_grid(3, 3, seed=9)
    n = 10_000
    nv = mesh.n_vertices
    lengths = mesh.edge_lengths
    probs = lengths / lengths.sum()

    counts = np.zeros(len(mesh.edges))
    n_seeds = 20
    for seed in range(n_seeds):
        pts = sample_topology(mesh, n, seed=seed)[nv:]
        # assign each interior point to its source edge by distance
        for p in pts:
            a = mesh.vertices[mesh.edges[:, 0]]
            b = mesh.vertices[mesh.edges[:, 1]]
            ab = b - a
            t = np.clip(
                np.einsum("ij,ij->i", p - a, ab) / np.einsum("ij,ij->i", ab, ab),
                0,
                1,
            )
            d = np.linalg.norm(a + t[:, None] * ab - p, axis=1)
            counts[np.argmin(d)] += 1

    m = n_seeds * (n - nv)
    mu = m * probs
    sigma = np.sqrt(m * probs * (1 - probs))
    assert np.all(np.abs(counts - mu) <= 3 * sigma + 1e-9)


def test_surface_points_inside_triangle():
    mesh = single_triangle()
    pts = sample_surface(mesh, 500, seed=0)
    # barycentric coordinates within [0, 1] summing to 1
    a, b, c = mesh.vertices
    m = np.stack([b - a, c - a], axis=1)
    uv, *_ = np.linalg.lstsq(m, (pts - a).T, rcond=None)
    u, v = uv
    assert (u >= -1e-9).all() and (v >= -1e-9).all() and (u + v <= 1 + 1e-9).all()
    assert np.abs(pts[:, 2]).max() <= 1e-12


def test_surface_area_proportional_split():
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 2, 0], [-3, 0, 0]], dtype=float
    )  # areas 1 and 3
    mesh = IndexedMesh(vertices=verts, triangles=np.array([[0, 1, 2], [0, 2, 3]]))
    n = 40_000
    pts = sample_surface(mesh, n, seed=3)
    in_first = pts[:, 0] >= 0
    p = 0.25
    sigma = np.sqrt(n * p * (1 - p))
    assert abs(in_first.sum() - n * p) <= 3 * sigma


def test_surface_zero_area_error():
    mesh = IndexedMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
        triangles=np.array([[0, 1, 2]]),
    )
    with pytest.raises(DegenerateInputError):
        sample_surface(mesh, 10, seed=0)


def test_fps_trivial_cases():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(10, 3))
    np.testing.assert_array_equal(fps_anchors(pts, 1), [0])
    assert sorted(fps_anchors(pts, 10).tolist()) == list(range(10))
    with pytest.raises(ValueError):
        fps_anchors(pts, 0)
    with pytest.raises(ValueError):
        fps_anchors(pts, 11)


@st.composite
def _fps_cases(draw):
    """A cloud (random, with repeated points, or collinear) and a k in 1..n."""
    n = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "duplicates", "collinear"]))
    if kind == "random":
        pts = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e3)
    elif kind == "duplicates":
        distinct = max(n // 4, 1)
        pts = rng.normal(size=(distinct, 3))[rng.integers(0, distinct, n)]
    else:
        pts = rng.normal(size=3) + rng.normal(size=(n, 1)) * rng.normal(size=3)
    return pts, draw(st.integers(1, n))


# points 1 and 2 swap x and y, so the norm's sum order gives them equal
# distances from point 0 (index 1 wins the tie); (dx^2 + dz^2) + dy^2 makes
# point 2 farther
_SWAPPED_XY = [
    [0.0, 0.0, 0.0],
    [0.9673037855604738, 0.23547234737905975, 0.533991149379403],
    [0.23547234737905975, 0.9673037855604738, 0.533991149379403],
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fps_cases())
@example((np.array(_SWAPPED_XY), 2))
def test_fps_picks_the_reference_indices(case):
    pts, k = case
    np.testing.assert_array_equal(fps_anchors(pts, k), ref.fps_anchors(pts, k))


def _greedy_consistent_radii(pts, k):
    """Enumerate all tie-consistent greedy FPS runs; return their maximin radii."""
    results = []

    def rec(chosen, dist):
        if len(chosen) == k:
            d = min(
                np.linalg.norm(pts[a] - pts[b])
                for a, b in itertools.combinations(chosen, 2)
            )
            results.append(d)
            return
        best = dist.max()
        for idx in np.flatnonzero(dist == best):
            nd = np.minimum(dist, np.linalg.norm(pts - pts[idx], axis=1))
            rec(chosen + [int(idx)], nd)

    d0 = np.linalg.norm(pts - pts[0], axis=1)
    rec([0], d0)
    return results


def test_fps_matches_bruteforce_maximin():
    rng = np.random.default_rng(4)
    for _ in range(10):
        pts = rng.normal(size=(int(rng.integers(5, 13)), 3))
        k = int(rng.integers(2, 5))
        sel = fps_anchors(pts, k)
        ours = min(
            np.linalg.norm(pts[a] - pts[b])
            for a, b in itertools.combinations(sel.tolist(), 2)
        )
        radii = _greedy_consistent_radii(pts, k)
        assert ours == pytest.approx(radii[0])
        assert all(r == pytest.approx(radii[0]) for r in radii)


def test_fps_min_distance_nonincreasing():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(40, 3))
    prev = np.inf
    for k in range(2, 20):
        sel = fps_anchors(pts, k)
        d = min(
            np.linalg.norm(pts[a] - pts[b])
            for a, b in itertools.combinations(sel.tolist(), 2)
        )
        assert d <= prev + 1e-12
        prev = d


def test_determinism_and_clouds():
    mesh = make_perturbed_grid(4, 4, seed=2)
    a = build_conditioning_clouds(mesh, n_topo=64, n_geom=64, seed=11)
    b = build_conditioning_clouds(mesh, n_topo=64, n_geom=64, seed=11)
    np.testing.assert_array_equal(a.topo_points, b.topo_points)
    np.testing.assert_array_equal(a.geom_points, b.geom_points)
    assert not a.topo_truncated
    # vertices-first coverage
    np.testing.assert_array_equal(a.topo_points[: mesh.n_vertices], mesh.vertices)
    c = build_conditioning_clouds(mesh, n_topo=4, n_geom=16, seed=0)
    assert c.topo_truncated


def test_xyz_round_trip():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(50, 3))
    back = read_xyz(write_xyz(pts))
    assert np.abs(back - pts).max() < 1e-8
