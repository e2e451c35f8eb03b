"""Conditioning point clouds: topology (vertices + edges) and surface samples."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from seamkit.mesh import DegenerateInputError, IndexedMesh, format_records

# Paper-scale cloud sizes; tests and the desk harness override these.
DEFAULT_N_TOPO = 30_720
DEFAULT_N_GEOM = 30_720


@dataclass(frozen=True)
class ConditioningClouds:
    """The two conditioning point clouds for one mesh.

    ``topo_points`` samples the vertex-edge skeleton, ``geom_points`` the
    surface uniformly by area.  ``topo_truncated`` records that the requested
    topology count was below the vertex count, in which case the vertices
    were subsampled by farthest-point sampling.
    """

    topo_points: np.ndarray
    geom_points: np.ndarray
    seed: int
    topo_truncated: bool = False


def fps_anchors(points: np.ndarray, k: int) -> np.ndarray:
    """Greedy farthest-point (maximin) selection of k anchor indices.

    The first anchor is index 0; each following anchor maximizes the minimum
    Euclidean distance to the chosen set, ties broken by lowest index.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range [1, {n}]")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = 0
    dist = np.linalg.norm(pts - pts[0], axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(dist))  # argmax takes the first (lowest) index on ties
        chosen[i] = nxt
        dist = np.minimum(dist, np.linalg.norm(pts - pts[nxt], axis=1))
    return chosen


def sample_topology(mesh: IndexedMesh, n: int, seed: int) -> np.ndarray:
    """Sample n points from the vertex-edge skeleton.

    All vertices come first; the remaining n - |V| points are drawn on edges
    chosen proportionally to length, uniformly along each chosen edge.  When
    n < |V| the vertices are subsampled by FPS and a warning is issued.
    """
    if n < 1:
        raise ValueError("n must be positive")
    verts = mesh.vertices
    if n < len(verts):
        warnings.warn(
            f"topology sample truncated: n={n} < vertex count {len(verts)}; "
            "subsampling vertices by FPS",
            stacklevel=2,
        )
        return verts[fps_anchors(verts, n)].copy()
    extra = n - len(verts)
    points = [verts]
    if extra > 0:
        if len(mesh.edges) == 0:
            raise DegenerateInputError("mesh has no edges to sample")
        total = mesh.edge_lengths.sum()
        if total <= 0:
            raise DegenerateInputError("all edges have zero length")
        rng = np.random.default_rng(seed)
        probs = mesh.edge_lengths / total
        which = rng.choice(len(mesh.edges), size=extra, p=probs)
        t = rng.random(extra)
        a = verts[mesh.edges[which, 0]]
        b = verts[mesh.edges[which, 1]]
        points.append(a + t[:, None] * (b - a))
    return np.concatenate(points, axis=0)


def sample_surface(mesh: IndexedMesh, n: int, seed: int) -> np.ndarray:
    """Sample n points uniformly by area over the triangle surface."""
    if n < 1:
        raise ValueError("n must be positive")
    areas = mesh.triangle_areas()
    total = areas.sum()
    if total <= 0:
        raise DegenerateInputError("mesh has zero total surface area")
    rng = np.random.default_rng(seed)
    which = rng.choice(mesh.n_triangles, size=n, p=areas / total)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip] = 1.0 - u[flip]
    v[flip] = 1.0 - v[flip]
    tri = mesh.vertices[mesh.triangles[which]]
    return tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (
        tri[:, 2] - tri[:, 0]
    )


def build_conditioning_clouds(
    mesh: IndexedMesh,
    n_topo: int = DEFAULT_N_TOPO,
    n_geom: int = DEFAULT_N_GEOM,
    seed: int = 0,
) -> ConditioningClouds:
    """Build both clouds; the geometry stream uses seed + 1."""
    truncated = n_topo < mesh.n_vertices
    with warnings.catch_warnings():
        if truncated:
            warnings.simplefilter("ignore")
        topo = sample_topology(mesh, n_topo, seed)
    geom = sample_surface(mesh, n_geom, seed + 1)
    return ConditioningClouds(
        topo_points=topo, geom_points=geom, seed=seed, topo_truncated=truncated
    )


def write_xyz(points: np.ndarray) -> str:
    """XYZ text export: one point per line, ``%.9g %.9g %.9g``."""
    return format_records("%.9g %.9g %.9g\n", np.asarray(points))
