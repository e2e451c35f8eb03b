"""Conditioning point clouds: topology (vertices + edges) and surface samples."""

from __future__ import annotations

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

    The coordinates are held as contiguous (3, N) rows and each anchor's
    distances are computed in place in one buffer as
    ``sqrt((dx*dx + dy*dy) + dz*dz)``, the sum order of
    ``np.linalg.norm(axis=1)``, so the distances, and the picks, are those of
    the norm bit for bit.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    if not (1 <= k <= n):
        raise ValueError(f"k={k} out of range [1, {n}]")
    rows = np.ascontiguousarray(pts.T)
    dist = np.full(n, np.inf)
    d, t = np.empty(n), np.empty(n)
    chosen = np.zeros(k, dtype=np.int64)
    for i in range(1, k):
        last = chosen[i - 1]
        np.subtract(rows[0], rows[0, last], out=d)
        d *= d
        for axis in (1, 2):
            np.subtract(rows[axis], rows[axis, last], out=t)
            t *= t
            d += t
        np.sqrt(d, out=d)
        np.minimum(dist, d, out=dist)
        chosen[i] = np.argmax(dist)  # argmax takes the first (lowest) index on ties
    return chosen


def sample_topology(mesh: IndexedMesh, n: int, seed: int) -> np.ndarray:
    """Sample n points from the vertex-edge skeleton.

    All vertices come first; the remaining n - |V| points are drawn on edges
    chosen proportionally to length, uniformly along each chosen edge.  When
    n < |V| the vertices are subsampled by FPS (``build_conditioning_clouds``
    records this as ``topo_truncated``).
    """
    if n < 1:
        raise ValueError("n must be positive")
    verts = mesh.vertices
    if n < len(verts):
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
    return ConditioningClouds(
        topo_points=sample_topology(mesh, n_topo, seed),
        geom_points=sample_surface(mesh, n_geom, seed + 1),
        seed=seed,
        topo_truncated=n_topo < mesh.n_vertices,
    )


def write_xyz(points: np.ndarray) -> str:
    """XYZ text export: one point per line, ``%.9g %.9g %.9g``."""
    return format_records("%.9g %.9g %.9g\n", np.asarray(points))
