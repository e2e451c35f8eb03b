"""Synthetic test meshes: grids, cubes, cylinders, spheres, L-extrusions.

The vertex, triangle and UV order of every generator is a contract: the
``perfbench`` seed-0 references and ``tests/corpus.py`` pin seams,
fragments and tokens to vertex and face numbers.  ``make_grid``,
``make_cube``, ``make_cylinder``, ``make_sphere`` and ``make_random_hull``
are array-built, bit-equal to the loops in ``tests/loop_reference.py``;
``tests/test_corpus.py`` pins ``make_l_extrusion``'s dict-welded numbering.
Every generator checks its sizes first and raises ``ValueError`` naming it.
"""

from __future__ import annotations

import numpy as np

from seamkit.mesh import IndexedMesh


# the corners 0..3 of a quad, split into triangles (0, 1, 2) and (0, 2, 3)
_QUAD_SPLIT = [0, 1, 2, 0, 2, 3]


def _check_sizes(**sizes) -> None:
    """Raise ValueError unless every ``name=(value, least)`` has ``value >= least``."""
    for name, (value, least) in sizes.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")


def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the angles ``2 pi i / n`` for i < n.

    One scalar call per angle: numpy may evaluate an array by another path
    than a scalar, and the coordinates are fixed to the scalar values.
    """
    angles = [2 * np.pi * i / n for i in range(n)]
    return np.array([np.cos(t) for t in angles]), np.array([np.sin(t) for t in angles])


def _lattice_triangles(g: np.ndarray) -> np.ndarray:
    """The corner values ``g[r, c, ...]`` of each triangle of the lattice ``g``.

    Cell (r, c) is the quad (r, c), (r, c+1), (r+1, c+1), (r+1, c), split
    into two triangles; cells in C order, one row per triangle corner.
    """
    quads = np.stack([g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1]], axis=2)
    return quads[:, :, _QUAD_SPLIT].reshape((-1,) + g.shape[2:])


def make_grid(nx: int = 8, ny: int = 8, width: float = 1.0, height: float = 1.0) -> IndexedMesh:
    """Planar (nx x ny)-cell grid in the z=0 plane.

    Vertex (i, j) is ``j * (nx + 1) + i``; cell (i, j), rows j outermost,
    gives triangles (v00, v10, v11) and (v00, v11, v01).
    """
    _check_sizes(nx=(nx, 1), ny=(ny, 1))
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    verts = np.stack(
        [np.tile(xs, ny + 1), np.repeat(ys, nx + 1), np.zeros((ny + 1) * (nx + 1))], axis=1
    )
    ids = np.arange((ny + 1) * (nx + 1)).reshape(ny + 1, nx + 1)
    return IndexedMesh(vertices=verts, triangles=_lattice_triangles(ids).reshape(-1, 3))


def grid_vertex(nx: int, i: int, j: int) -> int:
    """Vertex index of grid point (i, j) for a mesh built by make_grid."""
    return j * (nx + 1) + i


def make_perturbed_grid(
    nx: int = 8, ny: int = 8, seed: int = 0, amplitude: float = 0.08
) -> IndexedMesh:
    """Grid with a smooth random height field; a disk-like open surface."""
    rng = np.random.default_rng(seed)
    base = make_grid(nx, ny)
    v = base.vertices.copy()
    cx, cy = rng.uniform(0.5, 3.0, size=2)
    px, py = rng.uniform(0, 2 * np.pi, size=2)
    v[:, 2] = amplitude * (
        np.sin(cx * 2 * np.pi * v[:, 0] + px) * np.cos(cy * 2 * np.pi * v[:, 1] + py)
    )
    return IndexedMesh(vertices=v, triangles=base.triangles)


_CUBE_FACES = (
    # (normal axis unit, u axis unit, v axis unit) with u x v = outward normal
    (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])),
    (np.array([-1.0, 0, 0]), np.array([0, 0, 1.0]), np.array([0, 1.0, 0])),
    (np.array([0, 1.0, 0]), np.array([0, 0, 1.0]), np.array([1.0, 0, 0])),
    (np.array([0, -1.0, 0]), np.array([1.0, 0, 0]), np.array([0, 0, 1.0])),
    (np.array([0, 0, 1.0]), np.array([1.0, 0, 0]), np.array([0, 1.0, 0])),
    (np.array([0, 0, -1.0]), np.array([0, 1.0, 0]), np.array([1.0, 0, 0])),
)


def make_cube(n: int = 1, with_uv: bool = True, side: float = 1.0) -> IndexedMesh:
    """Watertight axis-aligned cube, each face an n x n grid.

    With ``with_uv`` every face gets its own UV island (six islands in a
    row), so all face-border edges are UV seams.  Face points that round to
    the same point of the (2n+1)^3 lattice are welded into one vertex,
    numbered in the order of first use (faces in ``_CUBE_FACES`` order, then
    grid point (a, b) with a outermost).
    """
    _check_sizes(n=(n, 1))
    nrm, ud, vd = (np.array(axis)[:, None, None] for axis in zip(*_CUBE_FACES))
    s = np.arange(n + 1) / n
    # points[f, a, b]: grid point (a, b) of face f
    points = side * (
        0.5 * nrm + (s - 0.5)[:, None, None] * ud + (s - 0.5)[:, None] * vd
    )
    keys = np.rint(points * 2 * n / side).astype(np.int64).reshape(-1, 3)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    number = np.empty_like(order)
    number[order] = np.arange(len(order))
    ids = number[inverse.reshape(-1)].reshape(6, n + 1, n + 1)

    def triangles_of(g):
        # the corners (a, b), (a+1, b), (a+1, b+1), (a, b+1) of each quad of every face
        quads = np.stack([g[:, :-1, :-1], g[:, 1:, :-1], g[:, 1:, 1:], g[:, :-1, 1:]], axis=3)
        return quads[:, :, :, _QUAD_SPLIT].reshape((-1,) + g.shape[3:])

    uvs = None
    if with_uv:
        # face f's island: u = f + a / n, v = b / n
        u = np.arange(6)[:, None] + s
        uvs = triangles_of(np.stack(np.broadcast_arrays(u[:, :, None], s), axis=-1))
    return IndexedMesh(
        vertices=points.reshape(-1, 3)[first[order]],
        triangles=triangles_of(ids).reshape(-1, 3),
        uv_corners=uvs,
    )


def make_cylinder(
    n_theta: int = 16,
    n_z: int = 16,
    radius: float = 0.25,
    height: float = 1.0,
    with_uv: bool = True,
) -> IndexedMesh:
    """Open tube around the y axis (no caps), welded around the circumference.

    Vertex (k, i), ring k from the bottom and angle ``2 pi i / n_theta``, is
    ``k * n_theta + i``.  UVs implement the analytic isometric unroll, cut
    along the theta=0 generator line, so the UV seams are exactly that
    vertical edge column.
    """
    _check_sizes(n_theta=(n_theta, 3), n_z=(n_z, 1))
    cos_t, sin_t = _unit_circle(n_theta)
    y = height * (np.arange(n_z + 1) / n_z) - height / 2
    shape = (n_z + 1, n_theta)
    verts = np.stack(
        [
            np.broadcast_to(radius * cos_t, shape),
            np.broadcast_to(y[:, None], shape),
            np.broadcast_to(radius * sin_t, shape),
        ],
        axis=-1,
    ).reshape(-1, 3)
    # column n_theta repeats column 0: the tube closes on itself
    ids = np.arange(n_z + 1)[:, None] * n_theta + np.arange(n_theta + 1) % n_theta
    uvs = None
    if with_uv:
        # unwrapped u uses the unwrapped theta index (i + 1 may equal n_theta)
        u = np.arange(n_theta + 1) * (2 * np.pi * radius) / n_theta
        v = height * np.arange(n_z + 1) / n_z
        uvs = _lattice_triangles(np.stack(np.broadcast_arrays(u, v[:, None]), axis=-1))
    return IndexedMesh(
        vertices=verts, triangles=_lattice_triangles(ids).reshape(-1, 3), uv_corners=uvs
    )


def make_sphere(n_lat: int = 8, n_lon: int = 12, radius: float = 0.5) -> IndexedMesh:
    """Closed UV sphere with welded poles.

    Vertex 0 is the north pole (+y), the last vertex the south pole, and
    vertex ``1 + (k - 1) * n_lon + i`` is point i of ring k, 0 < k < n_lat.
    Triangles: the north fan, the bands between rings, the south fan.
    """
    _check_sizes(n_lat=(n_lat, 2), n_lon=(n_lon, 3))
    cos_t, sin_t = _unit_circle(n_lon)
    phi = [np.pi * k / n_lat for k in range(1, n_lat)]
    ring_radius = radius * np.array([np.sin(p) for p in phi])[:, None]
    ring_y = radius * np.array([np.cos(p) for p in phi])[:, None]
    rings = np.stack(
        [ring_radius * cos_t, np.repeat(ring_y, n_lon, axis=1), ring_radius * sin_t], axis=-1
    ).reshape(-1, 3)
    verts = np.concatenate([[(0.0, radius, 0.0)], rings, [(0.0, -radius, 0.0)]])
    south = len(verts) - 1
    ring = 1 + np.arange(n_lat - 1)[:, None] * n_lon + np.arange(n_lon + 1) % n_lon
    north_fan = np.stack([np.zeros(n_lon, np.int64), ring[0, 1:], ring[0, :-1]], axis=1)
    south_fan = np.stack([np.full(n_lon, south), ring[-1, :-1], ring[-1, 1:]], axis=1)
    bands = _lattice_triangles(ring).reshape(-1, 3)
    return IndexedMesh(vertices=verts, triangles=np.concatenate([north_fan, bands, south_fan]))


def make_tetrahedron(scale: float = 1.0) -> IndexedMesh:
    v = scale * np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
    )
    t = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return IndexedMesh(vertices=v, triangles=t)


# L-shaped prism: cross-section lattice in the xz plane, extruded along y.
_L_SQUARES = (((0, 0), (1, 0), (1, 1), (0, 1)), ((1, 0), (2, 0), (2, 1), (1, 1)), ((0, 1), (1, 1), (1, 2), (0, 2)))
_L_OUTLINE = ((0, 0), (1, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2), (0, 1))


def make_l_extrusion(height: float = 1.0, side: float = 0.5) -> IndexedMesh:
    """Closed L-shaped prism: three unit squares of side ``side``, height along y."""
    weld: dict[tuple[int, int, int], int] = {}
    verts: list[tuple[float, float, float]] = []

    def vertex_at(ix: int, iz: int, level: int) -> int:
        key = (ix, iz, level)
        if key not in weld:
            weld[key] = len(verts)
            verts.append((ix * side, level * height, iz * side))
        return weld[key]

    tris: list[tuple[int, int, int]] = []
    for level, flip in ((0, True), (1, False)):
        for sq in _L_SQUARES:
            ids = [vertex_at(ix, iz, level) for ix, iz in sq]
            order = ((0, 2, 1), (0, 3, 2)) if flip else ((0, 1, 2), (0, 2, 3))
            for t in order:
                tris.append(tuple(ids[k] for k in t))
    m = len(_L_OUTLINE)
    for e in range(m):
        (x0, z0), (x1, z1) = _L_OUTLINE[e], _L_OUTLINE[(e + 1) % m]
        a0, a1 = vertex_at(x0, z0, 0), vertex_at(x1, z1, 0)
        b0, b1 = vertex_at(x0, z0, 1), vertex_at(x1, z1, 1)
        tris.append((a0, a1, b1))
        tris.append((a0, b1, b0))
    return IndexedMesh(vertices=np.array(verts, dtype=np.float64), triangles=np.array(tris))


def make_random_hull(n_points: int = 30, seed: int = 0, scale: float = 1.0) -> IndexedMesh:
    """Closed triangulated surface: convex hull of random points."""
    _check_sizes(n_points=(n_points, 4))
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3)) * scale
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    # renumber the hull's points in ascending order of their input index
    return IndexedMesh(vertices=pts[used], triangles=np.searchsorted(used, hull.simplices))
