"""Synthetic test meshes: grids, cubes, cylinders, spheres, L-extrusions."""

from __future__ import annotations

import numpy as np

from seamkit.mesh import IndexedMesh


def make_grid(nx: int = 8, ny: int = 8, width: float = 1.0, height: float = 1.0) -> IndexedMesh:
    """Planar (nx x ny)-cell grid in the z=0 plane."""
    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    # index (i, j) -> j * (nx + 1) + i
    verts = [(xs[i], ys[j], 0.0) for j in range(ny + 1) for i in range(nx + 1)]
    tris = []
    for j in range(ny):
        for i in range(nx):
            v00 = j * (nx + 1) + i
            v10 = v00 + 1
            v01 = v00 + (nx + 1)
            v11 = v01 + 1
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    return IndexedMesh(vertices=np.array(verts), triangles=np.array(tris))


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
    row), so all face-border edges are UV seams.
    """
    weld: dict[tuple[int, int, int], int] = {}
    verts: list[np.ndarray] = []
    tris: list[tuple[int, int, int]] = []
    uvs: list[tuple[float, float]] = []

    def vertex_at(p: np.ndarray) -> int:
        key = tuple(int(round(c * 2 * n / side)) for c in p)
        if key not in weld:
            weld[key] = len(verts)
            verts.append(p)
        return weld[key]

    for fi, (nrm, ud, vd) in enumerate(_CUBE_FACES):
        corner_ids = np.empty((n + 1, n + 1), dtype=np.int64)
        for a in range(n + 1):
            for b in range(n + 1):
                su, sv = a / n, b / n
                p = side * (0.5 * nrm + (su - 0.5) * ud + (sv - 0.5) * vd)
                corner_ids[a, b] = vertex_at(p)
        for a in range(n):
            for b in range(n):
                quad = (
                    (corner_ids[a, b], (a, b)),
                    (corner_ids[a + 1, b], (a + 1, b)),
                    (corner_ids[a + 1, b + 1], (a + 1, b + 1)),
                    (corner_ids[a, b + 1], (a, b + 1)),
                )
                for t in ((0, 1, 2), (0, 2, 3)):
                    tris.append(tuple(quad[k][0] for k in t))
                    if with_uv:
                        for k in t:
                            ga, gb = quad[k][1]
                            uvs.append((fi + ga / n, gb / n))
    return IndexedMesh(
        vertices=np.array(verts),
        triangles=np.array(tris),
        uv_corners=np.array(uvs) if with_uv else None,
    )


def make_cylinder(
    n_theta: int = 16,
    n_z: int = 16,
    radius: float = 0.25,
    height: float = 1.0,
    with_uv: bool = True,
) -> IndexedMesh:
    """Open tube around the y axis (no caps), welded around the circumference.

    UVs implement the analytic isometric unroll, cut along the theta=0
    generator line, so the UV seams are exactly that vertical edge column.
    """
    verts = []
    for k in range(n_z + 1):
        y = height * (k / n_z) - height / 2
        for i in range(n_theta):
            th = 2 * np.pi * i / n_theta
            verts.append((radius * np.cos(th), y, radius * np.sin(th)))

    def vid(k: int, i: int) -> int:
        return k * n_theta + (i % n_theta)

    circumference = 2 * np.pi * radius
    tris = []
    uvs = []
    for k in range(n_z):
        for i in range(n_theta):
            quad_ids = (vid(k, i), vid(k, i + 1), vid(k + 1, i + 1), vid(k + 1, i))
            # unwrapped u uses the unwrapped theta index (i + 1 may equal n_theta)
            quad_uv = (
                (i * circumference / n_theta, height * k / n_z),
                ((i + 1) * circumference / n_theta, height * k / n_z),
                ((i + 1) * circumference / n_theta, height * (k + 1) / n_z),
                (i * circumference / n_theta, height * (k + 1) / n_z),
            )
            for t in ((0, 1, 2), (0, 2, 3)):
                tris.append(tuple(quad_ids[j] for j in t))
                if with_uv:
                    uvs.extend(quad_uv[j] for j in t)
    return IndexedMesh(
        vertices=np.array(verts),
        triangles=np.array(tris),
        uv_corners=np.array(uvs) if with_uv else None,
    )


def make_sphere(n_lat: int = 8, n_lon: int = 12, radius: float = 0.5) -> IndexedMesh:
    """Closed UV sphere with welded poles."""
    verts = [(0.0, radius, 0.0)]
    for k in range(1, n_lat):
        phi = np.pi * k / n_lat
        for i in range(n_lon):
            th = 2 * np.pi * i / n_lon
            verts.append(
                (
                    radius * np.sin(phi) * np.cos(th),
                    radius * np.cos(phi),
                    radius * np.sin(phi) * np.sin(th),
                )
            )
    verts.append((0.0, -radius, 0.0))
    south = len(verts) - 1

    def ring(k: int, i: int) -> int:
        return 1 + (k - 1) * n_lon + (i % n_lon)

    tris = []
    for i in range(n_lon):
        tris.append((0, ring(1, i + 1), ring(1, i)))
    for k in range(1, n_lat - 1):
        for i in range(n_lon):
            a, b = ring(k, i), ring(k, i + 1)
            c, d = ring(k + 1, i + 1), ring(k + 1, i)
            tris.append((a, b, c))
            tris.append((a, c, d))
    for i in range(n_lon):
        tris.append((south, ring(n_lat - 1, i), ring(n_lat - 1, i + 1)))
    return IndexedMesh(vertices=np.array(verts), triangles=np.array(tris))


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
    from scipy.spatial import ConvexHull

    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3)) * scale
    hull = ConvexHull(pts)
    used = np.unique(hull.simplices)
    remap = {int(o): i for i, o in enumerate(used)}
    tris = np.array([[remap[int(v)] for v in s] for s in hull.simplices])
    return IndexedMesh(vertices=pts[used], triangles=tris)
