"""Seam cutting, per-island least-squares conformal maps, and UV atlases."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components, dijkstra

from seamkit.mesh import (
    IndexedMesh,
    MeshError,
    SeamEdgeSet,
    index_edges,
    matched_corners,
    triangle_normals,
)

logger = logging.getLogger(__name__)

# Triangles with 3D area below this fraction of the total are excluded from
# the conformal system and from distortion sums.
AREA_EXCLUDE_REL = 1e-12
# Relative residual bound for the normal-equation solve.
SOLVE_RESIDUAL_REL = 1e-8


class UnwrapError(MeshError):
    pass


class CutContractError(UnwrapError):
    """A seam edge is not an edge of the mesh."""


class DegenerateIslandError(UnwrapError):
    """Island has no usable (positive-area) triangles."""


class DegenerateTriangleError(UnwrapError):
    """Triangle has zero 3D area; it is skipped in distortion sums."""


class SolveError(UnwrapError):
    """Linear solve failed to reach the required residual."""


@dataclass(frozen=True)
class CutMesh:
    """Mesh split along seam edges.

    Vertices on seams are duplicated once per corner-fan wedge delimited by
    seam or boundary edges; ``orig_vertex`` maps every cut vertex back to its
    source.  ``face_island[f]`` is the connected component of the face
    adjacency graph restricted to non-seam edges.

    Numbering is deterministic: islands are numbered in the order of their
    lowest face, and cut vertices in the order of their first corner in
    row-major order of ``triangles`` (corner ``3*f + k``).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    orig_vertex: np.ndarray
    face_island: np.ndarray
    n_islands: int


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Connected components of the graph on ``n`` nodes with links ``a[i] - b[i]``.

    Components are numbered in the order of their lowest node.
    """
    graph = sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    count, labels = connected_components(graph, directed=False)
    return count, labels.astype(np.int64)


def cut_mesh(mesh: IndexedMesh, seams: SeamEdgeSet) -> CutMesh:
    """Split the mesh along the given seam edges and label islands."""
    pairs = np.array(list(seams.edges), dtype=np.int64).reshape(-1, 2)
    seam_ids = mesh.edge_ids(pairs)
    if (seam_ids < 0).any():
        a, b = min(map(tuple, pairs[seam_ids < 0].tolist()))
        raise CutContractError(f"seam edge ({a}, {b}) is not a mesh edge")
    is_seam = np.zeros(len(mesh.edges), dtype=bool)
    is_seam[seam_ids] = True

    # faces join, and corners at the same vertex merge, across non-seam edges
    edge, a, b = matched_corners(mesh.triangles, mesh.face_edges)
    a, b = a[~is_seam[edge]], b[~is_seam[edge]]
    n_islands, face_island = _components(mesh.n_triangles, a[:, 0] // 3, b[:, 0] // 3)
    _, wedge = _components(3 * mesh.n_triangles, a.ravel(), b.ravel())
    _, first_corner = np.unique(wedge, return_index=True)
    orig = mesh.triangles.ravel()[first_corner]
    return CutMesh(
        vertices=mesh.vertices[orig],
        triangles=wedge.reshape(-1, 3),
        orig_vertex=orig,
        face_island=face_island,
        n_islands=n_islands,
    )


# ---------------------------------------------------------------------------
# Triangle deformation gradients


def _local_frames(p3d: np.ndarray):
    """Batched orthonormal 2D frames of (F, 3, 3) triangles: returns ``(E, areas, good)``.

    E[f] is the 2x2 matrix whose columns are the triangle's edge vectors
    (p2-p1, p3-p1) expressed in the local frame; ``areas`` are the 3D areas
    (``mesh.triangle_normals``) and ``good`` marks the triangles whose frame
    is defined (positive area and first edge).
    """
    e1 = p3d[:, 1] - p3d[:, 0]
    e2 = p3d[:, 2] - p3d[:, 0]
    nrm, areas = triangle_normals(p3d)
    l1 = np.linalg.norm(e1, axis=1)
    good = (areas > 0) & (l1 > 0)
    ex = np.zeros_like(e1)
    ez = np.zeros_like(e1)
    ex[good] = e1[good] / l1[good, None]
    ez[good] = nrm[good] / (2.0 * areas[good, None])
    ey = np.cross(ez, ex)
    E = np.zeros((len(p3d), 2, 2))
    E[:, 0, 0] = l1
    E[:, 0, 1] = np.einsum("ij,ij->i", e2, ex)
    E[:, 1, 1] = np.einsum("ij,ij->i", e2, ey)
    return E, areas, good


def _jacobians(E: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Batched 2x2 deformation gradients from local 3D frames ``E`` to UV."""
    U = np.stack(
        [uv[:, 1] - uv[:, 0], uv[:, 2] - uv[:, 0]], axis=2
    )  # columns (uv2-uv1, uv3-uv1)
    det = E[:, 0, 0] * E[:, 1, 1]
    inv = np.zeros_like(E)
    safe = det != 0
    inv[safe, 0, 0] = E[safe, 1, 1] / det[safe]
    inv[safe, 0, 1] = -E[safe, 0, 1] / det[safe]
    inv[safe, 1, 1] = E[safe, 0, 0] / det[safe]
    return U @ inv


def triangle_jacobian(p3d, p2d) -> tuple[float, float]:
    """Singular values (descending) of one triangle's deformation gradient."""
    p3d = np.asarray(p3d, dtype=np.float64).reshape(1, 3, 3)
    p2d = np.asarray(p2d, dtype=np.float64).reshape(1, 3, 2)
    E, _, good = _local_frames(p3d)
    if not good[0]:
        raise DegenerateTriangleError("triangle has zero 3D area")
    J = _jacobians(E, p2d)
    s = np.linalg.svd(J[0], compute_uv=False)
    return float(s[0]), float(s[1])


# ---------------------------------------------------------------------------
# Least-squares conformal parameterization


@dataclass(frozen=True)
class IslandParam:
    """Solved 2D coordinates for one island's cut vertices."""

    vertex_ids: np.ndarray
    uv: np.ndarray
    pins: tuple
    nondisk: bool
    residual: float


def _island_chi(cut: CutMesh) -> np.ndarray:
    """Euler characteristic V - E + F of every island's submesh."""
    vertex_island = np.empty(len(cut.vertices), dtype=np.int64)
    vertex_island[cut.triangles] = cut.face_island[:, None]
    edges, _, _ = index_edges(cut.triangles, len(cut.vertices))
    n = cut.n_islands
    return (
        np.bincount(vertex_island, minlength=n)
        - np.bincount(vertex_island[edges[:, 0]], minlength=n)
        + np.bincount(cut.face_island, minlength=n)
    )


def parameterize_island(
    cut: CutMesh,
    island: int,
    excluded: np.ndarray | None = None,
) -> IslandParam:
    """Least-squares conformal solve for one island.

    Two pins (the island's farthest vertex pair under unweighted graph
    distance, found by a double BFS sweep) are fixed to (0,0) and (1,0).
    Non-disk islands get a diagnostic flag and one extra pinned vertex.
    Raises DegenerateIslandError when no positive-area triangle remains.
    This is ``unwrap_atlas``'s solver restricted to one island: each of its
    connected components of non-excluded faces is pinned and solved apart.
    """
    faces = np.flatnonzero(cut.face_island == island)
    if len(faces) == 0:
        raise UnwrapError(f"island {island} has no faces")
    chi = _island_chi(cut)
    if chi[island] != 1:
        logger.warning("island %d is not a disk (chi=%d); adding an extra pin", island, chi[island])
    active = faces if excluded is None else faces[~excluded[faces]]
    if len(active) == 0:
        raise DegenerateIslandError(f"island {island} has only degenerate triangles")
    frames = _local_frames(cut.vertices[cut.triangles[active]])
    uv, _, residuals, pins = _lscm(cut, active, chi != 1, frames)
    verts = np.unique(cut.triangles[faces])
    return IslandParam(
        vertex_ids=verts,
        uv=uv[verts],
        pins=tuple(pins.tolist()),
        nondisk=bool(chi[island] != 1),
        residual=float(max(0.0, residuals.max())),
    )


def _farthest(graph, sources: np.ndarray, node_comp: np.ndarray, comp_start: np.ndarray):
    """Per component, the lowest node at the largest hop distance from ``sources``."""
    dist = dijkstra(graph, directed=False, indices=sources, unweighted=True, min_only=True)
    far = np.flatnonzero(dist == np.maximum.reduceat(dist, comp_start)[node_comp])
    return far[np.unique(node_comp[far], return_index=True)[1]]


def _pick_pins(node: np.ndarray, node_comp: np.ndarray, nondisk: np.ndarray) -> np.ndarray:
    """(C, 3) pinned nodes per component, -1 where a component has only two.

    A BFS sweep from the component's lowest node finds p0, a second from p0
    finds p1, and in non-disk components a third from both finds the extra
    pin; every sweep breaks ties toward the lowest node.
    """
    n_nodes = len(node_comp)
    graph = sp.coo_matrix(
        (np.ones(node.size), (node.ravel(), node[:, [1, 2, 0]].ravel())),
        shape=(n_nodes, n_nodes),
    ).tocsr()
    comp_start = np.searchsorted(node_comp, np.arange(len(nondisk)))
    p0 = _farthest(graph, comp_start, node_comp, comp_start)
    p1 = _farthest(graph, p0, node_comp, comp_start)
    pins = np.stack([p0, p1, np.full(len(nondisk), -1)], axis=1)
    if nondisk.any():
        both = np.concatenate([p0[nondisk], p1[nondisk]])
        pins[nondisk, 2] = _farthest(graph, both, node_comp, comp_start)[nondisk]
    return pins


def _solve_blocks(A, b: np.ndarray, col_comp: np.ndarray, n_comp: int):
    """Least-squares solution of A x = b through one factorization of A^T A.

    Returns ``(x, residual)`` with the relative normal-equation residual of
    each block of columns; blocks above SOLVE_RESIDUAL_REL get one refinement
    pass with the same factor.

    A^T A is symmetric positive definite (Levy et al. 2002), so SuperLU is
    given a symmetric fill-reducing ordering, minimum degree on A^T A + A, with
    diagonal pivots, instead of its default COLAMD ordering, which treats the
    matrix as unsymmetric.  On the 128 x 128 cylinder's system (33,278
    unknowns) that takes the L + U fill from 6.98M to 5.18M entries and the
    factor-and-solve from 0.69 s to 0.57 s (2-vCPU Xeon, scipy 1.17), with the
    relative residual ~5e-14 either way.
    """
    K = (A.T @ A).tocsc()
    rhs = A.T @ b
    try:
        with np.errstate(all="ignore"):
            lu = spla.splu(
                K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True}
            )
            x = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolveError("conformal system is singular") from exc
    if not np.all(np.isfinite(x)):
        raise SolveError("conformal system is singular")

    def block_norm(r):
        return np.sqrt(np.bincount(col_comp, weights=r * r, minlength=n_comp))

    scale = np.maximum(block_norm(rhs), 1e-30)
    res = block_norm(K @ x - rhs)
    bad = res > SOLVE_RESIDUAL_REL * scale
    if bad.any():
        r = rhs - K @ x
        r[~bad[col_comp]] = 0.0
        x = x + lu.solve(r)
        res = block_norm(K @ x - rhs)
        worst = int(np.argmax(res / scale))
        if res[worst] > SOLVE_RESIDUAL_REL * scale[worst]:
            raise SolveError(
                f"normal-system residual {res[worst] / scale[worst]:.2e} above {SOLVE_RESIDUAL_REL}"
            )
    return x, res / scale


def _lscm(cut: CutMesh, faces: np.ndarray, nondisk_island: np.ndarray, frames):
    """Least-squares conformal maps of the given faces, solved as one system.

    ``frames`` is ``_local_frames`` of the faces, row for row.  The faces
    split into connected components under shared cut edges, numbered by their
    lowest face.  Each component has its own unknowns and pins (see
    ``_pick_pins``; the extra pin goes to components of islands flagged in
    ``nondisk_island``), so the normal equations are block diagonal and one
    factorization solves them all.

    Returns ``(uv, comp_island, comp_residual, pins)``: (V, 2) coordinates
    for the cut vertices (a vertex in several components keeps the value of
    the last one), the island and the relative residual of each component,
    and the pinned vertices in component order.
    """
    n_vertices = len(cut.vertices)
    tris = cut.triangles[faces]
    _, face_edges, _ = index_edges(tris, n_vertices)
    _, a, b = matched_corners(tris, face_edges)
    n_comp, comp = _components(len(faces), a[:, 0] // 3, b[:, 0] // 3)
    comp_island = cut.face_island[faces[np.unique(comp, return_index=True)[1]]]

    # one node per (component, vertex), ordered by component, then vertex
    keys, node = np.unique(comp[:, None] * n_vertices + tris, return_inverse=True)
    node = node.reshape(-1, 3)
    node_vertex = keys % n_vertices
    node_comp = keys // n_vertices

    pin_nodes = _pick_pins(node, node_comp, nondisk_island[comp_island])
    pinned = np.zeros(len(keys), dtype=bool)
    pinned[pin_nodes[pin_nodes >= 0]] = True
    node_uv = np.zeros((len(keys), 2))
    node_uv[pin_nodes[:, 1]] = (1.0, 0.0)
    node_uv[pin_nodes[pin_nodes[:, 2] >= 0, 2]] = (0.5, 1.0)

    # unknowns: per component, the u of its free nodes, then their v
    free = ~pinned
    n_free = np.bincount(node_comp[free], minlength=n_comp)
    col_u = np.cumsum(free) - 1 + (np.cumsum(n_free) - n_free)[node_comp]
    col_v = col_u + n_free[node_comp]
    col_comp = np.empty(2 * int(n_free.sum()), dtype=np.int64)
    col_comp[col_u[free]] = node_comp[free]
    col_comp[col_v[free]] = node_comp[free]

    # one complex equation per positive-area face, rows grouped by component
    E, areas, good = frames
    live = good & (areas > 0)
    if (np.bincount(comp[live], minlength=n_comp) == 0).any():
        raise DegenerateIslandError("no positive-area triangles in component")
    eq_faces = np.flatnonzero(live)[np.argsort(comp[live], kind="stable")]
    w = 1.0 / np.sqrt(areas[eq_faces])
    e00, e01, e11 = E[eq_faces, 0, 0], E[eq_faces, 0, 1], E[eq_faces, 1, 1]
    # per-corner complex weights (x3 - x2, x1 - x3, x2 - x1) in the local frame
    wre = w[:, None] * np.stack([e01 - e00, 0.0 - e01, e00], axis=1)
    wim = w[:, None] * np.stack([e11, 0.0 - e11, np.zeros_like(e11)], axis=1)
    corner = node[eq_faces]
    fixed = pinned[corner]
    u, v = node_uv[corner, 0], node_uv[corner, 1]
    # pinned corners move to the right-hand side: (re, im) rows per equation
    b = -np.stack(
        [np.where(fixed, wre * u - wim * v, 0.0).sum(axis=1),
         np.where(fixed, wim * u + wre * v, 0.0).sum(axis=1)],
        axis=1,
    ).ravel()
    row = np.broadcast_to(2 * np.arange(len(eq_faces))[:, None], corner.shape)[~fixed]
    cu, cv = col_u[corner][~fixed], col_v[corner][~fixed]
    A = sp.csr_matrix(
        (
            np.concatenate([wre[~fixed], -wim[~fixed], wim[~fixed], wre[~fixed]]),
            (np.concatenate([row, row, row + 1, row + 1]), np.concatenate([cu, cv, cu, cv])),
        ),
        shape=(len(b), len(col_comp)),
    )

    residual = np.zeros(n_comp)
    if len(col_comp):
        x, residual = _solve_blocks(A, b, col_comp, n_comp)
        node_uv[free, 0] = x[col_u[free]]
        node_uv[free, 1] = x[col_v[free]]

    uv = np.zeros((n_vertices, 2))
    last = len(keys) - 1 - np.unique(node_vertex[::-1], return_index=True)[1]
    uv[node_vertex[last]] = node_uv[last]
    return uv, comp_island, residual, node_vertex[pin_nodes[pin_nodes >= 0]]


# ---------------------------------------------------------------------------
# Atlas assembly


@dataclass(frozen=True)
class UVAtlas:
    """Cut mesh with per-vertex UVs and per-triangle deformation data.

    ``sigma`` holds descending singular values of each triangle's deformation
    gradient (NaN for excluded triangles); ``area3d`` the 3D triangle areas.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    uv: np.ndarray
    face_island: np.ndarray
    island_count: int
    sigma: np.ndarray
    area3d: np.ndarray
    excluded: np.ndarray
    nondisk_islands: tuple = ()
    residuals: tuple = ()

    @property
    def n_excluded(self) -> int:
        return int(self.excluded.sum())

    def distortion_terms(self) -> np.ndarray:
        """Per-triangle |sigma1^2 - sigma2^2| (NaN on excluded triangles)."""
        return np.abs(self.sigma[:, 0] ** 2 - self.sigma[:, 1] ** 2)


def unwrap_atlas(cut: CutMesh) -> UVAtlas:
    """Parameterize every island and assemble deformation data.

    The triangle frames are computed once; the solve and the deformation
    gradients read the rows of the non-excluded triangles.
    """
    E, areas, good = _local_frames(cut.vertices[cut.triangles])
    excluded = areas < AREA_EXCLUDE_REL * max(areas.sum(), np.finfo(float).tiny)
    live = ~excluded

    chi = _island_chi(cut)
    nondisk = np.flatnonzero(chi != 1)
    for island in nondisk:
        logger.warning("island %d is not a disk (chi=%d); adding an extra pin", island, chi[island])
    empty = np.flatnonzero(np.bincount(cut.face_island[live], minlength=cut.n_islands) == 0)
    if len(empty):
        raise DegenerateIslandError(f"island {empty[0]} has only degenerate triangles")
    residuals = np.zeros(cut.n_islands)
    uv = np.zeros((len(cut.vertices), 2))
    if cut.n_islands:
        frames = (E[live], areas[live], good[live])
        uv, comp_island, comp_residual, _ = _lscm(cut, np.flatnonzero(live), chi != 1, frames)
        np.maximum.at(residuals, comp_island, comp_residual)

    sigma = np.full((len(cut.triangles), 2), np.nan)
    if live.any():
        J = _jacobians(E[live], uv[cut.triangles[live]])
        sigma[live] = np.linalg.svd(J, compute_uv=False)
    return UVAtlas(
        vertices=cut.vertices,
        triangles=cut.triangles,
        uv=uv,
        face_island=cut.face_island,
        island_count=cut.n_islands,
        sigma=sigma,
        area3d=areas,
        excluded=excluded,
        nondisk_islands=tuple(nondisk.tolist()),
        residuals=tuple(residuals.tolist()),
    )


def unwrap_mesh(mesh: IndexedMesh, seams: SeamEdgeSet) -> UVAtlas:
    """cut_mesh + unwrap_atlas in one step."""
    return unwrap_atlas(cut_mesh(mesh, seams))


# ---------------------------------------------------------------------------
# Exports


def layout_uv(atlas: UVAtlas, gap_rel: float = 0.05) -> np.ndarray:
    """Translate islands onto a shelf so they do not overlap (no rescaling).

    Translation preserves every triangle's deformation gradient, so metrics
    recomputed from the laid-out UVs match the solver output.
    """
    uv = atlas.uv.copy()
    boxes = []
    for island in range(atlas.island_count):
        verts = np.unique(atlas.triangles[atlas.face_island == island])
        lo = uv[verts].min(axis=0)
        hi = uv[verts].max(axis=0)
        boxes.append((island, verts, lo, hi))
    if not boxes:
        return uv
    max_dim = max(max(hi - lo) for _, _, lo, hi in boxes)
    gap = gap_rel * max(max_dim, 1e-12)
    row_width = 4 * (max_dim + gap) + gap
    x = y = 0.0
    row_h = 0.0
    for island, verts, lo, hi in boxes:
        w, h = hi - lo
        if x > 0 and x + w > row_width:
            x = 0.0
            y += row_h + gap
            row_h = 0.0
        uv[verts] = uv[verts] - lo + [x, y]
        x += w + gap
        row_h = max(row_h, h)
    return uv


def atlas_to_obj(atlas: UVAtlas) -> str:
    """OBJ export (v + vt + f v/vt) with islands laid out side by side."""
    uv = layout_uv(atlas)
    lines = []
    for x, y, z in atlas.vertices:
        lines.append(f"v {x:.9g} {y:.9g} {z:.9g}\n")
    for u, v in uv:
        lines.append(f"vt {u:.9g} {v:.9g}\n")
    for a, b, c in atlas.triangles:
        lines.append(f"f {a + 1}/{a + 1} {b + 1}/{b + 1} {c + 1}/{c + 1}\n")
    return "".join(lines)


def _ramp(t: float) -> str:
    """Light-to-bright-yellow color ramp; brighter means more distortion."""
    lo = np.array([255.0, 252.0, 224.0])
    hi = np.array([255.0, 196.0, 0.0])
    c = lo + (hi - lo) * min(max(t, 0.0), 1.0)
    return f"rgb({int(c[0])},{int(c[1])},{int(c[2])})"


def atlas_to_svg(atlas: UVAtlas, width: float = 800.0) -> str:
    """SVG atlas: islands side by side, per-triangle fill from the distortion term.

    The color ramp is clipped at the 95th percentile of the per-triangle
    terms, so a few extreme triangles do not wash out the rest.
    """
    uv = layout_uv(atlas)
    terms = atlas.distortion_terms()
    live = ~atlas.excluded
    if live.any():
        p95 = float(np.percentile(terms[live], 95))
    else:
        p95 = 1.0
    p95 = max(p95, 1e-30)

    lo = uv.min(axis=0)
    hi = uv.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = width / span[0]
    height = span[1] * scale
    pad = 0.01 * width

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * pad:.1f}" '
        f'height="{height + 2 * pad:.1f}" viewBox="0 0 {width + 2 * pad:.1f} {height + 2 * pad:.1f}">\n'
    ]
    parts.append('<rect width="100%" height="100%" fill="white"/>\n')
    for f, (a, b, c) in enumerate(atlas.triangles):
        pts = []
        for v in (a, b, c):
            x = (uv[v, 0] - lo[0]) * scale + pad
            y = height - (uv[v, 1] - lo[1]) * scale + pad  # flip v axis
            pts.append(f"{x:.2f},{y:.2f}")
        if atlas.excluded[f]:
            fill = "rgb(200,200,200)"
        else:
            fill = _ramp(terms[f] / p95)
        parts.append(
            f'<polygon points="{" ".join(pts)}" fill="{fill}" '
            'stroke="rgb(120,120,120)" stroke-width="0.3"/>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
