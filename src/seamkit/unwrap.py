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
    format_records,
    index_edges,
    matched_corners,
    obj_text,
    triangle_normals,
)

logger = logging.getLogger(__name__)

# Triangles with 3D area below this fraction of the total are excluded from
# the conformal system and from distortion sums.
AREA_EXCLUDE_REL = 1e-12
# Relative residual bound for the normal-equation solve.
SOLVE_RESIDUAL_REL = 1e-8
LAYOUT_GAP_REL = 0.05  # gap between laid-out islands / largest island extent
SVG_WIDTH = 800.0  # SVG drawing width in user units, before a 1% margin


class UnwrapError(MeshError):
    pass


class CutContractError(UnwrapError):
    """A seam edge is not an edge of the mesh."""


class DegenerateIslandError(UnwrapError):
    """Island has no usable (positive-area) triangles."""


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
    seam_ids = mesh.edge_ids(seams.pairs)
    if (seam_ids < 0).any():
        a, b = seams.pairs[seam_ids < 0][0].tolist()
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


def _singular_values(J: np.ndarray) -> np.ndarray:
    """Descending singular values of stacked 2x2 matrices ``J`` (..., 2, 2), in closed form.

    For rows (a, b) and (c, d), with p = a^2 + b^2, q = c^2 + d^2 and
    r = ac + bd, the eigenvalues of J J^T are (p + q)/2 +- hypot((p - q)/2, r),
    so sigma1 = sqrt((p + q)/2 + hypot((p - q)/2, r)) and, from
    sigma1 * sigma2 = |det J|, sigma2 = |ad - bc| / sigma1 (0 when sigma1 = 0,
    and clamped to sigma1).  Only the larger eigenvalue is taken from the
    square root, so sigma2 does not lose digits to cancellation.

    Both are within a few ulps of sigma1 while the largest entry's magnitude
    lies in [1e-153, 1e153]: there no square or sum of squares overflows, and
    a product that underflows loses less than an ulp of sigma1^2 >= 1e-306.
    The Jacobians of live triangles sit many orders of magnitude inside that
    range, because ``AREA_EXCLUDE_REL`` removes the near-zero-area triangles.
    """
    a, b = J[..., 0, 0], J[..., 0, 1]
    c, d = J[..., 1, 0], J[..., 1, 1]
    p = a * a + b * b
    q = c * c + d * d
    s1 = np.sqrt((p + q) / 2 + np.hypot((p - q) / 2, a * c + b * d))
    det = np.abs(a * d - b * c)
    s2 = np.divide(det, s1, out=np.zeros_like(s1), where=s1 > 0)
    np.minimum(s2, s1, out=s2)  # rounding can lift det / sigma1 above an equal sigma1
    return np.stack([s1, s2], axis=-1)


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
    active = faces if excluded is None else faces[~excluded[faces]]
    if len(active) == 0:
        raise DegenerateIslandError(f"island {island} has only degenerate triangles")
    uv, chi, _, residuals, pins = _lscm(cut, active, _local_frames(cut.vertices[cut.triangles]))
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


def _solve_blocks(K, rhs: np.ndarray, col_comp: np.ndarray, n_comp: int):
    """Least-squares solution of a complex system A z = c through one
    factorization of its normal equations K z = rhs, K = A^H A (CSC) and
    rhs = A^H c.

    Returns ``(z, residual)`` with the relative normal-equation residual
    |K z - rhs| / |rhs| of each block of columns (``col_comp`` names the
    block of each column); blocks above SOLVE_RESIDUAL_REL get one refinement
    pass with the same factor, and a block still above it raises SolveError.
    The complex norm |r|^2 = sum(Re r^2 + Im r^2) is the norm of the same
    residual written as a real system in (Re z, Im z), so the bound means the
    same for both forms.

    K is Hermitian positive definite (Levy et al. 2002), so SuperLU is given a
    symmetric fill-reducing ordering, minimum degree on K^T + K, with diagonal
    pivots.  Solving in z = u + iv rather than in (u, v) halves the unknowns:
    on the 128 x 128 cylinder's system (16,639 complex unknowns instead of
    33,278 real ones) the L + U fill drops from 4.73M to 1.09M entries and the
    factor-and-solve from 0.53 s to 0.19 s (2-vCPU Xeon, scipy 1.17), with the
    relative residual ~5e-14 either way.
    """
    try:
        with np.errstate(all="ignore"):
            lu = spla.splu(
                K, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0, options={"SymmetricMode": True}
            )
            z = lu.solve(rhs)
    except RuntimeError as exc:
        raise SolveError("conformal system is singular") from exc
    if not np.all(np.isfinite(z)):
        raise SolveError("conformal system is singular")

    def block_norm(r):
        return np.sqrt(np.bincount(col_comp, weights=r.real**2 + r.imag**2, minlength=n_comp))

    scale = np.maximum(block_norm(rhs), 1e-30)
    res = block_norm(K @ z - rhs)
    bad = res > SOLVE_RESIDUAL_REL * scale
    if bad.any():
        r = rhs - K @ z
        r[~bad[col_comp]] = 0.0
        z = z + lu.solve(r)
        res = block_norm(K @ z - rhs)
        worst = int(np.argmax(res / scale))
        if res[worst] > SOLVE_RESIDUAL_REL * scale[worst]:
            raise SolveError(
                f"normal-system residual {res[worst] / scale[worst]:.2e} above {SOLVE_RESIDUAL_REL}"
            )
    return z, res / scale


def _cut_topology(cut: CutMesh, faces: np.ndarray):
    """``(n_comp, comp, chi)``: the connected components of ``faces`` under
    shared cut edges, numbered by their lowest face, the component of each
    face, and the Euler characteristic V - E + F of every island's submesh.
    """
    edges, face_edges = index_edges(cut.triangles, len(cut.vertices))[:2]
    _, a, b = matched_corners(cut.triangles[faces], face_edges[faces])
    n_comp, comp = _components(len(faces), a[:, 0] // 3, b[:, 0] // 3)
    vertex_island = np.empty(len(cut.vertices), dtype=np.int64)
    vertex_island[cut.triangles] = cut.face_island[:, None]
    n = cut.n_islands
    chi = (
        np.bincount(vertex_island, minlength=n)
        - np.bincount(vertex_island[edges[:, 0]], minlength=n)
        + np.bincount(cut.face_island, minlength=n)
    )
    return n_comp, comp, chi


def _lscm_equations(frames, faces, comp, n_comp: int, node, free, node_z):
    """``(A, c)``: one complex equation per positive-area face, rows grouped
    by component, over the free nodes' unknowns.

    ``node`` is the (len(faces), 3) node of each corner, ``free`` the
    free-node mask and ``node_z`` every node's z, read for the pins.
    """
    E, areas, good = frames
    live = good[faces] & (areas[faces] > 0)
    if (np.bincount(comp[live], minlength=n_comp) == 0).any():
        raise DegenerateIslandError("no positive-area triangles in component")
    eq = np.flatnonzero(live)[np.argsort(comp[live], kind="stable")]
    eq_faces = faces[eq]
    w = 1.0 / np.sqrt(areas[eq_faces])
    e00, e01, e11 = E[eq_faces, 0, 0], E[eq_faces, 0, 1], E[eq_faces, 1, 1]
    # per-corner weights (x3 - x2, x1 - x3, x2 - x1) + i (y3 - y2, ...) in the local frame
    W = w[:, None] * np.stack([e01 - e00 + 1j * e11, -e01 - 1j * e11, e00 + 0j], axis=1)
    corner = node[eq]
    fixed = ~free[corner]
    # pinned corners move to the right-hand side
    c = -np.where(fixed, W * node_z[corner], 0.0).sum(axis=1)
    row = np.broadcast_to(np.arange(len(eq))[:, None], corner.shape)[~fixed]
    # unknowns: the free nodes, so grouped by component like the nodes
    col = np.cumsum(free) - 1
    A = sp.csr_matrix((W[~fixed], (row, col[corner][~fixed])), shape=(len(c), free.sum()))
    return A, c


def _lscm_system(cut: CutMesh, faces: np.ndarray, frames):
    """The normal equations of ``_lscm``'s least-squares system and the node
    data its solution is read back through.

    ``frames`` is ``_local_frames`` of every cut triangle.  Returns ``(K,
    rhs, col_comp, free, node_z, node_vertex, comp_island, pins, chi)``:
    K = A^H A (CSC) and rhs = A^H c of the system A z = c over the free
    nodes, the component of each unknown, the free-node mask, every node's z
    (the pins' values set), each node's cut vertex, each component's island,
    the pinned vertices in component order, and every island's Euler
    characteristic.  The edge index and the assembly's temporaries are
    locals of ``_cut_topology`` and ``_lscm_equations``, so they are freed
    before K is formed, and A is freed before the factorization.
    """
    n_vertices = len(cut.vertices)
    n_comp, comp, chi = _cut_topology(cut, faces)
    comp_island = cut.face_island[faces[np.unique(comp, return_index=True)[1]]]

    # one node per (component, vertex), ordered by component, then vertex
    keys, node = np.unique(comp[:, None] * n_vertices + cut.triangles[faces], return_inverse=True)
    node = node.reshape(-1, 3)
    node_vertex = keys % n_vertices
    node_comp = keys // n_vertices

    pin_nodes = _pick_pins(node, node_comp, chi[comp_island] != 1)
    free = np.ones(len(keys), dtype=bool)
    free[pin_nodes[pin_nodes >= 0]] = False
    node_z = np.zeros(len(keys), dtype=np.complex128)
    node_z[pin_nodes[:, 1]] = 1.0
    node_z[pin_nodes[pin_nodes[:, 2] >= 0, 2]] = 0.5 + 1.0j

    A, c = _lscm_equations(frames, faces, comp, n_comp, node, free, node_z)
    AH = A.conj().T
    pins = node_vertex[pin_nodes[pin_nodes >= 0]]
    K = (AH @ A).tocsc()
    return K, AH @ c, node_comp[free], free, node_z, node_vertex, comp_island, pins, chi


def _lscm(cut: CutMesh, faces: np.ndarray, frames):
    """Least-squares conformal maps of the given faces, solved as one system.

    ``frames`` is ``_local_frames`` of every cut triangle.  The faces split
    into connected components under shared cut edges, numbered by their
    lowest face.  Each component has its own unknowns and pins (see
    ``_pick_pins``; the extra pin goes to components of non-disk islands,
    each logged once as a warning), so the normal equations are block
    diagonal and one factorization solves them all.

    LSCM is a complex least-squares problem in z = u + iv (Levy et al. 2002):
    each positive-area face contributes one complex equation
    sum_k W_k z_k = 0, with W = w * ((x3 - x2) + i (y3 - y2), ...) from its
    corners' local-frame coordinates and w = 1 / sqrt(area).  There is one
    complex unknown per free node; the pins are fixed at z = 0 and z = 1 (and
    0.5 + i for the extra pin), and their terms move to the right-hand side.

    Returns ``(uv, chi, comp_island, comp_residual, pins)``: (V, 2)
    coordinates for the cut vertices (a vertex in several components keeps
    the value of the last one), every island's Euler characteristic, the
    island and the relative residual of each component, and the pinned
    vertices in component order.
    """
    K, rhs, col_comp, free, node_z, node_vertex, comp_island, pins, chi = _lscm_system(
        cut, faces, frames
    )
    for island in np.unique(comp_island[chi[comp_island] != 1]):
        logger.warning("island %d is not a disk (chi=%d); adding an extra pin", island, chi[island])
    residual = np.zeros(len(comp_island))
    if len(col_comp):
        node_z[free], residual = _solve_blocks(K, rhs, col_comp, len(comp_island))

    uv = np.zeros((len(cut.vertices), 2))
    last = len(node_vertex) - 1 - np.unique(node_vertex[::-1], return_index=True)[1]
    uv[node_vertex[last], 0] = node_z[last].real
    uv[node_vertex[last], 1] = node_z[last].imag
    return uv, chi, comp_island, residual, pins


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
    gradients read them.
    """
    E, areas, good = _local_frames(cut.vertices[cut.triangles])
    excluded = areas < AREA_EXCLUDE_REL * max(areas.sum(), np.finfo(float).tiny)
    live = ~excluded
    empty = np.flatnonzero(np.bincount(cut.face_island[live], minlength=cut.n_islands) == 0)
    if len(empty):
        raise DegenerateIslandError(f"island {empty[0]} has only degenerate triangles")
    uv, chi, comp_island, comp_residual, _ = _lscm(cut, np.flatnonzero(live), (E, areas, good))
    residuals = np.zeros(cut.n_islands)
    np.maximum.at(residuals, comp_island, comp_residual)

    sigma = np.full((len(cut.triangles), 2), np.nan)
    if live.any():
        J = _jacobians(E[live], uv[cut.triangles[live]])
        sigma[live] = _singular_values(J)
    return UVAtlas(
        vertices=cut.vertices,
        triangles=cut.triangles,
        uv=uv,
        face_island=cut.face_island,
        island_count=cut.n_islands,
        sigma=sigma,
        area3d=areas,
        excluded=excluded,
        nondisk_islands=tuple(np.flatnonzero(chi != 1).tolist()),
        residuals=tuple(residuals.tolist()),
    )


# ---------------------------------------------------------------------------
# Exports


def layout_uv(atlas: UVAtlas) -> np.ndarray:
    """Translate islands onto a shelf so they do not overlap (no rescaling).

    Translation preserves every triangle's deformation gradient, so metrics
    recomputed from the laid-out UVs match the solver output.  Each island's
    bounding box comes from one pass over the faces sorted by island; each
    cut vertex lies in one island (a wedge never crosses a seam) and moves
    with it.
    """
    uv = atlas.uv.copy()
    if atlas.island_count == 0:
        return uv
    order = np.argsort(atlas.face_island, kind="stable")
    corners = atlas.uv[atlas.triangles[order].ravel()]  # island by island
    starts = 3 * np.searchsorted(atlas.face_island[order], np.arange(atlas.island_count))
    lo = np.minimum.reduceat(corners, starts)
    hi = np.maximum.reduceat(corners, starts)
    size = (hi - lo).tolist()
    max_dim = max(max(wh) for wh in size)
    gap = LAYOUT_GAP_REL * max(max_dim, 1e-12)
    row_width = 4 * (max_dim + gap) + gap
    offset = []
    x = y = 0.0
    row_h = 0.0
    for w, h in size:
        if x > 0 and x + w > row_width:
            x = 0.0
            y += row_h + gap
            row_h = 0.0
        offset.append((x, y))
        x += w + gap
        row_h = max(row_h, h)
    offset = np.array(offset)
    island_of = np.full(len(uv), -1)
    island_of[atlas.triangles] = atlas.face_island[:, None]
    verts = np.flatnonzero(island_of >= 0)
    uv[verts] = uv[verts] - lo[island_of[verts]] + offset[island_of[verts]]
    return uv


def atlas_to_obj(atlas: UVAtlas) -> str:
    """OBJ export with islands laid out side by side (``layout_uv``).

    The texture coordinates are vertex-indexed: one ``vt`` line per cut-mesh
    vertex, and faces ``f v/v``, each corner's ``vt`` number equal to its
    vertex number.  Coordinates are written with ``%.9g``; see
    ``mesh.obj_text`` for the line formats.
    """
    return obj_text(atlas.vertices, atlas.triangles, layout_uv(atlas), atlas.triangles)


def _ramp(t: np.ndarray) -> np.ndarray:
    """Light-to-bright-yellow color ramp; brighter means more distortion.

    Each value of ``t``, clipped to [0, 1], gives one row of integer-valued
    RGB channels (truncated toward zero), an (n, 3) float array.
    """
    lo = np.array([255.0, 252.0, 224.0])
    hi = np.array([255.0, 196.0, 0.0])
    return np.trunc(lo + (hi - lo) * np.clip(t, 0.0, 1.0)[:, None])


def atlas_to_svg(atlas: UVAtlas) -> str:
    """SVG atlas: islands side by side, per-triangle fill from the distortion term.

    The color ramp is clipped at the 95th percentile of the per-triangle
    terms, so a few extreme triangles do not wash out the rest; excluded
    triangles are grey, ``rgb(200,200,200)``.  Each triangle is one line,
    ``<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="rgb(%d,%d,%d)" .../>``,
    in triangle order, with the v axis flipped so that v points up the page.
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
    width = SVG_WIDTH
    scale = width / span[0]
    height = span[1] * scale
    pad = 0.01 * width

    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width + 2 * pad:.1f}" '
        f'height="{height + 2 * pad:.1f}" viewBox="0 0 {width + 2 * pad:.1f} {height + 2 * pad:.1f}">\n'
        '<rect width="100%" height="100%" fill="white"/>\n'
    )
    x = (uv[:, 0] - lo[0]) * scale + pad
    y = height - (uv[:, 1] - lo[1]) * scale + pad  # flip v axis
    points = np.stack([x, y], axis=1)[atlas.triangles].reshape(-1, 6)
    fill = np.empty((len(points), 3))
    fill[atlas.excluded] = 200.0  # grey
    fill[live] = _ramp(terms[live] / p95)
    polygons = format_records(
        '<polygon points="%.2f,%.2f %.2f,%.2f %.2f,%.2f" fill="rgb(%d,%d,%d)" '
        'stroke="rgb(120,120,120)" stroke-width="0.3"/>\n',
        np.concatenate([points, fill], axis=1),
    )
    return header + polygons + "</svg>\n"
