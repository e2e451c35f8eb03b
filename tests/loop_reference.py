"""Per-element loop implementations of the geometry core, kept as the reference.

``seamkit`` parses OBJ text and computes edge incidence, UV seams, cuts,
islands, the LSCM system and seam projection with array operations and
``scipy.sparse.csgraph``.  These are the straightforward Python-loop
versions of the same algorithms (a record-by-record OBJ parser, a scan of
every vertex per snapped point, breadth-first islands, a union-find over
corners, per-edge corner scans, per-face LSCM assembly with one solve per
connected component, a heapq Dijkstra over per-vertex adjacency tuples).
``test_equivalence.py`` and ``test_obj.py`` require the array code to
reproduce their discrete outputs exactly and their UVs to a fixed tolerance.

The last section keeps the composed ``autodiff`` graphs that the fused ops
replaced: the softmax-family and reduction primitives, a matmul whose weight
gradient is a batched product summed over the batch, and layer norm,
attention and log-softmax-pick built from them (``COMPOSED_OPS``).
``test_autodiff.py`` requires the fused ops to match their values bit for
bit and their gradients to 1e-12.

``encode_branch`` is the point encoder branch that ``model._encode_branch``
factored through a 4-column basis: it layer-norms every point's embedding
and projects it to a key and a value.  ``test_equivalence.py`` requires the
factored encoder's values, and the gradients of every encoder parameter and
of the condition positions, to match it to 1e-12 of their largest entry.

``dpo_objective`` and ``batch_nll_t`` are the training objectives as one
graph over every condition group, which ``dpo_train`` and ``nll_train_step``
replaced by one backward pass per group with accumulated gradients.
``test_dpo.py`` and ``test_model.py`` require the accumulated gradients to
match this graph's to 1e-10 of their largest entry.

``fps_anchors`` is the farthest-point selection that recomputed every
distance with ``np.linalg.norm`` over (N, 3) rows and a new minimum array
per anchor; ``sampling.fps_anchors`` updates one buffer in place over
(3, N) coordinate rows.  ``test_sampling.py`` requires the same indices.

``sample_next`` is the one-row top-p draw that ``model._sample_rows``
replaced: a stable argsort of the probabilities per candidate per step.
``test_model.py`` requires ``_sample_rows`` to draw the same tokens.

``canonicalize`` and ``decode`` are the per-segment and per-token loop
versions of the tokenizer's canonical order and sequence-layout check.
``test_tokenizer.py`` requires the array versions to return byte-identical
segments, and the same ``MalformedSequenceError`` message and position.

The last section keeps the per-element ``shapes`` generators and the
per-line text writers (OBJ, atlas OBJ and SVG, seam, seam-edge, token and
XYZ text) that array-built lattices and ``mesh.format_records`` replaced.
``test_writers.py`` requires the array versions to give the same text bytes
and the same vertex, triangle and UV arrays, bit for bit.  ``layout_uv``,
the per-island face scan of the island shelf layout, is kept there too;
``test_unwrap.py`` requires the array version to lay out identical UVs.

``csr_graph`` is the hand-built CSR edge graph (lexsort and bincount) that
``mesh.build_edge_graph`` replaced by scipy's COO constructor;
``test_equivalence.py`` requires the same ``indptr``, ``indices`` and
``data`` arrays, dtypes and explicit zeros included.  The shortest-path
tests build their arbitrary graphs with it.
"""

import heapq
import math
import os
from collections import deque
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from seamkit import autodiff as ad
from seamkit.autodiff import Tensor, _unbroadcast, as_tensor
from seamkit.mesh import (
    UV_SEAM_TOL,
    IndexedMesh,
    MeshError,
    ObjIndexError,
    ObjParseError,
    SeamEdgeSet,
    content_lines,
)
from seamkit.unwrap import (
    AREA_EXCLUDE_REL,
    SOLVE_RESIDUAL_REL,
    CutContractError,
    CutMesh,
    DegenerateIslandError,
    SVG_WIDTH,
    IslandParam,
    SolveError,
    UnwrapError,
    LAYOUT_GAP_REL,
    UVAtlas,
    _local_frames,
)
from seamkit.dpo import DPOError
from seamkit.model import (
    _attention,
    _ff,
    _group_logprobs_t,
    _layer_norm,
    _nll_batch,
    _project_kv,
)
from seamkit.projection import ProjectionError, UnreachableError
from seamkit.shapes import _CUBE_FACES
from seamkit.tokenizer import (
    BOS,
    EOS,
    N_BINS,
    PAD,
    MalformedSequenceError,
    SeamSet,
    TokenSequence,
    _yzx_keys,
    dequantize,
)


def load_obj(source) -> IndexedMesh:
    """Parse an ASCII OBJ stream record by record (``seamkit.mesh.load_obj`` before
    it parsed with array operations).  A degenerate face raises ``ObjParseError``
    with line 0.  ``source`` is text, bytes (decoded as UTF-8, bad bytes
    replaced) or an ``os.PathLike`` path to such bytes."""
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh:
            source = fh.read()
    text = source.decode("utf-8", errors="replace") if isinstance(source, bytes) else source
    vertices: list[tuple[float, float, float]] = []
    texcoords: list[tuple[float, float]] = []
    # face corners as (vertex_index, vt_index_or_None) with 1-based indices
    faces: list[tuple[list[tuple[int, int | None]], int]] = []

    for line_no, line in content_lines(text):
        parts = line.split()
        tag = parts[0]
        if tag == "v":
            if len(parts) < 4:
                raise ObjParseError("vertex record needs 3 coordinates", line_no)
            try:
                xyz = (float(parts[1]), float(parts[2]), float(parts[3]))
            except ValueError as exc:
                raise ObjParseError(f"bad vertex coordinate: {exc}", line_no) from exc
            if not all(map(math.isfinite, xyz)):
                raise ObjParseError("non-finite vertex coordinate", line_no)
            vertices.append(xyz)
        elif tag == "vt":
            if len(parts) < 3:
                raise ObjParseError("texture record needs 2 coordinates", line_no)
            try:
                st = (float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise ObjParseError(f"bad texture coordinate: {exc}", line_no) from exc
            if not all(map(math.isfinite, st)):
                raise ObjParseError("non-finite texture coordinate", line_no)
            texcoords.append(st)
        elif tag == "f":
            if len(parts) < 4:
                raise ObjParseError("face record needs at least 3 corners", line_no)
            corners: list[tuple[int, int | None]] = []
            for ref in parts[1:]:
                fields = ref.split("/")
                if len(fields) > 3 or fields[0] == "":
                    raise ObjParseError(f"bad face corner {ref!r}", line_no)
                try:
                    vi = int(fields[0])
                    ti = None
                    if len(fields) >= 2 and fields[1] != "":
                        ti = int(fields[1])
                except ValueError as exc:
                    raise ObjParseError(f"bad face corner {ref!r}", line_no) from exc
                corners.append((vi, ti))
            faces.append((corners, line_no))
        # vn, o, g, s, usemtl, mtllib ... are ignored

    all_have_uv = len(faces) > 0 and all(
        ti is not None for corners, _ in faces for _, ti in corners
    )
    tri_rows: list[tuple[int, int, int]] = []
    uv_rows: list[tuple[float, float]] = []
    for corners, line_no in faces:
        resolved: list[tuple[int, int | None]] = []
        for vi, ti in corners:
            if not (1 <= vi <= len(vertices)):
                raise ObjIndexError(f"vertex index {vi} out of range", line_no)
            if ti is not None and not (1 <= ti <= len(texcoords)):
                raise ObjIndexError(f"texture index {ti} out of range", line_no)
            resolved.append((vi - 1, (ti - 1) if ti is not None else None))
        for k in range(1, len(resolved) - 1):
            fan = (resolved[0], resolved[k], resolved[k + 1])
            tri_rows.append(tuple(vi for vi, _ in fan))
            if all_have_uv:
                uv_rows.extend(texcoords[ti] for _, ti in fan)

    uv = np.asarray(uv_rows, dtype=np.float64).reshape(-1, 2) if all_have_uv else None
    try:
        return IndexedMesh(
            vertices=np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
            triangles=np.asarray(tri_rows, dtype=np.int64).reshape(-1, 3),
            uv_corners=uv,
        )
    except MeshError as exc:
        raise ObjParseError(str(exc), 0) from exc


def edge_faces(mesh):
    """(edges, faces_per_edge): sorted vertex pairs and the incident faces of each."""
    pairs = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    faces_per_edge = [[] for _ in range(len(edges))]
    for corner, e in enumerate(np.asarray(inverse).ravel()):
        faces_per_edge[e].append(corner // 3)
    return edges, faces_per_edge


def extract_uv_seams(mesh, tol=UV_SEAM_TOL):
    uv = mesh.uv_corners
    tri = mesh.triangles
    edges, faces_per_edge = edge_faces(mesh)
    seams = set()
    for e, faces in enumerate(faces_per_edge):
        if len(faces) < 2:
            continue
        a, b = edges[e]
        mismatch = False
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                fa, fb = faces[i], faces[j]
                for v in (a, b):
                    ka = int(np.where(tri[fa] == v)[0][0])
                    kb = int(np.where(tri[fb] == v)[0][0])
                    if np.max(np.abs(uv[3 * fa + ka] - uv[3 * fb + kb])) > tol:
                        mismatch = True
            if mismatch:
                break
        if mismatch:
            seams.add((int(a), int(b)))
    return SeamEdgeSet(list(seams))


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def cut_mesh(mesh, seams):
    edges, faces_per_edge = edge_faces(mesh)
    edge_ids = {(int(a), int(b)): i for i, (a, b) in enumerate(edges)}
    seam_ids = set()
    for a, b in seams.pairs.tolist():
        eid = edge_ids.get((a, b) if a < b else (b, a))
        if eid is None:
            raise CutContractError(f"seam edge ({a}, {b}) is not a mesh edge")
        seam_ids.add(eid)

    n_faces = mesh.n_triangles
    tri = mesh.triangles

    face_adj = [[] for _ in range(n_faces)]
    for eid, faces in enumerate(faces_per_edge):
        if eid in seam_ids or len(faces) < 2:
            continue
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                face_adj[faces[i]].append(faces[j])
                face_adj[faces[j]].append(faces[i])

    face_island = np.full(n_faces, -1, dtype=np.int64)
    n_islands = 0
    for start in range(n_faces):
        if face_island[start] != -1:
            continue
        queue = deque([start])
        face_island[start] = n_islands
        while queue:
            f = queue.popleft()
            for g in face_adj[f]:
                if face_island[g] == -1:
                    face_island[g] = n_islands
                    queue.append(g)
        n_islands += 1

    slot_of = [{int(tri[f, k]): k for k in range(3)} for f in range(n_faces)]
    uf = UnionFind(3 * n_faces)
    for eid, faces in enumerate(faces_per_edge):
        if eid in seam_ids or len(faces) < 2:
            continue
        a, b = (int(x) for x in edges[eid])
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                fa, fb = faces[i], faces[j]
                for v in (a, b):
                    uf.union(3 * fa + slot_of[fa][v], 3 * fb + slot_of[fb][v])

    wedge_id = {}
    new_tri = np.empty_like(tri)
    new_pos = []
    new_orig = []
    for f in range(n_faces):
        for k in range(3):
            root = uf.find(3 * f + k)
            if root not in wedge_id:
                wedge_id[root] = len(new_pos)
                new_pos.append(mesh.vertices[tri[f, k]])
                new_orig.append(int(tri[f, k]))
            new_tri[f, k] = wedge_id[root]

    return CutMesh(
        vertices=np.asarray(new_pos, dtype=np.float64).reshape(-1, 3),
        triangles=new_tri,
        orig_vertex=np.asarray(new_orig, dtype=np.int64),
        face_island=face_island,
        n_islands=n_islands,
    )


def _bfs_farthest(adj, starts):
    dist = {s: 0 for s in starts}
    queue = deque(starts)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    best = max(dist.values())
    return min(v for v, d in dist.items() if d == best)


def parameterize_island(cut, island, excluded=None):
    faces = np.flatnonzero(cut.face_island == island)
    if len(faces) == 0:
        raise UnwrapError(f"island {island} has no faces")
    tris = cut.triangles[faces]
    verts = np.unique(tris)

    edge_set = set()
    for t in tris:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            edge_set.add((min(t[i], t[j]), max(t[i], t[j])))
    chi = len(verts) - len(edge_set) + len(tris)
    nondisk = chi != 1

    active = faces[~excluded[faces]] if excluded is not None else faces
    if len(active) == 0:
        raise DegenerateIslandError(f"island {island} has only degenerate triangles")

    uv_full = np.zeros((len(cut.vertices), 2))
    residual = 0.0
    pins_used = []
    for comp in _active_components(cut, active):
        res, pins = _solve_component(cut, comp, nondisk, uv_full)
        residual = max(residual, res)
        pins_used.extend(pins)

    return IslandParam(
        vertex_ids=verts,
        uv=uv_full[verts],
        pins=tuple(pins_used),
        nondisk=nondisk,
        residual=residual,
    )


def _active_components(cut, active_faces):
    edge_faces_ = {}
    for f in active_faces:
        t = cut.triangles[f]
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = (min(t[i], t[j]), max(t[i], t[j]))
            edge_faces_.setdefault(key, []).append(int(f))
    adj = {int(f): [] for f in active_faces}
    for fs in edge_faces_.values():
        for i in range(len(fs)):
            for j in range(i + 1, len(fs)):
                adj[fs[i]].append(fs[j])
                adj[fs[j]].append(fs[i])
    seen = set()
    for f in sorted(adj):
        if f in seen:
            continue
        comp = [f]
        seen.add(f)
        queue = deque([f])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
                    queue.append(v)
        yield np.asarray(sorted(comp))


def _solve_component(cut, faces, nondisk, uv_out):
    tris = cut.triangles[faces]
    verts = np.unique(tris)
    index = {int(v): i for i, v in enumerate(verts)}
    nv = len(verts)

    adj = {int(v): set() for v in verts}
    for t in tris:
        for i, j in ((0, 1), (1, 2), (2, 0)):
            adj[int(t[i])].add(int(t[j]))
            adj[int(t[j])].add(int(t[i]))
    p0 = _bfs_farthest(adj, [int(verts.min())])
    p1 = _bfs_farthest(adj, [p0])
    pins = [(p0, (0.0, 0.0)), (p1, (1.0, 0.0))]
    if nondisk:
        extra = _bfs_farthest(adj, [p0, p1])
        if extra not in (p0, p1):
            pins.append((extra, (0.5, 1.0)))

    E, areas, good = _local_frames(cut.vertices[tris])
    rows_i, cols, vals = [], [], []
    nrows = 0
    pin_index = {index[v]: np.asarray(xy) for v, xy in pins}
    free = [i for i in range(nv) if i not in pin_index]
    free_col = {i: c for c, i in enumerate(free)}
    nf = len(free)
    b_rows = []

    for f in range(len(faces)):
        if not good[f] or areas[f] <= 0:
            continue
        w = 1.0 / np.sqrt(areas[f])
        x1 = np.array([0.0, 0.0])
        x2 = np.array([E[f, 0, 0], 0.0])
        x3 = np.array([E[f, 0, 1], E[f, 1, 1]])
        W = np.array([x3 - x2, x1 - x3, x2 - x1])
        rhs = np.zeros(2)
        for k in range(3):
            i = index[int(tris[f, k])]
            wre, wim = w * W[k]
            if i in pin_index:
                u, v = pin_index[i]
                rhs[0] -= wre * u - wim * v
                rhs[1] -= wim * u + wre * v
            else:
                c = free_col[i]
                rows_i += [2 * nrows, 2 * nrows, 2 * nrows + 1, 2 * nrows + 1]
                cols += [c, nf + c, c, nf + c]
                vals += [wre, -wim, wim, wre]
        b_rows.append(rhs)
        nrows += 1

    if nrows == 0:
        raise DegenerateIslandError("no positive-area triangles in component")

    uv = np.zeros((nv, 2))
    for i, xy in pin_index.items():
        uv[i] = xy

    rel_res = 0.0
    if nf > 0:
        A = sp.coo_matrix((vals, (rows_i, cols)), shape=(2 * nrows, 2 * nf)).tocsr()
        b = np.concatenate(b_rows)
        K = (A.T @ A).tocsc()
        rhs = A.T @ b
        with np.errstate(all="ignore"):
            x = spla.spsolve(K, rhs)
        if not np.all(np.isfinite(x)):
            raise SolveError("conformal system is singular")
        res = np.linalg.norm(K @ x - rhs)
        scale = max(np.linalg.norm(rhs), 1e-30)
        if res > SOLVE_RESIDUAL_REL * scale:
            x = x + spla.spsolve(K, rhs - K @ x)
            res = np.linalg.norm(K @ x - rhs)
            if res > SOLVE_RESIDUAL_REL * scale:
                raise SolveError(f"normal-system residual {res / scale:.2e}")
        rel_res = res / scale
        for i, c in free_col.items():
            uv[i, 0] = x[c]
            uv[i, 1] = x[nf + c]

    for v, i in index.items():
        uv_out[v] = uv[i]
    return rel_res, [v for v, _ in pins]


def unwrap_uv(cut):
    """(uv, excluded, nondisk_islands, residuals) as the per-island loop computes them."""
    p = cut.vertices[cut.triangles]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    excluded = areas < AREA_EXCLUDE_REL * max(areas.sum(), np.finfo(float).tiny)
    uv = np.zeros((len(cut.vertices), 2))
    nondisk = []
    residuals = []
    for island in range(cut.n_islands):
        param = parameterize_island(cut, island, excluded=excluded)
        uv[param.vertex_ids] = param.uv
        if param.nondisk:
            nondisk.append(island)
        residuals.append(param.residual)
    return uv, excluded, tuple(nondisk), tuple(residuals)


@dataclass(frozen=True)
class AdjacencyGraph:
    """Vertex-edge graph as per-vertex tuples: adjacency[v] = ((neighbor, length), ...)."""

    n: int
    adjacency: tuple


def adjacency_graph(n, edges, weights):
    """AdjacencyGraph on n nodes, one undirected arc per (a, b) row of edges."""
    adj = [[] for _ in range(n)]
    for (a, b), w in zip(edges, weights):
        adj[int(a)].append((int(b), float(w)))
        adj[int(b)].append((int(a), float(w)))
    return AdjacencyGraph(n=n, adjacency=tuple(tuple(sorted(nbrs)) for nbrs in adj))


def build_edge_graph(mesh):
    return adjacency_graph(mesh.n_vertices, mesh.edges, mesh.edge_lengths)


def csr_graph(n, edges, weights):
    """Symmetric (n, n) CSR matrix with one arc per row of ``edges`` (E, 2),
    built by hand: a lexsort of the arcs by (row, column) and a bincount of
    the rows.

    The vertex pairs must be distinct undirected pairs without loops;
    ``weights[e]`` is the length of edge ``e``.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    weights = np.asarray(weights, dtype=np.float64)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    data = np.concatenate([weights, weights])[order]
    return sp.csr_matrix((data, cols[order], indptr), shape=(n, n))


def shortest_path(graph, a, b):
    """Heap Dijkstra: equal distances pop by vertex index, and an equal-length
    relaxation is accepted only when it lowers the predecessor index."""
    n = graph.n
    if not (0 <= a < n and 0 <= b < n):
        raise ProjectionError(f"vertex out of range: {a}, {b}")
    if a == b:
        return [a]
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    dist[a] = 0.0
    heap = [(0.0, a)]
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == b:
            break
        for v, w in graph.adjacency[u]:
            if done[v]:
                continue
            nd = d + w
            if nd < dist[v] or (nd == dist[v] and u < pred[v]):
                dist[v] = nd
                pred[v] = u
                heapq.heappush(heap, (nd, v))
    if not np.isfinite(dist[b]):
        raise UnreachableError(f"no path from {a} to {b}")
    path = [b]
    while path[-1] != a:
        path.append(int(pred[path[-1]]))
    path.reverse()
    return path


def nearest_vertex(mesh: IndexedMesh, p) -> int:
    """Closest mesh vertex to one point by a scan of every vertex; ties to the lowest index."""
    if mesh.n_vertices == 0:
        raise ProjectionError("empty mesh")
    d2 = ((mesh.vertices - np.asarray(p, dtype=np.float64)) ** 2).sum(axis=1)
    return int(np.argmin(d2))


def project_seams(mesh, seams):
    """{(min, max) edge: segment indices} of the seam segments' shortest
    paths, per segment in order; endpoints snap only to vertices with at
    least one edge.  Built as a plain dict, not through ``SeamEdgeSet``, so
    that the class under test is compared against an independent result."""
    graph = build_edge_graph(mesh)
    linked = np.flatnonzero([len(nbrs) > 0 for nbrs in graph.adjacency])
    snap = IndexedMesh(vertices=mesh.vertices[linked], triangles=np.zeros((0, 3), dtype=np.int64))
    edges = {}
    for i, seg in enumerate(seams.segments):
        va = int(linked[nearest_vertex(snap, seg[0])])
        vb = int(linked[nearest_vertex(snap, seg[1])])
        if va == vb:
            continue
        try:
            path = shortest_path(graph, va, vb)
        except UnreachableError:
            continue
        for u, v in zip(path, path[1:]):
            edges.setdefault((min(u, v), max(u, v)), []).append(i)
    return {k: tuple(v) for k, v in edges.items()}


# ---------------------------------------------------------------------------
# Composed autodiff ops


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes; leading (batch) axes broadcast."""
    a, b = as_tensor(a), as_tensor(b)

    def swap(x):
        return np.swapaxes(x, -1, -2)

    x, w = a.value, b.value
    if x.ndim > 2 and w.ndim == 2:
        # one (rows, k) @ (k, m) product instead of one per batch entry
        out = (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[-1:])
    else:
        out = x @ w
    return Tensor(
        out,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(g @ swap(b.value), a.value.shape),
            lambda g: _unbroadcast(swap(a.value) @ g, b.value.shape),
        ),
    )


def take_per_row(a, col_indices) -> Tensor:
    """out[i] = a[i, col_indices[i]] for a 2D tensor."""
    a = as_tensor(a)
    idx = np.asarray(col_indices, dtype=np.int64)
    n = a.value.shape[0]
    rows = np.arange(n)
    shape = a.value.shape

    def vjp(g):
        out = np.zeros(shape)
        out[rows, idx] = g
        return out

    return Tensor(a.value[rows, idx], parents=(a,), vjps=(vjp,))


def mean_axis(a, axis: int, keepdims: bool = True) -> Tensor:
    a = as_tensor(a)
    n = a.value.shape[axis]
    shape = a.value.shape

    def vjp(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return np.broadcast_to(g / n, shape).copy()

    return Tensor(
        a.value.mean(axis=axis, keepdims=keepdims), parents=(a,), vjps=(vjp,)
    )


def power(a, k: float) -> Tensor:
    a = as_tensor(a)
    return Tensor(
        a.value**k, parents=(a,), vjps=(lambda g: g * k * a.value ** (k - 1),)
    )


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return Tensor(s, parents=(a,), vjps=(vjp,))


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    z = a.value - a.value.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=axis, keepdims=True))
    out = z - lse

    def vjp(g):
        return g - np.exp(out) * g.sum(axis=axis, keepdims=True)

    return Tensor(out, parents=(a,), vjps=(vjp,))


def layer_norm(x, g, b, eps: float) -> Tensor:
    mu = mean_axis(x, axis=-1, keepdims=True)
    centered = ad.sub(x, mu)
    var = mean_axis(power(centered, 2.0), axis=-1, keepdims=True)
    inv = power(ad.add(var, Tensor(eps)), -0.5)
    return ad.add(ad.mul(ad.mul(centered, inv), g), b)


def attention(q, k, v, mask=None) -> Tensor:
    q, k = as_tensor(q), as_tensor(k)
    axes = list(range(k.value.ndim))
    axes[-1], axes[-2] = axes[-2], axes[-1]
    scores = ad.scale(matmul(q, ad.transpose(k, tuple(axes))), 1.0 / np.sqrt(q.value.shape[-1]))
    if mask is not None:
        scores = ad.add(scores, Tensor(mask))
    return matmul(softmax(scores, axis=-1), v)


def log_softmax_pick(a, cols) -> Tensor:
    return take_per_row(log_softmax(a, axis=-1), cols)


# name -> composed replacement of the ``autodiff`` op of that name
COMPOSED_OPS = {
    "matmul": matmul,
    "layer_norm": layer_norm,
    "attention": attention,
    "log_softmax_pick": log_softmax_pick,
}


# ---------------------------------------------------------------------------
# Composed point encoder


def encode_branch(branch: str, basis: np.ndarray, anchors: np.ndarray, p, config):
    """The encoder branch before its factoring: every point is embedded,
    layer-normed and projected to a key and a value.  ``basis`` is
    ``_prepare_condition``'s [x y z 1] rows; its first three columns are the
    canonical cloud."""
    pts = basis[:, :3]
    feats = ad.add(ad.matmul(pts, p[f"enc.{branch}.point.w"]), p[f"enc.{branch}.point.b"])
    queries = ad.gather_rows(feats, anchors)
    q_norm = _layer_norm(queries, p[f"enc.{branch}.attn.lnq.g"], p[f"enc.{branch}.attn.lnq.b"])
    kv_norm = _layer_norm(feats, p[f"enc.{branch}.attn.lnkv.g"], p[f"enc.{branch}.attn.lnkv.b"])
    k, v = _project_kv(kv_norm, p, f"enc.{branch}.attn", config.n_heads)
    att = _attention(q_norm, k, v, p, f"enc.{branch}.attn", config.n_heads, mask=None)
    x = ad.add(queries, att)
    ff = _ff(_layer_norm(x, p[f"enc.{branch}.ff.ln.g"], p[f"enc.{branch}.ff.ln.b"]), p, f"enc.{branch}.ff")
    return ad.add(x, ff)


def encode_condition_t(prepared: tuple, p, config):
    """``model._encode_condition_t`` over the composed branches."""
    return ad.concat_rows([encode_branch(*branch, p, config) for branch in prepared])


# ---------------------------------------------------------------------------
# One-graph training objectives


def dpo_objective(logprobs, ref_logprobs, beta: float):
    """Mean over pairs of -log sigma(beta * margin), where margin is
    (log pi - log ref) of the chosen minus that of the rejected.

    ``logprobs`` and ``ref_logprobs`` hold one (chosen, rejected) per pair;
    the terms are summed in pair order.  Returns (loss, per-pair (chosen,
    rejected) log-ratios, margin floats); loss and log-ratios are Tensors
    when ``logprobs`` are.
    """
    ratios, margins, terms = [], [], []
    for k, ((lp_c, lp_r), (ref_c, ref_r)) in enumerate(zip(logprobs, ref_logprobs)):
        if not (np.isfinite(ad._value(lp_c)) and np.isfinite(ad._value(lp_r))):
            raise DPOError(f"non-finite log-probability for pair {k}")
        chosen, rejected = ad.sub(lp_c, ref_c), ad.sub(lp_r, ref_r)
        margin = ad.sub(chosen, rejected)
        ratios.append((chosen, rejected))
        margins.append(float(ad._value(margin)))
        terms.append(ad.scale(ad.log_sigmoid(ad.scale(margin, beta)), -1.0))
    return ad.scale(reduce(ad.add, terms), 1.0 / len(terms)), ratios, margins


def batch_nll_t(batch, p, config):
    """Mean next-token NLL over all predicted positions of the (clouds,
    tokens) examples or their ``_nll_batch``, as one expression over every
    condition group."""
    grouped = _nll_batch(batch, config)
    lps = _group_logprobs_t(grouped, p, config)
    total = reduce(ad.add, (lps[g][k] for g, k in grouped.index))
    n_predicted = sum(len(grouped.groups[g][1][k]) - 1 for g, k in grouped.index)
    return ad.scale(total, -1.0 / n_predicted)


# ---------------------------------------------------------------------------
# Farthest-point anchors


def fps_anchors(points: np.ndarray, k: int) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# Per-row top-p sampling


def sample_next(logits: np.ndarray, temperature: float, top_p: float, rng) -> int:
    if temperature < 1e-12:
        return int(np.argmax(logits))
    z = (logits - logits.max()) / temperature
    probs = np.exp(z)
    probs /= probs.sum()
    order = np.argsort(-probs, kind="stable")
    csum = np.cumsum(probs[order])
    cut = int(np.searchsorted(csum, top_p, side="left"))
    keep = order[: cut + 1]
    kept = probs[keep]
    kept /= kept.sum()
    u = rng.random()
    pick = int(np.searchsorted(np.cumsum(kept), u, side="right"))
    return int(keep[min(pick, len(keep) - 1)])


# ---------------------------------------------------------------------------
# Seam-set canonical order and token-sequence decoding


def canonicalize(seams: SeamSet) -> SeamSet:
    """Return the canonical form of a seam set.

    Within each segment, endpoints are ordered ascending by their quantized
    yzx key (float yzx breaks exact key ties); segments are sorted by
    (first key, second key); segments whose endpoints share a bin triple are
    dropped; duplicates on the quantized lattice are removed.  The result is
    invariant under any permutation of input segments and endpoint order.
    """
    if len(seams) == 0:
        return SeamSet.empty()
    seg = seams.segments.copy()
    keys = _yzx_keys(seg)

    rows = []
    for i in range(len(seg)):
        k0, k1 = tuple(keys[i, 0]), tuple(keys[i, 1])
        f0 = tuple(seg[i, 0, [1, 2, 0]])
        f1 = tuple(seg[i, 1, [1, 2, 0]])
        if (k1, f1) < (k0, f0):
            k0, k1, f0, f1 = k1, k0, f1, f0
            seg[i] = seg[i, ::-1]
        if k0 == k1:
            continue  # zero-length on the quantized lattice
        rows.append((k0, k1, f0, f1, i))
    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))

    kept = []
    last_key = None
    for k0, k1, _f0, _f1, i in rows:
        if (k0, k1) == last_key:
            continue  # duplicate segment on the lattice
        last_key = (k0, k1)
        kept.append(seg[i])
    if not kept:
        return SeamSet.empty()
    return SeamSet(segments=np.stack(kept))


def decode(tokens: TokenSequence) -> SeamSet:
    """Invert encode: canonical seam set with endpoints at bin centers.

    Raises MalformedSequenceError (with the offending position) for a missing
    BOS, an EOS cutting a segment short, coordinate tokens >= 1024, a missing
    EOS, or non-PAD trailing tokens.
    """
    t = tokens.tokens
    if len(t) == 0 or t[0] != BOS:
        raise MalformedSequenceError("expected BOS", 0)
    body = []
    end = None
    for pos in range(1, len(t)):
        tok = int(t[pos])
        if tok == EOS:
            if len(body) % 6 != 0:
                raise MalformedSequenceError(
                    f"EOS after {len(body)} coordinate tokens (not a multiple of 6)",
                    pos,
                )
            end = pos
            break
        if tok >= N_BINS:
            raise MalformedSequenceError(f"unexpected special token {tok}", pos)
        body.append(tok)
    if end is None:
        raise MalformedSequenceError("missing EOS", len(t))
    for pos in range(end + 1, len(t)):
        if t[pos] != PAD:
            raise MalformedSequenceError("non-PAD token after EOS", pos)

    if not body:
        return SeamSet.empty()
    yzx = np.asarray(body, dtype=np.int64).reshape(-1, 2, 3)
    xyz_bins = yzx[:, :, [2, 0, 1]]  # back to (x, y, z) storage order
    return canonicalize(SeamSet(segments=dequantize(xyz_bins)))


# ---------------------------------------------------------------------------
# Synthetic meshes and text writers


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


def save_obj(mesh: IndexedMesh) -> str:
    """Serialize to OBJ text with 9 significant digits per coordinate."""
    out = []
    for x, y, z in mesh.vertices:
        out.append(f"v {x:.9g} {y:.9g} {z:.9g}\n")
    if mesh.has_uvs:
        for u, v in mesh.uv_corners:
            out.append(f"vt {u:.9g} {v:.9g}\n")
        for f, (a, b, c) in enumerate(mesh.triangles):
            base = 3 * f
            out.append(
                f"f {a + 1}/{base + 1} {b + 1}/{base + 2} {c + 1}/{base + 3}\n"
            )
    else:
        for a, b, c in mesh.triangles:
            out.append(f"f {a + 1} {b + 1} {c + 1}\n")
    return "".join(out)


def seam_edge_text(edges: SeamEdgeSet) -> str:
    return "".join(f"{a} {b}\n" for a, b in sorted(map(tuple, edges.pairs.tolist())))


def layout_uv(atlas: UVAtlas) -> np.ndarray:
    """Translate islands onto a shelf so they do not overlap (no rescaling)."""
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
    gap = LAYOUT_GAP_REL * max(max_dim, 1e-12)
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


def atlas_to_svg(atlas: UVAtlas) -> str:
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
    width = SVG_WIDTH
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


def write_seam_text(seams: SeamSet) -> str:
    """One segment per line: x1 y1 z1 x2 y2 z2 (canonical-cube coordinates)."""
    lines = []
    for seg in seams.segments:
        vals = " ".join(f"{v:.9g}" for v in seg.reshape(-1))
        lines.append(vals + "\n")
    return "".join(lines)


def write_token_text(tokens: TokenSequence) -> str:
    """One integer per line."""
    return "".join(f"{int(t)}\n" for t in tokens.tokens)


def write_xyz(points: np.ndarray) -> str:
    """XYZ text export: one point per line."""
    return "".join(f"{x:.9g} {y:.9g} {z:.9g}\n" for x, y, z in np.asarray(points))
