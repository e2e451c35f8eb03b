"""Per-element loop implementations of the geometry core, kept as the reference.

``seamkit`` parses OBJ text and computes edge incidence, UV seams, cuts,
islands, the LSCM system and seam projection with array operations and
``scipy.sparse.csgraph``.  These are the straightforward Python-loop
versions of the same algorithms (a record-by-record OBJ parser,
breadth-first islands, a union-find over corners, per-edge corner scans,
per-face LSCM assembly with one solve per connected component, a heapq
Dijkstra over per-vertex adjacency tuples).  ``test_equivalence.py`` and
``test_obj.py`` require the array code to reproduce their discrete outputs
exactly and their UVs to a fixed tolerance.
"""

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from seamkit.mesh import (
    UV_SEAM_TOL,
    IndexedMesh,
    MeshError,
    ObjIndexError,
    ObjParseError,
    SeamEdgeSet,
    _read_text,
    content_lines,
)
from seamkit.unwrap import (
    AREA_EXCLUDE_REL,
    SOLVE_RESIDUAL_REL,
    CutContractError,
    CutMesh,
    DegenerateIslandError,
    IslandParam,
    SolveError,
    UnwrapError,
    _local_frames,
)
from seamkit.projection import ProjectionError, UnreachableError, nearest_vertex


def load_obj(source) -> IndexedMesh:
    """Parse an ASCII OBJ stream record by record (``seamkit.mesh.load_obj`` before
    it parsed with array operations).  A degenerate face raises ``ObjParseError``
    with line 0."""
    text = _read_text(source)
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
    return SeamEdgeSet(edges=frozenset(seams))


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
    for a, b in seams.edges:
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


def project_seams(mesh, seams):
    """(edges, provenance) of the seam segments' shortest paths, per segment in order."""
    graph = build_edge_graph(mesh)
    edges = {}
    for i, seg in enumerate(seams.segments):
        va = nearest_vertex(mesh, seg[0])
        vb = nearest_vertex(mesh, seg[1])
        if va == vb:
            continue
        try:
            path = shortest_path(graph, va, vb)
        except UnreachableError:
            continue
        for u, v in zip(path, path[1:]):
            edges.setdefault((min(u, v), max(u, v)), []).append(i)
    return SeamEdgeSet(edges=frozenset(edges), provenance={k: tuple(v) for k, v in edges.items()})
