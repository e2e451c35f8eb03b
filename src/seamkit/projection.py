"""Projection of 3D seam segments onto mesh topology as marked seam edges."""

from __future__ import annotations

import heapq
import logging

import numpy as np
from scipy.sparse.csgraph import dijkstra

from seamkit.mesh import EdgeGraph, IndexedMesh, MeshError, SeamEdgeSet, build_edge_graph
from seamkit.tokenizer import SeamSet

logger = logging.getLogger(__name__)


class ProjectionError(MeshError):
    pass


class UnreachableError(ProjectionError):
    """The two path endpoints lie in different connected components."""


# Rows of a snapping block times mesh vertices: at most 32 MB of float64.
_SNAP_BLOCK_ENTRIES = 1 << 22


def nearest_vertex(mesh: IndexedMesh, points):
    """Index of the closest mesh vertex to each point; ties break to the lowest index.

    ``points`` is one point (returns an ``int``) or an (n, 3) array (returns
    an int64 array of n indices).  Non-finite coordinates raise
    ProjectionError.

    The answer is the vertex minimising ``((v - p) ** 2).sum()``, first index
    among equal values: the per-point scan, bit for bit.  For a block of
    points it is found in two passes.  One matrix product gives
    ``q = |v|^2 - 2 v.p + |p|^2`` for every vertex and point; each ``q``
    differs from the scan's value by less than ``64 * eps * (max|v|^2 +
    |p|^2)`` (a few roundings of terms no larger than that, with room to
    spare), so every vertex whose ``q`` exceeds the row minimum by more than
    that slack (plus the smallest normal float, for underflow) is farther
    than the row's argmin, and the true argmin is always kept.  Only the
    kept vertices, usually one per point, are then compared by the scan's
    own formula.  A row whose slack is not finite (squared coordinates that
    overflow) keeps every vertex.  Blocks hold at most
    ``_SNAP_BLOCK_ENTRIES`` point-vertex pairs.
    """
    verts = mesh.vertices
    if len(verts) == 0:
        raise ProjectionError("empty mesh")
    pts = np.asarray(points, dtype=np.float64)
    single = pts.ndim == 1
    pts = pts.reshape(-1, 3)
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        raise ProjectionError(f"non-finite point {np.flatnonzero(bad)[0]}: {pts[bad][0].tolist()}")
    v2 = (verts**2).sum(axis=1)
    p2 = (pts**2).sum(axis=1)
    slack = 64.0 * np.finfo(np.float64).eps * (v2.max() + p2) + np.finfo(np.float64).tiny
    out = np.empty(len(pts), dtype=np.int64)
    block = max(1, _SNAP_BLOCK_ENTRIES // len(verts))
    for lo in range(0, len(pts), block):
        pb = pts[lo : lo + block]
        q = pb @ verts.T
        q *= -2.0
        q += v2
        q += p2[lo : lo + block, None]
        limit = q.min(axis=1) + slack[lo : lo + block]
        keep = q <= limit[:, None]
        keep[~np.isfinite(limit)] = True
        rows, cols = np.nonzero(keep)
        d2 = ((verts[cols] - pb[rows]) ** 2).sum(axis=1)
        order = np.lexsort((cols, d2, rows))
        by_row = rows[order]
        first = order[np.r_[True, by_row[1:] != by_row[:-1]]]
        out[lo + rows[first]] = cols[first]
    return int(out[0]) if single else out


def shortest_path(graph: EdgeGraph, a: int, b: int) -> list[int]:
    """Minimal-total-length vertex path from a to b under edge weights.

    Deterministic tie-breaking, as in a heap Dijkstra that orders equal
    distances by vertex index and accepts an equal-length relaxation only when
    it lowers the predecessor index.  One ``scipy.sparse.csgraph.dijkstra``
    call gives the distances ``dist`` from ``a``; the path then walks back
    from ``b``, stepping from ``v`` to the lowest-index neighbour ``u`` with
    ``dist[u] + w(u, v) == dist[v]`` (a tight arc) that such a heap settles
    before ``v``: the heap's predecessor of ``v``.  The heap settles vertices
    in order of distance, so a tight arc of positive weight, which has
    ``dist[u] < dist[v]``, always qualifies.  A tight arc between two
    vertices at the same distance (a zero-length edge between coincident
    vertices, or a weight lost to rounding) qualifies only if the heap pops
    ``u`` first inside that distance class; ``_settle_rank`` replays that pop
    order on a small heap over only those vertices, so ordinary meshes never
    build it.  Raises UnreachableError when b cannot be reached from a.
    """
    n = graph.n
    if not (0 <= a < n and 0 <= b < n):
        raise ProjectionError(f"vertex out of range: {a}, {b}")
    if a == b:
        return [a]
    dist = dijkstra(graph.csr, directed=True, indices=a)
    if not np.isfinite(dist[b]):
        raise UnreachableError(f"no path from {a} to {b}")
    indptr, indices, weights = graph.csr.indptr, graph.csr.indices, graph.csr.data
    rank = None
    path = [b]
    for _ in range(n):  # a shortest path has fewer than n steps
        v = path[-1]
        if v == a:
            break
        for k in range(indptr[v], indptr[v + 1]):  # neighbours ascending
            u = indices[k]
            if dist[u] + weights[k] != dist[v]:
                continue
            if dist[u] == dist[v]:
                if rank is None:
                    rank = _settle_rank(graph, dist, a)
                if rank[u] > rank[v]:
                    continue
            path.append(int(u))
            break
    if path[-1] != a:
        raise ProjectionError(f"walk back from {b} did not reach {a}")
    path.reverse()
    return path


def _settle_rank(graph: EdgeGraph, dist: np.ndarray, a: int) -> np.ndarray:
    """Heap pop order of the vertices joined by tight equal-distance arcs.

    When the heap reaches distance d, its entries at d are the vertices with a
    tight arc from a lower distance (and ``a`` itself); popping one pushes its
    tight neighbours at d.  Other vertices keep rank 0.
    """
    coo = graph.csr.tocoo()
    rows, cols, w = coo.row, coo.col, coo.data
    du, dv = dist[cols], dist[rows]
    tight = du + w == dv
    level = tight & (du == dv) & np.isfinite(dv)
    entered = np.zeros(graph.n, dtype=bool)
    entered[rows[tight & (du < dv)]] = True
    entered[a] = True
    neighbours: dict[int, list[int]] = {}
    for v, u in zip(rows[level].tolist(), cols[level].tolist()):
        neighbours.setdefault(v, []).append(u)
    heap = sorted((dist[v], v) for v in neighbours if entered[v])
    rank = np.zeros(graph.n, dtype=np.int64)
    done: set[int] = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in done:
            continue
        done.add(v)
        rank[v] = len(done)
        for u in neighbours[v]:
            if u not in done:
                heapq.heappush(heap, (d, u))
    return rank


def project_seams(mesh: IndexedMesh, seams: SeamSet) -> SeamEdgeSet:
    """Mark mesh edges for every seam segment.

    Each segment's endpoints map to their nearest vertices; the shortest
    edge path between them in the mesh's edge graph (``build_edge_graph``,
    built once per call) is marked.  Segments collapsing to one vertex add
    nothing; segments across disconnected components are skipped with a
    logged diagnostic.  Provenance records contributing segment indices per
    edge.
    """
    if mesh.n_vertices == 0:
        raise ProjectionError("empty mesh")
    graph = build_edge_graph(mesh)
    ends = nearest_vertex(mesh, seams.segments.reshape(-1, 3)).reshape(-1, 2).tolist()
    edges: dict[tuple[int, int], list[int]] = {}
    for i, (va, vb) in enumerate(ends):
        if va == vb:
            continue
        try:
            path = shortest_path(graph, va, vb)
        except UnreachableError:
            logger.warning(
                "segment %d skipped: vertices %d and %d are in different components",
                i,
                va,
                vb,
            )
            continue
        for u, v in zip(path, path[1:]):
            key = (min(u, v), max(u, v))
            edges.setdefault(key, []).append(i)
    return SeamEdgeSet(
        edges=frozenset(edges),
        provenance={k: tuple(v) for k, v in edges.items()},
    )


def seam_edges_to_segments(mesh: IndexedMesh, edge_set: SeamEdgeSet) -> SeamSet:
    """Each marked mesh edge becomes one seam segment with its endpoint coordinates."""
    if len(edge_set) == 0:
        return SeamSet.empty()
    return SeamSet(segments=mesh.vertices[np.array(edge_set.sorted_edges())])
