import logging

import numpy as np
import pytest

from seamkit.mesh import IndexedMesh, extract_uv_seams, load_obj, normalize
from seamkit.projection import (
    ProjectionError,
    UnreachableError,
    nearest_vertex,
    project_seams,
    seam_edges_to_segments,
    shortest_path,
)
from seamkit.shapes import grid_vertex, make_cylinder, make_grid
from seamkit.tokenizer import SeamSet

from tests import loop_reference as ref


def test_nearest_vertex_exact_and_tie():
    mesh = make_grid(3, 3)
    for v in (0, 7, 11):
        assert nearest_vertex(mesh.vertices, [mesh.vertices[v]])[0] == v
    # equidistant between vertex 2 and 5: tie resolves to the lower index
    verts = np.array([[0, 0, 0], [9, 9, 9], [1, 0, 0], [9, 9, 8], [9, 8, 9], [-1, 0, 0]], dtype=float)
    assert nearest_vertex(verts, [[0.0, 0.0, 0.0]])[0] == 0
    assert nearest_vertex(verts, [[0.0, 0.5, 0.0]])[0] == 0
    # midpoint of vertices 2 and 5
    assert nearest_vertex(verts, [[0.0, 0.0, 0.0]])[0] == 0
    verts3 = np.array([[5, 5, 5], [6, 6, 6], [1, 0, 0], [7, 7, 7], [8, 8, 8], [-1, 0, 0]], dtype=float)
    assert nearest_vertex(verts3, [[0.0, 0.0, 0.0]])[0] == 2  # 2 and 5 tie, 2 wins


def test_nearest_vertex_matches_bruteforce():
    rng = np.random.default_rng(0)
    mesh = make_grid(6, 6)
    points = rng.uniform(-0.5, 1.5, size=(500, 3))
    expected = []
    for p in points:
        d = [float(np.linalg.norm(v - p)) for v in mesh.vertices]
        expected.append(min(range(len(d)), key=lambda i: (d[i], i)))
        assert nearest_vertex(mesh.vertices, [p])[0] == expected[-1]
    assert nearest_vertex(mesh.vertices, points).tolist() == expected
    assert nearest_vertex(mesh.vertices, np.zeros((0, 3))).tolist() == []


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_vertex_rejects_non_finite_points(bad):
    mesh = make_grid(3, 3)
    with pytest.raises(ProjectionError, match="non-finite point 1"):
        nearest_vertex(mesh.vertices, [[0.0, 0.0, 0.0], [bad, 0.0, 0.0]])
    with pytest.raises(ProjectionError):
        nearest_vertex(mesh.vertices, [[0.0, bad, 0.0]])
    seg = np.array([[[0.0, 0.0, 0.0], [1.0, 1.0, bad]]])
    with pytest.raises(ProjectionError):
        project_seams(mesh, SeamSet(segments=seg))


def _graph(n, arcs):
    """CSR edge graph on n nodes from undirected (u, v, weight) arcs."""
    arcs = dict(((min(u, v), max(u, v)), w) for u, v, w in arcs)
    return ref.csr_graph(n, list(arcs), list(arcs.values()))


def _random_connected_graph(rng, n):
    """Random connected graph with positive integer weights (exact float sums)."""
    arcs = []
    for v in range(1, n):  # spanning tree first
        u = int(rng.integers(0, v))
        arcs.append((u, v, float(rng.integers(1, 10))))
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        arcs.append((int(u), int(v), float(rng.integers(1, 10))))
    return _graph(n, arcs)


def _floyd_warshall(graph):
    n = graph.shape[0]
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    coo = graph.tocoo()
    for u, v, w in zip(coo.row, coo.col, coo.data):
        dist[u, v] = min(dist[u, v], w)
    for k in range(n):
        dist = np.minimum(dist, dist[:, [k]] + dist[[k], :])
    return dist


def path_length(graph, path):
    """Sum of the arc weights along a node path; every step must be an arc."""
    indptr, indices, weights = graph.indptr, graph.indices, graph.data
    total = 0.0
    for u, v in zip(path, path[1:]):
        lo, hi = indptr[u], indptr[u + 1]
        k = lo + int(np.searchsorted(indices[lo:hi], v))
        assert k < hi and indices[k] == v, f"path step {u}->{v} is not a graph arc"
        total += float(weights[k])
    return total


def test_shortest_path_trivial():
    g = _graph(3, [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)])
    assert shortest_path(g, 0, 1) == [0, 1]
    assert shortest_path(g, 2, 2) == [2]


def test_shortest_path_matches_floyd_warshall():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        g = _random_connected_graph(rng, n)
        dist = _floyd_warshall(g)
        for _ in range(10):
            a, b = (int(x) for x in rng.integers(0, n, size=2))
            path = shortest_path(g, a, b)
            assert path[0] == a and path[-1] == b
            assert path_length(g, path) == dist[a, b]


def test_shortest_path_unreachable():
    g = _graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(UnreachableError):
        shortest_path(g, 0, 3)


def test_shortest_path_deterministic_tiebreak():
    # two equal-length routes 0-1-3 and 0-2-3: predecessor of 3 must be 1
    g = _graph(4, [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)])
    assert shortest_path(g, 0, 3) == [0, 1, 3]


def test_project_segment_on_existing_edge():
    mesh = make_grid(4, 4)
    a, b = grid_vertex(4, 1, 1), grid_vertex(4, 2, 1)
    seams = SeamSet(segments=np.array([[mesh.vertices[a], mesh.vertices[b]]]))
    out = project_seams(mesh, seams)
    assert out.pairs.tolist() == [[min(a, b), max(a, b)]]
    assert out.provenance[(min(a, b), max(a, b))] == (0,)


def test_project_collapsed_segment_contributes_nothing():
    mesh = make_grid(4, 4)
    p = mesh.vertices[5] + [0.01, 0.01, 0]
    q = mesh.vertices[5] - [0.01, 0.01, 0]
    out = project_seams(mesh, SeamSet(segments=np.array([[p, q]])))
    assert len(out) == 0


def test_project_grid_polyline_recovery():
    nx = ny = 6
    mesh = make_grid(nx, ny)
    rng = np.random.default_rng(2)
    # artist polyline: the horizontal row j=3 from i=1 to i=5
    chain = [grid_vertex(nx, i, 3) for i in range(1, 6)]
    truth = {(min(u, v), max(u, v)) for u, v in zip(chain, chain[1:])}
    segs = []
    h = 1.0 / nx  # grid spacing
    for u, v in zip(chain, chain[1:]):
        p = mesh.vertices[u] + rng.uniform(-0.24 * h, 0.24 * h, size=3) * [1, 1, 0]
        q = mesh.vertices[v] + rng.uniform(-0.24 * h, 0.24 * h, size=3) * [1, 1, 0]
        segs.append([p, q])
    out = project_seams(mesh, SeamSet(segments=np.array(segs)))
    assert out.pairs.tolist() == sorted(map(list, truth))


def test_project_monotone_under_added_segments():
    mesh = make_grid(5, 5)
    rng = np.random.default_rng(3)
    segs = rng.uniform(0, 1, size=(8, 2, 3)) * [1, 1, 0]
    prev = set()
    for k in range(1, 9):
        edges = set(map(tuple, project_seams(mesh, SeamSet(segments=segs[:k])).pairs.tolist()))
        assert prev <= edges
        prev = edges


def test_project_skips_cross_component_segment(caplog):
    # two far-apart triangles, one segment spanning them
    verts = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [10, 0, 0], [11, 0, 0], [10, 1, 0]],
        dtype=float,
    )
    mesh = IndexedMesh(vertices=verts, triangles=np.array([[0, 1, 2], [3, 4, 5]]))
    seams = SeamSet(segments=np.array([[[0, 0, 0], [10.5, 0.2, 0]]]))
    with caplog.at_level(logging.WARNING):
        out = project_seams(mesh, seams)
    assert len(out) == 0
    assert any("skipped" in r.message for r in caplog.records)


def test_project_ignores_vertices_no_face_uses(caplog):
    # a two-triangle quad and one loose vertex just above its centre
    text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 0.01\nf 1 2 3\nf 1 3 4\n"
    mesh = load_obj(text)
    assert mesh.n_vertices == 5
    loose = mesh.vertices[4]
    # the loose point is equidistant from the four corners: it snaps to corner 0
    seams = SeamSet(segments=np.array([[mesh.vertices[0], loose], [mesh.vertices[1], loose]]))
    with caplog.at_level(logging.WARNING, logger="seamkit.projection"):
        out = project_seams(mesh, seams)
    assert not caplog.records
    assert out.pairs.tolist() == [[0, 1]]
    assert out.provenance == {(0, 1): (1,)}
    # vertex numbering is the mesh's own: a point near corner 2 marks the diagonal
    out = project_seams(mesh, SeamSet(segments=np.array([[mesh.vertices[0], [0.9, 0.9, 0.01]]])))
    assert out.pairs.tolist() == [[0, 2]]
    assert ref.project_seams(mesh, seams) == {(0, 1): (1,)}


def test_project_uv_seam_segments_of_a_fine_cylinder():
    mesh, _ = normalize(make_cylinder(128, 128))
    edges = extract_uv_seams(mesh)
    assert len(edges) == 128
    out = project_seams(mesh, seam_edges_to_segments(mesh, edges))
    assert out.pairs.tolist() == edges.pairs.tolist()
    assert all(len(v) == 1 for v in out.provenance.values())


def test_project_marked_edges_are_mesh_edges():
    mesh = make_grid(5, 5)
    rng = np.random.default_rng(4)
    segs = rng.uniform(0, 1, size=(12, 2, 3)) * [1, 1, 0]
    out = project_seams(mesh, SeamSet(segments=segs))
    assert (mesh.edge_ids(out.pairs) >= 0).all()


def test_seam_edges_to_segments_round_trip():
    mesh = make_grid(4, 4)
    a, b = grid_vertex(4, 0, 0), grid_vertex(4, 1, 0)
    c, d = grid_vertex(4, 2, 2), grid_vertex(4, 2, 3)
    from seamkit.mesh import SeamEdgeSet

    es = SeamEdgeSet([(a, b), (c, d)])
    seams = seam_edges_to_segments(mesh, es)
    assert len(seams) == 2
    out = project_seams(mesh, seams)
    assert out.pairs.tolist() == es.pairs.tolist()
