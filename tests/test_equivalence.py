"""The array-native geometry core against the loop reference in loop_reference.py.

Discrete outputs (projected seam edges and their provenance, seam edge sets,
islands, cut triangles and vertices, pins, non-disk flags) must match
exactly.  UVs come from a different factorization order of the same normal
equations, so they match to UV_ATOL.
"""

import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamkit.mesh import (
    IndexedMesh,
    SeamEdgeSet,
    build_edge_graph,
    extract_uv_seams,
    normalize,
)
from seamkit import projection
from seamkit.projection import UnreachableError, nearest_vertex, project_seams, shortest_path
from seamkit.shapes import (
    grid_vertex,
    make_cube,
    make_cylinder,
    make_grid,
    make_l_extrusion,
    make_perturbed_grid,
    make_random_hull,
    make_sphere,
    make_tetrahedron,
)
from seamkit.tokenizer import SeamSet
from seamkit.unwrap import (
    SOLVE_RESIDUAL_REL,
    cut_mesh,
    layout_uv,
    parameterize_island,
    unwrap_atlas,
)

from tests import loop_reference as ref
from tests.corpus import corpus_meshes, quad_cutout_loops

UV_ATOL = 1e-9


def _segments(n, seed):
    """n uniform-random segments in the canonical cube."""
    return SeamSet(segments=np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 2, 3)))


def _random_segments(mesh, n, seed):
    """Project n uniform-random segments in the canonical cube onto the mesh."""
    return project_seams(mesh, _segments(n, seed))


def _random_edges(mesh, frac, seed):
    take = np.random.default_rng(seed).random(len(mesh.edges)) < frac
    return SeamEdgeSet(edges=frozenset(map(tuple, mesh.edges[take].tolist())))


GENERATED = [
    ("grid", make_grid(12, 10)),
    ("perturbed_grid", make_perturbed_grid(10, 10, seed=3, amplitude=0.15)),
    ("cube", make_cube(n=3, with_uv=True)),
    ("cube_plain", make_cube(n=2, with_uv=False)),
    ("cylinder", make_cylinder(24, 12)),
    ("sphere", make_sphere(16, 32)),
    ("tetrahedron", make_tetrahedron()),
    ("l_extrusion", make_l_extrusion()),
    ("hull", make_random_hull(200, seed=4)),
]


def _cases():
    """(name, normalized mesh, seam edges) for every generator and the corpus."""
    cases = []
    for name, mesh in GENERATED:
        norm, _ = normalize(mesh)
        cases.append((f"{name}-none", norm, SeamEdgeSet(edges=frozenset())))
        if norm.has_uvs:
            cases.append((f"{name}-uv", norm, extract_uv_seams(norm)))
        cases.append((f"{name}-segments", norm, _random_segments(norm, 64, seed=len(cases))))
        cases.append((f"{name}-edges", norm, _random_edges(norm, 0.3, seed=len(cases))))
    for name, mesh, artist in corpus_meshes():
        norm, _ = normalize(mesh)
        cases.append((f"corpus-{name}-artist", norm, artist))
        cases.append((f"corpus-{name}-cutouts", norm, quad_cutout_loops(norm, 2)))
    return cases


CASES = _cases()


def _fan_mesh():
    """Three triangles on edge (0, 1), the third with its own UVs for both ends."""
    vertices = np.array(
        [[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1]], dtype=float
    )
    triangles = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    uv = np.array(
        [[0, 0], [1, 0], [0.5, 1], [1, 0], [0, 0], [0.5, -1], [0, 2], [1, 2], [0.5, 3]],
        dtype=float,
    )
    return IndexedMesh(vertices=vertices, triangles=triangles, uv_corners=uv)


def _split_island_mesh():
    """Two grids that touch at one corner, joined by a zero-area sliver triangle.

    The sliver shares an edge with each grid, so the mesh is one island, but
    it is excluded from the solve: the island has two active components, and
    they share the corner's cut vertex.
    """
    grid = make_grid(3, 3)
    n = grid.n_vertices
    corner = grid_vertex(3, 3, 3)
    # the second grid's vertex 0 is welded onto the first grid's top-right corner
    remap = np.concatenate([[corner], n + np.arange(n - 1)])
    vertices = np.vstack([grid.vertices, grid.vertices[1:] + [1.0, 1.0, 0.0]])
    sliver = [grid_vertex(3, 2, 3), corner, n]  # collinear along y = 1
    triangles = np.vstack([grid.triangles, [sliver], remap[grid.triangles]])
    return IndexedMesh(vertices=vertices, triangles=triangles)


def _assert_cut_equal(cut, expected):
    assert cut.n_islands == expected.n_islands
    np.testing.assert_array_equal(cut.face_island, expected.face_island)
    np.testing.assert_array_equal(cut.triangles, expected.triangles)
    np.testing.assert_array_equal(cut.vertices, expected.vertices)
    np.testing.assert_array_equal(cut.orig_vertex, expected.orig_vertex)


def _assert_unwrap_equal(cut):
    atlas = unwrap_atlas(cut)
    uv, excluded, nondisk, residuals = ref.unwrap_uv(cut)
    np.testing.assert_array_equal(atlas.excluded, excluded)
    assert atlas.nondisk_islands == nondisk
    assert len(atlas.residuals) == len(residuals) == cut.n_islands
    assert max(atlas.residuals, default=0.0) <= SOLVE_RESIDUAL_REL
    np.testing.assert_allclose(atlas.uv, uv, rtol=0, atol=UV_ATOL)
    return atlas


@pytest.mark.parametrize("name,mesh,seams", CASES, ids=[c[0] for c in CASES])
def test_cut_and_unwrap_match_loop_reference(name, mesh, seams):
    assert mesh.n_triangles <= 4096
    if mesh.has_uvs:
        assert extract_uv_seams(mesh).edges == ref.extract_uv_seams(mesh).edges
    cut = cut_mesh(mesh, seams)
    _assert_cut_equal(cut, ref.cut_mesh(mesh, seams))
    _assert_unwrap_equal(cut)


LAYOUT_CASES = CASES + [
    ("sphere-150-islands", normalize(make_sphere(32, 64))[0], None),
    ("split-island", _split_island_mesh(), SeamEdgeSet(edges=frozenset())),
]


@pytest.mark.parametrize("name,mesh,seams", LAYOUT_CASES, ids=[c[0] for c in LAYOUT_CASES])
def test_layout_matches_loop_reference(name, mesh, seams):
    if seams is None:  # 64 random segments cut this sphere into 150 islands
        seams = project_seams(mesh, _segments(64, seed=0))
    atlas = unwrap_atlas(cut_mesh(mesh, seams))
    np.testing.assert_array_equal(layout_uv(atlas), ref.layout_uv(atlas))


def test_island_pins_match_loop_reference():
    mesh, _ = normalize(make_sphere(8, 12))
    for seams in (SeamEdgeSet(edges=frozenset()), _random_edges(mesh, 0.3, seed=1)):
        cut = cut_mesh(mesh, seams)
        for island in range(cut.n_islands):
            got = parameterize_island(cut, island)
            want = ref.parameterize_island(cut, island)
            np.testing.assert_array_equal(got.vertex_ids, want.vertex_ids)
            assert got.pins == want.pins
            assert got.nondisk == want.nondisk
            np.testing.assert_allclose(got.uv, want.uv, rtol=0, atol=UV_ATOL)
            assert got.residual <= SOLVE_RESIDUAL_REL


def test_nonmanifold_fan_matches_loop_reference(caplog):
    with caplog.at_level(logging.WARNING, logger="seamkit.mesh"):
        mesh = _fan_mesh()
    assert "1 non-manifold edges" in caplog.text
    (fan_edge,) = mesh.edge_ids([(0, 1)]).tolist()
    assert mesh.nonmanifold_edges == (fan_edge,)
    assert mesh.edge_faces[fan_edge] == (0, 1, 2)
    seams = extract_uv_seams(mesh)
    assert seams.edges == ref.extract_uv_seams(mesh).edges == {(0, 1)}
    for cut_seams in (SeamEdgeSet(edges=frozenset()), seams):
        cut = cut_mesh(mesh, cut_seams)
        _assert_cut_equal(cut, ref.cut_mesh(mesh, cut_seams))
        _assert_unwrap_equal(cut)
    # the fan itself holds together as one island until its edge is cut
    assert cut_mesh(mesh, SeamEdgeSet(edges=frozenset())).n_islands == 1
    assert cut_mesh(mesh, seams).n_islands == 3


def test_island_split_by_excluded_triangle_matches_loop_reference():
    mesh = _split_island_mesh()
    cut = cut_mesh(mesh, SeamEdgeSet(edges=frozenset()))
    _assert_cut_equal(cut, ref.cut_mesh(mesh, SeamEdgeSet(edges=frozenset())))
    assert cut.n_islands == 1
    atlas = _assert_unwrap_equal(cut)
    assert atlas.n_excluded == 1
    param = parameterize_island(cut, 0, excluded=atlas.excluded)
    assert len(param.pins) == 4  # two active components, two pins each
    assert param.pins == ref.parameterize_island(cut, 0, excluded=atlas.excluded).pins


# ---------------------------------------------------------------------------
# Seam projection


def _coincident_grid():
    """A 6x6 grid cut along column i = 3 and zipped shut by zero-area slivers.

    Each vertex on the cut has a coincident twin, used by the faces right of
    the cut; the slivers join every vertex to its twin by a zero-length edge.
    """
    grid = make_grid(6, 6)
    n = grid.n_vertices
    column = [grid_vertex(6, 3, j) for j in range(7)]
    twin = np.arange(n)
    twin[column] = n + np.arange(7)
    right = grid.vertices[grid.triangles].mean(axis=1)[:, 0] > 0.5
    triangles = np.where(right[:, None], twin[grid.triangles], grid.triangles)
    slivers = [
        tri
        for lo, hi in zip(column, column[1:])
        for tri in ((lo, twin[lo], hi), (twin[lo], twin[hi], hi))
    ]
    return IndexedMesh(
        vertices=np.vstack([grid.vertices, grid.vertices[column]]),
        triangles=np.vstack([triangles, slivers]),
    )


def _two_grids():
    """Two 4x4 grids side by side that share no vertex."""
    grid = make_grid(4, 4)
    return IndexedMesh(
        vertices=np.vstack([grid.vertices, grid.vertices + [2.0, 0.0, 0.0]]),
        triangles=np.vstack([grid.triangles, grid.triangles + grid.n_vertices]),
    )


def _assert_projection_equal(mesh, seams):
    got = project_seams(mesh, seams)
    want = ref.project_seams(mesh, seams)
    assert got.edges == want.edges
    assert got.provenance == want.provenance
    return got


PROJECTION_MESHES = GENERATED + [(f"corpus-{name}", mesh) for name, mesh, _ in corpus_meshes()]


@pytest.mark.parametrize("name,mesh", PROJECTION_MESHES, ids=[m[0] for m in PROJECTION_MESHES])
def test_project_seams_matches_heap_reference(name, mesh):
    norm, _ = normalize(mesh)
    out = _assert_projection_equal(norm, _segments(64, seed=100))
    assert len(out) > 0


@pytest.mark.parametrize("name,mesh", GENERATED, ids=[m[0] for m in GENERATED])
def test_edge_graph_matches_hand_built_csr(name, mesh):
    # one end of every 7th edge moved onto the other: zero-length edges
    verts = mesh.vertices.copy()
    verts[mesh.edges[::7, 1]] = verts[mesh.edges[::7, 0]]
    moved = IndexedMesh(vertices=verts, triangles=mesh.triangles)
    assert np.count_nonzero(moved.edge_lengths == 0.0) > 0
    for m in (mesh, moved):
        got = build_edge_graph(m)
        want = ref.csr_graph(m.n_vertices, m.edges, m.edge_lengths)
        for key in ("indptr", "indices", "data"):  # explicit zeros are entries of data
            assert getattr(got, key).dtype == getattr(want, key).dtype, key
            np.testing.assert_array_equal(getattr(got, key), getattr(want, key), err_msg=key)


def test_zero_length_edges_match_heap_reference():
    mesh = _coincident_grid()
    graph = build_edge_graph(mesh)
    assert np.count_nonzero(graph.data == 0.0) == 2 * 7
    want = ref.build_edge_graph(mesh)
    for a in range(graph.shape[0]):
        for b in range(graph.shape[0]):
            assert shortest_path(graph, a, b) == ref.shortest_path(want, a, b)
    norm, _ = normalize(mesh)
    _assert_projection_equal(norm, _segments(64, seed=7))


def test_unreachable_segments_skipped_like_heap_reference(caplog):
    mesh, _ = normalize(_two_grids())
    seams = _segments(64, seed=8)
    half = mesh.n_vertices // 2
    ends = [
        [nearest_vertex(mesh, [p])[0] >= half for p in seg] for seg in seams.segments
    ]
    crossing = sum(a != b for a, b in ends)
    assert crossing > 0
    with caplog.at_level(logging.WARNING, logger="seamkit.projection"):
        _assert_projection_equal(mesh, seams)
    assert sum("skipped" in r.message for r in caplog.records) == crossing


@st.composite
def _snap_cases(draw):
    """(vertices, points, block entries) with exact ties, duplicate vertices and far points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):  # lattice coordinates: equal distances are exactly equal
        verts = rng.integers(-3, 4, size=(n, 3)).astype(float)
    else:
        verts = rng.uniform(-0.5, 0.5, size=(n, 3))
    if draw(st.booleans()):
        verts = np.vstack([verts, verts])  # every vertex duplicated
    m = draw(st.integers(1, 30))
    i, j = rng.integers(0, len(verts), size=(2, m))
    mid = (verts[i] + verts[j]) / 2  # equidistant from vertices i and j
    pts = np.concatenate(
        [
            rng.uniform(-1.0, 1.0, size=(m, 3)),
            verts[i],
            mid,
            mid + rng.normal(size=(m, 3)) * 1e-15,
            rng.normal(size=(m, 3)) * 1e6,  # far outside the mesh
            rng.choice([-1.0, 1.0], size=(m, 3)) * 1e308,  # squared distances overflow
        ]
    )
    entries = draw(st.sampled_from([1, 7, 5 * len(verts), projection._SNAP_BLOCK_ENTRIES]))
    return verts, pts, entries


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_snap_cases())
def test_nearest_vertex_batch_matches_per_point_scan(case):
    verts, pts, entries = case
    mesh = IndexedMesh(vertices=verts, triangles=np.zeros((0, 3), dtype=np.int64))
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(projection, "_SNAP_BLOCK_ENTRIES", entries)  # 1 and 7: one row per block
        got = nearest_vertex(mesh, pts)
        want = [ref.nearest_vertex(mesh, p) for p in pts]
    assert got.dtype == np.int64
    assert got.tolist() == want


@st.composite
def _weighted_graphs(draw, lengths=st.integers(0, 3)):
    """(n, edges, weights): a random graph, integer weights 0..3 (or drawn from
    ``lengths``) so ties are exact."""
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    weights = draw(st.lists(lengths, min_size=len(edges), max_size=len(edges)))
    return n, edges, [float(w) for w in weights]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_weighted_graphs())
def test_shortest_path_matches_heap_reference(graph_spec):
    n, edges, weights = graph_spec
    graph = ref.csr_graph(n, edges, weights)
    want = ref.adjacency_graph(n, edges, weights)
    for a in range(n):
        for b in range(n):
            try:
                expected = ref.shortest_path(want, a, b)
            except UnreachableError:
                with pytest.raises(UnreachableError):
                    shortest_path(graph, a, b)
                continue
            assert shortest_path(graph, a, b) == expected


# length 10: longer than twice the first search's radius for a bound of 1 or 2
@settings(max_examples=100, deadline=None, derandomize=True)
@given(_weighted_graphs(lengths=st.sampled_from([0, 1, 2, 3, 10])))
@example((3, [(0, 2), (1, 2)], [10.0, 1.0]))  # a-c 10, c-b 1: radii 1 and 2 reach only a
def test_bounded_shortest_path_matches_heap_reference(graph_spec):
    n, edges, weights = graph_spec
    graph = ref.csr_graph(n, edges, weights)
    want = ref.adjacency_graph(n, edges, weights)
    length = {}
    for (u, v), w in zip(edges, weights):
        length[u, v] = length[v, u] = w
    total = sum(weights)
    for a in range(n):
        for b in range(n):
            try:
                expected = ref.shortest_path(want, a, b)
            except UnreachableError:
                for bound in (0.0, 1.0, total + 1.0):
                    with pytest.raises(UnreachableError):
                        shortest_path(graph, a, b, bound)
                continue
            d = sum(length[u, v] for u, v in zip(expected, expected[1:]))
            # zero, below, equal to and above the distance, and above every path
            for bound in (0.0, d / 2, d, 1.5 * d, total + 1.0):
                assert shortest_path(graph, a, b, bound) == expected, (a, b, bound)
