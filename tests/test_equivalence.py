"""The array-native geometry core, the factored point encoder and the one
training loop against the references in loop_reference.py.

Discrete outputs (projected seam edges and their provenance, seam edge sets,
islands, cut triangles and vertices, pins, non-disk flags) must match
exactly.  UVs come from a different factorization order of the same normal
equations, so they match to UV_ATOL.  The encoder's values and gradients
come from a different order of the same arithmetic, so they match to
ENCODER_RTOL of their largest entry.  The training loop runs the same
arithmetic in the same order, so its arrays, losses and step logs match bit
for bit.
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
from seamkit import autodiff as ad
from seamkit import projection
from seamkit.dpo import DPOConfig, dpo_train
from seamkit.model import (
    _encode_condition_t,
    _prepare_condition,
    _sequence_logprobs_t,
    init_parameters,
    nll,
    nll_train,
)
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
from seamkit.sampling import ConditioningClouds
from seamkit.tokenizer import BOS, EOS, SeamSet
from seamkit.unwrap import (
    SOLVE_RESIDUAL_REL,
    cut_mesh,
    layout_uv,
    parameterize_island,
    unwrap_atlas,
)

from tests import loop_reference as ref
from tests.corpus import corpus_meshes, quad_cutout_loops
from tests.util import DESK_CONFIG, TINY_CONFIG

UV_ATOL = 1e-9
ENCODER_RTOL = 1e-12


def _segments(n, seed):
    """n uniform-random segments in the canonical cube."""
    return SeamSet(segments=np.random.default_rng(seed).uniform(-0.5, 0.5, size=(n, 2, 3)))


def _random_segments(mesh, n, seed):
    """Project n uniform-random segments in the canonical cube onto the mesh."""
    return project_seams(mesh, _segments(n, seed))


def _random_edges(mesh, frac, seed):
    take = np.random.default_rng(seed).random(len(mesh.edges)) < frac
    return SeamEdgeSet(mesh.edges[take])


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
        cases.append((f"{name}-none", norm, SeamEdgeSet()))
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
        assert extract_uv_seams(mesh).pairs.tolist() == ref.extract_uv_seams(mesh).pairs.tolist()
    cut = cut_mesh(mesh, seams)
    _assert_cut_equal(cut, ref.cut_mesh(mesh, seams))
    _assert_unwrap_equal(cut)


LAYOUT_CASES = CASES + [
    ("sphere-150-islands", normalize(make_sphere(32, 64))[0], None),
    ("split-island", _split_island_mesh(), SeamEdgeSet()),
]


@pytest.mark.parametrize("name,mesh,seams", LAYOUT_CASES, ids=[c[0] for c in LAYOUT_CASES])
def test_layout_matches_loop_reference(name, mesh, seams):
    if seams is None:  # 64 random segments cut this sphere into 150 islands
        seams = project_seams(mesh, _segments(64, seed=0))
    atlas = unwrap_atlas(cut_mesh(mesh, seams))
    np.testing.assert_array_equal(layout_uv(atlas), ref.layout_uv(atlas))


def test_island_pins_match_loop_reference():
    mesh, _ = normalize(make_sphere(8, 12))
    for seams in (SeamEdgeSet(), _random_edges(mesh, 0.3, seed=1)):
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
    seams = extract_uv_seams(mesh)
    assert seams.pairs.tolist() == ref.extract_uv_seams(mesh).pairs.tolist() == [[0, 1]]
    for cut_seams in (SeamEdgeSet(), seams):
        cut = cut_mesh(mesh, cut_seams)
        _assert_cut_equal(cut, ref.cut_mesh(mesh, cut_seams))
        _assert_unwrap_equal(cut)
    # the fan itself holds together as one island until its edge is cut
    assert cut_mesh(mesh, SeamEdgeSet()).n_islands == 1
    assert cut_mesh(mesh, seams).n_islands == 3


def test_island_split_by_excluded_triangle_matches_loop_reference():
    mesh = _split_island_mesh()
    cut = cut_mesh(mesh, SeamEdgeSet())
    _assert_cut_equal(cut, ref.cut_mesh(mesh, SeamEdgeSet()))
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
    assert got.pairs.tolist() == sorted(map(list, want))
    assert got.provenance == want
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
        [nearest_vertex(mesh.vertices, [p])[0] >= half for p in seg] for seg in seams.segments
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
        got = nearest_vertex(verts, pts)
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


# ---------------------------------------------------------------------------
# Factored point encoder


def _cloud(kind: str, n: int, rng) -> np.ndarray:
    if kind == "random":
        return rng.uniform(-0.5, 0.5, size=(n, 3))
    if kind == "identical":
        return np.tile(rng.uniform(-0.5, 0.5, size=3), (n, 1))
    if kind == "collinear":
        return rng.uniform(-0.5, 0.5, size=3) + rng.uniform(-1, 1, size=(n, 1)) * rng.normal(size=3)
    # a plane through the origin
    return rng.uniform(-0.5, 0.5, size=(n, 2)) @ rng.normal(size=(2, 3))


_CLOUD_KINDS = ("random", "identical", "collinear", "plane")


@st.composite
def _encoder_cases(draw):
    """(clouds, seed of the parameter perturbation): each branch's cloud is of
    a drawn kind and has tokens_per_branch or more points."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = TINY_CONFIG.tokens_per_branch
    topo, geom = (
        _cloud(draw(st.sampled_from(_CLOUD_KINDS)), draw(st.integers(k, 3 * k)), rng)
        for _ in range(2)
    )
    return ConditioningClouds(topo_points=topo, geom_points=geom, seed=0), draw(st.integers(0, 99))


def _max_abs(x) -> float:
    return float(np.max(np.abs(x)))


def _smallest_case(kind: str, seed: int) -> tuple:
    """Both clouds of one kind with exactly tokens_per_branch points."""
    rng = np.random.default_rng(seed)
    k = TINY_CONFIG.tokens_per_branch
    return ConditioningClouds(topo_points=_cloud(kind, k, rng), geom_points=_cloud(kind, k, rng), seed=0), seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_encoder_cases())
@example(_smallest_case("random", 0))
@example(_smallest_case("identical", 1))
@example(_smallest_case("collinear", 2))
@example(_smallest_case("plane", 3))
def test_factored_encoder_matches_composed_reference(case):
    clouds, seed = case
    config = TINY_CONFIG
    # every parameter moved off its init, so the layer-norm gains and biases
    # (beta of the key/value layer norm included) are not 1 and 0
    params = init_parameters(config)
    rng = np.random.default_rng(seed)
    for value in params.arrays.values():
        value += rng.normal(0.0, 0.3, size=value.shape)
    prepared = _prepare_condition(clouds, config)
    want = ref.encode_condition_t(prepared, params.arrays, config)
    got = _encode_condition_t(prepared, params.arrays, config)
    assert _max_abs(got - want) <= ENCODER_RTOL * _max_abs(want)

    seq = np.concatenate(([BOS], rng.integers(0, 1024, size=12), [EOS])).astype(np.int64)
    weights = rng.normal(size=want.shape)
    grads = []
    for encode in (_encode_condition_t, ref.encode_condition_t):
        p = params.as_tensors()
        cond = encode(prepared, p, config)
        logprob = _sequence_logprobs_t([seq], cond, p, config)[0]
        ad.backward(ad.add(logprob, ad.sum_all(ad.mul(cond, weights))))
        grads.append({k: t.grad for k, t in p.items() if k.startswith("enc.") or k == "embed.cond_pos"})
    got, want = grads
    # one scale for the whole gradient: where the true gradient of an array
    # is zero (all keys equal when every point is), both sides are rounding
    scale = max(_max_abs(g) for g in want.values())
    for name, g in want.items():
        assert _max_abs(got[name] - g) <= ENCODER_RTOL * scale, name


def training_items(config):
    """DPO pairs over three conditions, with one pair repeated and one
    sequence under two conditions, and their chosen sides as NLL examples."""
    rng = np.random.default_rng(31)
    k = 2 * config.tokens_per_branch
    a, b, c = (
        ConditioningClouds(
            topo_points=rng.normal(size=(k, 3)) * 0.2, geom_points=rng.normal(size=(k, 3)) * 0.2, seed=0
        )
        for _ in range(3)
    )

    def seq(n_segments):
        return np.concatenate(([BOS], rng.integers(0, 1024, size=6 * n_segments), [EOS])).astype(np.int64)

    shared = seq(2)
    repeated = (a, (seq(1), shared))
    pairs = [repeated, (b, (seq(3), shared)), (c, (seq(2), seq(4))), repeated]
    return pairs, [(clouds, chosen) for clouds, (chosen, _) in pairs]


def _assert_same_arrays(got, want):
    assert list(got.arrays) == list(want.arrays)
    for name, value in want.arrays.items():
        np.testing.assert_array_equal(got.arrays[name], value, err_msg=name)


@pytest.mark.parametrize("config", [TINY_CONFIG, DESK_CONFIG], ids=["tiny", "desk"])
def test_one_training_loop_matches_the_two_steps_it_replaced(config):
    pairs, examples = training_items(config)
    dpo_config = DPOConfig(beta=0.5, learning_rate=0.1, steps=3)
    trained, history = dpo_train(init_parameters(config), pairs, dpo_config)
    want, want_history = ref.dpo_train(init_parameters(config), pairs, dpo_config)
    assert len(history) == 3 and history == want_history
    _assert_same_arrays(trained, want)

    stepped, losses = nll_train(init_parameters(config), examples, steps=3, lr=0.1)
    want, want_losses = init_parameters(config), []
    batch = ref.nll_items(examples, config)
    for _ in range(3):
        want, loss = ref.nll_step(batch, want, lr=0.1)
        want_losses.append(loss)
    assert losses == want_losses
    _assert_same_arrays(stepped, want)
    # read with no graph, the NLL is the loop's step-0 loss bit for bit
    assert nll(init_parameters(config), examples) == losses[0]
