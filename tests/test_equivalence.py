"""The array-native cut-and-unwrap core against the loop reference in loop_reference.py.

Discrete outputs (seam edge sets, islands, cut triangles and vertices, pins,
non-disk flags) must match exactly.  UVs come from a different factorization
order of the same normal equations, so they match to UV_ATOL.
"""

import logging

import numpy as np
import pytest

from seamkit.mesh import IndexedMesh, SeamEdgeSet, extract_uv_seams, normalize
from seamkit.projection import project_seams
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
from seamkit.unwrap import SOLVE_RESIDUAL_REL, cut_mesh, parameterize_island, unwrap_atlas

from tests import loop_reference as ref
from tests.corpus import corpus_meshes, quad_cutout_loops

UV_ATOL = 1e-9


def _random_segments(mesh, n, seed):
    """Project n uniform-random segments in the canonical cube onto the mesh."""
    rng = np.random.default_rng(seed)
    segs = rng.uniform(-0.5, 0.5, size=(n, 2, 3))
    return project_seams(mesh, SeamSet(segments=segs))


def _random_edges(mesh, frac, seed):
    take = np.random.default_rng(seed).random(len(mesh.edges)) < frac
    return SeamEdgeSet(edges=frozenset(map(tuple, mesh.edges[take].tolist())))


def _cases():
    """(name, normalized mesh, seam edges) for every generator and the corpus."""
    meshes = [
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
    cases = []
    for name, mesh in meshes:
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
    assert mesh.nonmanifold_edges == (mesh.edge_id(0, 1),)
    assert mesh.edge_faces[mesh.edge_id(0, 1)] == (0, 1, 2)
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
