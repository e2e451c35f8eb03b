"""The array-built shapes and the record writer against the loops in loop_reference.py.

Generators must give the same vertex, triangle and UV arrays bit for bit
(same dtype, shape and bytes), and writers the same text, byte for byte.
``save_obj``, ``write_seam_text``, ``SeamEdgeSet.to_text``,
``write_token_text``, ``write_xyz`` and the vertex lines of ``atlas_to_obj``
are checked on any float (``-0.0``, subnormals, +-1e300, NaN, infinities)
and on indices far past any real mesh size; ``atlas_to_obj`` and
``atlas_to_svg`` also on unwrapped atlases, one with an excluded triangle.
"""

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamkit import shapes
from seamkit.mesh import SeamEdgeSet, extract_uv_seams, save_obj
from seamkit.sampling import write_xyz
from seamkit.tokenizer import (
    VOCAB_SIZE,
    SeamSet,
    TokenSequence,
    write_seam_text,
    write_token_text,
)
from seamkit.unwrap import atlas_to_obj, atlas_to_svg, cut_mesh, unwrap_atlas

from tests import loop_reference as ref
from tests.util import sliver_grid_atlas

GENERATOR_CASES = [
    ("make_grid", (1, 1), {}),
    ("make_grid", (3, 5), {}),
    ("make_grid", (8, 8), {}),
    ("make_grid", (17, 2), {"width": 2.5, "height": 0.3}),
    ("make_cube", (1,), {}),
    ("make_cube", (2,), {"with_uv": False}),
    ("make_cube", (3,), {"side": 2.7}),
    ("make_cube", (7,), {}),
    ("make_cube", (16,), {}),
    ("make_cylinder", (3, 1), {}),
    ("make_cylinder", (4, 2), {"with_uv": False}),
    ("make_cylinder", (7, 5), {}),
    ("make_cylinder", (9, 4), {"radius": 1, "height": 3}),
    ("make_cylinder", (16, 16), {}),
    ("make_cylinder", (64, 32), {"with_uv": False}),
    ("make_cylinder", (128, 128), {}),
    ("make_sphere", (2, 3), {}),
    ("make_sphere", (3, 4), {}),
    ("make_sphere", (7, 5), {"radius": 2}),
    ("make_sphere", (8, 12), {}),
    ("make_sphere", (32, 64), {}),
    ("make_sphere", (64, 128), {}),
    ("make_random_hull", (4, 0), {}),
    ("make_random_hull", (30, 1), {}),
    ("make_random_hull", (200, 2), {"scale": 3.0}),
]


def _case_id(case):
    name, args, kwargs = case
    extra = "".join(f"-{k}={v}" for k, v in kwargs.items())
    return f"{name}{args}{extra}".replace(" ", "")


def _assert_bit_identical(a: np.ndarray, b: np.ndarray):
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", GENERATOR_CASES, ids=_case_id)
def test_generator_matches_loop_reference(case):
    name, args, kwargs = case
    mesh = getattr(shapes, name)(*args, **kwargs)
    expected = getattr(ref, name)(*args, **kwargs)
    _assert_bit_identical(mesh.vertices, expected.vertices)
    _assert_bit_identical(mesh.triangles, expected.triangles)
    assert mesh.has_uvs == expected.has_uvs
    if mesh.has_uvs:
        _assert_bit_identical(mesh.uv_corners, expected.uv_corners)
    assert save_obj(mesh) == ref.save_obj(mesh)


@pytest.mark.parametrize(
    "make, args, message",
    [
        (shapes.make_grid, (0, 3), "nx must be at least 1, got 0"),
        (shapes.make_grid, (3, -1), "ny must be at least 1, got -1"),
        (shapes.make_perturbed_grid, (0, 2), "nx must be at least 1, got 0"),
        (shapes.make_cube, (0,), "n must be at least 1, got 0"),
        (shapes.make_cylinder, (2, 4), "n_theta must be at least 3, got 2"),
        (shapes.make_cylinder, (8, 0), "n_z must be at least 1, got 0"),
        (shapes.make_sphere, (1, 8), "n_lat must be at least 2, got 1"),
        (shapes.make_sphere, (4, 2), "n_lon must be at least 3, got 2"),
    ],
    ids=["grid-nx", "grid-ny", "perturbed-nx", "cube-n", "cylinder-n_theta",
         "cylinder-n_z", "sphere-n_lat", "sphere-n_lon"],
)
def test_generator_rejects_bad_size(make, args, message):
    with pytest.raises(ValueError, match=message):
        make(*args)


# ---------------------------------------------------------------------------
# Writers on arbitrary values

SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300,
    1.7976931348623157e308, 0.1, 1 / 3, float("nan"), float("inf"), float("-inf"),
]
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
_indices = st.one_of(st.integers(0, 1000), st.integers(0, 2**62))


def _float_rows(width, max_rows=12, min_rows=0):
    rows = st.lists(_floats, min_size=width, max_size=width)
    return st.lists(rows, min_size=min_rows, max_size=max_rows).map(
        lambda rows: np.array(rows, dtype=np.float64).reshape(-1, width)
    )


@st.composite
def _duck_meshes(draw):
    """Mesh-like records with any floats and any (large) vertex indices; the
    writers read only the arrays, so the indices need not be in range."""
    vertices = draw(_float_rows(3))
    tris = draw(st.lists(st.lists(_indices, min_size=3, max_size=3), max_size=12))
    triangles = np.array(tris, dtype=np.int64).reshape(-1, 3)
    uv = None
    if draw(st.booleans()):
        uv = draw(_float_rows(2, min_rows=3 * len(triangles), max_rows=3 * len(triangles)))
    return SimpleNamespace(
        vertices=vertices,
        triangles=triangles,
        uv_corners=uv,
        has_uvs=uv is not None,
        n_triangles=len(triangles),
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_duck_meshes())
def test_save_obj_matches_loop_reference(mesh):
    assert save_obj(mesh) == ref.save_obj(mesh)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_float_rows(6))
def test_write_seam_text_matches_loop_reference(rows):
    seams = SeamSet(segments=rows.reshape(-1, 2, 3))
    assert write_seam_text(seams) == ref.write_seam_text(seams)


# a few small indices, so that lists repeat pairs in both orders
_vertex = st.one_of(st.integers(0, 4), st.integers(-(2**63), 2**63 - 1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_vertex, _vertex, st.integers(0, 3)), max_size=20))
def test_seam_edge_text_matches_loop_reference(rows):
    pairs = [(a, b) for a, b, _ in rows]
    want = {}
    for a, b, segment in rows:
        want.setdefault((min(a, b), max(a, b)), []).append(segment)
    arrays = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    traced = SeamEdgeSet.from_pairs(arrays, [segment for _, _, segment in rows])
    assert traced.provenance == {edge: tuple(sorted(v)) for edge, v in want.items()}
    for edges in (SeamEdgeSet(edges=pairs), SeamEdgeSet.from_pairs(arrays), traced):
        assert edges.edges == frozenset(want)
        assert edges.to_text() == ref.seam_edge_text(edges)
        read = SeamEdgeSet.from_text(edges.to_text())
        assert read == SeamEdgeSet.from_pairs(edges.pairs) and read.provenance == {}
        assert read.pairs.dtype == np.int64 and read.pairs.shape == (len(want), 2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_float_rows(3))
def test_write_xyz_matches_loop_reference(points):
    assert write_xyz(points) == ref.write_xyz(points)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, VOCAB_SIZE - 1), max_size=40))
def test_write_token_text_matches_loop_reference(tokens):
    sequence = TokenSequence(tokens=np.array(tokens, dtype=np.int64))
    assert write_token_text(sequence) == ref.write_token_text(sequence)


# ---------------------------------------------------------------------------
# Atlas exports


def _uv_atlas(mesh):
    return unwrap_atlas(cut_mesh(mesh, extract_uv_seams(mesh)))


def _every_kth_edge_atlas(mesh, k):
    seams = frozenset(map(tuple, mesh.edges[::k].tolist()))
    return unwrap_atlas(cut_mesh(mesh, SeamEdgeSet(edges=seams)))


# atlases built when a test first asks for one
_ATLASES = {
    "cube": lambda: _uv_atlas(shapes.make_cube(3)),
    "cylinder": lambda: _uv_atlas(shapes.make_cylinder(32, 16)),
    "sphere": lambda: _every_kth_edge_atlas(shapes.make_sphere(8, 12), 7),
    "sliver-grid": sliver_grid_atlas,
}


@functools.cache
def _atlas(name):
    return _ATLASES[name]()


@pytest.mark.parametrize("name", list(_ATLASES))
def test_atlas_exports_match_loop_reference(name):
    atlas = _atlas(name)
    assert atlas_to_obj(atlas) == ref.atlas_to_obj(atlas)
    assert atlas_to_svg(atlas) == ref.atlas_to_svg(atlas)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_float_rows(3, min_rows=1))
def test_atlas_obj_matches_loop_reference_on_any_vertices(rows):
    atlas = _atlas("cube")
    # the drawn rows, repeated over every vertex of the atlas
    moved = dataclasses.replace(atlas, vertices=np.resize(rows, atlas.vertices.shape))
    assert atlas_to_obj(moved) == ref.atlas_to_obj(moved)
