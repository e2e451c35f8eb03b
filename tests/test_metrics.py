import json

import numpy as np
import pytest

from seamkit.mesh import IndexedMesh, SeamEdgeSet, normalize
from seamkit.metrics import (
    SeamMetrics,
    StageError,
    UndefinedMetricError,
    distortion,
    evaluate_edges,
    evaluate_with_atlas,
)
from seamkit.shapes import grid_vertex, make_grid, make_sphere
from seamkit.tokenizer import SeamSet
from seamkit.unwrap import UVAtlas, cut_mesh, unwrap_atlas

from tests.test_unwrap import island_count_oracle, _random_seam_subset


def evaluate(mesh, seams):
    return evaluate_with_atlas(normalize(mesh)[0], seams)[0]


def _atlas_from_pairs(tri_pairs):
    """Build a UVAtlas directly from (3D triangle, UV triangle) pairs."""
    verts = []
    uvs = []
    tris = []
    for p3d, p2d in tri_pairs:
        base = len(verts)
        verts.extend(np.asarray(p3d, dtype=float))
        uvs.extend(np.asarray(p2d, dtype=float))
        tris.append((base, base + 1, base + 2))
    verts = np.asarray(verts)
    uvs = np.asarray(uvs)
    tris = np.asarray(tris)
    p = verts[tris]
    areas = 0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)
    from seamkit.unwrap import _jacobians, _local_frames

    J = _jacobians(_local_frames(p)[0], uvs[tris])
    sigma = np.linalg.svd(J, compute_uv=False)
    return UVAtlas(
        vertices=verts,
        triangles=tris,
        uv=uvs,
        face_island=np.zeros(len(tris), dtype=np.int64),
        island_count=1,
        sigma=sigma,
        area3d=areas,
        excluded=np.zeros(len(tris), dtype=bool),
    )


def test_distortion_singular_value_stretch_is_three():
    p3d = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    p2d = [[0, 0], [2, 0], [0, 1]]  # deformation gradient diag(2, 1)
    atlas = _atlas_from_pairs([(p3d, p2d)])
    assert abs(distortion(atlas) - 3.0) <= 1e-12


def test_distortion_isometric_is_zero():
    p3d = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    p2d = [[0, 0], [1, 0], [0, 1]]
    atlas = _atlas_from_pairs([(p3d, p2d), (p3d, p2d)])
    assert distortion(atlas) <= 1e-9


def test_distortion_area_weighted_case():
    # two triangles, areas 1 and 3, per-triangle terms 3 and 0 -> 0.75
    t1_3d = [[0, 0, 0], [2, 0, 0], [0, 1, 0]]  # area 1
    t1_2d = [[0, 0], [4, 0], [0, 1]]  # J = diag(2, 1): term |4 - 1| = 3
    t2_3d = [[0, 0, 0], [3, 0, 0], [0, 2, 0]]  # area 3
    t2_2d = [[0, 0], [3, 0], [0, 2]]  # isometric: term 0
    atlas = _atlas_from_pairs([(t1_3d, t1_2d), (t2_3d, t2_2d)])
    assert abs(distortion(atlas) - 0.75) <= 1e-12


def test_distortion_undefined_when_all_excluded():
    p3d = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    atlas = _atlas_from_pairs([(p3d, [[0, 0], [1, 0], [0, 1]])])
    broken = UVAtlas(
        vertices=atlas.vertices,
        triangles=atlas.triangles,
        uv=atlas.uv,
        face_island=atlas.face_island,
        island_count=1,
        sigma=atlas.sigma,
        area3d=atlas.area3d,
        excluded=np.ones(1, dtype=bool),
    )
    with pytest.raises(UndefinedMetricError):
        distortion(broken)


def test_fragmentation_trivial_and_oracle():
    sphere = make_sphere(6, 8)
    atlas = unwrap_atlas(cut_mesh(sphere, SeamEdgeSet()))
    assert atlas.island_count == 1

    two = IndexedMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
        triangles=np.array([[0, 1, 2], [1, 3, 2]]),
    )
    atlas2 = unwrap_atlas(cut_mesh(two, SeamEdgeSet([(1, 2)])))
    assert atlas2.island_count == 2

    rng = np.random.default_rng(0)
    for trial in range(15):
        mesh = make_sphere(int(rng.integers(3, 7)), int(rng.integers(4, 9)))
        seams = _random_seam_subset(mesh, rng, frac=float(rng.uniform(0.1, 0.5)))
        atlas = unwrap_atlas(cut_mesh(mesh, seams))
        assert atlas.island_count == island_count_oracle(mesh, seams)


def test_evaluate_grid_with_full_and_partial_seam():
    nx = ny = 6
    mesh = make_grid(nx, ny)

    def seam_segments(i0, i1, j):
        chain = [grid_vertex(nx, i, j) for i in range(i0, i1 + 1)]
        rows = [
            np.stack([mesh.vertices[u], mesh.vertices[v]])
            for u, v in zip(chain, chain[1:])
        ]
        return SeamSet(segments=np.stack(rows))

    # normalize() maps the grid into the canonical cube; segments must follow.
    norm_mesh, tf = normalize(mesh)

    def to_canonical(seams):
        return SeamSet(segments=tf.apply(seams.segments.reshape(-1, 3)).reshape(-1, 2, 3))

    # full-width seam disconnects the grid
    full = to_canonical(seam_segments(0, nx, 3))
    m_full = evaluate(mesh, full)
    assert m_full.fragments == 2
    # seam stopping short of both boundaries does not
    short = to_canonical(seam_segments(1, nx - 1, 3))
    m_short = evaluate(mesh, short)
    assert m_short.fragments == 1
    assert m_full.distortion <= 1e-9  # still planar after cutting


def test_evaluate_scale_invariance():
    mesh = make_sphere(5, 7)
    rng = np.random.default_rng(1)
    seams = SeamSet(segments=rng.uniform(-0.4, 0.4, size=(4, 2, 3)))
    base = evaluate(mesh, seams)
    for s in (0.5, 2.0, 10.0):
        scaled = IndexedMesh(vertices=mesh.vertices * s, triangles=mesh.triangles)
        m = evaluate(scaled, seams)
        assert m.fragments == base.fragments
        assert m.distortion == pytest.approx(base.distortion, rel=1e-9)
        assert m.excluded_triangles == base.excluded_triangles


def test_evaluate_empty_seams_on_sphere():
    mesh = make_sphere(6, 8)
    m = evaluate(mesh, SeamSet.empty())
    assert m.fragments == 1
    assert np.isfinite(m.distortion)
    assert m.distortion > 0.1  # closed surface cannot flatten conformally


def test_evaluate_is_deterministic_apart_from_runtime():
    mesh = make_sphere(5, 6)
    rng = np.random.default_rng(2)
    seams = SeamSet(segments=rng.uniform(-0.4, 0.4, size=(3, 2, 3)))
    a = evaluate(mesh, seams)
    b = evaluate(mesh, seams)
    assert a.distortion == b.distortion
    assert a.fragments == b.fragments
    assert a.excluded_triangles == b.excluded_triangles


def test_stage_error_names_stage():
    mesh = make_grid(2, 2)
    bad = SeamEdgeSet([(0, 99)])
    with pytest.raises(StageError) as err:
        evaluate_edges(mesh, bad)
    assert err.value.stage == "cut"


def test_metrics_json_round_trip():
    m = SeamMetrics(distortion=1.25, fragments=3, runtime_s=0.5, excluded_triangles=0)
    d = json.loads(m.to_json())
    assert SeamMetrics.from_dict(d) == m
    assert set(d) == {"distortion", "fragments", "runtime_s", "excluded_triangles"}
