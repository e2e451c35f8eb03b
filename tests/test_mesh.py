import numpy as np
import pytest

from seamkit.mesh import (
    DegenerateInputError,
    IndexedMesh,
    MissingUVError,
    ObjIndexError,
    ObjParseError,
    build_edge_graph,
    extract_uv_seams,
    load_obj,
    normalize,
    save_obj,
)
from seamkit.shapes import make_cube, make_grid, make_perturbed_grid, make_random_hull, make_tetrahedron

from tests import loop_reference

MINIMAL_OBJ = """
v 0 0 0
v 1 0 0
v 0 1 0
f 1 2 3
"""

QUAD_OBJ = """
v 0 0 0
v 1 0 0
v 1 1 0
v 0 1 0
vt 0 0
vt 1 0
vt 1 1
vt 0 1
f 1/1 2/2 3/3 4/4
"""


def test_minimal_obj():
    mesh = load_obj(MINIMAL_OBJ)
    assert mesh.n_vertices == 3
    assert mesh.n_triangles == 1
    assert not mesh.has_uvs


def test_quad_fan_triangulation():
    mesh = load_obj(QUAD_OBJ)
    assert mesh.n_triangles == 2
    assert mesh.triangles.tolist() == [[0, 1, 2], [0, 2, 3]]
    assert mesh.uv_corners.shape == (6, 2)
    # fan order (1,2,3), (1,3,4) carries the matching vt rows
    np.testing.assert_allclose(
        mesh.uv_corners, [[0, 0], [1, 0], [1, 1], [0, 0], [1, 1], [0, 1]]
    )


def test_slash_forms_and_ignored_records():
    text = """
o thing
vn 0 0 1
v 0 0 0
v 1 0 0
v 0 1 0
f 1//1 2//1 3//1
"""
    mesh = load_obj(text)
    assert mesh.n_triangles == 1
    assert not mesh.has_uvs


def test_str_source_is_text_even_when_it_names_a_file(tmp_path, monkeypatch):
    (tmp_path / "tri.obj").write_text(MINIMAL_OBJ)
    monkeypatch.chdir(tmp_path)
    # one unknown record "tri.obj", not the file of that name
    assert load_obj("tri.obj").n_vertices == 0
    assert load_obj("/").n_vertices == 0
    assert load_obj(tmp_path / "tri.obj").n_triangles == 1


def test_parse_error_has_line_number():
    with pytest.raises(ObjParseError) as err:
        load_obj("v 0 0 0\nv bad 0 0\n")
    assert err.value.line_no == 2


def test_face_index_out_of_range():
    with pytest.raises(ObjIndexError):
        load_obj("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 5\n")


def test_degenerate_face_rejected():
    """The error names the first face whose fan repeats a vertex."""
    for text, line_no in [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 2\n", 4),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n", 5),
    ]:
        with pytest.raises(ObjParseError) as err:
            load_obj(text)
        assert err.value.line_no == line_no
        assert str(err.value) == f"OBJ line {line_no}: degenerate triangle (repeated vertex index)"


def _random_mesh(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return make_random_hull(int(rng.integers(8, 30)), seed=int(rng.integers(1 << 30)))
    if kind == 1:
        return make_perturbed_grid(
            int(rng.integers(2, 6)), int(rng.integers(2, 6)), seed=int(rng.integers(1 << 30))
        )
    return make_cube(n=int(rng.integers(1, 3)), with_uv=bool(rng.integers(0, 2)))


def test_obj_round_trip_100_random_meshes():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mesh = _random_mesh(rng)
        m1 = load_obj(save_obj(mesh))  # 9-significant-digit lattice
        m2 = load_obj(save_obj(m1))
        np.testing.assert_array_equal(m1.vertices, m2.vertices)
        np.testing.assert_array_equal(m1.triangles, m2.triangles)
        if m1.has_uvs:
            np.testing.assert_array_equal(m1.uv_corners, m2.uv_corners)
        else:
            assert not m2.has_uvs


def test_normalize_cube():
    mesh = IndexedMesh(
        vertices=np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0], [0, 0, 2]], dtype=float),
        triangles=np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
    )
    out, tf = normalize(mesh)
    assert tf.scale == pytest.approx(0.5)
    np.testing.assert_allclose(tf.center, [1, 1, 1])
    lo, hi = out.bounding_box()
    np.testing.assert_allclose(lo, [-0.5, -0.5, -0.5], atol=1e-15)
    np.testing.assert_allclose(hi, [0.5, 0.5, 0.5], atol=1e-15)


def test_normalize_identity_on_canonical():
    mesh = make_cube(n=1, with_uv=False)  # spans [-0.5, 0.5]^3 already
    out, tf = normalize(mesh)
    assert tf.scale == 1.0
    np.testing.assert_array_equal(tf.center, [0, 0, 0])
    np.testing.assert_array_equal(out.vertices, mesh.vertices)


def test_normalize_inverse_composition():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mesh = make_random_hull(20, seed=int(rng.integers(1 << 30)), scale=rng.uniform(0.1, 50))
        out, tf = normalize(mesh)
        # the recorded transform is the one applied, and its fields undo it
        np.testing.assert_array_equal(out.vertices, tf.apply(mesh.vertices))
        back = out.vertices / tf.scale + tf.center
        scale = np.abs(mesh.vertices).max()
        assert np.abs(back - mesh.vertices).max() <= 1e-12 * max(scale, 1.0)


def test_normalize_idempotent():
    rng = np.random.default_rng(4)
    for _ in range(10):
        mesh = make_random_hull(15, seed=int(rng.integers(1 << 30)), scale=rng.uniform(0.5, 9))
        once, _ = normalize(mesh)
        _, tf2 = normalize(once)
        assert abs(tf2.scale - 1.0) <= 1e-12


def test_normalize_keeps_edge_index():
    mesh = make_cube(n=2, with_uv=True)
    out, _ = normalize(IndexedMesh(mesh.vertices * 3.0 + 1.0, mesh.triangles, mesh.uv_corners))
    rebuilt = IndexedMesh(out.vertices, out.triangles, out.uv_corners)
    for name in (
        "vertices", "triangles", "uv_corners", "edges", "face_edges", "edge_lengths", "_edge_keys"
    ):
        got, want = getattr(out, name), getattr(rebuilt, name)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_normalize_zero_extent():
    mesh = IndexedMesh(
        vertices=np.zeros((3, 3)), triangles=np.array([[0, 1, 2]])
    )
    with pytest.raises(DegenerateInputError):
        normalize(mesh)


TWO_TRI_SAME_UV = """
v 0 0 0
v 1 0 0
v 0 1 0
v 1 1 0
vt 0 0
vt 1 0
vt 0 1
vt 1 1
f 1/1 2/2 3/3
f 2/2 4/4 3/3
"""


def test_uv_seams_matching_corners_empty():
    mesh = load_obj(TWO_TRI_SAME_UV)
    assert len(extract_uv_seams(mesh)) == 0


def test_uv_seams_mismatched_corner_marks_edge():
    # second face references a different vt for shared vertex 2
    text = TWO_TRI_SAME_UV.replace("f 2/2 4/4 3/3", "f 2/1 4/4 3/3")
    mesh = load_obj(text)
    seams = extract_uv_seams(mesh)
    assert seams.pairs.tolist() == [[1, 2]]


def test_uv_seams_requires_uvs():
    with pytest.raises(MissingUVError):
        extract_uv_seams(load_obj(MINIMAL_OBJ))


def _uv_seams_bruteforce(mesh):
    """Independent per-edge scan used as the oracle."""
    seams = set()
    for e, faces in enumerate(loop_reference.edge_faces(mesh)[1]):
        if len(faces) < 2:
            continue
        a, b = (int(x) for x in mesh.edges[e])
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                for v in (a, b):
                    ka = list(mesh.triangles[faces[i]]).index(v)
                    kb = list(mesh.triangles[faces[j]]).index(v)
                    d = np.abs(
                        mesh.uv_corners[3 * faces[i] + ka]
                        - mesh.uv_corners[3 * faces[j] + kb]
                    ).max()
                    if d > 1e-7:
                        seams.add((min(a, b), max(a, b)))
    return seams


def test_uv_seams_cube_islands_vs_bruteforce():
    mesh = make_cube(n=2, with_uv=True)
    seams = extract_uv_seams(mesh)
    assert seams.pairs.tolist() == sorted(map(list, _uv_seams_bruteforce(mesh)))
    assert len(seams) > 0


def test_uv_seams_invariant_under_face_permutation():
    mesh = make_cube(n=2, with_uv=True)
    rng = np.random.default_rng(11)
    perm = rng.permutation(mesh.n_triangles)
    uv = mesh.uv_corners.reshape(-1, 3, 2)[perm].reshape(-1, 2)
    permuted = IndexedMesh(
        vertices=mesh.vertices, triangles=mesh.triangles[perm], uv_corners=uv
    )
    assert extract_uv_seams(permuted).pairs.tolist() == extract_uv_seams(mesh).pairs.tolist()


def test_edge_graph_triangle_and_tetra():
    tri = load_obj(MINIMAL_OBJ)
    g = build_edge_graph(tri)
    assert g.shape[0] == 3
    assert g.nnz == 2 * 3
    tet = make_tetrahedron()
    g = build_edge_graph(tet)
    assert g.shape[0] == 4
    assert g.nnz == 2 * 6


def test_edge_graph_matches_bruteforce_pairs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        mesh = _random_mesh(rng)
        g = build_edge_graph(mesh)
        pairs = set()
        for t in mesh.triangles:
            for i, j in ((0, 1), (1, 2), (2, 0)):
                pairs.add((min(t[i], t[j]), max(t[i], t[j])))
        coo = g.tocoo()
        entries = list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
        arcs = {(min(v, n), max(v, n)) for v, n, _ in entries}
        assert arcs == pairs
        for v, n, w in entries:
            assert w == pytest.approx(
                float(np.linalg.norm(mesh.vertices[v] - mesh.vertices[n]))
            )
        # each edge once in both rows, neighbours ascending within a row
        assert g.nnz == 2 * len(pairs)
        assert (g != g.T).nnz == 0
        for v in range(g.shape[0]):
            row = g.indices[g.indptr[v] : g.indptr[v + 1]]
            assert np.all(np.diff(row) > 0)


def test_grid_shape_helpers():
    mesh = make_grid(3, 2)
    assert mesh.n_vertices == 4 * 3
    assert mesh.n_triangles == 3 * 2 * 2
