import logging
import weakref
import xml.etree.ElementTree as ET
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.sparse as sp

from seamkit.mesh import IndexedMesh, SeamEdgeSet, extract_uv_seams, load_obj, normalize
from seamkit.shapes import (
    grid_vertex,
    make_cube,
    make_cylinder,
    make_grid,
    make_perturbed_grid,
    make_random_hull,
    make_sphere,
)
from seamkit import unwrap
from seamkit.projection import project_seams
from seamkit.tokenizer import SeamSet
from seamkit.unwrap import (
    CutContractError,
    SolveError,
    _jacobians,
    _local_frames,
    _singular_values,
    atlas_to_obj,
    atlas_to_svg,
    cut_mesh,
    layout_uv,
    parameterize_island,
    unwrap_atlas,
)

from tests import loop_reference
from tests.util import sliver_grid_atlas


class UnionFindOracle:
    """Independent island oracle: union-find over faces joined by non-seam edges."""

    def __init__(self, n):
        self.p = list(range(n))

    def find(self, a):
        while self.p[a] != a:
            self.p[a] = self.p[self.p[a]]
            a = self.p[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.p[ra] = rb


def island_count_oracle(mesh, seams):
    uf = UnionFindOracle(mesh.n_triangles)
    marked = set(map(tuple, seams.pairs.tolist()))
    for eid, faces in enumerate(loop_reference.edge_faces(mesh)[1]):
        a, b = (int(x) for x in mesh.edges[eid])
        if (a, b) in marked:
            continue
        for i in range(len(faces)):
            for j in range(i + 1, len(faces)):
                uf.union(faces[i], faces[j])
    return len({uf.find(f) for f in range(mesh.n_triangles)})


def two_triangles():
    return IndexedMesh(
        vertices=np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float),
        triangles=np.array([[0, 1, 2], [1, 3, 2]]),
    )


def test_cut_empty_seams_closed_mesh():
    mesh = make_sphere(6, 8)
    cut = cut_mesh(mesh, SeamEdgeSet())
    assert cut.n_islands == 1
    assert len(cut.vertices) == mesh.n_vertices
    assert len(cut.triangles) == mesh.n_triangles


def test_cut_two_triangles_along_shared_edge():
    mesh = two_triangles()
    cut = cut_mesh(mesh, SeamEdgeSet([(1, 2)]))
    assert cut.n_islands == 2
    assert len(cut.vertices) == 6  # both shared vertices duplicated
    assert len(cut.triangles) == 2


def test_cut_rejects_non_mesh_edge():
    mesh = two_triangles()
    with pytest.raises(CutContractError):
        cut_mesh(mesh, SeamEdgeSet([(0, 3)]))


def _random_seam_subset(mesh, rng, frac=0.25):
    edges = [tuple(int(x) for x in e) for e in mesh.edges]
    take = rng.random(len(edges)) < frac
    return SeamEdgeSet([e for e, t in zip(edges, take) if t])


def test_cut_islands_match_union_find_oracle():
    rng = np.random.default_rng(0)
    for trial in range(40):
        kind = trial % 3
        if kind == 0:
            mesh = make_random_hull(int(rng.integers(8, 40)), seed=int(rng.integers(1 << 30)))
        elif kind == 1:
            mesh = make_perturbed_grid(int(rng.integers(2, 7)), int(rng.integers(2, 7)), seed=trial)
        else:
            mesh = make_cube(n=int(rng.integers(1, 3)), with_uv=False)
        assert mesh.n_triangles <= 200
        seams = _random_seam_subset(mesh, rng, frac=float(rng.uniform(0, 0.6)))
        cut = cut_mesh(mesh, seams)
        assert cut.n_islands == island_count_oracle(mesh, seams)
        assert len({int(i) for i in cut.face_island}) == cut.n_islands


def test_cut_conserves_area_and_connectivity():
    rng = np.random.default_rng(1)
    mesh = make_random_hull(25, seed=5)
    seams = _random_seam_subset(mesh, rng, 0.3)
    cut = cut_mesh(mesh, seams)
    a0 = mesh.triangle_areas().sum()
    p = cut.vertices[cut.triangles]
    a1 = (0.5 * np.linalg.norm(np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1)).sum()
    assert abs(a0 - a1) <= 1e-12 * a0
    # cut vertices map back onto their original positions
    np.testing.assert_array_equal(cut.vertices, mesh.vertices[cut.orig_vertex])


def test_cut_vertex_pairs_iff_nonseam_edge_on_path_seams():
    # a seam path across a grid: triangles across a seam edge share no cut-vertex pair
    mesh = make_grid(4, 4)
    chain = [grid_vertex(4, i, 2) for i in range(5)]
    seam = SeamEdgeSet(list(zip(chain, chain[1:])))
    cut = cut_mesh(mesh, seam)
    marked = set(map(tuple, seam.pairs.tolist()))
    shared = {}
    for f, t in enumerate(cut.triangles):
        for i, j in ((0, 1), (1, 2), (2, 0)):
            key = (min(t[i], t[j]), max(t[i], t[j]))
            shared.setdefault(key, []).append(f)
    orig_tri = mesh.triangles
    for (a, b), faces in shared.items():
        if len(faces) < 2:
            continue
        for fi in range(len(faces)):
            for fj in range(fi + 1, len(faces)):
                oa = {int(x) for x in orig_tri[faces[fi]]} & {int(x) for x in orig_tri[faces[fj]]}
                # the original shared edge of these two faces must not be a seam
                o_edge = (min(oa), max(oa)) if len(oa) == 2 else None
                assert o_edge is not None and o_edge not in marked


def triangle_jacobian(p3d, p2d) -> tuple[float, float]:
    """Singular values (descending) of one triangle's deformation gradient."""
    p3d = np.asarray(p3d, dtype=np.float64).reshape(1, 3, 3)
    p2d = np.asarray(p2d, dtype=np.float64).reshape(1, 3, 2)
    E, _, good = _local_frames(p3d)
    if not good[0]:
        raise ValueError("triangle has zero 3D area")
    s = _singular_values(_jacobians(E, p2d))[0]
    return float(s[0]), float(s[1])


def test_triangle_jacobian_trivial_cases():
    p3d = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    assert triangle_jacobian(p3d, [[0, 0], [1, 0], [0, 1]]) == pytest.approx((1, 1))
    assert triangle_jacobian(p3d, [[0, 0], [2, 0], [0, 1]]) == pytest.approx((2, 1))
    with pytest.raises(ValueError):
        triangle_jacobian([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 0], [1, 0], [0, 1]])


def _svd2_closed_form(J):
    """Oracle: singular values from the eigenvalues of J^T J in closed form."""
    a, b = J[0]
    c, d = J[1]
    t = a * a + b * b + c * c + d * d
    det = a * d - b * c
    disc = max(t * t - 4 * det * det, 0.0)
    r = np.sqrt(disc)
    s1 = np.sqrt(max((t + r) / 2, 0.0))
    s2 = np.sqrt(max((t - r) / 2, 0.0))
    return s1, s2


def test_triangle_jacobian_matches_closed_form_svd():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p3d = rng.normal(size=(3, 3))
        p2d = rng.normal(size=(3, 2))
        if np.linalg.norm(np.cross(p3d[1] - p3d[0], p3d[2] - p3d[0])) < 1e-3:
            continue
        s1, s2 = triangle_jacobian(p3d, p2d)
        # reconstruct J independently
        e1 = p3d[1] - p3d[0]
        e2 = p3d[2] - p3d[0]
        ex = e1 / np.linalg.norm(e1)
        nz = np.cross(e1, e2)
        ez = nz / np.linalg.norm(nz)
        ey = np.cross(ez, ex)
        E = np.array([[np.linalg.norm(e1), e2 @ ex], [0, e2 @ ey]])
        U = np.stack([p2d[1] - p2d[0], p2d[2] - p2d[0]], axis=1)
        J = U @ np.linalg.inv(E)
        o1, o2 = _svd2_closed_form(J)
        assert s1 == pytest.approx(o1, rel=1e-9, abs=1e-12)
        assert s2 == pytest.approx(o2, rel=1e-9, abs=1e-12)


def _singular_value_cases(rng):
    """Random, zero, rank-1, rotation and similarity 2x2 matrices, scaled by 1 and 1e+-100."""
    random = rng.normal(size=(4000, 2, 2))
    rank1 = rng.normal(size=(1000, 2, 1)) @ rng.normal(size=(1000, 1, 2))
    th = rng.uniform(0, 2 * np.pi, size=1000)
    rot = np.stack([np.cos(th), -np.sin(th), np.sin(th), np.cos(th)], axis=1).reshape(-1, 2, 2)
    sim = rot * rng.uniform(0.01, 100.0, size=(1000, 1, 1))
    base = np.concatenate([random, np.zeros((1, 2, 2)), rank1, rot, sim])
    return np.concatenate([base, base * 1e100, base * 1e-100])


def _decimal_singular_values(J) -> tuple[float, float]:
    """The same closed form evaluated in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, c, d = (Decimal(float(x)) for x in J.ravel())
        p, q, r = a * a + b * b, c * c + d * d, a * c + b * d
        s1 = ((p + q) / 2 + (((p - q) / 2) ** 2 + r * r).sqrt()).sqrt()
        s2 = abs(a * d - b * c) / s1 if s1 else Decimal(0)
        return float(s1), float(s2)


def test_singular_values_match_lapack():
    J = _singular_value_cases(np.random.default_rng(11))
    got = _singular_values(J)
    want = np.linalg.svd(J, compute_uv=False)
    # LAPACK's own error reaches about 4.3 eps * sigma1 on random matrices (against
    # the decimal evaluation below), so the two may differ by the sum of both errors
    eps = np.finfo(float).eps
    assert (np.abs(got - want) <= 8 * eps * want[:, :1]).all()
    assert (got[:, 0] >= got[:, 1]).all()
    assert not got[np.all(J == 0, axis=(1, 2))].any()


def test_singular_values_match_decimal_evaluation():
    J = _singular_value_cases(np.random.default_rng(12))[::20]
    got = _singular_values(J)
    want = np.array([_decimal_singular_values(m) for m in J])
    eps = np.finfo(float).eps
    assert (np.abs(got - want) <= 2 * eps * want[:, :1]).all()


def _rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def test_jacobian_invariances():
    rng = np.random.default_rng(3)
    p3d = rng.normal(size=(3, 3))
    p2d = rng.normal(size=(3, 2))
    s = triangle_jacobian(p3d, p2d)
    # rigid motion of the 3D triangle
    r = _rotation(rng)
    s_rot = triangle_jacobian(p3d @ r.T + rng.normal(size=3), p2d)
    assert s_rot == pytest.approx(s, rel=1e-9)
    # rigid motion of the UV triangle
    th = rng.uniform(0, 2 * np.pi)
    r2 = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    s_rot2 = triangle_jacobian(p3d, p2d @ r2.T + rng.normal(size=2))
    assert s_rot2 == pytest.approx(s, rel=1e-9)
    # uniform UV scaling scales both singular values
    s_scaled = triangle_jacobian(p3d, 2.5 * p2d)
    assert s_scaled == pytest.approx((2.5 * s[0], 2.5 * s[1]), rel=1e-9)


def test_lscm_planar_island_is_conformal():
    mesh = make_grid(6, 5)
    atlas = unwrap_atlas(cut_mesh(mesh, SeamEdgeSet()))
    assert atlas.island_count == 1
    terms = atlas.distortion_terms()[~atlas.excluded]
    areas = atlas.area3d[~atlas.excluded]
    dist = float((terms * areas).sum() / areas.sum())
    assert dist <= 1e-9
    assert not atlas.nondisk_islands


def test_lscm_pins_exact():
    mesh = make_grid(4, 4)
    cut = cut_mesh(mesh, SeamEdgeSet())
    param = parameterize_island(cut, 0)
    uvs = {tuple(np.round(param.uv[list(param.vertex_ids).index(p)], 12)) for p in param.pins}
    assert (0.0, 0.0) in uvs
    assert (1.0, 0.0) in uvs


def test_lscm_cylinder_unrolls():
    mesh = make_cylinder(16, 16, with_uv=True)
    mesh_n, _ = normalize(mesh)
    seams = extract_uv_seams(mesh_n)
    assert len(seams) == 16  # one generator column
    atlas = unwrap_atlas(cut_mesh(mesh_n, seams))
    assert atlas.island_count == 1
    terms = atlas.distortion_terms()[~atlas.excluded]
    areas = atlas.area3d[~atlas.excluded]
    dist = float((terms * areas).sum() / areas.sum())
    assert dist <= 1e-9


def test_lscm_nondisk_island_flagged():
    mesh = make_sphere(6, 8)
    atlas = unwrap_atlas(cut_mesh(mesh, SeamEdgeSet()))
    assert atlas.nondisk_islands == (0,)
    terms = atlas.distortion_terms()[~atlas.excluded]
    assert np.isfinite(terms).all()
    assert terms.max() > 0


def test_unwrap_atlas_of_empty_cut_is_empty():
    mesh = IndexedMesh(vertices=np.zeros((0, 3)), triangles=np.zeros((0, 3), dtype=np.int64))
    atlas = unwrap_atlas(cut_mesh(mesh, SeamEdgeSet()))
    assert atlas.island_count == 0 and atlas.uv.shape == (0, 2) and atlas.sigma.shape == (0, 2)
    assert atlas.nondisk_islands == () and atlas.residuals == ()


@pytest.mark.parametrize(
    "solve",
    [unwrap_atlas, lambda cut: parameterize_island(cut, 0)],
    ids=["unwrap_atlas", "parameterize_island"],
)
def test_nondisk_island_warned_once(caplog, solve):
    # perfbench's log.warnings counts these records
    cut = cut_mesh(make_sphere(6, 8), SeamEdgeSet())
    with caplog.at_level(logging.WARNING, logger="seamkit.unwrap"):
        solve(cut)
    assert [r.getMessage() for r in caplog.records if "is not a disk" in r.getMessage()] == [
        "island 0 is not a disk (chi=2); adding an extra pin"
    ]


@pytest.mark.parametrize(
    "mesh", [make_sphere(16, 32), make_cylinder(32, 16, with_uv=False)], ids=["sphere", "cylinder"]
)
def test_parameterize_island_is_unwrap_atlas_restricted_to_one_island(mesh):
    mesh, _ = normalize(mesh)
    segments = np.random.default_rng(0).uniform(-0.5, 0.5, size=(24, 2, 3))
    cut = cut_mesh(mesh, project_seams(mesh, SeamSet(segments=segments)))
    atlas = unwrap_atlas(cut)
    assert cut.n_islands > 1
    for island in range(cut.n_islands):
        param = parameterize_island(cut, island, excluded=atlas.excluded)
        np.testing.assert_array_equal(
            param.vertex_ids, np.unique(atlas.triangles[atlas.face_island == island])
        )
        np.testing.assert_allclose(param.uv, atlas.uv[param.vertex_ids], rtol=0, atol=1e-9)


def test_edge_index_and_assembly_are_freed_before_factorization(monkeypatch):
    mesh, _ = normalize(make_cylinder(32, 16))
    cut = cut_mesh(mesh, extract_uv_seams(mesh))
    refs, alive = [], []
    index_edges, csr_matrix, splu = unwrap.index_edges, sp.csr_matrix, unwrap.spla.splu

    def traced_index_edges(*args):
        arrays = index_edges(*args)
        refs.extend(weakref.ref(a) for a in arrays)
        return arrays

    def traced_csr_matrix(*args, **kw):
        A = csr_matrix(*args, **kw)
        refs.append(weakref.ref(A))
        return A

    def traced_splu(K, **kw):
        alive.append([r() is not None for r in refs])
        return splu(K, **kw)

    monkeypatch.setattr(unwrap, "index_edges", traced_index_edges)
    monkeypatch.setattr(unwrap.sp, "csr_matrix", traced_csr_matrix)
    monkeypatch.setattr(unwrap.spla, "splu", traced_splu)
    unwrap_atlas(cut)
    # the edges, face edges and keys of one edge index, and the assembled A
    assert alive == [[False] * 4]


def _block_system(seed=0, shapes=((7, 3), (5, 2))):
    """A complex block-diagonal least-squares system: (A, c, col_comp)."""
    rng = np.random.default_rng(seed)
    blocks = [rng.normal(size=s) + 1j * rng.normal(size=s) for s in shapes]
    A = sp.block_diag(blocks, format="csr")
    c = rng.normal(size=A.shape[0]) + 1j * rng.normal(size=A.shape[0])
    col_comp = np.repeat(np.arange(len(shapes)), [cols for _, cols in shapes])
    return A, c, col_comp


def _normal(A, c):
    """The normal equations ``_solve_blocks`` factors: (A^H A as CSC, A^H c)."""
    AH = A.conj().T
    return (AH @ A).tocsc(), AH @ c


def test_solve_blocks_matches_realified_system():
    A, c, col_comp = _block_system()
    z, res = unwrap._solve_blocks(*_normal(A, c), col_comp, 2)
    # the same problem in (Re z, Im z): [[Re, -Im], [Im, Re]] [x; y] = [Re c; Im c]
    R = sp.bmat([[A.real, -A.imag], [A.imag, A.real]], format="csr")
    n = A.shape[1]
    x, res_real = unwrap._solve_blocks(
        *_normal(R, np.concatenate([c.real, c.imag])), np.concatenate([col_comp, col_comp]), 2
    )
    np.testing.assert_allclose(z, x[:n] + 1j * x[n:], rtol=1e-12, atol=0)
    np.testing.assert_allclose(z, np.linalg.lstsq(A.toarray(), c, rcond=None)[0], rtol=1e-12)
    # both are relative residuals at rounding level
    np.testing.assert_allclose(res, res_real, rtol=0, atol=1e-12)
    assert res.shape == (2,) and res.max() <= 1e-12


def test_solve_blocks_rank_deficient_block_raises():
    A, c, col_comp = _block_system()
    A = A.tolil()
    A[:, 4] = 0  # the second block's first column
    with pytest.raises(SolveError, match="singular"):
        unwrap._solve_blocks(*_normal(A.tocsr(), c), col_comp, 2)


def test_solve_blocks_refines_once_then_raises(monkeypatch):
    A, c, col_comp = _block_system(shapes=((40, 12), (30, 9)))
    solves = []
    splu = unwrap.spla.splu

    class CountingLU:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            solves.append(rhs)
            return self.lu.solve(rhs)

    monkeypatch.setattr(unwrap.spla, "splu", lambda K, **kw: CountingLU(splu(K, **kw)))
    _, res = unwrap._solve_blocks(*_normal(A, c), col_comp, 2)
    assert len(solves) == 1 and res.min() > 0
    solves.clear()
    monkeypatch.setattr(unwrap, "SOLVE_RESIDUAL_REL", res.min() / 1e6)
    with pytest.raises(SolveError, match=r"normal-system residual \d\.\d\de-\d+ above"):
        unwrap._solve_blocks(*_normal(A, c), col_comp, 2)
    assert len(solves) == 2


def test_layout_islands_do_not_overlap():
    mesh = make_cube(n=2, with_uv=True)
    seams = extract_uv_seams(mesh)
    atlas = unwrap_atlas(cut_mesh(mesh, seams))
    assert atlas.island_count == 6
    uv = layout_uv(atlas)
    boxes = []
    for island in range(atlas.island_count):
        verts = np.unique(atlas.triangles[atlas.face_island == island])
        boxes.append((uv[verts].min(axis=0), uv[verts].max(axis=0)))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            lo_i, hi_i = boxes[i]
            lo_j, hi_j = boxes[j]
            overlap = (hi_i > lo_j + 1e-12).all() and (hi_j > lo_i + 1e-12).all()
            assert not overlap


def test_atlas_obj_export_parses():
    mesh = make_cube(n=1, with_uv=True)
    atlas = unwrap_atlas(cut_mesh(mesh, extract_uv_seams(mesh)))
    text = atlas_to_obj(atlas)
    back = load_obj(text)
    assert back.n_triangles == mesh.n_triangles
    assert back.has_uvs
    # the exported mesh is already cut: UV seams are boundaries now, and
    # re-cutting with its own (empty) UV seams reproduces the island count
    re_seams = extract_uv_seams(back)
    re_atlas = unwrap_atlas(cut_mesh(back, re_seams))
    assert re_atlas.island_count == atlas.island_count


def test_atlas_svg_export():
    mesh = make_cube(n=1, with_uv=True)
    atlas = unwrap_atlas(cut_mesh(mesh, extract_uv_seams(mesh)))
    svg = atlas_to_svg(atlas)
    assert svg.startswith("<svg")
    assert svg.count("<polygon") == mesh.n_triangles


def _svg_polygons(svg):
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    return root.findall("{http://www.w3.org/2000/svg}polygon")


def _uv_atlas(mesh):
    return unwrap_atlas(cut_mesh(mesh, extract_uv_seams(mesh)))


# atlases for the export tests, built when a test asks for one
_EXPORT_ATLASES = {
    "cube": lambda: _uv_atlas(make_cube(n=2)),
    "cylinder": lambda: _uv_atlas(make_cylinder(12, 4)),
    # a cut from the north pole partway down one meridian
    "sphere": lambda: unwrap_atlas(
        cut_mesh(make_sphere(6, 8), SeamEdgeSet([(0, 1), (1, 9), (9, 17)]))
    ),
    "sliver-grid": sliver_grid_atlas,
}


@pytest.mark.parametrize("name", ["cube", "cylinder", "sliver-grid"])
def test_atlas_svg_is_xml_with_one_polygon_per_triangle(name):
    atlas = _EXPORT_ATLASES[name]()
    polygons = _svg_polygons(atlas_to_svg(atlas))
    assert len(polygons) == len(atlas.triangles)
    for polygon in polygons:
        assert len(polygon.get("points").split()) == 3


def test_atlas_svg_excluded_triangles_are_grey():
    atlas = sliver_grid_atlas()
    fills = [polygon.get("fill") for polygon in _svg_polygons(atlas_to_svg(atlas))]
    grey = [fill == "rgb(200,200,200)" for fill in fills]
    assert grey == atlas.excluded.tolist()


@pytest.mark.parametrize("name", ["cube", "sphere", "sliver-grid"])
def test_atlas_obj_round_trip(name):
    atlas = _EXPORT_ATLASES[name]()
    back = load_obj(atlas_to_obj(atlas))
    np.testing.assert_array_equal(back.triangles, atlas.triangles)
    # 9 significant digits: a relative error of at most 5e-9 (plus parsing)
    np.testing.assert_allclose(back.vertices, atlas.vertices, rtol=6e-9, atol=0)
    expected_uv = layout_uv(atlas)[atlas.triangles].reshape(-1, 2)
    np.testing.assert_allclose(back.uv_corners, expected_uv, rtol=6e-9, atol=0)
