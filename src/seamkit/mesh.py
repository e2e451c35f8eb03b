"""Indexed triangle meshes: OBJ I/O, normalization, UV seams, edge graphs."""

from __future__ import annotations

import io
import logging
import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

logger = logging.getLogger(__name__)

# Two corner UVs are "the same" below this per-component difference, in UV units.
UV_SEAM_TOL = 1e-7


class MeshError(Exception):
    """Base class for mesh-layer failures."""


class ObjParseError(MeshError):
    """Malformed OBJ record."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"OBJ line {line_no}: {message}")
        self.line_no = line_no


class ObjIndexError(ObjParseError):
    """Face references an out-of-range vertex or texture coordinate."""


class DegenerateInputError(MeshError):
    """Input geometry carries no usable extent (zero bounding box, zero area)."""


class MissingUVError(MeshError):
    """Operation requires per-corner UVs but the mesh has none."""


@dataclass(frozen=True)
class IndexedMesh:
    """Immutable triangle mesh with derived edge connectivity.

    ``vertices`` is (V, 3) float64, ``triangles`` (F, 3) int64.  ``uv_corners``
    is either None or (3F, 2): row ``3*f + k`` is the UV of corner ``k`` of
    face ``f``.  Edges are derived at construction: ``edges`` holds sorted
    vertex pairs in lexicographic order and ``edge_lengths[e]`` the Euclidean
    length.  ``face_edges[f, k]`` is the edge id of side ``k`` of face ``f``,
    the side from corner ``k`` to corner ``(k + 1) % 3``; it is the one
    incidence array that edge lookups, ``edge_faces``, UV seams and cutting
    derive from.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    uv_corners: np.ndarray | None = None

    edges: np.ndarray = field(init=False, repr=False, compare=False)
    face_edges: np.ndarray = field(init=False, repr=False, compare=False)
    edge_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    _edge_keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        t = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshError(f"vertices must be (V, 3), got {v.shape}")
        if t.size == 0:
            t = t.reshape(0, 3)
        if t.ndim != 2 or t.shape[1] != 3:
            raise MeshError(f"triangles must be (F, 3), got {t.shape}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshError("triangle index out of range")
        if t.size and (
            np.any(t[:, 0] == t[:, 1])
            or np.any(t[:, 1] == t[:, 2])
            or np.any(t[:, 0] == t[:, 2])
        ):
            raise MeshError("degenerate triangle (repeated vertex index)")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        if self.uv_corners is not None:
            uv = np.ascontiguousarray(np.asarray(self.uv_corners, dtype=np.float64))
            if uv.ndim != 2 or uv.shape[1] != 2 or uv.shape[0] != 3 * len(t):
                raise MeshError(
                    f"uv_corners must be (3F, 2) = ({3 * len(t)}, 2), got {uv.shape}"
                )
            object.__setattr__(self, "uv_corners", uv)
        self._build_edges()

    def _build_edges(self):
        edges, face_edges, keys = index_edges(self.triangles, self.n_vertices)
        lengths = np.linalg.norm(
            self.vertices[edges[:, 0]] - self.vertices[edges[:, 1]], axis=1
        )
        nonmanifold = int(np.count_nonzero(np.bincount(face_edges.ravel()) > 2))
        if nonmanifold:
            logger.warning("mesh has %d non-manifold edges", nonmanifold)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "face_edges", face_edges)
        object.__setattr__(self, "edge_lengths", lengths)
        object.__setattr__(self, "_edge_keys", keys)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def has_uvs(self) -> bool:
        return self.uv_corners is not None

    @cached_property
    def edge_faces(self) -> tuple:
        """Incident face ids of each edge, ascending."""
        side_edge = self.face_edges.ravel()
        faces = (np.argsort(side_edge, kind="stable") // 3).tolist()
        ends = np.cumsum(np.bincount(side_edge, minlength=len(self.edges))).tolist()
        return tuple(tuple(faces[s:e]) for s, e in zip([0] + ends, ends))

    @property
    def nonmanifold_edges(self) -> tuple[int, ...]:
        """Edge ids with more than two incident triangles."""
        counts = np.bincount(self.face_edges.ravel(), minlength=len(self.edges))
        return tuple(np.flatnonzero(counts > 2).tolist())

    def edge_ids(self, pairs) -> np.ndarray:
        """Edge id of each vertex pair (either order); -1 where the pair is no edge."""
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        keys = pairs[:, 0] * self.n_vertices + pairs[:, 1]
        ids = np.full(len(pairs), -1, dtype=np.int64)
        pos = np.searchsorted(self._edge_keys, keys)
        ok = (pairs[:, 0] >= 0) & (pairs[:, 1] < self.n_vertices) & (pos < len(self._edge_keys))
        hit = np.flatnonzero(ok)[self._edge_keys[pos[ok]] == keys[ok]]
        ids[hit] = pos[hit]
        return ids

    def edge_id(self, a: int, b: int) -> int | None:
        eid = int(self.edge_ids([(a, b)])[0])
        return None if eid < 0 else eid

    def triangle_areas(self) -> np.ndarray:
        p = self.vertices[self.triangles]
        return 0.5 * np.linalg.norm(
            np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]), axis=1
        )

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass(frozen=True)
class NormalizationTransform:
    """Maps model coordinates into the canonical cube [-0.5, 0.5]^3.

    Points transform as ``(p - center) * scale``; the longest bounding-box
    axis spans exactly [-0.5, 0.5] and aspect ratios are preserved.
    """

    center: np.ndarray
    scale: float

    def apply(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.center) * self.scale

    def invert(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) / self.scale + self.center


@dataclass(frozen=True)
class SeamEdgeSet:
    """Mesh edges marked as seams, with optional per-edge provenance.

    ``edges`` holds undirected vertex-index pairs stored as ``(min, max)``.
    ``provenance[edge]`` lists the indices of the seam segments that
    contributed the edge (empty for seams extracted from UVs).
    """

    edges: frozenset
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        norm = frozenset((int(min(a, b)), int(max(a, b))) for a, b in self.edges)
        object.__setattr__(self, "edges", norm)

    def __len__(self) -> int:
        return len(self.edges)

    def __contains__(self, edge) -> bool:
        a, b = edge
        return (min(a, b), max(a, b)) in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def to_text(self) -> str:
        return "".join(f"{a} {b}\n" for a, b in self.sorted_edges())

    @classmethod
    def from_text(cls, text: str) -> "SeamEdgeSet":
        edges = set()
        for line_no, line in content_lines(text):
            parts = line.split()
            if len(parts) != 2:
                raise MeshError(f"seam edge line {line_no}: expected two indices")
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise MeshError(f"seam edge line {line_no}: {exc}") from exc
            edges.add((min(a, b), max(a, b)))
        return cls(edges=frozenset(edges))


@dataclass(frozen=True, eq=False)
class EdgeGraph:
    """Vertex-edge graph of a mesh: one node per vertex, one weighted arc per edge.

    ``csr`` is the symmetric (n, n) CSR matrix of arc weights.  Row ``v``
    holds the neighbours of ``v`` in ascending order,
    ``csr.indices[csr.indptr[v]:csr.indptr[v + 1]]``, and their edge lengths
    in the same slice of ``csr.data``; every undirected edge is stored once in
    each of its two rows.  A zero-length edge (two coincident vertices) is an
    explicitly stored 0, which ``scipy.sparse.csgraph`` reads as an arc.
    ``projection.shortest_path`` takes the first qualifying entry of a row as
    its lowest-index tie-break.
    """

    csr: sp.csr_matrix

    @property
    def n(self) -> int:
        return self.csr.shape[0]

    @classmethod
    def from_edges(cls, n: int, edges, weights) -> "EdgeGraph":
        """Graph on ``n`` nodes with one arc per row of ``edges`` (E, 2).

        The vertex pairs must be distinct undirected pairs without loops;
        ``weights[e]`` is the length of edge ``e``.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(weights, dtype=np.float64)
        rows = np.concatenate([edges[:, 0], edges[:, 1]])
        cols = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
        data = np.concatenate([weights, weights])[order]
        return cls(sp.csr_matrix((data, cols[order], indptr), shape=(n, n)))


# ---------------------------------------------------------------------------
# Edge incidence


def index_edges(triangles: np.ndarray, n_vertices: int):
    """Unique undirected edges of a triangle array.

    Returns ``(edges, face_edges, keys)``: the (E, 2) sorted vertex pairs in
    lexicographic order, the (F, 3) edge id of each face side (side ``k`` runs
    from corner ``k`` to corner ``(k + 1) % 3``), and the ascending search keys
    ``a * n_vertices + b`` of the edges.
    """
    sides = np.sort(triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    keys, face_edges = np.unique(sides[:, 0] * n_vertices + sides[:, 1], return_inverse=True)
    edges = np.stack([keys // n_vertices, keys % n_vertices], axis=1)
    return edges, face_edges.reshape(-1, 3), keys


def matched_corners(triangles: np.ndarray, face_edges: np.ndarray):
    """Every pair of face sides on one edge, with their corners matched by vertex.

    Side ``s = 3f + k`` joins corner ``s`` to corner ``3f + (k + 1) % 3``.
    Returns ``(edge, a, b)``, one row per pair of sides ``i < j`` of the same
    edge (all pairs on a non-manifold edge): ``a[p]`` holds the two corners of
    side ``i`` and ``b[p]`` the corners of side ``j`` at the same two vertices.
    """
    side_edge = face_edges.ravel()
    order = np.argsort(side_edge, kind="stable")
    count = np.bincount(side_edge)
    rank = np.arange(len(order)) - np.repeat(np.cumsum(count) - count, count)
    later = count[side_edge[order]] - rank - 1
    first = np.repeat(np.arange(len(order)), later)
    step = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later) + 1
    i, j = order[first], order[first + step]
    a = np.stack([i, i - i % 3 + (i + 1) % 3], axis=1)
    b = np.stack([j, j - j % 3 + (j + 1) % 3], axis=1)
    flip = triangles.ravel()[i] != triangles.ravel()[j]
    b[flip] = b[flip, ::-1]
    return side_edge[i], a, b


def content_lines(text: str):
    """Yield ``(line_no, line)`` for every non-blank line, ``#`` comments removed.

    Line numbers are 1-based and count every line of ``text``.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


# ---------------------------------------------------------------------------
# OBJ I/O


def _read_text(source) -> str:
    if isinstance(source, os.PathLike):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            return fh.read()
    if isinstance(source, str):
        if "\n" not in source and os.path.exists(source):
            with open(source, "r", encoding="utf-8", errors="replace") as fh:
                return fh.read()
        return source
    if isinstance(source, bytes):
        return source.decode("utf-8", errors="replace")
    if isinstance(source, io.IOBase) or hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8", errors="replace") if isinstance(data, bytes) else data
    raise TypeError(f"unsupported OBJ source: {type(source)!r}")


def load_obj(source) -> IndexedMesh:
    """Parse an ASCII OBJ stream (path, text, bytes, or file object).

    Supports ``v``, ``vt`` and ``f`` records with face forms ``v``, ``v/vt``,
    ``v/vt/vn`` and ``v//vn``; polygons with more than three vertices are
    fan-triangulated around the first vertex.  ``uv_corners`` is populated iff
    every face corner supplies a ``vt`` reference.  Unknown record types are
    ignored.
    """
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


def save_obj(mesh: IndexedMesh) -> str:
    """Serialize to OBJ text with 9 significant digits per coordinate."""
    out = []
    for x, y, z in mesh.vertices:
        out.append(f"v {x:.9g} {y:.9g} {z:.9g}\n")
    if mesh.has_uvs:
        for u, v in mesh.uv_corners:
            out.append(f"vt {u:.9g} {v:.9g}\n")
        for f, (a, b, c) in enumerate(mesh.triangles):
            base = 3 * f
            out.append(
                f"f {a + 1}/{base + 1} {b + 1}/{base + 2} {c + 1}/{base + 3}\n"
            )
    else:
        for a, b, c in mesh.triangles:
            out.append(f"f {a + 1} {b + 1} {c + 1}\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Normalization


def normalize(mesh: IndexedMesh) -> tuple[IndexedMesh, NormalizationTransform]:
    """Center the mesh and scale its longest bounding-box axis to length 1.

    Returns the transformed mesh and the recorded (invertible) transform.
    Raises DegenerateInputError when the bounding box has zero extent.
    """
    if mesh.n_vertices == 0:
        raise DegenerateInputError("mesh has no vertices")
    lo, hi = mesh.bounding_box()
    extent = float((hi - lo).max())
    if extent <= 0.0:
        raise DegenerateInputError("bounding box has zero extent")
    center = (lo + hi) / 2.0
    transform = NormalizationTransform(center=center, scale=1.0 / extent)
    moved = IndexedMesh(
        vertices=transform.apply(mesh.vertices),
        triangles=mesh.triangles,
        uv_corners=mesh.uv_corners,
    )
    return moved, transform


# ---------------------------------------------------------------------------
# UV-derived seams


def extract_uv_seams(mesh: IndexedMesh, tol: float = UV_SEAM_TOL) -> SeamEdgeSet:
    """Interior edges whose incident triangles disagree on a shared corner UV.

    Boundary edges are excluded; non-manifold edges are checked over every
    incidence pair.  Requires ``uv_corners``.
    """
    if not mesh.has_uvs:
        raise MissingUVError("extract_uv_seams requires per-corner UVs")
    edge, a, b = matched_corners(mesh.triangles, mesh.face_edges)
    uv = mesh.uv_corners
    # a pair disagrees when either shared vertex differs by more than tol
    disagree = (np.abs(uv[a] - uv[b]).max(axis=2) > tol).any(axis=1)
    seams = mesh.edges[np.unique(edge[disagree])].tolist()
    return SeamEdgeSet(edges=frozenset(map(tuple, seams)))


# ---------------------------------------------------------------------------
# Edge graph


def build_edge_graph(mesh: IndexedMesh) -> EdgeGraph:
    """One node per vertex, one undirected arc per mesh edge (Euclidean weight)."""
    return EdgeGraph.from_edges(mesh.n_vertices, mesh.edges, mesh.edge_lengths)
