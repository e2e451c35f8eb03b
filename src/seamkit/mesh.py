"""Indexed triangle meshes: OBJ I/O, normalization, UV seams, edge graphs."""

from __future__ import annotations

import copy
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
        lengths = _edge_lengths(self.vertices, edges)
        nonmanifold = int(np.count_nonzero(np.bincount(face_edges.ravel()) > 2))
        if nonmanifold:
            logger.warning("mesh has %d non-manifold edges", nonmanifold)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "face_edges", face_edges)
        object.__setattr__(self, "edge_lengths", lengths)
        object.__setattr__(self, "_edge_keys", keys)

    def _with_vertices(self, vertices: np.ndarray) -> "IndexedMesh":
        """The same mesh with moved vertices, a (V, 3) float64 array.

        The edge index is kept, since connectivity does not change; only the
        edge lengths are recomputed.
        """
        moved = copy.copy(self)
        object.__setattr__(moved, "vertices", vertices)
        object.__setattr__(moved, "edge_lengths", _edge_lengths(vertices, self.edges))
        return moved

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

    def triangle_areas(self) -> np.ndarray:
        return triangle_normals(self.vertices[self.triangles])[1]

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
        """One edge per line, ``%d %d`` (smaller vertex index first), in
        ascending order."""
        return format_records("%d %d\n", np.reshape(self.sorted_edges(), (-1, 2)))

    @classmethod
    def from_text(cls, text: str) -> "SeamEdgeSet":
        edges = set()
        for line_no, line in content_lines(text):
            parts = line.split()
            if len(parts) != 2:
                raise MeshError(f"seam edge line {line_no}: expected two indices")
            try:
                a, b = int64(parts[0]), int64(parts[1])
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


def _edge_lengths(vertices: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Euclidean length of each (E, 2) vertex pair."""
    return np.linalg.norm(vertices[edges[:, 0]] - vertices[edges[:, 1]], axis=1)


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


def triangle_normals(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normals ``(p1 - p0) x (p2 - p0)`` of (F, 3, 3) triangle corner points, and
    the triangle areas, half their lengths."""
    normals = np.cross(points[:, 1] - points[:, 0], points[:, 2] - points[:, 0])
    return normals, 0.5 * np.linalg.norm(normals, axis=1)


def content_lines(text: str):
    """Yield ``(line_no, line)`` for every non-blank line, ``#`` comments removed.

    Line numbers are 1-based and count every line of ``text``.
    """
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def format_records(line: str, rows) -> str:
    """``line % tuple(row)`` for every row of the 2-D array ``rows``, concatenated.

    ``line`` holds one ``%`` conversion per column; the whole text is one
    ``%``-format of ``line`` repeated once per row, over ``rows.tolist()``.
    Floats become Python floats first, so ``%.9g`` gives the same text as
    ``f"{x:.9g}"`` on the array element.
    """
    rows = np.asarray(rows)
    return (line * len(rows)) % tuple(rows.ravel().tolist())


def int64(text: str) -> int:
    """``int(text)``, which must fit in int64; raises ValueError otherwise."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text} does not fit in int64")
    return value


# ---------------------------------------------------------------------------
# OBJ I/O


def _read_source(source) -> str | bytes:
    """The OBJ content of a source: a path's bytes, or the text or bytes given."""
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh:
            return fh.read()
    if isinstance(source, (str, bytes)):
        return source
    raise TypeError(f"unsupported OBJ source: {type(source)!r}")


def _read_text(source) -> str:
    """The OBJ text of a source; bytes are decoded as UTF-8, bad bytes replaced."""
    content = _read_source(source)
    if isinstance(content, bytes):
        return content.decode("utf-8", errors="replace")
    return content


def load_obj(source) -> IndexedMesh:
    """Parse an ASCII OBJ: an ``os.PathLike`` path, text, or bytes.

    A ``str`` is always OBJ text, never a file name: pass a ``pathlib.Path``
    to read a file.

    Supports ``v``, ``vt`` and ``f`` records with face corner forms ``v``,
    ``v/vt``, ``v/vt/vn`` and ``v//vn``, mixed freely; the ``vn`` field is not
    read.  Polygons with more than three corners are fan-triangulated around
    the first corner.  ``uv_corners`` is populated iff every face corner
    supplies a ``vt`` reference.  ``#`` starts a comment; blank lines and
    unknown record types are ignored.

    The errors are a contract, checked against the record-by-record parser
    kept in the tests: a malformed record raises ``ObjParseError`` naming the
    first such line; otherwise an out-of-range index raises ``ObjIndexError``
    naming the first face that has one (at its first such corner, the vertex
    before the texture index); otherwise a fan triangle with a repeated vertex
    raises ``ObjParseError`` naming its face.  Line numbers are 1-based and
    count every line of the text, as ``content_lines`` does.

    Two parsers share this contract.  Plain text is parsed from its bytes by
    ``_load_plain_obj``, with one ``np.loadtxt`` per record type.  Plain
    means: printable ASCII and ``\\n`` only, no ``#``, no line that starts
    with a space, ``v`` and ``vt`` records whose first 3 or 2 fields parse
    as finite floats, and faces that are all ``f a b c`` or all
    ``f a/b c/d e/f`` with single spaces, unsigned decimal indices in range
    and three distinct vertices.  ``obj_text``, and so ``save_obj``, writes
    nothing else.  Every other text, and every text with an error, goes to
    ``_parse_obj_text``, which is the one place an ``ObjParseError`` is
    worded.  Where the plain parser returns a mesh, the general one returns
    the same arrays, bit for bit.
    """
    content = _read_source(source)
    mesh = _load_plain_obj(content)
    if mesh is not None:
        return mesh
    return _parse_obj_text(_read_text(content))


def _parse_obj_text(text: str) -> IndexedMesh:
    """``load_obj`` of any text: the text is split once into records; each
    record type is then checked and converted with array operations, and
    only a record a check rejected is looked at on its own, to word the
    error."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    tags = np.array([(line.split(None, 1) or ("",))[0] for line in lines], dtype=object)
    lines = np.array(lines, dtype=object)
    groups = {}
    for tag in ("v", "vt", "f"):
        rows = np.flatnonzero(tags == tag)
        groups[tag] = (lines[rows].tolist(), rows + 1)
    vertices = _coordinates(*groups["v"], "v", 3)
    texcoords = _coordinates(*groups["vt"], "vt", 2)
    faces = _face_corners(*groups["f"])
    errors = [part for part in (vertices, texcoords, faces) if isinstance(part, ObjParseError)]
    if errors:
        raise min(errors, key=lambda exc: exc.line_no)

    vertex, texture, has_uv, corner_line, n_corners = faces
    bad_v = (vertex < 1) | (vertex > len(vertices))
    bad_t = has_uv & ((texture < 1) | (texture > len(texcoords)))
    if (bad_v | bad_t).any():
        c = int(np.argmax(bad_v | bad_t))
        if bad_v[c]:
            raise ObjIndexError(f"vertex index {vertex[c]} out of range", int(corner_line[c]))
        raise ObjIndexError(f"texture index {texture[c]} out of range", int(corner_line[c]))
    vi, ti = vertex.astype(np.int64), texture.astype(np.int64)

    # fan (first, k, k + 1) of every face, in face order
    n_fan = n_corners - 2
    first = np.repeat(np.cumsum(n_corners) - n_corners, n_fan)
    k = np.arange(len(first)) - np.repeat(np.cumsum(n_fan) - n_fan, n_fan)
    fan = np.stack([first, first + k + 1, first + k + 2], axis=1)
    triangles = vi[fan] - 1
    repeated = (
        (triangles[:, 0] == triangles[:, 1])
        | (triangles[:, 1] == triangles[:, 2])
        | (triangles[:, 0] == triangles[:, 2])
    )
    if repeated.any():
        line_no = int(corner_line[fan[np.argmax(repeated), 0]])
        raise ObjParseError("degenerate triangle (repeated vertex index)", line_no)
    uv = None
    if len(has_uv) and has_uv.all():
        uv = texcoords[ti[fan].ravel() - 1]
    return IndexedMesh(vertices=vertices, triangles=triangles, uv_corners=uv)


# the bytes of plain OBJ text: printable ASCII but "#", and "\n"
_PLAIN_BYTES = bytes([ord("\n")] + [b for b in range(32, 127) if b != ord("#")])
# a face record's tag and corner slashes become spaces, leaving its index fields
_FACE_FIELDS = bytes.maketrans(b"f/", b"  ")
_CORNER_SEPARATORS = np.array([ord(c) for c in " / / /"], dtype=np.uint8)


def _load_plain_obj(content: str | bytes) -> IndexedMesh | None:
    """The mesh of plain OBJ text (see ``load_obj``), or None.

    None means the text is not plain, or the general parser would raise on
    it; the caller then runs that parser.  Lines are found from the ``\\n``
    bytes and typed by their first three bytes, and each record type is read
    by one ``np.loadtxt``, whose float parser rounds as ``float`` does.
    """
    if isinstance(content, str):
        if not content.isascii():
            return None
        content = content.encode("ascii")
    if content.translate(None, _PLAIN_BYTES):
        return None
    if not content.endswith(b"\n"):
        content += b"\n"
    buf = np.frombuffer(content, np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate([[0], ends[:-1] + 1])
    b0, b1, b2 = (buf[np.minimum(starts + k, len(buf) - 1)] for k in range(3))
    v_, t_, f_, space = (ord(c) for c in "vtf ")
    length = ends - starts
    bare_tag = ((b0 == v_) | (b0 == f_)) & (length == 1) | (b0 == v_) & (b1 == t_) & (length == 2)
    if (b0 == space).any() or bare_tag.any():  # not plain, or an error
        return None
    groups = [
        _plain_group(content, starts, ends, rows)
        for rows in (
            (b0 == v_) & (b1 == space),
            (b0 == v_) & (b1 == t_) & (b2 == space),
            (b0 == f_) & (b1 == space),
        )
    ]
    vertices = _plain_table(groups[0], (1, 2, 3), np.float64)
    texcoords = _plain_table(groups[1], (1, 2), np.float64)
    faces = _plain_faces(groups[2])
    if vertices is None or texcoords is None or faces is None:
        return None
    if not (np.isfinite(vertices).all() and np.isfinite(texcoords).all()):
        return None
    vertex, texture = faces
    if vertex.size and not (vertex.min() >= 1 and vertex.max() <= len(vertices)):
        return None
    if texture is not None and not (texture.min() >= 1 and texture.max() <= len(texcoords)):
        return None
    triangles = vertex - 1
    if (
        (triangles[:, 0] == triangles[:, 1])
        | (triangles[:, 1] == triangles[:, 2])
        | (triangles[:, 0] == triangles[:, 2])
    ).any():
        return None
    uv = None if texture is None else texcoords[texture.ravel() - 1]
    return IndexedMesh(vertices=vertices, triangles=triangles, uv_corners=uv)


def _plain_group(content: bytes, starts, ends, rows: np.ndarray) -> bytes:
    """The lines of ``content`` where ``rows`` is set, each with its ``\\n``."""
    rows = np.flatnonzero(rows)
    if len(rows) == 0:
        return b""
    if rows[-1] - rows[0] == len(rows) - 1:  # one run of lines
        return content[starts[rows[0]] : ends[rows[-1]] + 1]
    keep = np.zeros(len(starts), dtype=bool)
    keep[rows] = True
    return np.frombuffer(content, np.uint8)[np.repeat(keep, ends - starts + 1)].tobytes()


def _plain_table(group: bytes, columns: tuple | None, dtype) -> np.ndarray | None:
    """The given whitespace-separated columns (all when None) of every line of
    ``group``, one row per line; None where a line has too few columns, or
    other than the first line's when all are read, or a field does not
    convert."""
    if not group:
        return np.zeros((0, len(columns)), dtype=dtype)
    try:
        return np.loadtxt(
            io.StringIO(group.decode("ascii")),
            dtype=dtype,
            comments=None,
            usecols=columns,
            ndmin=2,
        )
    except (ValueError, OverflowError):
        return None


def _plain_faces(group: bytes):
    """``(vertex, texture)`` (F, 3) 1-based indices of ``f`` records that are all
    ``f a b c`` (texture None) or all ``f a/b c/d e/f``, or None."""
    if not group:
        return np.zeros((0, 3), dtype=np.int64), None
    # the tag, digits and separators only, and a digit after every separator
    if group.translate(None, b"f0123456789 /\n") or group.count(b"f") != group.count(b"\n"):
        return None
    g = np.frombuffer(group, np.uint8)
    sep = np.flatnonzero((g == ord(" ")) | (g == ord("/")))
    after = g[sep + 1]
    if not ((after >= ord("0")) & (after <= ord("9"))).all():
        return None
    fields = _plain_table(group.translate(_FACE_FIELDS), None, np.int64)
    if fields is None:
        return None
    if fields.shape[1] == 3 and b"/" not in group:
        return fields, None
    if fields.shape[1] == 6 and (g[sep].reshape(-1, 6) == _CORNER_SEPARATORS).all():
        return fields[:, 0::2], fields[:, 1::2]
    return None


def _record_error(line: str, line_no: int) -> ObjParseError | None:
    """The error ``load_obj`` raises for one ``v``, ``vt`` or ``f`` record, or None."""
    parts = line.split()
    if parts[0] in ("v", "vt"):
        width, noun = (3, "vertex") if parts[0] == "v" else (2, "texture")
        if len(parts) < width + 1:
            return ObjParseError(f"{noun} record needs {width} coordinates", line_no)
        try:
            values = [float(p) for p in parts[1 : width + 1]]
        except ValueError as exc:
            return ObjParseError(f"bad {noun} coordinate: {exc}", line_no)
        if not all(map(math.isfinite, values)):
            return ObjParseError(f"non-finite {noun} coordinate", line_no)
        return None
    if len(parts) < 4:
        return ObjParseError("face record needs at least 3 corners", line_no)
    for ref in parts[1:]:
        fields = ref.split("/")
        try:
            if len(fields) > 3 or fields[0] == "":
                raise ValueError(ref)
            int(fields[0])
            if len(fields) >= 2 and fields[1] != "":
                int(fields[1])
        except ValueError:
            return ObjParseError(f"bad face corner {ref!r}", line_no)
    return None


def _first_error(lines: list, line_nos: np.ndarray) -> ObjParseError:
    """The error of the first rejected record among ``lines``."""
    for line, line_no in zip(lines, line_nos.tolist()):
        error = _record_error(line, line_no)
        if error is not None:
            return error
    raise AssertionError("no record of the group is malformed")


def _record_tokens(lines: list, tag: str) -> tuple[np.ndarray, np.ndarray]:
    """The whitespace tokens of records that all start with ``tag``, as an object
    array, and the index of each record's first token."""
    tokens = np.array(" ".join(lines).split(), dtype=object)
    starts = np.flatnonzero(tokens == tag)
    if len(starts) != len(lines):  # a field equals the tag
        counts = np.fromiter(map(len, map(str.split, lines)), np.int64, len(lines))
        starts = np.cumsum(counts) - counts
    return tokens, starts


def _coordinates(lines: list, line_nos: np.ndarray, tag: str, width: int):
    """(n, width) coordinates of ``v`` or ``vt`` records, or the first record's error.

    Fields past ``width`` are ignored.
    """
    tokens, starts = _record_tokens(lines, tag)
    if (np.diff(starts, append=len(tokens)) > width).all():
        try:
            values = tokens[starts[:, None] + np.arange(1, width + 1)].astype(np.float64)
        except ValueError:
            values = None
        if values is not None and np.isfinite(values).all():
            return values
    return _first_error(lines, line_nos)


def _face_corners(lines: list, line_nos: np.ndarray):
    """The corners of ``f`` records, or the first record's error.

    Returns ``(vertex, texture, has_uv, corner_line, n_corners)``: per corner
    in record order its vertex index and its texture index (0 where it has
    none) as the integers the record wrote, whether it has a texture index,
    and the line of its record; and the corner count of each record.  The
    index arrays hold Python ints when an index does not fit in int64.
    """
    tokens, starts = _record_tokens(lines, "f")
    n_corners = np.diff(starts, append=len(tokens)) - 1
    if (n_corners < 3).any():
        return _first_error(lines, line_nos)
    corners = np.delete(tokens, starts).tolist()
    n = len(corners)
    # the corners' characters, one space after each
    codes = np.frombuffer(
        (" ".join(corners) + " ").encode("utf-32-le", "surrogatepass"), dtype=np.uint32
    ).copy()
    end = np.flatnonzero(codes == ord(" "))
    lengths = np.diff(end, prepend=-1) - 1
    slash = np.flatnonzero(codes == ord("/"))
    owner = np.searchsorted(end, slash)
    n_slash = np.bincount(owner, minlength=n)
    first = np.searchsorted(owner, np.arange(n))
    at = np.append(slash, -1)
    s1 = np.where(n_slash >= 1, at[first], end)
    s2 = np.where(n_slash >= 2, at[np.minimum(first + 1, len(slash))], end)
    if (n_slash > 2).any() or (s1 == end - lengths).any():
        return _first_error(lines, line_nos)
    # with slashes as spaces, a corner splits into its nonempty fields
    codes[slash] = ord(" ")
    fields = np.array(
        codes.tobytes().decode("utf-32-le", "surrogatepass").split(), dtype=object
    )
    has_uv = s2 > s1 + 1
    n_fields = 1 + has_uv + (end > s2 + 1)
    vertex_field = np.cumsum(n_fields) - n_fields
    try:
        vertex = _indices(fields[vertex_field])
        uv_index = _indices(fields[vertex_field[has_uv] + 1])
    except ValueError:
        return _first_error(lines, line_nos)
    texture = np.zeros(n, dtype=uv_index.dtype)
    texture[has_uv] = uv_index
    return vertex, texture, has_uv, np.repeat(line_nos, n_corners), n_corners


def _indices(tokens: np.ndarray) -> np.ndarray:
    """The integers of index tokens: int64 when they all fit, else Python ints."""
    try:
        return tokens.astype(np.int64)
    except OverflowError:
        return np.array([int(t) for t in tokens], dtype=object)


def save_obj(mesh: IndexedMesh) -> str:
    """Serialize to OBJ text, coordinates at 9 significant digits (``%.9g``).

    With UVs the texture coordinates are corner-indexed: one ``vt`` line per
    row of ``uv_corners`` and faces ``f v/t``, where corner ``k`` of face
    ``f`` refers to ``vt`` number ``3f + k + 1``.  Without UVs faces are
    ``f v``.  See ``obj_text`` for the line formats.
    """
    if not mesh.has_uvs:
        return obj_text(mesh.vertices, mesh.triangles)
    corners = np.arange(3 * mesh.n_triangles).reshape(-1, 3)
    return obj_text(mesh.vertices, mesh.triangles, mesh.uv_corners, corners)


def obj_text(vertices, triangles, texcoords=None, texture_index=None) -> str:
    """OBJ text of (V, 3) vertices and (F, 3) 0-based triangles.

    Lines come in the order ``v``, ``vt``, ``f``, one record each::

        v %.9g %.9g %.9g
        vt %.9g %.9g          (one per row of texcoords)
        f %d/%d %d/%d %d/%d   (vertex/texture, 1-based), or
        f %d %d %d            (without texcoords)

    ``texture_index[f, k]`` is the 0-based row of ``texcoords`` that corner
    ``k`` of face ``f`` refers to.
    """
    parts = [format_records("v %.9g %.9g %.9g\n", vertices)]
    if texcoords is None:
        parts.append(format_records("f %d %d %d\n", triangles + 1))
    else:
        parts.append(format_records("vt %.9g %.9g\n", texcoords))
        corners = np.stack([triangles + 1, texture_index + 1], axis=2)
        parts.append(format_records("f %d/%d %d/%d %d/%d\n", corners.reshape(-1, 6)))
    return "".join(parts)


# ---------------------------------------------------------------------------
# Normalization


def normalize(mesh: IndexedMesh) -> tuple[IndexedMesh, NormalizationTransform]:
    """Center the mesh and scale its longest bounding-box axis to length 1.

    Returns the transformed mesh and the recorded transform.
    The transformed mesh keeps the input's edge index (connectivity does not
    change), with edge lengths recomputed from the moved vertices.
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
    return mesh._with_vertices(transform.apply(mesh.vertices)), transform


# ---------------------------------------------------------------------------
# UV-derived seams


def extract_uv_seams(mesh: IndexedMesh) -> SeamEdgeSet:
    """Interior edges whose incident triangles disagree on a shared corner UV
    (by more than ``UV_SEAM_TOL`` in either coordinate).

    Boundary edges are excluded; non-manifold edges are checked over every
    incidence pair.  Requires ``uv_corners``.
    """
    if not mesh.has_uvs:
        raise MissingUVError("extract_uv_seams requires per-corner UVs")
    edge, a, b = matched_corners(mesh.triangles, mesh.face_edges)
    uv = mesh.uv_corners
    # a pair disagrees when either shared vertex differs by more than the tolerance
    disagree = (np.abs(uv[a] - uv[b]).max(axis=2) > UV_SEAM_TOL).any(axis=1)
    seams = mesh.edges[np.unique(edge[disagree])].tolist()
    return SeamEdgeSet(edges=frozenset(map(tuple, seams)))


# ---------------------------------------------------------------------------
# Edge graph


def build_edge_graph(mesh: IndexedMesh) -> EdgeGraph:
    """One node per vertex, one undirected arc per mesh edge (Euclidean weight)."""
    return EdgeGraph.from_edges(mesh.n_vertices, mesh.edges, mesh.edge_lengths)
