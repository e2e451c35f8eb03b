"""Indexed triangle meshes: OBJ I/O, normalization, UV seams, edge graphs."""

from __future__ import annotations

import copy
import io
import logging
import math
import os
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

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
    incidence array that edge lookups, UV seams and cutting derive from.
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
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "face_edges", face_edges)
        object.__setattr__(self, "edge_lengths", _edge_lengths(self.vertices, edges))
        object.__setattr__(self, "_edge_keys", keys)
        if nonmanifold := len(self.nonmanifold_edges):
            logger.warning("mesh has %d non-manifold edges", nonmanifold)

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


class SeamEdgeSet:
    """Mesh edges marked as seams, with optional per-edge provenance.

    ``SeamEdgeSet(pairs, segment_ids)`` takes an (n, 2) array-like of vertex
    pairs in either order, duplicates allowed, and optionally ``segment_ids``,
    the seam segment that contributed each row.

    Stored form: ``pairs``, an (E, 2) int64 array of undirected vertex-index
    pairs, each row ``(min, max)``, rows sorted ascending and duplicate-free.
    Provenance is two more int64 arrays: the indices of the seam segments
    that contributed edge ``pairs[e]`` are
    ``provenance_ids[provenance_offsets[e]:provenance_offsets[e + 1]]``, in
    ascending order (none for seams extracted from UVs or read from text).
    All three arrays are read-only.

    ``provenance`` (a mapping from each edge with at least one contributing
    segment to the tuple of their indices) is a read-only view, built on
    first access.  The tests and the benchmark's traced pass (for
    ``projection.useful_ratio``) read it.
    """

    def __init__(self, pairs=(), segment_ids=None):
        # sort and group (pair, segment id) rows; an id of -1 adds only the pair
        pairs = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        if segment_ids is None:
            segment_ids = np.full(len(pairs), -1)
        ids = np.asarray(segment_ids, dtype=np.int64)
        order = np.lexsort((ids, pairs[:, 1], pairs[:, 0]))
        pairs, ids = pairs[order], ids[order]
        first = np.ones(len(pairs), dtype=bool)
        first[1:] = (pairs[1:] != pairs[:-1]).any(axis=1)
        edge = np.cumsum(first) - 1
        given = ids >= 0
        self.pairs = pairs[first]
        self.provenance_ids = ids[given]
        self.provenance_offsets = np.searchsorted(edge[given], np.arange(len(self.pairs) + 1))
        for a in (self.pairs, self.provenance_ids, self.provenance_offsets):
            a.flags.writeable = False

    @cached_property
    def provenance(self) -> MappingProxyType:
        ids, off = self.provenance_ids.tolist(), self.provenance_offsets.tolist()
        return MappingProxyType({
            edge: tuple(ids[off[e] : off[e + 1]])
            for e, edge in enumerate(map(tuple, self.pairs.tolist()))
            if off[e] < off[e + 1]
        })

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SeamEdgeSet):
            return NotImplemented
        return all(
            np.array_equal(x, y)
            for x, y in (
                (self.pairs, other.pairs),
                (self.provenance_ids, other.provenance_ids),
                (self.provenance_offsets, other.provenance_offsets),
            )
        )

    def to_text(self) -> str:
        """One edge per line, ``%d %d`` (smaller vertex index first), in
        ascending order."""
        return format_records("%d %d\n", self.pairs)

    @classmethod
    def from_text(cls, text: str) -> "SeamEdgeSet":
        values = []
        for line_no, line in content_lines(text):
            parts = line.split()
            if len(parts) != 2:
                raise MeshError(f"seam edge line {line_no}: expected two indices")
            try:
                values += (int64(parts[0]), int64(parts[1]))
            except ValueError as exc:
                raise MeshError(f"seam edge line {line_no}: {exc}") from exc
        return cls(values)


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


def load_obj(source) -> IndexedMesh:
    """Parse an ASCII OBJ: an ``os.PathLike`` path, text, or bytes.

    A ``str`` is always OBJ text, never a file name: pass a ``pathlib.Path``
    to read a file.  Bytes are decoded as UTF-8, bad bytes replaced.

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

    One pipeline reads every text: lines are tagged from the bytes, and the
    records of each type are converted together, ``v`` and ``vt`` by one
    ``np.loadtxt`` and faces of every corner form by one ``np.fromstring``.
    A record type the array code rejects (for a control or non-ASCII
    character, a sign or ``_`` in a face, an index of 10**18 or more, or any
    malformed record) is read one record at a time by ``_read_record``, the
    one place an ``ObjParseError`` is worded.  ``obj_text`` output of finite
    arrays never is.
    """
    vertices, triangles, uv = _mesh_arrays(source)
    return IndexedMesh(vertices=vertices, triangles=triangles, uv_corners=uv)


def _mesh_arrays(source):
    """``(vertices, triangles, uv_corners)`` of ``load_obj``, with its checks;
    their temporaries are freed on return, before the mesh is built."""
    data = _obj_bytes(source)
    tags, begin, cut, odd = _record_lines(data)
    groups = []
    for code, tag in enumerate(_TAGS):
        rows = np.flatnonzero(tags == code)
        text = _record_text(data, begin[rows], cut[rows])
        values = None
        if len(rows) and not odd[rows].any():
            if tag == "f":
                values = _face_corners(text, len(rows))
            else:
                values = _coordinates(text, len(rows), _WIDTH[tag])
        groups.append(_read_group(text, rows + 1, tag) if values is None else values)
    errors = [group for group in groups if isinstance(group, ObjParseError)]
    if errors:
        raise min(errors, key=lambda exc: exc.line_no)

    vertices, texcoords, (vertex, texture, has_uv, n_corners) = groups
    corner_line = np.repeat(rows + 1, n_corners)  # rows of the last tag, "f"
    bad_v = (vertex < 1) | (vertex > len(vertices))
    bad_t = has_uv & ((texture < 1) | (texture > len(texcoords)))
    if (bad_v | bad_t).any():
        c = int(np.argmax(bad_v | bad_t))
        if bad_v[c]:
            raise ObjIndexError(f"vertex index {vertex[c]} out of range", int(corner_line[c]))
        raise ObjIndexError(f"texture index {texture[c]} out of range", int(corner_line[c]))
    vi, ti = vertex.astype(np.int64, copy=False), texture.astype(np.int64, copy=False)

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
    return vertices, triangles, uv


_TAGS = ("v", "vt", "f")
_WIDTH = {"v": 3, "vt": 2}
# str.splitlines' line breaks in ASCII, besides "\n"
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"


def _obj_bytes(source) -> bytes:
    """The OBJ text of a source as UTF-8 bytes, ``\\n`` its one line break
    and last byte; text with another line break or a non-ASCII character is
    joined from ``str.splitlines``, which keeps its line numbers."""
    if isinstance(source, os.PathLike):
        with open(source, "rb") as fh:
            source = fh.read()
    elif not isinstance(source, (str, bytes)):
        raise TypeError(f"unsupported OBJ source: {type(source)!r}")
    breaks = _OTHER_BREAKS if isinstance(source, str) else _OTHER_BREAKS.encode()
    if source.isascii() and not any(b in source for b in breaks):
        data = source if isinstance(source, bytes) else source.encode("ascii")
    else:
        if isinstance(source, bytes):
            source = source.decode("utf-8", errors="replace")
        data = "\n".join(source.splitlines()).encode("utf-8", "surrogatepass")
    return data if data.endswith(b"\n") else data + b"\n"


def _record_lines(data: bytes):
    """Per line of ``data``: the index in ``_TAGS`` of its first word or -1,
    the bounds ``begin:cut`` of its record (past leading blanks, up to its
    ``\\n`` or first ``#``), and whether it is odd, with a control byte other
    than tab or a non-ASCII byte before its cut.  Odd lines are tagged by
    ``str.split``, which knows the blanks of Unicode."""
    buf = np.frombuffer(data, np.uint8)
    low = np.flatnonzero(buf < ord(" "))  # line breaks, tabs and other control bytes
    ends = low[buf[low] == ord("\n")]
    cut = ends.copy()
    if b"#" in data:
        hashes = np.flatnonzero(buf == ord("#"))
        np.minimum.at(cut, np.searchsorted(ends, hashes), hashes)

    begin = np.concatenate([[0], ends[:-1] + 1])
    b = buf[begin]
    lead = np.flatnonzero((b == ord(" ")) | (b == ord("\t")))
    while len(lead):
        begin[lead] += 1
        b = buf[begin[lead]]
        lead = lead[(b == ord(" ")) | (b == ord("\t"))]
    # the first three bytes of each record; a word ends at a blank, "\n" or "#"
    b0, b1, b2 = (buf.take(begin + k, mode="clip") for k in range(3))
    end1, end2 = ((b <= ord(" ")) | (b == ord("#")) for b in (b1, b2))
    tags = np.full(len(ends), -1, dtype=np.int8)
    tags[(b0 == ord("v")) & end1] = 0
    tags[(b0 == ord("v")) & (b1 == ord("t")) & end2] = 1
    tags[(b0 == ord("f")) & end1] = 2

    odd = np.zeros(len(ends), dtype=bool)
    at = low[(buf[low] != ord("\n")) & (buf[low] != ord("\t"))]
    if len(at) or not data.isascii():
        at = np.union1d(at, np.flatnonzero(buf > 127))
        line = np.searchsorted(ends, at)
        odd[line[at < cut[line]]] = True
        for i in np.flatnonzero(odd).tolist():
            words = data[begin[i] : cut[i]].decode("utf-8", "surrogatepass").split(None, 1)
            tags[i] = _TAGS.index(words[0]) if words and words[0] in _TAGS else -1
    return tags, begin, cut, odd


def _record_text(data: bytes, begin: np.ndarray, cut: np.ndarray) -> bytes:
    """The records ``data[begin[i]:cut[i]]``, joined by ``\\n``; a run of
    whole adjacent lines is one slice of ``data``."""
    if len(begin) == 0:
        return b""
    split = np.flatnonzero(begin[1:] != cut[:-1] + 1) + 1
    runs = zip(
        begin[np.concatenate([[0], split])].tolist(),
        cut[np.append(split - 1, len(cut) - 1)].tolist(),
    )
    return b"\n".join(data[a:b] for a, b in runs)


def _coordinates(text: bytes, n_records: int, width: int) -> np.ndarray | None:
    """(n, width) coordinates of ``v`` or ``vt`` records, fields past ``width``
    ignored; None where a record is short or a coordinate does not read as a
    finite float."""
    try:
        values = np.loadtxt(
            io.BytesIO(text), comments=None, usecols=range(1, width + 1), ndmin=2
        )
    except ValueError:
        return None
    if len(values) != n_records or not np.isfinite(values).all():
        return None
    return values


def _face_corners(text: bytes, n_records: int):
    """``(vertex, texture, has_uv, n_corners)`` of ``f`` records, or None.

    Per corner: its int64 vertex and texture index (0 where it has none) and
    whether it has a texture index; per record: its corner count.  One or two
    slashes and then a digit after a number continue its corner.  None where
    a byte is not the tag, a digit, slash or blank, an index reaches 10**18,
    a slash follows no digit, a corner has over three fields, or a record
    under three corners.
    """
    text += b"\n\n"  # so that the two bytes after every number exist
    if text.translate(None, b"f0123456789/ \t\n") or text.count(b"f") != n_records:
        return None
    buf = np.frombuffer(text, np.uint8)
    blanked = text.translate(bytes.maketrans(b"f/", b"  "))  # the indices alone
    digit = np.frombuffer(blanked, np.uint8) > ord(" ")
    end = np.flatnonzero(digit[:-1] > digit[1:]) + 1  # the byte after each number
    if len(end) == 0:
        return None
    values = np.fromstring(blanked, dtype=np.int64, sep=" ")
    if len(values) != len(end) or values.max() >= 10**18:  # it may have overflowed
        return None
    # without a slash every number is the vertex index of a corner
    vertex, texture, has_uv = values, np.zeros_like(values), np.zeros(len(values), dtype=bool)
    if b"/" in text:
        slash = ord("/")
        one = buf[end] == slash
        runs = one.view(np.int8) + (one & (buf[end + 1] == slash))  # slashes after each number
        joined = buf[end + runs] >= ord("0")  # the next number is in the same corner
        opens = np.flatnonzero(np.concatenate([[True], ~joined[:-1]]))  # the vertex indices
        slashes = np.concatenate([[0], np.cumsum(runs)])
        if (
            slashes[-1] != text.count(b"/")  # a slash not among the two after a digit
            or (np.diff(slashes[np.append(opens, len(end))]) > 2).any()  # four fields
        ):
            return None
        # the texture index is the number after the one slash that follows the vertex index
        has_uv = (runs[opens] == 1) & joined[opens]
        vertex, texture, end = values[opens], texture[opens], end[opens]
        texture[has_uv] = values[opens[has_uv] + 1]
    record = np.flatnonzero(buf == ord("f"))
    n_corners = np.diff(np.searchsorted(end, record), append=len(end))
    if (n_corners < 3).any():
        return None
    return vertex, texture, has_uv, n_corners


def _read_group(text: bytes, line_nos: np.ndarray, tag: str):
    """The records of one tag read one at a time, as the array converters
    return them (face indices as Python ints), or the first record's error."""
    lines = text.decode("utf-8", "surrogatepass").split("\n")
    records = [_read_record(line, n) for line, n in zip(lines, line_nos.tolist())]
    errors = [record for record in records if isinstance(record, ObjParseError)]
    if errors:
        return errors[0]
    if tag != "f":
        return np.array(records, dtype=np.float64).reshape(-1, _WIDTH[tag])
    corners = [corner for record in records for corner in record]
    vertex = np.array([v for v, _ in corners], dtype=object)
    texture = np.array([t or 0 for _, t in corners], dtype=object)
    has_uv = np.array([t is not None for _, t in corners], dtype=bool)
    return vertex, texture, has_uv, np.array([len(r) for r in records], dtype=np.int64)


def _read_record(line: str, line_no: int):
    """The values of one ``v``, ``vt`` or ``f`` record, or the ``ObjParseError``
    ``load_obj`` raises for it.

    ``v`` and ``vt`` give their first 3 or 2 coordinates as floats, ``f`` the
    ``(vertex, texture)`` integers of each corner, texture None where the
    corner has none.
    """
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
        return values
    if len(parts) < 4:
        return ObjParseError("face record needs at least 3 corners", line_no)
    corners = []
    for ref in parts[1:]:
        fields = ref.split("/")
        try:
            if len(fields) > 3 or fields[0] == "":
                raise ValueError(ref)
            texture = int(fields[1]) if len(fields) >= 2 and fields[1] != "" else None
            corners.append((int(fields[0]), texture))
        except ValueError:
            return ObjParseError(f"bad face corner {ref!r}", line_no)
    return corners


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
    return SeamEdgeSet(mesh.edges[np.unique(edge[disagree])])


# ---------------------------------------------------------------------------
# Edge graph


def build_edge_graph(mesh: IndexedMesh) -> sp.csr_matrix:
    """Vertex-edge graph as a symmetric (V, V) CSR matrix of edge lengths.

    Each edge is stored in both of its rows.  Row ``v`` holds the neighbours
    of ``v`` in ascending order, ``indices[indptr[v]:indptr[v + 1]]``, the
    order ``projection.shortest_path`` reads as its lowest-index tie-break,
    and their lengths in the same slice of ``data``.  A zero-length edge (two
    coincident vertices) is an explicitly stored 0, which
    ``scipy.sparse.csgraph`` reads as an arc.
    """
    (a, b), w, n = mesh.edges.T, mesh.edge_lengths, mesh.n_vertices
    return sp.csr_matrix((np.r_[w, w], (np.r_[a, b], np.r_[b, a])), shape=(n, n))
