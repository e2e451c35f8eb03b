"""load_obj against the record-by-record parser kept in loop_reference.py.

Every accepted text must parse to bit-identical arrays, and every rejected
text must raise the same exception type, message and line.  One difference
is deliberate: a degenerate face names its own line, where the reference
reports line 0.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamkit import mesh as mesh_mod
from seamkit import shapes
from seamkit.mesh import (
    IndexedMesh,
    ObjIndexError,
    ObjParseError,
    content_lines,
    format_records,
    load_obj,
    obj_text,
    save_obj,
)

from tests import loop_reference as ref

TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
UVS = "vt 0 0\nvt 1 0\nvt 0 1\n"


def _outcome(parse, text):
    """``(vertices, triangles, uv_corners)`` of a parse, or ``(type, message, line_no)``."""
    try:
        mesh = parse(text)
    except ObjParseError as exc:
        return type(exc), str(exc), exc.line_no
    return mesh.vertices, mesh.triangles, mesh.uv_corners


def _degenerate_line(text):
    """Line of the first face whose fan repeats a vertex, read record by record."""
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")
    for line_no, line in content_lines(text):
        parts = line.split()
        if parts[0] == "f":
            v = [int(corner.split("/")[0]) for corner in parts[1:]]
            if any(len({v[0], v[k], v[k + 1]}) < 3 for k in range(1, len(v) - 1)):
                return line_no
    raise AssertionError("no degenerate face")


def _assert_matches_reference(text):
    got = _outcome(load_obj, text)
    want = _outcome(ref.load_obj, text)
    if want[0] is ObjParseError and want[2] == 0:  # the reference's degenerate-face line
        line_no = _degenerate_line(text)
        want = (ObjParseError, want[1].replace("line 0:", f"line {line_no}:"), line_no)
    assert isinstance(got[0], type) == isinstance(want[0], type), (got, want)
    if isinstance(want[0], type):
        assert got == want
        return
    _assert_same_arrays(got, want)


def _assert_same_arrays(got, want):
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if w is not None:
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# One row per error branch, and per rule that picks the reported error

ERRORS = {
    "short v": ("v 0 0 0\nv 1 0\n", ObjParseError, "vertex record needs 3 coordinates", 2),
    "bad v float": (
        "v 0 0 0\n\nv 1 x 0\n",
        ObjParseError,
        "bad vertex coordinate: could not convert string to float: 'x'",
        3,
    ),
    "non-finite v": (TRIANGLE + "v 0 nan 0\n", ObjParseError, "non-finite vertex coordinate", 4),
    "short vt": ("vt 0\n", ObjParseError, "texture record needs 2 coordinates", 1),
    "bad vt float": (
        "vt 0 0\nvt 0 1e\n",
        ObjParseError,
        "bad texture coordinate: could not convert string to float: '1e'",
        2,
    ),
    "non-finite vt": ("vt -inf 0\n", ObjParseError, "non-finite texture coordinate", 1),
    "face with two corners": (
        TRIANGLE + "f 1 2\n",
        ObjParseError,
        "face record needs at least 3 corners",
        4,
    ),
    "bare f": (TRIANGLE + "f\n", ObjParseError, "face record needs at least 3 corners", 4),
    "bare f, blanks and a comment": (
        TRIANGLE + "f \t # c\n",
        ObjParseError,
        "face record needs at least 3 corners",
        4,
    ),
    "tag before a comment": (
        TRIANGLE + "vt#uv\n",
        ObjParseError,
        "texture record needs 2 coordinates",
        4,
    ),
    "corner /1": (TRIANGLE + "f /1 2 3\n", ObjParseError, "bad face corner '/1'", 4),
    "corner 1/2/3/4": (TRIANGLE + "f 1/2/3/4 2 3\n", ObjParseError, "bad face corner '1/2/3/4'", 4),
    "corner 1///2": (TRIANGLE + "f 1///2 2 3\n", ObjParseError, "bad face corner '1///2'", 4),
    "corner a/1": (TRIANGLE + UVS + "f 1/1 a/1 3/3\n", ObjParseError, "bad face corner 'a/1'", 7),
    "corner 2/x": (TRIANGLE + UVS + "f 1/1 2/x 3/3\n", ObjParseError, "bad face corner '2/x'", 7),
    "corner 1.5": (TRIANGLE + "f 1.5 2 3\n", ObjParseError, "bad face corner '1.5'", 4),
    "v index out of range": (TRIANGLE + "f 1 2 4\n", ObjIndexError, "vertex index 4 out of range", 4),
    "vt index out of range": (
        TRIANGLE + UVS + "f 1/1 2/2 3/4\n",
        ObjIndexError,
        "texture index 4 out of range",
        7,
    ),
    "v index 0": (TRIANGLE + "f 0 1 2\n", ObjIndexError, "vertex index 0 out of range", 4),
    "v index negative": (TRIANGLE + "f 1 -1 2\n", ObjIndexError, "vertex index -1 out of range", 4),
    "v index beyond int64": (
        TRIANGLE + "f 1 2 99999999999999999999\n",
        ObjIndexError,
        "vertex index 99999999999999999999 out of range",
        4,
    ),
    "degenerate face": (
        TRIANGLE + "f 1 2 3\nf 1 1 2\n",
        ObjParseError,
        "degenerate triangle (repeated vertex index)",
        5,
    ),
    "degenerate fan triangle": (
        TRIANGLE + "v 1 1 0\nf 1 2 3\nf 1 2 1 3\n",
        ObjParseError,
        "degenerate triangle (repeated vertex index)",
        6,
    ),
    # a malformed record wins by line, across record types
    "first malformed line": (
        "f 1 2\n" + TRIANGLE + "v x 0 0\n",
        ObjParseError,
        "face record needs at least 3 corners",
        1,
    ),
    "malformed record before bad index": (
        TRIANGLE + "f 1 2 9\nv 0 0\n",
        ObjParseError,
        "vertex record needs 3 coordinates",
        5,
    ),
    # then the first face with a bad index, then the first degenerate face
    "first face with a bad index": (
        TRIANGLE + UVS + "f 1/1 2/9 3/3\nf 9 2 3\n",
        ObjIndexError,
        "texture index 9 out of range",
        7,
    ),
    "vertex index before texture index": (
        TRIANGLE + UVS + "f 1/1 9/9 3/3\n",
        ObjIndexError,
        "vertex index 9 out of range",
        7,
    ),
    "bad index before degenerate face": (
        TRIANGLE + "f 1 1 2\nf 1 2 7\n",
        ObjIndexError,
        "vertex index 7 out of range",
        5,
    ),
}


@pytest.mark.parametrize("name", list(ERRORS))
def test_error_branch(name):
    text, kind, message, line_no = ERRORS[name]
    with pytest.raises(ObjParseError) as err:
        load_obj(text)
    assert type(err.value) is kind
    assert str(err.value) == f"OBJ line {line_no}: {message}"
    assert err.value.line_no == line_no
    _assert_matches_reference(text)


# ---------------------------------------------------------------------------
# Accepted forms: (text, triangles, has_uv)

ACCEPTED = {
    "quad fan": (TRIANGLE + "v 1 1 0\nf 1 2 4 3\n", [[0, 1, 3], [0, 3, 2]], False),
    "n-gon fan": (TRIANGLE + "v 1 1 0\nv 0.5 1.5 0\nf 1 2 4 5 3\n", [[0, 1, 3], [0, 3, 4], [0, 4, 2]], False),
    "v//vn": ("vn 0 0 1\n" + TRIANGLE + "f 1//1 2//1 3//1\n", [[0, 1, 2]], False),
    "v/vt/vn": (TRIANGLE + UVS + "vn 0 0 1\nf 1/1/1 2/2/1 3/3/1\n", [[0, 1, 2]], True),
    "v/vt quad": (
        TRIANGLE + "v 1 1 0\n" + UVS + "vt 1 1\nf 1/1 2/2 4/4 3/3\n",
        [[0, 1, 3], [0, 3, 2]],
        True,
    ),
    "trailing comments": (
        "# header\nv 0 0 0 # origin\nv 1 0 0#x\nv 0 1 0\nf 1 2 3 # face\n",
        [[0, 1, 2]],
        False,
    ),
    "CRLF": (TRIANGLE.replace("\n", "\r\n") + UVS.replace("\n", "\r\n") + "f 1/1 2/2 3/3\r\n", [[0, 1, 2]], True),
    "blank and unknown records": (
        "o thing\n\ng group\n  \nv 0 0 0\nvn 0 0 1\ns off\nv 1 0 0\nusemtl m\nv 0 1 0\nvp 0.5\nf 1 2 3\n",
        [[0, 1, 2]],
        False,
    ),
    "mixed with and without vt": (
        TRIANGLE + "v 1 1 0\n" + UVS + "f 1/1 2/2 3/3\nf 2 4 3\n",
        [[0, 1, 2], [1, 3, 2]],
        False,
    ),
    "empty vt field": (TRIANGLE + UVS + "f 1/1 2/ 3/3\n", [[0, 1, 2]], False),
    "extra coordinate fields and tabs": (
        "v\t0 0 0 1\nv 1 0 0 0.5 0.5 0.5\n\tv 0 1 0\nvt 0 0 0\nvt 1 0\nvt 0 1\nf\t1/1\t2/2 3/3\n",
        [[0, 1, 2]],
        True,
    ),
    "leading blanks": ("  \tv 0 0 0\n\t\tv 1 0 0\n \t v 0 1 0\n\t f 1 2 3\n", [[0, 1, 2]], False),
    "extra fields equal to the tag": (
        "v 0 0 0 v\nv 1 0 0\nv 0 1 0\n" + UVS + "vt 1 1 vt\nf 1/1 2/2 3/3\n",
        [[0, 1, 2]],
        True,
    ),
    "faces before vertices": ("f 1 2 3\n" + TRIANGLE, [[0, 1, 2]], False),
    "integer spellings": (TRIANGLE + "f +1 02 3\n", [[0, 1, 2]], False),
    "no faces": (TRIANGLE, np.zeros((0, 3), dtype=np.int64), False),
    "empty text": ("", np.zeros((0, 3), dtype=np.int64), False),
}


@pytest.mark.parametrize("name", list(ACCEPTED))
def test_accepted_form(name):
    text, triangles, has_uv = ACCEPTED[name]
    mesh = load_obj(text)
    np.testing.assert_array_equal(mesh.triangles, np.asarray(triangles).reshape(-1, 3))
    assert mesh.has_uvs == has_uv
    _assert_matches_reference(text)


# ---------------------------------------------------------------------------
# Generated texts

_NUMBERS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_COORDINATE = st.one_of(
    _NUMBERS.map(repr),
    _NUMBERS.map(lambda x: f"{x:.3g}"),
    _NUMBERS.map(lambda x: f"{x:+.4e}"),
    st.integers(-5, 5).map(str),
)
_UNKNOWN = st.sampled_from([["vn", "0", "0", "1"], ["o", "thing"], ["g"], ["s", "off"], ["usemtl", "m"], []])


def _index_text(draw, i):
    return draw(st.sampled_from([str(i), f"+{i}", f"0{i}"]))


@st.composite
def _obj_texts(draw):
    """Valid OBJ text mixing every accepted record, corner form and layout."""
    n_v = draw(st.integers(3, 7))
    n_vt = draw(st.integers(0, 5))
    records = []
    for _ in range(n_v):
        records.append(["v"] + [draw(_COORDINATE) for _ in range(draw(st.sampled_from([3, 3, 4, 6])))])
    for _ in range(n_vt):
        records.append(["vt"] + [draw(_COORDINATE) for _ in range(draw(st.sampled_from([2, 2, 3])))])
    forms = ["v", "v//vn", "v/"] + (["v/vt", "v/vt/vn"] if n_vt else [])
    for _ in range(draw(st.integers(0, 5))):
        k = draw(st.integers(3, min(6, n_v)))
        face_forms = draw(st.lists(st.sampled_from(forms), min_size=1, max_size=k))
        corners = []
        for c, v in enumerate(draw(st.permutations(range(1, n_v + 1)))[:k]):
            form = face_forms[c % len(face_forms)]
            t = _index_text(draw, draw(st.integers(1, max(n_vt, 1))))
            corners.append(
                form.replace("vt", t).replace("vn", "1").replace("v", _index_text(draw, v), 1)
            )
        records.append(["f"] + corners)
    records += draw(st.lists(_UNKNOWN, max_size=3))
    lines = []
    for i in draw(st.permutations(range(len(records)))):
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        sep = draw(st.sampled_from([" ", " ", "  ", "\t"]))
        comment = draw(st.sampled_from(["", "", " # note", "#x"]))
        lines.append(lead + sep.join(records[i]) + comment)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_obj_texts())
def test_generated_text_parses_like_reference(text):
    _assert_matches_reference(text)


# replacement tokens for a coordinate record and for a face or other record
_CORRUPT_COORDINATE = ["x", "nan", "inf", "-inf", "1e400", "1e", "1_0", "٣", "+2", "v", "vt", "#", ""]
_CORRUPT_CORNER = [
    "/1", "1/2/3/4", "a/1", "1/", "1//", "//", "0", "-1", "9", "99999999999999999999",
    "1.5", "1_0", "٣", "1/x", "3/0", "2/9", "9/9", "f", "#", "",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_obj_texts(), st.data())
def test_corrupted_text_fails_like_reference(text, data):
    """One or two tokens replaced, so the choice between two errors is tested too."""
    lines = text.splitlines(keepends=True)
    records = [i for i, line in enumerate(lines) if line.split()]
    if not records:
        return
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.sampled_from(records))
        tokens = lines[i].split()
        choices = _CORRUPT_COORDINATE if tokens[0] in ("v", "vt") else _CORRUPT_CORNER
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(choices))
        lines[i] = " ".join(tokens) + "\n"
    _assert_matches_reference("".join(lines))


# OBJ fragments and the characters whose handling is easy to get wrong: the
# other Unicode line breaks and whitespace, NUL, a lone surrogate, non-ASCII digits
_PIECES = list("vtf /#.e-+na_0123456789\t\r\n") + [
    "\x0b", "\x1c", "\x85", "\xa0", "\u2028", "\x00", "\ud800", "٣", "\r\n",
    "v ", "vt ", "f ", "1/2 ", "1//3 ",
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(_PIECES), max_size=60).map(lambda p: "".join(p) + "\n"))
def test_arbitrary_text_parses_like_reference(text):
    """Texts that end in a newline, so ``load_obj`` never reads them as a path."""
    _assert_matches_reference(text)


@st.composite
def _meshes(draw):
    n = draw(st.integers(3, 9))
    coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, allow_subnormal=False)
    vertices = np.array(draw(st.lists(coordinate, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    triangles = draw(
        st.lists(st.permutations(range(n)).map(lambda p: p[:3]), min_size=1, max_size=8)
    )
    uv = None
    if draw(st.booleans()):
        values = draw(st.lists(coordinate, min_size=6 * len(triangles), max_size=6 * len(triangles)))
        uv = np.array(values).reshape(-1, 2)
    return IndexedMesh(vertices=vertices, triangles=np.array(triangles), uv_corners=uv)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_meshes())
def test_save_obj_round_trip(mesh):
    once = load_obj(save_obj(mesh))
    np.testing.assert_array_equal(once.triangles, mesh.triangles)
    np.testing.assert_allclose(once.vertices, mesh.vertices, rtol=1e-8, atol=0)
    assert once.has_uvs == mesh.has_uvs
    if mesh.has_uvs:
        np.testing.assert_allclose(once.uv_corners, mesh.uv_corners, rtol=1e-8, atol=0)
    # nine significant digits are a fixed point of the round trip
    text = save_obj(once)
    assert save_obj(load_obj(text)) == text
    _assert_matches_reference(text)


# ---------------------------------------------------------------------------
# obj_text output is read by the array converters alone, with the reference's
# arrays; texts one step away from it parse like the reference too.  There is
# one parser: the "plain"/"general" test names below are kept so that their
# test IDs stay stable, and name the inputs, not a parser fork.


def _assert_plain(source):
    """``load_obj`` reads ``source`` without the per-record reader."""
    with mock.patch.object(mesh_mod, "_read_record", side_effect=AssertionError("not plain")):
        return load_obj(source)


@st.composite
def _obj_text_meshes(draw):
    """``obj_text`` of a random mesh: no UVs, corner-indexed or vertex-indexed ``vt``."""
    n = draw(st.integers(3, 9))
    coordinate = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    vertices = np.array(draw(st.lists(coordinate, min_size=3 * n, max_size=3 * n))).reshape(n, 3)
    triangles = np.array(
        draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]), min_size=0, max_size=8)),
        dtype=np.int64,
    ).reshape(-1, 3)
    uvs = draw(st.sampled_from(["none", "corner", "vertex"]))
    if uvs == "none":
        return obj_text(vertices, triangles)
    if uvs == "corner":
        texture_index = np.arange(3 * len(triangles)).reshape(-1, 3)
    else:
        texture_index = triangles
    rows = 3 * len(triangles) if uvs == "corner" else n
    texcoords = np.array(draw(st.lists(coordinate, min_size=2 * rows, max_size=2 * rows)))
    return obj_text(vertices, triangles, texcoords.reshape(-1, 2), texture_index)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_obj_text_meshes(), st.data())
def test_obj_text_takes_the_plain_parser(text, data):
    _assert_plain(text)
    _assert_matches_reference(text)
    # one or two tokens replaced
    lines = text.splitlines(keepends=True)
    if not lines:
        return
    for _ in range(data.draw(st.integers(1, 2))):
        i = data.draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split()
        choices = _CORRUPT_COORDINATE if tokens[0] in ("v", "vt") else _CORRUPT_CORNER
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(st.sampled_from(choices))
        lines[i] = " ".join(tokens) + "\n"
    _assert_matches_reference("".join(lines))


# texts one step away from plain, as text and as bytes
NOT_PLAIN = {
    "v/vt/vn corners read as v/vt": TRIANGLE + "v 1 1 0\n" + UVS + "vt 1 1\nf 1/1/2 3/4 4\n",
    "two corners, one with a slash": TRIANGLE + UVS + "f 1/2 3\n",
    "letter in a face": TRIANGLE + "f 1 2f3\n",
    "v//vn": TRIANGLE + "f 1//1 2//1 3//1\n",
    "mixed corner forms": TRIANGLE + UVS + "f 1/1 2/2 3/3\nf 1 2 3\n",
    "quad": TRIANGLE + "v 1 1 0\nf 1 2 4 3\n",
    "two spaces in a face": TRIANGLE + "f 1  2 3\n",
    "trailing space in a face": TRIANGLE + "f 1 2 3 \n",
    "signed index": TRIANGLE + "f +1 2 3\n",
    "leading space": " " + TRIANGLE + "f 1 2 3\n",
    "tab": TRIANGLE.replace(" ", "\t", 1) + "f 1 2 3\n",
    "comment": TRIANGLE + "f 1 2 3 # face\n",
    "CRLF": (TRIANGLE + "f 1 2 3\n").replace("\n", "\r\n"),
    "vertical tab": TRIANGLE + "f 1 2 3\x0b\n",
    "non-ASCII": "o \xe9\n" + TRIANGLE + "f 1 2 3\n",
    "underscore in a coordinate": TRIANGLE + "v 1_0 0 0\nf 1 2 4\n",
    "bare tag": TRIANGLE + "vt\nf 1 2 3\n",
    "bare f": TRIANGLE + "f\n",
    "bare f, blanks and a comment": TRIANGLE + "f \t # c\n",
    "index 0": TRIANGLE + "f 0 1 2\n",
    "texture index out of range": TRIANGLE + UVS + "f 1/1 2/2 3/4\n",
    "repeated vertex": TRIANGLE + "f 1 2 1\n",
    "non-finite vt": TRIANGLE + "vt inf 0\nf 1 2 3\n",
}


@pytest.mark.parametrize("name", list(NOT_PLAIN))
def test_near_plain_text_is_left_to_the_general_parser(name):
    text = NOT_PLAIN[name]
    _assert_matches_reference(text)
    _assert_matches_reference(text.encode("utf-8"))


PLAIN = {
    "blank lines and unknown records": "o thing\n\n" + TRIANGLE + "vn 0 0 1\ns off\nf 1 2 3\n",
    "interleaved records": "v 0 0 0\nvt 0 0\nv 1 0 0\nvt 1 0\nf 1/1 2/2 3/3\nv 0 1 0\nvt 0 1\n",
    "extra coordinate fields and spaces": "v 0 0 0 1\nv  1 0 0 \nv 0 1 0\nf 1 2 3\n",
    "no final newline": TRIANGLE + "f 1 2 3",
    "vt without texture indices": TRIANGLE + UVS + "f 1 2 3\n",
    "no faces": TRIANGLE,
    "empty text": "",
}


@pytest.mark.parametrize("name", list(PLAIN))
def test_plain_text_forms(name):
    text = PLAIN[name]
    _assert_plain(text)
    _assert_matches_reference(text)


BENCHMARK_MESHES = {
    "cylinder 128x128": lambda: shapes.make_cylinder(128, 128),
    "sphere 64x128": lambda: shapes.make_sphere(64, 128),
    "sphere 32x64": lambda: shapes.make_sphere(32, 64),
    "cylinder 64x32 without UVs": lambda: shapes.make_cylinder(64, 32, with_uv=False),
}


@pytest.mark.parametrize("name", list(BENCHMARK_MESHES))
def test_benchmark_meshes_take_the_plain_parser(name, tmp_path):
    text = save_obj(BENCHMARK_MESHES[name]())
    path = tmp_path / "mesh.obj"
    path.write_text(text)
    want = _outcome(ref.load_obj, text)
    for source in (text, text.encode("ascii"), path):
        _assert_same_arrays(_outcome(_assert_plain, source), want)


# ---------------------------------------------------------------------------
# Texts at size, in the layouts exporters write


def _blender_text(mesh):
    """A Blender-style export: CRLF, a header comment, ``o``/``usemtl``/``s``
    records, one ``vn`` and ``f v/vt/vn`` faces."""
    corners = np.arange(1, 3 * mesh.n_triangles + 1).reshape(-1, 3)
    faces = np.stack([mesh.triangles + 1, corners], axis=2).reshape(-1, 6)
    return (
        "# Blender 4.1.0\r\n# www.blender.org\r\nmtllib mesh.mtl\r\no Cylinder\r\n"
        + format_records("v %.6f %.6f %.6f\r\n", mesh.vertices)
        + "vn -0.0000 -1.0000 -0.0000\r\n"
        + format_records("vt %.6f %.6f\r\n", mesh.uv_corners)
        + "s 0\r\nusemtl Material\r\n"
        + format_records("f %d/%d/1 %d/%d/1 %d/%d/1\r\n", faces)
    )


def _tri_quad_text(n):
    """An (n x n)-cell grid, alternate cells as quads and as two triangles."""
    g = np.arange((n + 1) * (n + 1)).reshape(n + 1, n + 1) + 1
    xs = np.linspace(0.0, 1.0, n + 1)
    vertices = np.stack([np.tile(xs, n + 1), np.repeat(xs, n + 1), np.zeros((n + 1) ** 2)], axis=1)
    quads = np.stack([g[:-1, :-1], g[:-1, 1:], g[1:, 1:], g[1:, :-1]], axis=2).reshape(-1, 4)
    return (
        format_records("v %.9g %.9g %.9g\n", vertices)
        + format_records("f %d %d %d %d\n", quads[0::2])
        + format_records("f %d %d %d\nf %d %d %d\n", quads[1::2][:, [0, 1, 2, 0, 2, 3]])
    )


def _vn_text(mesh):
    """``f v//vn`` faces, one normal per face."""
    normals = np.repeat(np.arange(1, mesh.n_triangles + 1), 3).reshape(-1, 3)
    faces = np.stack([mesh.triangles + 1, normals], axis=2).reshape(-1, 6)
    return (
        format_records("v %.9g %.9g %.9g\n", mesh.vertices)
        + format_records("vn 0 0 %d\n", np.ones((mesh.n_triangles, 1), dtype=np.int64))
        + format_records("f %d//%d %d//%d %d//%d\n", faces)
    )


def _interleaved_text(mesh):
    """A ``v``, three ``vt`` and an ``f`` record in turn, each with a trailing
    comment, so that no record type is one run of whole lines."""
    v = [f"v {x!r} {y!r} {z!r} # vertex" for x, y, z in mesh.vertices.tolist()]
    lines = []
    for f, (a, b, c) in enumerate((mesh.triangles + 1).tolist()):
        lines += v[f : f + 1]
        lines += [f"vt {s!r} {t!r}# uv" for s, t in mesh.uv_corners[3 * f : 3 * f + 3].tolist()]
        lines.append(f"f {a}/{3 * f + 1} {b}/{3 * f + 2} {c}/{3 * f + 3} # face {f}")
    return "\n".join(lines + v[mesh.n_triangles :]) + "\n"


LARGE_TEXTS = {
    "Blender-style cylinder 128x128": lambda: _blender_text(shapes.make_cylinder(128, 128)),
    "tri+quad mix": lambda: _tri_quad_text(141),
    "v//vn sphere": lambda: _vn_text(shapes.make_sphere(32, 64)),
    "interleaved records with comments": lambda: _interleaved_text(shapes.make_cylinder(24, 16)),
}


@pytest.mark.parametrize("name", list(LARGE_TEXTS))
def test_large_text_parses_like_reference(name):
    text = LARGE_TEXTS[name]()
    _assert_matches_reference(text)
    _assert_same_arrays(_outcome(load_obj, text.encode("ascii")), _outcome(load_obj, text))
