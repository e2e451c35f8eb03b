import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

from seamkit.cli import (
    BLAS_THREAD_VARS,
    InputError,
    dpo_config_from,
    main,
    model_config_from,
    parse_config,
)
from seamkit.mesh import extract_uv_seams, load_obj, normalize, save_obj
from seamkit.model import ModelConfig, init_parameters, load_checkpoint, save_checkpoint
from seamkit.projection import seam_edges_to_segments
from seamkit.shapes import grid_vertex, make_cube, make_grid
from seamkit.tokenizer import (
    BOS,
    EOS,
    PAD,
    canonicalize,
    encode,
    read_seam_text,
    read_token_text,
    write_seam_text,
)

from tests.util import HANDS_OVER_ARGUMENTS, read_xyz, stores_alive_per_pass

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "seamkit", "schemas")


def _schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


@pytest.fixture
def grid_obj(tmp_path):
    mesh = make_grid(6, 6)
    path = tmp_path / "grid.obj"
    path.write_text(save_obj(mesh))
    return path


@pytest.fixture
def cube_obj(tmp_path):
    mesh = make_cube(n=2, with_uv=True)
    path = tmp_path / "cube.obj"
    path.write_text(save_obj(mesh))
    return path


def desk_config_text(**over):
    base = {
        "l": 8,
        "d": 16,
        "layers": 4,
        "heads": 2,
        "max_segments": 8,
        "n_topo": 64,
        "n_geom": 64,
        "n_candidates": 5,
    }
    base.update(over)
    return "".join(f"{k} = {v}\n" for k, v in base.items())


def test_config_parsing_and_unknown_keys():
    cfg = parse_config("l = 16\n# comment\nbeta=0.5\n\nmode = joint\n")
    assert cfg["l"] == 16 and cfg["beta"] == 0.5 and cfg["mode"] == "joint"
    assert cfg.file_keys == {"l", "beta", "mode"}
    with pytest.raises(InputError) as err:
        parse_config("l = 16\nbogus = 1\nwat = 2\n")
    assert "bogus" in str(err.value) and "wat" in str(err.value)


def test_config_defaults_are_the_model_and_dpo_defaults():
    from seamkit.dpo import DPOConfig

    cfg = parse_config("")
    assert model_config_from(cfg) == ModelConfig()
    assert dpo_config_from(cfg) == DPOConfig()


def test_evaluate_planar_grid_empty_seams(grid_obj, tmp_path, capsys):
    seams = tmp_path / "empty.seams"
    seams.write_text("# no segments\n")
    out = tmp_path / "metrics.json"
    code = main(["evaluate", str(grid_obj), str(seams), "--json-out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == json.loads(out.read_text())
    assert payload["fragments"] == 1
    assert abs(payload["distortion"]) <= 1e-9
    jsonschema.validate(payload, _schema("metrics.schema.json"))


def test_evaluate_missing_file_exit_2(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    code = main(["evaluate", str(tmp_path / "nope.obj"), "--from-uv", "--json-out", str(out)])
    assert code == 2
    assert not out.exists()  # no partial outputs


def test_evaluate_from_uv_requires_vt(grid_obj):
    assert main(["evaluate", str(grid_obj), "--from-uv"]) == 2


def test_evaluate_seam_file_and_from_uv_exit_2(cube_obj, tmp_path, capsys):
    seams = tmp_path / "empty.seams"
    seams.write_text("")
    out = tmp_path / "metrics.json"
    assert main(["evaluate", str(cube_obj), str(seams), "--from-uv", "--json-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: conflicting seam sources seam file {seams} and --from-uv" in err
    assert not out.exists()


def test_evaluate_from_uv_cube(cube_obj, tmp_path, capsys):
    svg = tmp_path / "atlas.svg"
    code = main(["evaluate", str(cube_obj), "--from-uv", "--svg", str(svg)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # six UV islands on the textured cube; re-evaluation reproduces that count
    assert payload["fragments"] == 6
    assert svg.read_text().startswith("<svg")
    # --from-uv seams equal extract_uv_seams output
    mesh, _ = normalize(load_obj(cube_obj))
    assert len(extract_uv_seams(mesh)) > 0


def test_tokenize_detokenize_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    seams = canonicalize(
        read_seam_text(
            "\n".join(
                " ".join(f"{v:.6f}" for v in rng.uniform(-0.5, 0.5, size=6))
                for _ in range(8)
            )
        )
    )
    seam_file = tmp_path / "in.seams"
    seam_file.write_text(write_seam_text(seams))
    tok1 = tmp_path / "a.tokens"
    seam2 = tmp_path / "b.seams"
    tok2 = tmp_path / "c.tokens"
    assert main(["tokenize", str(seam_file), str(tok1)]) == 0
    assert main(["detokenize", str(tok1), str(seam2)]) == 0
    assert main(["tokenize", str(seam2), str(tok2)]) == 0
    assert tok1.read_text() == tok2.read_text()
    # geometric round trip within half a bin
    back = read_seam_text(seam2.read_text())
    assert np.abs(back.segments - seams.segments).max() <= 1 / 2048 + 1e-9


def test_main_builds_its_parser_once_and_shares_no_parsed_state(grid_obj, tmp_path, capsys, monkeypatch):
    from seamkit import cli

    parser = cli.build_parser()
    parsed = []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda argv: parsed.append(parse_args(argv)) or parsed[-1])
    seams = tmp_path / "empty.seams"
    seams.write_text("# no segments\n")
    out = tmp_path / "metrics.json"
    tokens = tmp_path / "empty.tokens"
    evaluate = ["evaluate", str(grid_obj), str(seams), "--json-out", str(out)]
    assert main(evaluate + ["--from-uv"]) == 2  # two seam sources: an input error
    assert main(["tokenize", str(seams), str(tokens)]) == 0
    assert main(evaluate) == 0
    assert json.loads(out.read_text())["fragments"] == 1
    assert cli.build_parser() is parser
    first, second, third = parsed
    assert vars(first) == {
        "command": "evaluate",
        "mesh": str(grid_obj),
        "seams": str(seams),
        "from_uv": True,
        "json_out": str(out),
        "svg": None,
        "func": cli.cmd_evaluate,
    }
    # the tokenize call sees none of the evaluate call's values, and the
    # later evaluate call has its own defaults back
    assert vars(second) == {
        "command": "tokenize",
        "input": str(seams),
        "output": str(tokens),
        "func": cli.cmd_tokenize,
    }
    assert third.from_uv is False and third.func is cli.cmd_evaluate


def test_tokenize_empty_seam_file(tmp_path):
    seam_file = tmp_path / "empty.seams"
    seam_file.write_text("# nothing\n")
    tok = tmp_path / "empty.tokens"
    assert main(["tokenize", str(seam_file), str(tok)]) == 0
    assert read_token_text(tok.read_text()).tokens.tolist() == [BOS, EOS]


def _far_seam_text():
    # the 0.7 is the third content line's, on the file's fifth line
    return "# far\n0 0 0 0.1 0.1 0.1\n\n0.2 0 0 0.3 0 0\n0 0.1 0.2 0.3 0.7 0\n"


def test_tokenize_coordinate_outside_cube_names_file_and_line(tmp_path, capsys):
    far = tmp_path / "far.seams"
    far.write_text(_far_seam_text())
    out = tmp_path / "out.tokens"
    assert main(["tokenize", str(far), str(out)]) == 2
    assert f"error: {far}: seam line 5: coordinate 0.7 outside [-0.5, 0.5]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "project", "unwrap"])
def test_seam_coordinate_outside_cube_names_file_and_line(grid_obj, tmp_path, capsys, command):
    far = tmp_path / "far.seams"
    far.write_text(_far_seam_text())
    out = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", str(grid_obj), str(far), "--json-out", str(out)],
        "project": ["project", str(grid_obj), str(far), str(out)],
        "unwrap": ["unwrap", str(grid_obj), "--seams", str(far), "--obj-out", str(out)],
    }[command]
    assert main(argv) == 2
    assert f"error: {far}: seam line 5: coordinate 0.7 outside [-0.5, 0.5]" in capsys.readouterr().err
    assert not out.exists()
    # within CUBE_TOL of the cube, as the tokenizer clamps it
    far.write_text("0 0 0 0.1 0.1 0.1\n-0.5000000001 0 0 0.5000000001 0 0\n")
    assert main(argv) == 0


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_file_mode_follows_umask(tmp_path, umask):
    seam_file = tmp_path / "in.seams"
    seam_file.write_text("0 0 0 0.1 0.1 0.1\n")
    out = tmp_path / "out.tokens"
    old = os.umask(umask)
    try:
        assert main(["tokenize", str(seam_file), str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


def test_project_segment_along_edge(grid_obj, tmp_path):
    mesh, tf = normalize(load_obj(grid_obj))
    a, b = grid_vertex(6, 2, 3), grid_vertex(6, 3, 3)
    seg = np.stack([mesh.vertices[a], mesh.vertices[b]])[None]
    seam_file = tmp_path / "seg.seams"
    from seamkit.tokenizer import SeamSet

    seam_file.write_text(write_seam_text(SeamSet(segments=seg)))
    out = tmp_path / "edges.txt"
    assert main(["project", str(grid_obj), str(seam_file), str(out)]) == 0
    assert out.read_text().split() == [str(min(a, b)), str(max(a, b))]


def test_project_disconnected_segment_skipped(tmp_path):
    two = (
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "v 10 0 0\nv 11 0 0\nv 10 1 0\n"
        "f 1 2 3\nf 4 5 6\n"
    )
    mesh_path = tmp_path / "two.obj"
    mesh_path.write_text(two)
    seam_file = tmp_path / "cross.seams"
    seam_file.write_text("-0.5 0 0 0.5 0.05 0\n")
    out = tmp_path / "edges.txt"
    assert main(["project", str(mesh_path), str(seam_file), str(out)]) == 0
    assert out.read_text().strip() == ""


def test_unwrap_writes_obj_with_uvs(cube_obj, tmp_path):
    out = tmp_path / "atlas.obj"
    code = main(["unwrap", str(cube_obj), "--from-uv", "--obj-out", str(out)])
    assert code == 0
    atlas_mesh = load_obj(out.read_text())
    assert atlas_mesh.has_uvs


@pytest.mark.parametrize(
    "sources, named",
    [
        (["--from-uv", "--edges", "E"], "--from-uv and --edges"),
        (["--edges", "E", "--seams", "S"], "--edges and --seams"),
        (["--seams", "S", "--from-uv"], "--from-uv and --seams"),
        (["--seams", "S", "--edges", "E", "--from-uv"], "--from-uv and --edges and --seams"),
    ],
)
def test_unwrap_two_seam_sources_exit_2(cube_obj, tmp_path, capsys, sources, named):
    edges = tmp_path / "edges.txt"
    edges.write_text(extract_uv_seams(normalize(load_obj(cube_obj.read_text()))[0]).to_text())
    seams = tmp_path / "empty.seams"
    seams.write_text("")
    files = {"E": str(edges), "S": str(seams)}
    out = tmp_path / "atlas.obj"
    argv = ["unwrap", str(cube_obj), *(files.get(a, a) for a in sources), "--obj-out", str(out)]
    assert main(argv) == 2
    assert f"error: conflicting seam sources {named}: pass only one" in capsys.readouterr().err
    assert not out.exists()


def _count_calls(monkeypatch, fn, *modules):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_unwrap_edges_file_matches_from_uv(cube_obj, tmp_path):
    edges = tmp_path / "edges.txt"
    edges.write_text(extract_uv_seams(normalize(load_obj(cube_obj.read_text()))[0]).to_text())
    out, js = tmp_path / "atlas.obj", tmp_path / "metrics.json"
    args = ["unwrap", str(cube_obj), "--edges", str(edges), "--obj-out", str(out), "--json-out", str(js)]
    assert main(args) == 0
    assert json.loads(js.read_text())["fragments"] == 6


@pytest.mark.parametrize("pair", ["0 999", "0 -1"])
@pytest.mark.parametrize("json_out", [False, True])
def test_unwrap_edges_not_on_the_mesh_exit_2(grid_obj, tmp_path, capsys, pair, json_out):
    edges = tmp_path / "edges.txt"
    edges.write_text(f"0 1\n{pair}\n")
    out = tmp_path / "atlas.obj"
    args = ["unwrap", str(grid_obj), "--edges", str(edges), "--obj-out", str(out)]
    if json_out:
        args += ["--json-out", str(tmp_path / "metrics.json")]
    assert main(args) == 2
    a, b = sorted(int(v) for v in pair.split())
    assert f"{edges}: pair {a} {b} is not an edge of the mesh" in capsys.readouterr().err
    assert not out.exists()


def test_unwrap_json_out_solves_once(cube_obj, tmp_path, monkeypatch):
    from seamkit import metrics, unwrap

    solves = _count_calls(monkeypatch, unwrap.unwrap_atlas, unwrap, metrics)
    out = tmp_path / "atlas.obj"
    js = tmp_path / "metrics.json"
    args = ["unwrap", str(cube_obj), "--from-uv", "--obj-out", str(out), "--json-out", str(js)]
    assert main(args) == 0
    assert len(solves) == 1
    assert json.loads(js.read_text())["fragments"] == 6
    assert load_obj(out.read_text()).has_uvs


def test_unwrap_projection_failure_names_the_stage_exit_3(cube_obj, tmp_path, monkeypatch, capsys):
    from seamkit import metrics, projection

    def fail(mesh, seams):
        raise projection.ProjectionError("no path")

    for mod in (projection, metrics):
        monkeypatch.setattr(mod, "project_seams", fail)
    seams = tmp_path / "in.seams"
    seams.write_text("0 0 0 0.1 0.1 0.1\n")
    out = tmp_path / "atlas.obj"
    assert main(["unwrap", str(cube_obj), "--seams", str(seams), "--obj-out", str(out)]) == 3
    assert "pipeline error in stage 'project': no path" in capsys.readouterr().err
    assert not out.exists()


def _without_runtime(path):
    doc = json.loads(path.read_text())
    del doc["runtime_s"]
    return doc


@pytest.mark.parametrize("source", ["seam file", "--from-uv"])
def test_evaluate_and_unwrap_write_the_same_metrics(cube_obj, tmp_path, source):
    norm, _ = normalize(load_obj(cube_obj.read_text()))
    seams = tmp_path / "uv.seams"
    seams.write_text(write_seam_text(seam_edges_to_segments(norm, extract_uv_seams(norm))))
    evaluate_args, unwrap_args = {
        "seam file": ([str(seams)], ["--seams", str(seams)]),
        "--from-uv": (["--from-uv"], ["--from-uv"]),
    }[source]
    evaluated, unwrapped = tmp_path / "evaluate.json", tmp_path / "unwrap.json"
    assert main(["evaluate", str(cube_obj), *evaluate_args, "--json-out", str(evaluated)]) == 0
    obj = tmp_path / "atlas.obj"
    argv = ["unwrap", str(cube_obj), *unwrap_args, "--obj-out", str(obj), "--json-out", str(unwrapped)]
    assert main(argv) == 0
    assert _without_runtime(evaluated) == _without_runtime(unwrapped)
    assert _without_runtime(evaluated)["fragments"] == 6


def test_evaluate_normalizes_once(grid_obj, tmp_path, monkeypatch):
    from seamkit import cli
    from seamkit import mesh as mesh_mod

    calls = _count_calls(monkeypatch, mesh_mod.normalize, cli)
    seams = tmp_path / "empty.seams"
    seams.write_text("# no segments\n")
    assert main(["evaluate", str(grid_obj), str(seams)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("record", ["v nan 0 0", "v inf 0 1", "vt 0 -inf"])
def test_evaluate_non_finite_obj_exit_2(tmp_path, capsys, record):
    lines = ["v 0 0 0", record, "v 1 0 0", "v 0 1 0", "vt 0 0", "vt 1 0", "vt 0 1", "f 1/1 2/2 3/3"]
    path = tmp_path / "bad.obj"
    path.write_text("\n".join(lines) + "\n")
    assert main(["evaluate", str(path), "--from-uv"]) == 2
    err = capsys.readouterr().err
    assert "OBJ line 2: non-finite" in err


@pytest.mark.parametrize("line", ["nan 0 0 1 1 0", "0 0 0 1 inf 0"])
def test_evaluate_non_finite_seam_exit_2(grid_obj, tmp_path, capsys, line):
    seams = tmp_path / "bad.seams"
    seams.write_text(line + "\n")
    assert main(["evaluate", str(grid_obj), str(seams)]) == 2
    assert f"{seams}: seam line 1: non-finite coordinate" in capsys.readouterr().err


def test_evaluate_nonmanifold_fan_warns_once(tmp_path, caplog):
    path = tmp_path / "fan.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0.5 1 0\nv 0.5 -1 0\nv 0.5 0 1\nf 1 2 3\nf 2 1 4\nf 1 2 5\n"
    )
    seams = tmp_path / "empty.seams"
    seams.write_text("")
    with caplog.at_level(logging.WARNING, logger="seamkit"):
        assert main(["evaluate", str(path), str(seams)]) == 0
    assert sum("non-manifold" in r.message for r in caplog.records) == 1


def test_evaluate_obj_content_naming_a_file_is_not_a_path(tmp_path, monkeypatch):
    # the OBJ's whole content is the name of another, valid OBJ file
    (tmp_path / "tri.obj").write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    (tmp_path / "odd.obj").write_text("tri.obj")
    (tmp_path / "empty.seams").write_text("")
    monkeypatch.chdir(tmp_path)
    assert main(["evaluate", "odd.obj", "empty.seams"]) == 2


def test_evaluate_degenerate_face_names_file_and_line(tmp_path, capsys):
    path = tmp_path / "degenerate.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 1 2\n")
    seams = tmp_path / "empty.seams"
    seams.write_text("")
    assert main(["evaluate", str(path), str(seams)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: OBJ line 5: degenerate triangle" in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n", "mesh has no faces"),
        ("", "mesh has no vertices"),
        ("v 0 0 0\nv 0 0 0\nv 0 0 0\nf 1 2 3\n", "bounding box has zero extent"),
        # two triangles on one line: an extent, but no area to sample or unwrap
        ("v 0 0 0\nv 1 0 0\nv 2 0 0\nv 3 0 0\nf 1 2 3\nf 2 3 4\n", "mesh has zero total surface area"),
    ],
    ids=["no-faces", "empty", "zero-extent", "zero-area"],
)
@pytest.mark.parametrize("command", ["evaluate", "project", "unwrap", "sample-points"])
def test_mesh_without_faces_extent_or_area_names_the_file_exit_2(tmp_path, capsys, text, message, command):
    mesh = tmp_path / "bad.obj"
    mesh.write_text(text)
    seams = tmp_path / "one.seams"
    seams.write_text("0 0 0 0.1 0 0\n")
    out = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", str(mesh), str(seams)],
        "project": ["project", str(mesh), str(seams), str(out)],
        "unwrap": ["unwrap", str(mesh), "--seams", str(seams), "--obj-out", str(out)],
        "sample-points": ["sample-points", str(mesh), str(out)],
    }[command]
    assert main(argv) == 2
    assert f"error: {mesh}: {message}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.topo.xyz").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1024\n99999999999999999999\n", "token line 2: 99999999999999999999 does not fit in int64"),
        ("1024\n1\n2\n3\n99999\n1025\n", "token line 5: token id 99999 outside [0, 1026]"),
    ],
    ids=["beyond-int64", "outside-vocabulary"],
)
def test_detokenize_token_beyond_int64_or_vocabulary_exit_2(tmp_path, capsys, text, message):
    tokens = tmp_path / "big.tokens"
    tokens.write_text(text)
    out = tmp_path / "out.seams"
    assert main(["detokenize", str(tokens), str(out)]) == 2
    assert f"error: {tokens}: {message}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["seams", "tokens", "config", "edges", "pairs"])
def test_text_file_not_utf8_names_the_file_exit_2(grid_obj, tmp_path, capsys, kind):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"0 1\n\xff\n")
    out = tmp_path / "out"
    argv = {
        "seams": ["tokenize", str(bad), str(out)],
        "tokens": ["detokenize", str(bad), str(out)],
        "config": ["sample-points", str(grid_obj), str(out), "--config", str(bad)],
        "edges": ["unwrap", str(grid_obj), "--edges", str(bad), "--obj-out", str(out)],
        "pairs": ["dpo", str(bad), str(out)],
    }[kind]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff" in err
    assert not out.exists()


def test_unwrap_edge_index_beyond_int64_exit_2(grid_obj, tmp_path, capsys):
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1\n0 99999999999999999999\n")
    out = tmp_path / "atlas.obj"
    assert main(["unwrap", str(grid_obj), "--edges", str(edges), "--obj-out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{edges}: seam edge line 2: 99999999999999999999 does not fit in int64" in err
    assert not out.exists()


def test_sample_points(grid_obj, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n_topo = 128\nn_geom = 96\n")
    prefix = tmp_path / "clouds"
    assert main(["sample-points", str(grid_obj), str(prefix), "--config", str(cfg), "--seed", "3"]) == 0
    topo = read_xyz((tmp_path / "clouds.topo.xyz").read_text())
    geom = read_xyz((tmp_path / "clouds.geom.xyz").read_text())
    assert topo.shape == (128, 3)
    assert geom.shape == (96, 3)


def test_sample_prefpairs_dpo_pipeline(cube_obj, tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text())
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg), "--seed", "5"]) == 0
    seam_files = sorted(out_dir.glob("cand_*.seams"))
    json_files = sorted(out_dir.glob("cand_*.json"))
    assert len(seam_files) == 5 and len(json_files) == 5
    manifest = json.loads((out_dir / "manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert set(manifest["timings_s"]) == {"encode", "decode", "metrics"}
    assert manifest["environment"] == {
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
    }
    for rel in manifest["outputs"]:
        assert os.path.exists(rel)
    run = json.loads((out_dir / "run.json").read_text())
    assert [c["index"] for c in run["candidates"]] == list(range(5))
    assert all(c["n_steps"] >= 1 and isinstance(c["malformed"], bool) for c in run["candidates"])
    for jf in json_files:
        jsonschema.validate(json.loads(jf.read_text()), _schema("metrics.schema.json"))

    pairs_file = tmp_path / "pairs.jsonl"
    assert main(["prefpairs", str(out_dir), str(pairs_file), "--config", str(cfg)]) == 0
    from seamkit.dpo import read_pair_records, dominates

    records = read_pair_records(pairs_file.read_text())
    # brute-force dominance oracle over the emitted metrics
    metrics = [json.loads(jf.read_text()) for jf in json_files]
    expected = set()
    for i in range(5):
        for j in range(5):
            if i != j and (
                metrics[i]["distortion"] < metrics[j]["distortion"]
                and metrics[i]["fragments"] < metrics[j]["fragments"]
            ):
                expected.add((i, j))
    assert {(r.positive_index, r.negative_index) for r in records} == expected

    # dpo with steps=0 reproduces the input checkpoint byte-for-byte
    from seamkit.cli import model_config_from, load_config

    ckpt_in = tmp_path / "init.ckpt"
    params = init_parameters(model_config_from(load_config(str(cfg), None)))
    ckpt_in.write_bytes(save_checkpoint(params))
    cfg2 = tmp_path / "cfg2.txt"
    cfg2.write_text(desk_config_text() + f"steps = 0\ninit_checkpoint = {ckpt_in}\n")
    ckpt_out = tmp_path / "out.ckpt"
    argv = ["dpo", str(pairs_file), str(ckpt_out), "--candidates", str(out_dir), "--config", str(cfg2)]
    assert main(argv) == 0
    assert ckpt_out.read_bytes() == ckpt_in.read_bytes()

    # a couple of real dpo steps if any pairs were found
    if records:
        cfg3 = tmp_path / "cfg3.txt"
        cfg3.write_text(
            desk_config_text()
            + f"steps = 2\nlr = 0.001\nbeta = 0.5\ninit_checkpoint = {ckpt_in}\n"
        )
        ckpt_trained = tmp_path / "trained.ckpt"
        assert (
            main(
                [
                    "dpo",
                    str(pairs_file),
                    str(ckpt_trained),
                    "--candidates",
                    str(out_dir),
                    "--config",
                    str(cfg3),
                ]
            )
            == 0
        )
        trained = load_checkpoint(ckpt_trained.read_bytes())
        assert trained.config == params.config
        log_file = tmp_path / "trained.log.jsonl"
        lines = [json.loads(l) for l in log_file.read_text().splitlines()]
        assert len(lines) == 2


def test_sample_records_malformed_candidates(cube_obj, tmp_path):
    # a head bias that makes PAD the first token: every candidate stops at
    # step 1 with a stray special token
    params = init_parameters(model_config_from(parse_config(desk_config_text())))
    params.arrays["head.b"][PAD] = 1e3
    ckpt = tmp_path / "pad.ckpt"
    ckpt.write_bytes(save_checkpoint(params))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text(n_candidates=2) + f"init_checkpoint = {ckpt}\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 0
    run = json.loads((out_dir / "run.json").read_text())
    assert run["candidates"] == [
        {"index": 0, "n_steps": 1, "malformed": True},
        {"index": 1, "n_steps": 1, "malformed": True},
    ]


@pytest.mark.parametrize(
    "override, key",
    [
        ({"temperature": -1}, "temperature"),
        ({"top_p": 0}, "top_p"),
        ({"l": 32, "n_topo": 16}, "n_topo"),
        ({"d": 64, "heads": 3}, "heads"),
        ({"n_candidates": 0}, "n_candidates"),
    ],
)
def test_config_value_out_of_range_exit_2(cube_obj, tmp_path, capsys, override, key):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text(**override))
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config key {key} =" in err and "allowed" in err
    assert not out_dir.exists()


def test_unknown_config_key_exit_2(grid_obj, tmp_path):
    cfg = tmp_path / "bad.txt"
    cfg.write_text("not_a_key = 4\n")
    prefix = tmp_path / "c"
    assert main(["sample-points", str(grid_obj), str(prefix), "--config", str(cfg)]) == 2


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("heads = two\n", [], "{cfg}: config line 1: invalid literal for int()"),
        ("bogus = 1\n", [], "{cfg}: unknown config keys: bogus"),
        ("heads = 3\n", [], "{cfg}: config key heads = 3 is out of range: allowed a divisor of d"),
        # the seed comes from the flag, not the file
        ("seed = 3\n", ["--seed", "-1"], "config key seed = -1 is out of range"),
    ],
    ids=["bad-line", "unknown-key", "out-of-range", "seed-flag"],
)
def test_config_errors_name_the_config_file(grid_obj, tmp_path, capsys, text, flags, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    argv = ["sample-points", str(grid_obj), str(tmp_path / "c"), "--config", str(cfg), *flags]
    assert main(argv) == 2
    assert f"error: {message.format(cfg=cfg)}" in capsys.readouterr().err


def test_console_entry_point_smoke(grid_obj, tmp_path):
    seams = tmp_path / "empty.seams"
    seams.write_text("")
    proc = subprocess.run(
        [sys.executable, "-m", "seamkit", "evaluate", str(grid_obj), str(seams)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["fragments"] == 1


# Run in a fresh interpreter: this test process has imported scipy.special
# already.  It imports what the benchmark's workers import, runs every command
# that does not run the model, then a sample, and prints whether
# scipy.special was loaded after each step.
_IMPORT_GRAPH_SCRIPT = """
import json, os, sys
from seamkit import cli, model
from seamkit.mesh import extract_uv_seams, normalize, load_obj
from seamkit.projection import seam_edges_to_segments
from seamkit.tokenizer import SeamSet, write_seam_text

mesh, work = sys.argv[1], sys.argv[2]
norm, _ = normalize(load_obj(open(mesh, "rb").read()))
segments = seam_edges_to_segments(norm, extract_uv_seams(norm)).segments
cands = os.path.join(work, "cands")
os.makedirs(cands)
with open(os.path.join(cands, "run.json"), "w") as fh:
    json.dump({"mesh": mesh, "seed": 0}, fh)
for i, seams in enumerate((segments[:1], segments)):
    with open(os.path.join(cands, f"cand_{i}.seams"), "w") as fh:
        fh.write(write_seam_text(SeamSet(segments=seams)))
loaded = {"import": "scipy.special" in sys.modules}
cand = os.path.join(cands, "cand_1.seams")
steps = {
    "evaluate": [["evaluate", mesh, os.path.join(cands, f"cand_{i}.seams"), "--json-out",
                  os.path.join(cands, f"cand_{i}.json")] for i in range(2)],
    "project": [["project", mesh, cand, os.path.join(work, "edges.txt")]],
    "unwrap": [["unwrap", mesh, "--seams", cand, "--obj-out", os.path.join(work, "atlas.obj"),
                "--svg", os.path.join(work, "atlas.svg")]],
    "tokenize": [["tokenize", cand, os.path.join(work, "tokens.txt")]],
    "detokenize": [["detokenize", os.path.join(work, "tokens.txt"), os.path.join(work, "back.seams")]],
    "prefpairs": [["prefpairs", cands, os.path.join(work, "pairs.jsonl")]],
    "sample": [["sample", mesh, os.path.join(work, "sampled"), "--config", sys.argv[3]]],
}
for name, runs in steps.items():
    for argv in runs:
        assert cli.main(argv) == 0, argv
    loaded[name] = "scipy.special" in sys.modules
print(json.dumps(loaded))
"""


def test_only_the_model_imports_scipy_special(cube_obj, tmp_path):
    import seamkit

    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text(n_candidates=1, max_segments=2))
    src = os.path.dirname(os.path.dirname(seamkit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_GRAPH_SCRIPT, str(cube_obj), str(tmp_path), str(cfg)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    # the last line; evaluate writes its metrics to stdout before it
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": False,
        "evaluate": False,
        "project": False,
        "unwrap": False,
        "tokenize": False,
        "detokenize": False,
        "prefpairs": False,
        "sample": True,
    }


def _dpo_inputs(tmp_path, meshes):
    """Three random candidate seam files and the pair records of ``meshes``,
    (mesh path, seed, pair count) triples; every pair prefers candidate 0."""
    from seamkit.dpo import PairRecord, write_pair_records
    from seamkit.metrics import SeamMetrics
    from seamkit.tokenizer import SeamSet

    rng = np.random.default_rng(0)
    cand_dir = tmp_path / "cands"
    cand_dir.mkdir()
    for i in range(3):
        seams = SeamSet(segments=rng.uniform(-0.5, 0.5, size=(i + 1, 2, 3)))
        (cand_dir / f"cand_{i}.seams").write_text(write_seam_text(seams))
    good = SeamMetrics(distortion=0.1, fragments=1, runtime_s=0.0, excluded_triangles=0)
    bad = SeamMetrics(distortion=0.5, fragments=3, runtime_s=0.0, excluded_triangles=0)
    records = [
        PairRecord(str(mesh), seed, 0, 1 + k % 2, good, bad)
        for mesh, seed, n_pairs in meshes
        for k in range(n_pairs)
    ]
    pairs = cand_dir / "pairs.jsonl"
    pairs.write_text(write_pair_records(records))
    return pairs


def test_dpo_builds_each_condition_once(grid_obj, cube_obj, tmp_path, monkeypatch):
    from seamkit import cli, mesh as mesh_mod, sampling

    loads = _count_calls(monkeypatch, mesh_mod.load_obj, cli)
    clouds = _count_calls(monkeypatch, sampling.build_conditioning_clouds, sampling)
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 3), (cube_obj, 0, 2), (grid_obj, 1, 1)])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 2\nlr = 0.001\n")
    ckpt = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(ckpt), "--config", str(cfg)]) == 0
    assert (len(loads), len(clouds)) == (2, 3)

    log = [json.loads(line) for line in (tmp_path / "out.log.jsonl").read_text().splitlines()]
    keys = ["step", "loss", "accuracy", "reward_chosen", "reward_rejected"]
    keys += ["margin_mean", "margin_min", "grad_norm"]
    assert [list(entry) for entry in log] == [keys, keys]
    assert log[0]["loss"] == pytest.approx(np.log(2.0), abs=1e-12) and log[0]["accuracy"] == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert set(manifest["timings_s"]) == {"pairs", "train"}


def test_dpo_zero_steps_after_a_trained_run_leaves_no_stale_artifacts(grid_obj, tmp_path, monkeypatch):
    from seamkit.cli import config_hash

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 2)])
    ckpt = tmp_path / "out.ckpt"
    for steps in (2, 0):
        cfg = tmp_path / f"cfg{steps}.txt"
        cfg.write_text(desk_config_text() + f"steps = {steps}\nlr = 0.001\n")
        assert main(["dpo", str(pairs), str(ckpt), "--config", str(cfg)]) == 0
    # the second run's own log and manifest replace the first run's
    assert (tmp_path / "out.log.jsonl").read_text() == ""
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    config = parse_config(cfg.read_text())
    assert manifest["config_hash"] == config_hash(config)
    assert manifest["environment"] == {
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "2",
        "MKL_NUM_THREADS": None,
        "cpu_count": os.cpu_count(),
    }
    # zero steps write the starting policy
    assert ckpt.read_bytes() == save_checkpoint(init_parameters(model_config_from(config)))


@HANDS_OVER_ARGUMENTS
def test_dpo_frees_the_starting_store_after_step_0(grid_obj, tmp_path, monkeypatch):
    from seamkit import cli

    track, alive = stores_alive_per_pass(monkeypatch)
    policy_store = cli._policy_store
    monkeypatch.setattr(cli, "_policy_store", lambda cfg: track(policy_store(cfg)))
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 2)])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 3\nlr = 0.001\n")
    assert main(["dpo", str(pairs), str(tmp_path / "out.ckpt"), "--config", str(cfg)]) == 0
    # step 0 reads the store as policy and reference; no later step holds it
    assert alive == [[True], [False], [False]]


def test_dpo_passes_dataset_and_config_by_keyword(grid_obj, tmp_path, monkeypatch):
    # the benchmark's traced pass observes dpo_train through
    # perfbench/worker.py's _observe_dpo, which reads a third positional
    # argument as the dataset: a positional call would fail every traced dpo op
    from seamkit import dpo

    calls = []
    dpo_train = dpo.dpo_train

    def recorded(*args, **kwargs):
        calls.append((len(args), sorted(kwargs)))
        return dpo_train(*args, **kwargs)

    monkeypatch.setattr(dpo, "dpo_train", recorded)
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 2)])
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\nlr = 0.001\n")
    assert main(["dpo", str(pairs), str(tmp_path / "out.ckpt"), "--config", str(cfg)]) == 0
    assert calls == [(1, ["config", "dataset"])]


def test_dpo_reads_each_candidate_once_and_matches_dpo_train(grid_obj, tmp_path, monkeypatch):
    from seamkit import cli, sampling, tokenizer
    from seamkit.dpo import DPOConfig, dpo_train

    parsed = []
    load_seams = cli._load_seams

    def counted_load(path):
        parsed.append(path)
        return load_seams(path)

    monkeypatch.setattr(cli, "_load_seams", counted_load)
    encodes = _count_calls(monkeypatch, tokenizer.encode, tokenizer)
    meshes = _count_calls(monkeypatch, cli._load_normalized, cli)
    conditions = _count_calls(monkeypatch, sampling.build_conditioning_clouds, sampling)
    # five records over two conditions, all sharing candidates 0, 1 and 2
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 3), (grid_obj, 1, 2)])
    cfg_text = desk_config_text() + "steps = 2\nlr = 0.01\nbeta = 0.5\n"
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(cfg_text)
    ckpt = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(ckpt), "--config", str(cfg)]) == 0
    cand_dir = pairs.parent
    assert sorted(parsed) == [os.path.join(cand_dir, f"cand_{i}.seams") for i in range(3)]
    assert len(encodes) == 3
    assert (len(meshes), len(conditions)) == (1, 2)  # one mesh, seeds 0 and 1

    # the same run on hand-built (clouds, (chosen, rejected)) items
    monkeypatch.undo()
    norm, _ = normalize(load_obj(grid_obj.read_bytes()))
    clouds = [sampling.build_conditioning_clouds(norm, n_topo=64, n_geom=64, seed=s) for s in (0, 1)]
    tokens = [
        encode(read_seam_text((cand_dir / f"cand_{i}.seams").read_text())).tokens
        for i in range(3)
    ]
    items = [(clouds[0], (tokens[0], tokens[1 + k % 2])) for k in range(3)]
    items += [(clouds[1], (tokens[0], tokens[1 + k % 2])) for k in range(2)]
    policy = init_parameters(model_config_from(parse_config(cfg_text)))
    trained, _ = dpo_train(policy, items, DPOConfig(beta=0.5, learning_rate=0.01, steps=2))
    assert save_checkpoint(trained) == ckpt.read_bytes()


def _sampled_pairs(cube_obj, tmp_path):
    """A config with one DPO step, and the pairs file that ``prefpairs``
    writes beside the candidates ``sample`` (seed 0, four pairs) wrote."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\nlr = 0.001\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg), "--seed", "0"]) == 0
    pairs = out_dir / "pairs.jsonl"
    assert main(["prefpairs", str(out_dir), str(pairs), "--config", str(cfg)]) == 0
    assert pairs.read_text().strip()
    return cfg, pairs


def test_dpo_on_unedited_prefpairs_output_exit_0(cube_obj, tmp_path):
    cfg, pairs = _sampled_pairs(cube_obj, tmp_path)
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command", ["sample", "prefpairs", "dpo"])
def test_each_run_writes_its_manifest(command, cube_obj, tmp_path):
    # each command runs after those it reads from, all with --seed 7
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\nlr = 0.001\n")
    cands, pairs, ckpt = tmp_path / "cands", tmp_path / "pairs.jsonl", tmp_path / "out.ckpt"
    cand_files = [cands / f"cand_{i}.{ext}" for i in range(5) for ext in ("seams", "json")]
    log = tmp_path / "out.log.jsonl"
    runs = {  # command: (arguments, manifest, inputs, outputs)
        "sample": ([cube_obj, cands], cands / "manifest.json", [cube_obj], [*cand_files, cands / "run.json"]),
        "prefpairs": ([cands, pairs], tmp_path / "pairs.manifest.json", [cands], [pairs]),
        "dpo": ([pairs, ckpt, "--candidates", cands], tmp_path / "out.manifest.json", [pairs], [ckpt, log]),
    }
    for name, (arguments, *_) in runs.items():
        argv = [name, *map(str, arguments), "--config", str(cfg), "--seed", "7"]
        assert main(argv) == 0
        if name == command:
            break
    _, path, inputs, outputs = runs[command]
    manifest = json.loads(path.read_text())
    jsonschema.validate(manifest, _schema("manifest.schema.json"))
    assert (manifest["command"], manifest["seed"]) == (command, 7)
    assert manifest["inputs"] == [str(p) for p in inputs]
    assert manifest["outputs"] == [str(p) for p in outputs]
    assert all(os.path.exists(p) for p in outputs)


@pytest.mark.parametrize(
    "side, key, delta", [("positive", "excluded_triangles", 1), ("negative", "distortion", 0.5)]
)
def test_dpo_record_metrics_differing_from_candidate_file_exit_2(cube_obj, tmp_path, capsys, side, key, delta):
    cfg, pairs = _sampled_pairs(cube_obj, tmp_path)
    lines = pairs.read_text().splitlines(keepends=True)
    record = json.loads(lines[-1])
    # an edit that keeps the pair valid: dominance does not gate
    # excluded_triangles, and a worse negative distortion keeps it dominated
    record[f"{side}_metrics"][key] += delta
    # a blank line before the edited record, which still counts as a line
    pairs.write_text("".join(lines[:-1]) + "\n" + json.dumps(record) + "\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    cand_json = os.path.join(os.path.dirname(os.path.abspath(pairs)), f"cand_{record[f'{side}_index']}.json")
    message = f"{pairs}: line {len(lines) + 1}: {side} metrics differ from those in {cand_json}"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_dpo_candidate_files_differing_only_in_runtime_exit_0(cube_obj, tmp_path):
    # a re-run of the same `seamkit sample` writes the same candidates with new timings
    cfg, pairs = _sampled_pairs(cube_obj, tmp_path)
    for path in pairs.parent.glob("cand_*.json"):
        doc = json.loads(path.read_text())
        doc["runtime_s"] += 0.5
        path.write_text(json.dumps(doc))
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 0
    assert out.exists()


@pytest.mark.parametrize("key, value", [("distortion", -1.0), ("fragments", 0), ("runtime_s", -5.0)])
def test_prefpairs_and_dpo_reject_the_same_out_of_schema_candidate_exit_2(cube_obj, tmp_path, capsys, key, value):
    cfg, pairs = _sampled_pairs(cube_obj, tmp_path)
    index = json.loads(pairs.read_text().splitlines()[0])["positive_index"]
    cand_json = pairs.parent / f"cand_{index}.json"
    doc = json.loads(cand_json.read_text())
    doc[key] = value
    cand_json.write_text(json.dumps(doc))
    capsys.readouterr()
    message = f"error: {cand_json}: malformed JSON record ({key} must be >= "
    again = tmp_path / "again.jsonl"
    assert main(["prefpairs", str(pairs.parent), str(again), "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    ckpt = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(ckpt), "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err
    assert not again.exists() and not ckpt.exists()


def test_sample_removes_candidates_an_earlier_run_left(cube_obj, tmp_path):
    out_dir = tmp_path / "cands"
    for seed, n in ((1, 6), (2, 3)):
        cfg = tmp_path / f"cfg{seed}.txt"
        cfg.write_text(desk_config_text(n_candidates=n))
        assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg), "--seed", str(seed)]) == 0
    names = sorted(p.name for p in out_dir.glob("cand_*"))
    assert names == sorted(f"cand_{i}.{ext}" for i in range(3) for ext in ("json", "seams"))
    pairs = tmp_path / "pairs.jsonl"
    assert main(["prefpairs", str(out_dir), str(pairs), "--config", str(cfg)]) == 0
    from seamkit.dpo import read_pair_records

    for rec in read_pair_records(pairs.read_text()):
        assert rec.positive_index < 3 and rec.negative_index < 3


@pytest.mark.parametrize("command", ["tokenize", "evaluate", "unwrap"])
def test_unwritable_output_path_named_exit_2(grid_obj, tmp_path, capsys, command):
    seams = tmp_path / "in.seams"
    seams.write_text("0 0 0 0.1 0.1 0.1\n")
    taken = tmp_path / "taken"
    taken.mkdir()  # a directory where the output file is due
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where the output's directory is due
    out, argv = {
        "tokenize": (taken, ["tokenize", str(seams), str(taken)]),
        "evaluate": (taken, ["evaluate", str(grid_obj), str(seams), "--json-out", str(taken)]),
        "unwrap": (
            blocker / "x.obj",
            ["unwrap", str(grid_obj), "--seams", str(seams), "--obj-out", str(blocker / "x.obj")],
        ),
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out}: " in err
    assert ".seamkit-tmp-" not in err
    assert not list(tmp_path.rglob(".seamkit-tmp-*"))


def _checkpoint_with_header(blob, edit):
    magic, header, rest = blob.split(b"\n", 2)
    doc = json.loads(header)
    edit(doc)
    return magic + b"\n" + json.dumps(doc).encode() + b"\n" + rest


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda blob: b"SEAMKITCKPT1\ngarbage", "no terminating newline"),
        (lambda blob: b"SEAMKITCKPT1\nnot json\n", "malformed header"),
        (lambda blob: _checkpoint_with_header(blob, lambda d: d["config"].update(bogus=1)), "unknown config keys: bogus"),
        (lambda blob: blob + b"\0\0", "2 trailing bytes"),
        (lambda blob: _checkpoint_with_header(blob, lambda d: d.update(role="policy")), "unknown header keys: role"),
        (lambda blob: blob[:-8] + np.float64(np.nan).tobytes(), "non-finite weights in head.b"),
        (lambda blob: blob.replace(b"[16,1027]", b"[16e1027]", 1), "not a list of integers"),
    ],
)
def test_dpo_corrupt_checkpoint_exit_2(tmp_path, capsys, corrupt, message):
    params = init_parameters(model_config_from(parse_config(desk_config_text())))
    ckpt = tmp_path / "init.ckpt"
    ckpt.write_bytes(corrupt(save_checkpoint(params)))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + f"steps = 0\ninit_checkpoint = {ckpt}\n")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: " in err and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, message",
    [("not json", "line 2: not a JSON record"), ('{"seed": 0}', "line 2: missing key 'mesh'")],
)
def test_dpo_malformed_pair_record_exit_2(grid_obj, tmp_path, capsys, line, message):
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 1)])
    pairs.write_text(pairs.read_text() + line + "\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    assert f"{pairs}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["config", "checkpoint"])
def test_dpo_candidate_longer_than_the_model_names_the_file_exit_2(grid_obj, tmp_path, capsys, source):
    # every record pairs candidate 0 against 1 or 2; candidate 2 has 3
    # segments, 20 tokens, and a model of 2 segments scores at most 14
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 2)])
    cfg = tmp_path / "cfg.txt"
    if source == "config":
        cfg.write_text(desk_config_text(max_segments=2) + "steps = 1\n")
    else:
        ckpt = tmp_path / "init.ckpt"
        store = init_parameters(model_config_from(parse_config(desk_config_text(max_segments=2))))
        ckpt.write_bytes(save_checkpoint(store))
        # the config file leaves max_segments to the checkpoint (its default is 64)
        lines = desk_config_text().splitlines(keepends=True)
        text = "".join(x for x in lines if not x.startswith("max_segments"))
        cfg.write_text(text + f"steps = 1\ninit_checkpoint = {ckpt}\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    far = pairs.parent / "cand_2.seams"
    message = f"error: {far}: 3 canonical seam segments, more than the model's max_segments = 2"
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_dpo_candidate_coordinate_outside_cube_names_file_and_line(grid_obj, tmp_path, capsys):
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 1)])
    far = pairs.parent / "cand_1.seams"
    far.write_text(_far_seam_text())
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    assert f"error: {far}: seam line 5: coordinate 0.7 outside [-0.5, 0.5]" in capsys.readouterr().err
    assert not out.exists()


def test_dpo_pair_record_without_dominance_exit_2(grid_obj, tmp_path, capsys):
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 2)])
    first, second = pairs.read_text().splitlines(keepends=True)
    record = json.loads(second)
    record["positive_metrics"]["fragments"] = record["negative_metrics"]["fragments"]
    pairs.write_text(first + json.dumps(record) + "\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    message = "line 2: malformed record (positive metrics do not strictly dominate"
    assert f"{pairs}: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "keys, value, message",
    [
        (("mesh",), 0, "mesh must be a string, got 0"),
        (("seed",), 2.7, "seed must be an integer, got 2.7"),
        (("seed",), True, "seed must be an integer, got True"),
        (("positive_index",), 0.9, "positive_index must be an integer, got 0.9"),
        (("negative_index",), -1, "negative_index must be >= 0, got -1"),
        (("positive_metrics", "fragments"), 1.5, "fragments must be an integer, got 1.5"),
        (("positive_metrics", "distortion"), "nan", "distortion must be a number, got 'nan'"),
        (("negative_metrics", "runtime_s"), float("inf"), "runtime_s must be finite, got inf"),
    ],
    ids=[
        "mesh-int",
        "seed-float",
        "seed-bool",
        "positive-index-float",
        "negative-index-negative",
        "fragments-float",
        "distortion-string",
        "runtime-infinite",
    ],
)
def test_dpo_pair_record_value_of_wrong_type_exit_2(grid_obj, tmp_path, capsys, keys, value, message):
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 2)])
    first, second = pairs.read_text().splitlines(keepends=True)
    record = json.loads(second)
    target = record
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    pairs.write_text(first + json.dumps(record) + "\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    assert f"{pairs}: line 2: malformed record ({message})" in capsys.readouterr().err
    assert not out.exists()


def test_dpo_pair_record_with_one_candidate_on_both_sides_exit_2(grid_obj, tmp_path, capsys):
    pairs = _dpo_inputs(tmp_path, [(grid_obj, 0, 1)])
    record = json.loads(pairs.read_text())
    record["negative_index"] = record["positive_index"]
    pairs.write_text(pairs.read_text() + json.dumps(record) + "\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + "steps = 1\n")
    out = tmp_path / "out.ckpt"
    assert main(["dpo", str(pairs), str(out), "--config", str(cfg)]) == 2
    message = "line 2: malformed record (positive_index and negative_index are both 0"
    assert f"{pairs}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _candidate_dir(tmp_path, n):
    """A ``seamkit sample`` output directory with n scored candidates."""
    from seamkit.metrics import SeamMetrics
    from seamkit.tokenizer import SeamSet

    cand_dir = tmp_path / "cands"
    cand_dir.mkdir()
    (cand_dir / "run.json").write_text(json.dumps({"mesh": "m.obj", "seed": 0}))
    seams = write_seam_text(SeamSet(segments=np.array([[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]])))
    for i in range(n):
        (cand_dir / f"cand_{i}.seams").write_text(seams)
        metrics = SeamMetrics(distortion=float(i), fragments=i + 1, runtime_s=0.0, excluded_triangles=0)
        (cand_dir / f"cand_{i}.json").write_text(metrics.to_json())
    return cand_dir


@pytest.mark.parametrize(
    "n, name, content, message",
    [
        (2, "run.json", "{mesh: 1}", "run.json: malformed JSON record"),
        (2, "run.json", '{"mesh": "m.obj"}', "run.json: missing key 'seed'"),
        (2, "cand_1.json", "not json", "cand_1.json: malformed JSON record"),
        (2, "cand_1.json", '{"distortion": 1.0}', "cand_1.json: missing key 'fragments'"),
        (1, None, None, "cands: 1 cand_*.seams/.json candidates"),
        (2, "run.json", '{"mesh": 0, "seed": 0}', "run.json: malformed JSON record (mesh must be a string"),
        (2, "run.json", '{"mesh": "m.obj", "seed": 2.7}', "run.json: malformed JSON record (seed must be an integer"),
        (
            2,
            "cand_1.json",
            '{"distortion": 1.0, "fragments": 1.5, "runtime_s": 0.0, "excluded_triangles": 0}',
            "cand_1.json: malformed JSON record (fragments must be an integer, got 1.5)",
        ),
        (
            2,
            "cand_1.json",
            '{"distortion": "nan", "fragments": 2, "runtime_s": 0.0, "excluded_triangles": 0}',
            "cand_1.json: malformed JSON record (distortion must be a number, got 'nan')",
        ),
    ],
    ids=[
        "run-not-json",
        "run-missing-key",
        "cand-not-json",
        "cand-missing-key",
        "one-candidate",
        "run-mesh-not-a-string",
        "run-seed-not-an-int",
        "cand-fragments-not-an-int",
        "cand-distortion-a-string",
    ],
)
def test_prefpairs_bad_candidate_dir_exit_2(tmp_path, capsys, n, name, content, message):
    cand_dir = _candidate_dir(tmp_path, n)
    if name is not None:
        (cand_dir / name).write_text(content)
    out = tmp_path / "pairs.jsonl"
    assert main(["prefpairs", str(cand_dir), str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_prefpairs_candidate_coordinate_outside_cube_names_file_and_line(tmp_path, capsys):
    cand_dir = _candidate_dir(tmp_path, 2)
    far = cand_dir / "cand_0.seams"
    far.write_text("0 0 0 0.1 0.1 0.7\n")
    out = tmp_path / "pairs.jsonl"
    assert main(["prefpairs", str(cand_dir), str(out)]) == 2
    assert f"error: {far}: seam line 1: coordinate 0.7 outside [-0.5, 0.5]" in capsys.readouterr().err
    assert not out.exists()


def test_cloud_size_checked_only_where_a_model_is_built(grid_obj, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text(l=32, n_topo=16))
    assert main(["sample-points", str(grid_obj), str(tmp_path / "c"), "--config", str(cfg)]) == 0
    pairs = tmp_path / "pairs.jsonl"
    assert main(["prefpairs", str(_candidate_dir(tmp_path, 2)), str(pairs), "--config", str(cfg)]) == 0
    out_dir = tmp_path / "out"
    assert main(["sample", str(grid_obj), str(out_dir), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config key n_topo = 16 is out of range" in err and "tokens_per_branch = 32" in err
    assert not out_dir.exists()


def test_checkpoint_tokens_per_branch_above_cloud_size_exit_2(cube_obj, tmp_path, capsys):
    params = init_parameters(model_config_from(parse_config(desk_config_text(l=32))))
    ckpt = tmp_path / "l32.ckpt"
    ckpt.write_bytes(save_checkpoint(params))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text(l=8, n_topo=16) + f"init_checkpoint = {ckpt}\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"error: {cfg}: config key n_topo = 16" in err and "tokens_per_branch = 32" in err
    assert not out_dir.exists()


def _desk_checkpoint(tmp_path):
    """A checkpoint of the desk config: l = 8, d = 16, layers = 4, heads = 2, max_segments = 8."""
    params = init_parameters(model_config_from(parse_config(desk_config_text())))
    ckpt = tmp_path / "desk.ckpt"
    ckpt.write_bytes(save_checkpoint(params))
    return ckpt


def test_checkpoint_clouds_checked_against_its_l_not_the_default(cube_obj, tmp_path):
    # no l in the file: the default l = 32 must not bound n_topo, the checkpoint's l = 8 does
    ckpt = _desk_checkpoint(tmp_path)
    lines = desk_config_text(n_topo=16, n_geom=16, n_candidates=1).splitlines(keepends=True)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("".join(x for x in lines if not x.startswith("l =")) + f"init_checkpoint = {ckpt}\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 0
    assert (out_dir / "run.json").exists()


@pytest.mark.parametrize(
    "override,field",
    [
        ({"l": 16}, "tokens_per_branch = 8"),
        ({"d": 32}, "d_model = 16"),
        ({"layers": 5}, "n_layers = 4"),
        ({"heads": 4}, "n_heads = 2"),
        ({"max_segments": 16}, "max_segments = 8"),
    ],
)
def test_config_key_differing_from_checkpoint_exit_2(cube_obj, tmp_path, capsys, override, field):
    ckpt = _desk_checkpoint(tmp_path)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text(**override) + f"init_checkpoint = {ckpt}\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    (key, value), = override.items()
    assert f"error: {cfg}: config key {key} = {value} differs from {field} of checkpoint {ckpt}" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("key", ["n_topo", "n_geom"])
def test_cloud_size_below_l_names_the_config_file_exit_2(cube_obj, tmp_path, capsys, key):
    cfg = tmp_path / "found.cfg"
    cfg.write_text(desk_config_text(l=32, **{key: 16}))
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert (
        f"error: {cfg}: config key {key} = 16 is out of range: allowed >= tokens_per_branch = 32 "
        "(config key l)"
    ) in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (
            lambda d: d.update(role="policy")
            or d["config"].update(vocab_size=1027, coord_factor=3, endpoint_factor=2, ff_mult=4),
            "unknown config keys: coord_factor, endpoint_factor, ff_mult, vocab_size",
        ),
        (None, "non-finite weights in head.b"),
        (lambda d: d["config"].update(n_heads=0), "invalid config: n_heads must be >= 1, got 0"),
        (
            lambda d: d["config"].update(train_topo_encoder="no"),
            "unknown config keys: train_topo_encoder",
        ),
        (lambda d: d["config"].pop("seed"), "missing config keys: seed"),
    ],
    ids=["former-header", "nan-weight", "zero-heads", "string-flag", "missing-seed"],
)
def test_sample_rejected_checkpoint_exit_2(cube_obj, tmp_path, capsys, edit, message):
    ckpt = _desk_checkpoint(tmp_path)
    blob = ckpt.read_bytes()
    if edit is None:
        blob = blob[:-8] + np.float64(np.nan).tobytes()
    else:
        blob = _checkpoint_with_header(blob, edit)
    ckpt.write_bytes(blob)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + f"init_checkpoint = {ckpt}\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 2
    assert f"{ckpt}: {message}" in capsys.readouterr().err
    assert not out_dir.exists()


def test_sample_checkpoint_with_an_infinite_shape_entry_exit_2(cube_obj, tmp_path, capsys):
    # one byte of the header edited: the shape [16,1027] becomes [16e1027], JSON's infinity
    ckpt = _desk_checkpoint(tmp_path)
    ckpt.write_bytes(ckpt.read_bytes().replace(b"[16,1027]", b"[16e1027]", 1))
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(desk_config_text() + f"init_checkpoint = {ckpt}\n")
    out_dir = tmp_path / "cands"
    assert main(["sample", str(cube_obj), str(out_dir), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"{ckpt}: malformed header" in err and "not a list of integers" in err
    assert not out_dir.exists()
