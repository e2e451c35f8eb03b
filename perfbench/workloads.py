"""Benchmark workloads: seeded input files, the CLI ops that use them, and
the checks run on every op's outputs.

Each workload writes its inputs (OBJ, seam text, config) into a work
directory and returns one cycle of ops.  An op is one ``seamkit`` CLI
invocation.  Checks run after the op, outside the timed region, and return
the list of problems found (empty when the outputs are right), an
observation compared against the reference outputs for the default seed,
and the amount of work the op did.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import jsonschema
import numpy as np

from seamkit import cli, model, shapes, tokenizer
from seamkit.mesh import extract_uv_seams, normalize, save_obj
from seamkit.projection import seam_edges_to_segments

SCHEMA_DIR = os.path.join(os.path.dirname(cli.__file__), "schemas")

# The desk model of the test suite, with short sequences and 1,024-point clouds.
MODEL_CONFIG = "l=32\nd=64\nlayers=8\nheads=2\nmax_segments=16\nn_topo=1024\nn_geom=1024\n"
SAMPLE_CANDIDATES = 5
SAMPLE_SEEDS = 8  # distinct CLI seeds cycled by `sample`
DPO_STEPS = 2
DPO_PAIRS_PER_MESH = 4
# (n_theta, n_z, radius) of the small UV-mapped cylinders behind the DPO pairs.
DPO_MESHES = ((16, 6, 0.25), (12, 8, 0.3), (20, 5, 0.2), (14, 7, 0.35))
DPO_RANDOM_SEGMENTS = 8
DPO_MAX_CANDIDATES = 32
FRAGMENTED_SEGMENTS = 64
FRAGMENTED_FILES_PER_MESH = 8
UNROLL_DISTORTION_MAX = 1e-9
TOKEN_MATCH_MIN = 0.9
FINAL_LOSS_RTOL = 1e-9
LN2 = math.log(2.0)


class SetupError(Exception):
    """Input generation or a set-up CLI call failed."""


@dataclass
class Op:
    key: str  # names the input; reference outputs are keyed by it
    argv: list
    triangles: int = 0


@dataclass
class Outcome:
    problems: list
    observation: dict
    work: float


@dataclass
class Workload:
    ops: list  # one cycle; the timed loop starts at ops[0]
    warmup: Op  # the untimed op that ends set-up
    check: Callable[[Op, int, str], Outcome]
    work_unit: str
    ends_on: str | None = None  # if set, the timed loop stops only after an op with this key


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _seam_text(segments: np.ndarray) -> str:
    return tokenizer.write_seam_text(tokenizer.SeamSet(segments=np.asarray(segments)))


def _random_segments(rng, n: int) -> np.ndarray:
    return rng.uniform(-0.5, 0.5, size=(n, 2, 3))


def _schema_problems(path: str, schema_name: str) -> list:
    with open(os.path.join(SCHEMA_DIR, schema_name)) as fh:
        schema = json.load(fh)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"{os.path.basename(path)}: {exc}"]
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        return [f"{os.path.basename(path)} fails {schema_name}: {exc.message}"]
    return []


def _run_cli(argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SetupError(f"seamkit {' '.join(argv)} exited {rc}")


# ---------------------------------------------------------------------------
# geo-large and geo-fragmented: `seamkit evaluate`


def _check_evaluate(op: Op, rc: int, stdout: str) -> Outcome:
    if rc != 0:
        return Outcome([f"exit code {rc}"], {}, 0.0)
    json_out = op.argv[op.argv.index("--json-out") + 1]
    problems = _schema_problems(json_out, "metrics.schema.json")
    if problems:
        return Outcome(problems, {}, 0.0)
    with open(json_out) as fh:
        written = fh.read()
    if written != stdout:
        problems.append("--json-out file differs from the metrics printed on stdout")
    doc = json.loads(written)
    if "--from-uv" in op.argv and (
        doc["fragments"] != 1 or doc["distortion"] > UNROLL_DISTORTION_MAX
    ):
        problems.append(
            f"isometric unroll gave fragments={doc['fragments']} "
            f"distortion={doc['distortion']:.3g}"
        )
    observation = {"fragments": doc["fragments"], "excluded_triangles": doc["excluded_triangles"]}
    return Outcome(problems, observation, float(op.triangles))


def _evaluate_op(work_dir: str, key: str, mesh_path: str, triangles: int, seams=None) -> Op:
    argv = ["evaluate", mesh_path]
    argv += [seams] if seams else ["--from-uv"]
    argv += ["--json-out", os.path.join(work_dir, f"{key}.metrics.json")]
    return Op(key=key, argv=argv, triangles=triangles)


def geo_large(work_dir: str, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    cylinder = shapes.make_cylinder(128, 128)
    cyl_path = _write(os.path.join(work_dir, "cylinder.obj"), save_obj(cylinder))
    sphere = shapes.make_sphere(64, 128)
    sph_path = _write(os.path.join(work_dir, "sphere.obj"), save_obj(sphere))
    # a few segments along one meridian of the unit-diameter sphere, pole to pole
    theta = rng.uniform(0.0, 2.0 * np.pi)
    phi = np.linspace(0.1 * np.pi, 0.9 * np.pi, 5) + rng.uniform(-0.02, 0.02, 5)
    pts = 0.5 * np.stack(
        [np.sin(phi) * np.cos(theta), np.cos(phi), np.sin(phi) * np.sin(theta)], axis=1
    )
    seams = _write(
        os.path.join(work_dir, "sphere.seams"), _seam_text(np.stack([pts[:-1], pts[1:]], 1))
    )
    ops = [
        _evaluate_op(work_dir, "cylinder", cyl_path, cylinder.n_triangles),
        _evaluate_op(work_dir, "sphere", sph_path, sphere.n_triangles, seams),
    ]
    # Ending on a cylinder op gives one cylinder op more than sphere ops, so
    # the median is a cylinder op, not the mean of the two meshes' nearest ops.
    return Workload(
        ops, warmup=ops[1], check=_check_evaluate, work_unit="triangles evaluated",
        ends_on="cylinder",
    )


def geo_fragmented(work_dir: str, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    meshes = {
        "sphere": shapes.make_sphere(32, 64),
        "cylinder": shapes.make_cylinder(64, 32, with_uv=False),
    }
    paths = {k: _write(os.path.join(work_dir, f"{k}.obj"), save_obj(m)) for k, m in meshes.items()}
    ops = []
    for i in range(FRAGMENTED_FILES_PER_MESH):
        for name, mesh in meshes.items():
            key = f"{name}-{i}"
            seams = _write(
                os.path.join(work_dir, f"{key}.seams"),
                _seam_text(_random_segments(rng, FRAGMENTED_SEGMENTS)),
            )
            ops.append(_evaluate_op(work_dir, key, paths[name], mesh.n_triangles, seams))
    return Workload(ops, warmup=ops[-1], check=_check_evaluate, work_unit="triangles evaluated")


# ---------------------------------------------------------------------------
# sample: `seamkit sample`


def _sampled_tokens(path: str) -> list:
    with open(path) as fh:
        seams = tokenizer.read_seam_text(fh.read())
    return [int(t) for t in tokenizer.quantize(seams.segments).ravel()]


def sample(work_dir: str, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    mesh_path = _write(os.path.join(work_dir, "mesh.obj"), save_obj(shapes.make_cylinder(16, 16)))
    cfg = _write(
        os.path.join(work_dir, "sample.cfg"),
        MODEL_CONFIG
        + f"n_candidates={SAMPLE_CANDIDATES}\nmodel_seed={int(rng.integers(2**31))}\n",
    )
    out_dir = os.path.join(work_dir, "out")
    ops = [
        Op(key=str(s), argv=["sample", mesh_path, out_dir, "--config", cfg, "--seed", str(s)])
        for s in rng.integers(2**31, size=SAMPLE_SEEDS).tolist()
    ]
    digests: dict = {}

    def check(op: Op, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome([f"exit code {rc}"], {}, 0.0)
        problems = _schema_problems(os.path.join(out_dir, "manifest.json"), "manifest.schema.json")
        digest = hashlib.sha256()
        tokens = []
        for i in range(SAMPLE_CANDIDATES):
            problems += _schema_problems(
                os.path.join(out_dir, f"cand_{i}.json"), "metrics.schema.json"
            )
            seam_path = os.path.join(out_dir, f"cand_{i}.seams")
            with open(seam_path, "rb") as fh:
                digest.update(fh.read())
            tokens.append(_sampled_tokens(seam_path))
        if digests.setdefault(op.key, digest.hexdigest()) != digest.hexdigest():
            problems.append(f"CLI seed {op.key} gave different cand_*.seams on a repeat")
        work = sum(len(t) + 2 for t in tokens)  # BOS and EOS around each candidate
        return Outcome(problems, {"tokens": tokens}, float(work))

    # The first timed op repeats the warm-up's CLI seed, so every run checks
    # that a repeated seed gives byte-identical candidates.
    return Workload(ops, warmup=ops[0], check=check, work_unit="tokens sampled")


# ---------------------------------------------------------------------------
# dpo: `seamkit dpo` on pairs built through `seamkit evaluate` and `prefpairs`


def _mesh_pairs(work_dir: str, m: int, mesh, rng) -> tuple[list, list]:
    """Artist UV seams (cand_0) against random-segment candidates on one mesh.

    Random candidates are added until the artist seams strictly dominate
    DPO_PAIRS_PER_MESH of them.  Returns the candidate seam texts and those
    pair records.  Keeping only artist-vs-random pairs fixes
    the token lengths, and so the cost of a DPO step, for every seed.
    """
    mesh_path = _write(os.path.join(work_dir, f"mesh{m}.obj"), save_obj(mesh))
    norm, _ = normalize(mesh)
    cand_dir = os.path.join(work_dir, f"cands{m}")
    os.makedirs(cand_dir)
    _write(os.path.join(cand_dir, "run.json"), json.dumps({"mesh": mesh_path, "seed": m}))
    texts = [_seam_text(seam_edges_to_segments(norm, extract_uv_seams(norm)).segments)]
    pairs_path = os.path.join(cand_dir, "pairs.jsonl")
    while True:
        i = len(texts) - 1
        seam_path = _write(os.path.join(cand_dir, f"cand_{i}.seams"), texts[i])
        _run_cli(
            ["evaluate", mesh_path, seam_path, "--json-out", os.path.join(cand_dir, f"cand_{i}.json")]
        )
        if len(texts) >= 2:
            _run_cli(["prefpairs", cand_dir, pairs_path])
            with open(pairs_path) as fh:
                records = [r for r in fh if json.loads(r)["positive_index"] == 0]
            if len(records) >= DPO_PAIRS_PER_MESH:
                break
        if len(texts) >= DPO_MAX_CANDIDATES:
            raise SetupError(f"{mesh_path}: artist seams dominate too few candidates")
        texts.append(_seam_text(_random_segments(rng, DPO_RANDOM_SEGMENTS)))
    manifest = os.path.join(cand_dir, "pairs.manifest.json")
    problems = _schema_problems(manifest, "manifest.schema.json")
    if problems:
        raise SetupError("; ".join(problems))
    return texts, records[:DPO_PAIRS_PER_MESH]


def dpo(work_dir: str, seed: int) -> Workload:
    """`seamkit dpo` reads every record's candidates from one directory, so the
    per-mesh candidates are renumbered into a shared one."""
    rng = np.random.default_rng(seed)
    shared = os.path.join(work_dir, "pairs")
    os.makedirs(shared)
    merged = []
    base = 0
    for m, (n_theta, n_z, radius) in enumerate(DPO_MESHES):
        mesh = shapes.make_cylinder(n_theta, n_z, radius=radius)
        texts, records = _mesh_pairs(work_dir, m, mesh, rng)
        for i, text in enumerate(texts):
            _write(os.path.join(shared, f"cand_{base + i}.seams"), text)
        for line in records:
            rec = json.loads(line)
            rec["positive_index"] += base
            rec["negative_index"] += base
            merged.append(json.dumps(rec, sort_keys=True) + "\n")
        base += len(texts)
    pairs = _write(os.path.join(shared, "pairs.jsonl"), "".join(merged))
    cfg = _write(os.path.join(work_dir, "dpo.cfg"), MODEL_CONFIG + f"steps={DPO_STEPS}\n")
    ckpt = os.path.join(work_dir, "policy.ckpt")
    ops = [Op(key="pairs", argv=["dpo", pairs, ckpt, "--config", cfg])]

    def check(op: Op, rc: int, stdout: str) -> Outcome:
        if rc != 0:
            return Outcome([f"exit code {rc}"], {}, 0.0)
        stem = os.path.splitext(ckpt)[0]
        problems = _schema_problems(stem + ".manifest.json", "manifest.schema.json")
        with open(stem + ".log.jsonl") as fh:
            log = [json.loads(line) for line in fh]
        if len(log) != DPO_STEPS:
            return Outcome(problems + [f"{len(log)} log lines for {DPO_STEPS} steps"], {}, 0.0)
        if abs(log[0]["loss"] - LN2) > 1e-12 or log[0]["accuracy"] != 0:
            problems.append(
                f"step 0 loss {log[0]['loss']!r} accuracy {log[0]['accuracy']!r}; "
                "the policy equals the reference, so ln 2 and 0 are expected"
            )
        try:
            with open(ckpt, "rb") as fh:
                model.load_checkpoint(fh.read())
        except (OSError, model.ModelError, ValueError) as exc:
            problems.append(f"checkpoint does not load: {exc}")
        return Outcome(problems, {"final_loss": log[-1]["loss"]}, float(len(log)))

    return Workload(ops, warmup=ops[0], check=check, work_unit="DPO steps")


WORKLOADS = {
    "geo-large": geo_large,
    "geo-fragmented": geo_fragmented,
    "sample": sample,
    "dpo": dpo,
}


def reference_problems(workload: str, observation: dict, reference: dict) -> list:
    """Compare one op's observation with the reference recorded for its input."""
    if workload.startswith("geo-"):
        if observation != reference:
            return [f"got {observation}, reference {reference}"]
        return []
    if workload == "sample":
        pairs = list(zip(observation["tokens"], reference["tokens"]))
        matches = sum(a == b for got, ref in pairs for a, b in zip(got, ref))
        rate = matches / max(sum(max(len(got), len(ref)) for got, ref in pairs), 1)
        if rate < TOKEN_MATCH_MIN:
            return [f"token-match rate {rate:.3f} against the reference"]
        return []
    got, ref = observation["final_loss"], reference["final_loss"]
    if abs(got - ref) > FINAL_LOSS_RTOL * abs(ref):
        return [f"final DPO loss {got!r}, reference {ref!r}"]
    return []
