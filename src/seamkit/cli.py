"""Command-line pipeline orchestration.

Subcommands: evaluate, tokenize, detokenize, project, unwrap, sample,
prefpairs, dpo, sample-points.  Exit codes: 0 ok, 2 input error, 3 pipeline
error.  All outputs are written atomically (temp file + rename); sample,
prefpairs and dpo runs (every one, zero steps included) also emit a
manifest.json.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import math
import os
import re
import sys
import tempfile
import time
from dataclasses import asdict, replace

import numpy as np

from seamkit import dpo as dpo_mod
from seamkit import metrics as metrics_mod
from seamkit import model as model_mod
from seamkit import projection, sampling, tokenizer, unwrap
from seamkit.mesh import (
    IndexedMesh,
    MeshError,
    SeamEdgeSet,
    content_lines,
    extract_uv_seams,
    load_obj,
    normalize,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PIPELINE = 3


class InputError(Exception):
    """Bad inputs: missing files, parse failures, invalid configuration."""


# ---------------------------------------------------------------------------
# Config files: plain-text key=value, no nesting, unknown keys are errors.

# Every config key: key -> (type, default, test of the value against the
# whole config, the allowed range).  Values are checked in this order, so a
# test may read an earlier key.  The cloud sizes must also reach the model's
# tokens_per_branch, which _policy_store checks once the model is known.  The
# model and DPO keys take their defaults from ModelConfig and DPOConfig.
_MODEL, _DPO = model_mod.ModelConfig, dpo_mod.DPOConfig
CONFIG_KEYS = {
    # model dimensions
    "l": (int, _MODEL.tokens_per_branch, lambda v, c: v >= 1, ">= 1"),
    "d": (int, _MODEL.d_model, lambda v, c: v >= 1, ">= 1"),
    "layers": (int, _MODEL.n_layers, lambda v, c: v >= 4, ">= 4"),
    "heads": (int, _MODEL.n_heads, lambda v, c: v >= 1 and c["d"] % v == 0, "a divisor of d"),
    "max_segments": (int, _MODEL.max_segments, lambda v, c: v >= 1, ">= 1"),
    "model_seed": (int, _MODEL.seed, lambda v, c: v >= 0, ">= 0"),
    # conditioning clouds
    "n_topo": (int, sampling.DEFAULT_N_TOPO, lambda v, c: v >= 1, ">= 1"),
    "n_geom": (int, sampling.DEFAULT_N_GEOM, lambda v, c: v >= 1, ">= 1"),
    # candidate sampling
    "n_candidates": (int, 5, lambda v, c: v >= 1, ">= 1"),
    "temperature": (float, 1.0, lambda v, c: 0 <= v < math.inf, ">= 0 and finite"),
    "top_p": (float, 1.0, lambda v, c: 0 < v <= 1, "in (0, 1]"),
    # dpo
    "beta": (float, _DPO.beta, lambda v, c: 0 < v < math.inf, "> 0 and finite"),
    "lr": (float, _DPO.learning_rate, lambda v, c: 0 <= v < math.inf, ">= 0 and finite"),
    "steps": (int, _DPO.steps, lambda v, c: v >= 0, ">= 0"),
    "mode": (str, "joint", lambda v, c: v in dpo_mod.PAIRING_MODES, "one of " + ", ".join(dpo_mod.PAIRING_MODES)),
    # misc
    "seed": (int, 0, lambda v, c: v >= 0, ">= 0"),
    "init_checkpoint": (str, "", lambda v, c: True, "any path"),
}


# Config keys that a checkpoint fixes: key -> ModelConfig field.
CHECKPOINT_KEYS = {
    "l": "tokens_per_branch",
    "d": "d_model",
    "layers": "n_layers",
    "heads": "n_heads",
    "max_segments": "max_segments",
}


class Config(dict):
    """Config values by key; ``file_keys`` are the keys the config file set,
    and ``path`` names that file (None for the defaults)."""

    file_keys: frozenset = frozenset()
    path: str | None = None


def parse_config(text: str) -> Config:
    values = Config({key: default for key, (_, default, _, _) in CONFIG_KEYS.items()})
    unknown = []
    for line_no, line in content_lines(text):
        if "=" not in line:
            raise InputError(f"config line {line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in CONFIG_KEYS:
            unknown.append(key)
            continue
        try:
            values[key] = CONFIG_KEYS[key][0](value)
        except ValueError as exc:
            raise InputError(f"config line {line_no}: {exc}") from exc
        values.file_keys |= {key}
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


def load_config(path: str | None, seed_override: int | None) -> Config:
    """The config file at ``path`` (defaults when None), its seed replaced by
    ``seed_override`` when given; every value checked against its range.

    An error in a file line or key names ``path``.  So does a value out of
    range, except the override seed: every default is in range, so any
    other failing value was set by the file or tested against one it set.
    """
    text = "" if path is None else _read_file(path)
    try:
        cfg = parse_config(text)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    cfg.path = path
    if seed_override is not None:
        cfg["seed"] = seed_override
    for key, (_, _, allowed, description) in CONFIG_KEYS.items():
        if not allowed(cfg[key], cfg):
            by_flag = key == "seed" and seed_override is not None
            where = "" if path is None or by_flag else f"{path}: "
            raise InputError(
                f"{where}config key {key} = {cfg[key]!r} is out of range: allowed {description}"
            )
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def model_config_from(cfg: Config) -> model_mod.ModelConfig:
    fields = {field: cfg[key] for key, field in CHECKPOINT_KEYS.items()}
    return model_mod.ModelConfig(**fields, seed=cfg["model_seed"])


def dpo_config_from(cfg: Config) -> dpo_mod.DPOConfig:
    return dpo_mod.DPOConfig(beta=cfg["beta"], learning_rate=cfg["lr"], steps=cfg["steps"])


# ---------------------------------------------------------------------------
# I/O helpers


def _read_file(path: str, binary: bool = False):
    """The bytes of ``path``, or its text decoded as UTF-8; a file that cannot
    be read or decoded raises ``InputError`` naming it."""
    try:
        with open(path, "rb" if binary else "r", encoding=None if binary else "utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_atomic(path: str, data) -> None:
    """Write ``data`` (str or bytes) through a temp file beside ``path``; a path
    that cannot be written raises ``InputError`` naming it, leaving no temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    mode = "wb" if isinstance(data, bytes) else "w"
    umask = os.umask(0)
    os.umask(umask)
    tmp = None
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".seamkit-tmp-")
        with os.fdopen(fd, mode) as fh:
            # mkstemp creates 0600; give the file the mode a plain open() would
            os.chmod(tmp, 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):  # gone once renamed
            os.unlink(tmp)


def _load_normalized(path: str) -> IndexedMesh:
    """The OBJ mesh at ``path``, normalized; InputError naming the file when
    it does not parse, has no extent, has no faces or has zero surface area
    (every triangle degenerate)."""
    # bytes are always parsed as OBJ content, never taken for a file name
    data = _read_file(path, binary=True)
    try:
        mesh, _ = normalize(load_obj(data))
    except MeshError as exc:
        raise InputError(f"{path}: {exc}") from exc
    if mesh.n_triangles == 0:
        raise InputError(f"{path}: mesh has no faces")
    if mesh.triangle_areas().sum() <= 0:
        raise InputError(f"{path}: mesh has zero total surface area")
    return mesh


def _load_seams(path: str) -> tokenizer.SeamSet:
    """The seam file at ``path``; InputError naming the file, and the seam
    line that holds it for a coordinate outside the canonical cube (the
    rule, ``CUBE_TOL`` included, that ``tokenizer.encode`` applies)."""
    text = _read_file(path)
    try:
        seams = tokenizer.read_seam_text(text)
        tokenizer.quantize(seams.segments)  # raises for a coordinate outside the cube
    except tokenizer.CoordinateRangeError as exc:
        lines = list(content_lines(text))  # segment k is on content line k
        raise InputError(f"{path}: seam line {lines[exc.index // 6][0]}: {exc}") from exc
    except tokenizer.TokenizerError as exc:
        raise InputError(f"{path}: {exc}") from exc
    return seams


def _evaluate_source(args, names: dict, missing: str) -> tuple:
    """Metrics and atlas of the mesh ``args.mesh``, normalized, cut along
    the one seam source ``args`` gives.  ``names`` maps each source the
    command takes (``from_uv``, ``edges``, ``seams``) to its name in the
    conflict message, in the command's order; no source raises ``missing``.
    UV seams and an edge file are measured by ``evaluate_edges``, a seam file
    by ``evaluate_with_atlas``, which also times and names its projection."""
    given = [attr for attr in names if getattr(args, attr)]
    if len(given) > 1:
        named = " and ".join(names[attr] for attr in given)
        raise InputError(f"conflicting seam sources {named}: pass only one")
    norm = _load_normalized(args.mesh)
    if given == ["from_uv"]:
        if not norm.has_uvs:
            raise InputError(f"{args.mesh} has no vt records; --from-uv needs them")
        return metrics_mod.evaluate_edges(norm, extract_uv_seams(norm))
    if given == ["edges"]:
        try:
            edges = SeamEdgeSet.from_text(_read_file(args.edges))
        except MeshError as exc:
            raise InputError(f"{args.edges}: {exc}") from exc
        off_mesh = np.flatnonzero(norm.edge_ids(edges.pairs) < 0)
        if len(off_mesh):
            a, b = edges.pairs[off_mesh[0]].tolist()
            raise InputError(f"{args.edges}: pair {a} {b} is not an edge of the mesh")
        return metrics_mod.evaluate_edges(norm, edges)
    if given == ["seams"]:
        return metrics_mod.evaluate_with_atlas(norm, _load_seams(args.seams))
    raise InputError(missing)


# Environment variables that set the BLAS thread count, which can change the
# last bits of a matmul; a manifest records them with the CPU count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _manifest(path: str, command: str, inputs, outputs, cfg: dict, timings: dict) -> None:
    """Write the manifest of a ``command`` run with config ``cfg`` to ``path``."""
    environment = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    environment["cpu_count"] = os.cpu_count()
    doc = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "seed": int(cfg["seed"]),
        "config_hash": config_hash(cfg),
        "timings_s": {k: float(v) for k, v in timings.items()},
        "environment": environment,
    }
    _write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _clouds(mesh: IndexedMesh, cfg: dict, seed: int) -> sampling.ConditioningClouds:
    """The conditioning clouds of ``mesh`` for ``seed``, sized by the config's
    ``n_topo`` and ``n_geom``.  ``dpo`` rebuilds each pair's condition from
    its own config's sizes, so they must match those of the ``sample`` run
    that drew the candidates: neither ``run.json`` nor a pair record stores
    them."""
    return sampling.build_conditioning_clouds(
        mesh, n_topo=cfg["n_topo"], n_geom=cfg["n_geom"], seed=seed
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_evaluate(args) -> int:
    sources = {"seams": f"seam file {args.seams}", "from_uv": "--from-uv"}
    metrics, atlas = _evaluate_source(args, sources, "evaluate needs a seam file or --from-uv")
    payload = metrics.to_json()
    sys.stdout.write(payload)
    if args.json_out:
        _write_atomic(args.json_out, payload)
    if args.svg:
        _write_atomic(args.svg, unwrap.atlas_to_svg(atlas))
    return EXIT_OK


def cmd_tokenize(args) -> int:
    tokens = tokenizer.encode(_load_seams(args.input))
    _write_atomic(args.output, tokenizer.write_token_text(tokens))
    return EXIT_OK


def cmd_detokenize(args) -> int:
    try:
        tokens = tokenizer.read_token_text(_read_file(args.input))
        seams = tokenizer.decode(tokens)
    except tokenizer.TokenizerError as exc:
        raise InputError(f"{args.input}: {exc}") from exc
    _write_atomic(args.output, tokenizer.write_seam_text(seams))
    return EXIT_OK


def cmd_project(args) -> int:
    norm = _load_normalized(args.mesh)
    seams = _load_seams(args.seams)
    edges = projection.project_seams(norm, seams)
    _write_atomic(args.output, edges.to_text())
    return EXIT_OK


def cmd_unwrap(args) -> int:
    sources = {"from_uv": "--from-uv", "edges": "--edges", "seams": "--seams"}
    missing = "no seam source: pass a seam file, --edges, or --from-uv"
    metrics, atlas = _evaluate_source(args, sources, missing)
    _write_atomic(args.obj_out, unwrap.atlas_to_obj(atlas))
    if args.svg:
        _write_atomic(args.svg, unwrap.atlas_to_svg(atlas))
    if args.json_out:
        _write_atomic(args.json_out, metrics.to_json())
    return EXIT_OK


def cmd_sample_points(args) -> int:
    cfg = load_config(args.config, args.seed)
    clouds = _clouds(_load_normalized(args.mesh), cfg, cfg["seed"])
    topo_path = f"{args.out_prefix}.topo.xyz"
    geom_path = f"{args.out_prefix}.geom.xyz"
    _write_atomic(topo_path, sampling.write_xyz(clouds.topo_points))
    _write_atomic(geom_path, sampling.write_xyz(clouds.geom_points))
    return EXIT_OK


def _policy_store(cfg: Config) -> model_mod.ParameterStore:
    """The configured model; with ``init_checkpoint``, the checkpoint's.

    The cloud sizes must reach the model's ``tokens_per_branch``: the
    config's ``l`` (checked before a fresh model is allocated) or the
    checkpoint's.  A ``CHECKPOINT_KEYS`` key that the config file sets
    must equal the checkpoint's value.  Either error names the config file
    when there is one, as ``load_config``'s do.
    """
    where = "" if cfg.path is None else f"{cfg.path}: "
    path = cfg["init_checkpoint"]
    if path:
        try:
            store = model_mod.load_checkpoint(_read_file(path, binary=True))
        except model_mod.CheckpointError as exc:
            raise InputError(f"{path}: {exc}") from exc
        config, source = store.config, f"of checkpoint {path}"
    else:
        config, source = model_config_from(cfg), "(config key l)"
    l = config.tokens_per_branch
    for key in ("n_topo", "n_geom"):
        if cfg[key] < l:
            raise InputError(
                f"{where}config key {key} = {cfg[key]} is out of range: allowed >= "
                f"tokens_per_branch = {l} {source}"
            )
    if not path:
        return model_mod.init_parameters(config)
    for key, field in CHECKPOINT_KEYS.items():
        value = getattr(config, field)
        if key in cfg.file_keys and cfg[key] != value:
            raise InputError(
                f"{where}config key {key} = {cfg[key]} differs from {field} = {value} {source}"
            )
    return store


def cmd_sample(args) -> int:
    cfg = load_config(args.config, args.seed)
    norm = _load_normalized(args.mesh)
    t0 = time.perf_counter()
    params = _policy_store(cfg)
    cond = model_mod.encode_condition(_clouds(norm, cfg, cfg["seed"]), params)
    t1 = time.perf_counter()
    results = model_mod.sample_batch(
        cond,
        params,
        temperature=cfg["temperature"],
        top_p=cfg["top_p"],
        seeds=[cfg["seed"] + i for i in range(cfg["n_candidates"])],
    )
    t2 = time.perf_counter()
    # an earlier run's candidates beyond this run's count would be paired too
    for path in glob.glob(os.path.join(glob.escape(args.out_dir), "cand_*")):
        stale = re.fullmatch(r"cand_(\d+)\.(seams|json)", os.path.basename(path))
        if stale and int(stale[1]) >= len(results):
            os.remove(path)
    outputs = []
    for i, result in enumerate(results):
        seams = tokenizer.decode(result.tokens)
        seam_path, json_path = _candidate_paths(args.out_dir, i)
        _write_atomic(seam_path, tokenizer.write_seam_text(seams))
        metrics, _ = metrics_mod.evaluate_with_atlas(norm, seams)
        _write_atomic(json_path, metrics.to_json())
        outputs.extend([seam_path, json_path])
    timings = {"encode": t1 - t0, "decode": t2 - t1, "metrics": time.perf_counter() - t2}
    run_info = {
        "mesh": os.path.abspath(args.mesh),
        "seed": cfg["seed"],
        "candidates": [
            {"index": i, "n_steps": r.n_steps, "malformed": r.malformed}
            for i, r in enumerate(results)
        ],
    }
    info_path = os.path.join(args.out_dir, "run.json")
    _write_atomic(info_path, json.dumps(run_info, sort_keys=True) + "\n")
    outputs.append(info_path)
    _manifest(os.path.join(args.out_dir, "manifest.json"), "sample", [args.mesh], outputs, cfg, timings)
    return EXIT_OK


def _candidate_paths(cand_dir: str, index: int) -> tuple[str, str]:
    """The seam file and metrics file of candidate ``index`` in a
    ``seamkit sample`` directory."""
    return tuple(os.path.join(cand_dir, f"cand_{index}.{ext}") for ext in ("seams", "json"))


def _read_json(path: str, parse):
    """``parse`` applied to the JSON object in ``path``; a file that is not
    JSON, or lacks a key ``parse`` reads, raises ``InputError`` naming it."""
    try:
        return parse(json.loads(_read_file(path)))
    except KeyError as exc:
        raise InputError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InputError(f"{path}: malformed JSON record ({exc})") from exc


def _read_candidate(seam_path: str, json_path: str) -> tuple:
    """(seams, metrics) of one candidate's files (``_candidate_paths``): the
    seams as ``_load_seams`` reads them, the metrics as
    ``SeamMetrics.from_dict`` reads them, or None without a metrics file."""
    seams = _load_seams(seam_path)
    if not os.path.exists(json_path):
        return seams, None
    return seams, _read_json(json_path, metrics_mod.SeamMetrics.from_dict)


def _read_candidates(cand_dir: str):
    """(mesh, seed) of the run and its candidates' metrics, read up to the
    first index without both files; each candidate's seam file must
    tokenize, as ``seamkit dpo`` will tokenize it, and ``prefpairs`` needs
    two candidates."""
    run_info = _read_json(
        os.path.join(cand_dir, "run.json"),
        lambda d: (metrics_mod.json_field(d, "mesh", str), metrics_mod.json_field(d, "seed", int)),
    )
    cands = []
    while all(map(os.path.exists, paths := _candidate_paths(cand_dir, len(cands)))):
        cands.append(_read_candidate(*paths)[1])
    if len(cands) < 2:
        raise InputError(
            f"{cand_dir}: {len(cands)} cand_*.seams/.json candidates; pairs need at least 2"
        )
    return run_info, cands


def cmd_prefpairs(args) -> int:
    cfg = load_config(args.config, args.seed)
    t0 = time.perf_counter()
    (mesh_path, seed), metrics = _read_candidates(args.candidates)
    records = [
        dpo_mod.PairRecord(
            mesh_path=mesh_path,
            seed=seed,
            positive_index=i,
            negative_index=j,
            positive_metrics=metrics[i],
            negative_metrics=metrics[j],
            mode=cfg["mode"],
        )
        for i, j in dpo_mod.build_pairs(metrics, mode=cfg["mode"])
    ]
    _write_atomic(args.output, dpo_mod.write_pair_records(records))
    timings = {"build": time.perf_counter() - t0}
    stem = os.path.splitext(args.output)[0]
    _manifest(f"{stem}.manifest.json", "prefpairs", [args.candidates], [args.output], cfg, timings)
    return EXIT_OK


def _pairs_from_records(
    records, line_nos, pairs_path: str, cand_dir: str, cfg: dict, model_config
) -> list:
    """The records (from the ``line_nos`` of ``pairs_path``) as ``dpo_train``
    items, (clouds, (chosen tokens, rejected tokens)), in one pass: each mesh
    loaded once, each ``(mesh, seed)`` condition built once, each candidate
    read (``_read_candidate``) and tokenized once.  ``InputError`` names the
    line whose side's metrics differ from its candidate's metrics file, if
    any (``runtime_s``, a wall-clock timing that a re-run changes, aside),
    and the seam file of a candidate over ``model_config.max_seq_len``."""
    mesh = functools.cache(_load_normalized)
    condition = functools.cache(lambda path, seed: _clouds(mesh(path), cfg, seed))

    @functools.cache
    def candidate(index):
        seam_path, json_path = paths = _candidate_paths(cand_dir, index)
        seams, metrics = _read_candidate(*paths)
        tokens = tokenizer.encode(seams).tokens
        if len(tokens) > model_config.max_seq_len:
            n_segments = (len(tokens) - 2) // 6  # BOS, 6 per segment, EOS
            raise InputError(
                f"{seam_path}: {n_segments} canonical seam segments, more than the "
                f"model's max_segments = {model_config.max_segments}"
            )
        return tokens, json_path, metrics

    def side_tokens(rec, line_no, side):
        tokens, json_path, metrics = candidate(getattr(rec, f"{side}_index"))
        recorded = getattr(rec, f"{side}_metrics")
        if metrics is not None and replace(metrics, runtime_s=recorded.runtime_s) != recorded:
            raise InputError(
                f"{pairs_path}: line {line_no}: {side} metrics differ from those in {json_path}"
            )
        return tokens

    return [
        (
            condition(rec.mesh_path, rec.seed),
            (side_tokens(rec, n, "positive"), side_tokens(rec, n, "negative")),
        )
        for rec, n in zip(records, line_nos)
    ]


def cmd_dpo(args) -> int:
    cfg = load_config(args.config, args.seed)
    text = _read_file(args.pairs)
    try:
        records = dpo_mod.read_pair_records(text)
    except dpo_mod.DPOError as exc:
        raise InputError(f"{args.pairs}: {exc}") from exc
    # the starting policy, which is also DPO's reference; dpo_train never
    # modifies it, so no copy
    stores = [_policy_store(cfg)]
    t0 = time.perf_counter()
    cand_dir = args.candidates or os.path.dirname(os.path.abspath(args.pairs))
    line_nos = [line_no for line_no, _ in dpo_mod.record_lines(text)]
    pairs = _pairs_from_records(records, line_nos, args.pairs, cand_dir, cfg, stores[0].config)
    dpo_config = dpo_config_from(cfg)
    t1 = time.perf_counter()
    # popped into the call, the store keeps no name here and is freed after
    # step 0.  dataset and config go by keyword: the benchmark's traced pass
    # (perfbench/worker.py, _observe_dpo) reads a third positional argument
    # as the dataset.
    trained, history = dpo_mod.dpo_train(stores.pop(), dataset=pairs, config=dpo_config)
    timings = {"pairs": t1 - t0, "train": time.perf_counter() - t1}
    _write_atomic(args.output, model_mod.save_checkpoint(trained))
    stem = os.path.splitext(args.output)[0]
    log_path = f"{stem}.log.jsonl"
    _write_atomic(log_path, "".join(json.dumps(asdict(h)) + "\n" for h in history))
    _manifest(f"{stem}.manifest.json", "dpo", [args.pairs], [args.output, log_path], cfg, timings)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  Parsing reads it and puts
    every value into a new namespace, so ``main`` calls share nothing
    through it; each subcommand's ``func`` is the ``cmd_*`` function bound
    when it was built."""
    parser = argparse.ArgumentParser(
        prog="seamkit",
        description="Mesh seam tokenization, projection, unwrapping, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="metrics JSON (+ optional SVG) for a seam set")
    p.add_argument("mesh")
    p.add_argument("seams", nargs="?", default=None)
    p.add_argument("--from-uv", action="store_true", dest="from_uv")
    p.add_argument("--json-out")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tokenize", help="seam text file, segments in any order -> tokens of its canonical form")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("detokenize", help="token file -> seam text file")
    p.add_argument("input")
    p.add_argument("output")
    p.set_defaults(func=cmd_detokenize)

    p = sub.add_parser("project", help="seam segments -> marked mesh edges")
    p.add_argument("mesh")
    p.add_argument("seams")
    p.add_argument("output")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("unwrap", help="cut + parameterize -> OBJ with UVs")
    p.add_argument("mesh")
    p.add_argument("--seams")
    p.add_argument("--edges")
    p.add_argument("--from-uv", action="store_true", dest="from_uv")
    p.add_argument("--obj-out", required=True)
    p.add_argument("--svg")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_unwrap)

    p = sub.add_parser("sample-points", help="write conditioning clouds as XYZ")
    p.add_argument("mesh")
    p.add_argument("out_prefix")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sample_points)

    p = sub.add_parser("sample", help="sample candidate seam sets + metrics")
    p.add_argument("mesh")
    p.add_argument("out_dir")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("prefpairs", help="strict-dominance preference pairs")
    p.add_argument("candidates", help="directory produced by `seamkit sample`")
    p.add_argument("output")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_prefpairs)

    p = sub.add_parser("dpo", help="preference post-training")
    p.add_argument("pairs")
    p.add_argument("output")
    p.add_argument("--candidates", help="candidate dir (default: alongside pairs)")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_dpo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except metrics_mod.StageError as exc:
        print(f"pipeline error in stage '{exc.stage}': {exc.cause}", file=sys.stderr)
        return EXIT_PIPELINE
    except (unwrap.UnwrapError, projection.ProjectionError) as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except (InputError, tokenizer.TokenizerError, MeshError) as exc:
        # missing files, parse failures, malformed inputs
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a pipeline failure
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
