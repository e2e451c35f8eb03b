"""One workload in one fresh process: set-up, a warm-up op, then timed ops.

Started by ``run.py``; prints one JSON object on its last stdout line.  The
BLAS/OpenMP thread caps are set here, before numpy is first imported.
"""

import os

NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {
    var: str(NPROC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import spans  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
EXIT_SETUP = 2
SETUP_CALIBRATIONS = 3  # kernel runs right after set-up, to scale setup_s


class CountingHandler(logging.Handler):
    """Counts records instead of printing them, so that no warning reaches
    logging's last-resort stderr handler inside the timed region."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        self.count += 1


def _import_seamkit():
    """Import seamkit from this checkout's ``src`` and nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "seamkit")):
        raise ImportError(f"no seamkit package under {SRC}")
    sys.path.insert(0, SRC)
    import seamkit

    if os.path.dirname(os.path.abspath(seamkit.__file__)) != os.path.join(SRC, "seamkit"):
        raise ImportError(f"seamkit imported from {seamkit.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": NPROC,
        "cpu": cpu,
        "thread_caps": THREAD_CAPS,
    }


# Public entry points traced in the traced pass, with the layer counts read
# from their arguments and return values.


def _observe_triangles(counts, args, kwargs, mesh):
    counts["mesh.triangles"] += mesh.n_triangles


def _observe_projection(counts, args, kwargs, edge_set):
    seams = args[1] if len(args) > 1 else kwargs["seams"]
    counts["projection.segments"] += len(seams)
    counts["projection.useful_segments"] += len({i for v in edge_set.provenance.values() for i in v})


def _observe_atlas(counts, args, kwargs, atlas):
    counts["unwrap.islands"] += atlas.island_count
    counts["unwrap.nondisk_islands"] += len(atlas.nondisk_islands)
    counts["unwrap.residual_max"] = max(counts["unwrap.residual_max"], *atlas.residuals, 0.0)


def _observe_sample(counts, args, kwargs, result):
    counts["model.sample.steps"] += result.n_steps
    counts["model.sample.malformed"] += int(result.malformed)


def _observe_dpo(counts, args, kwargs, result):
    dataset = args[2] if len(args) > 2 else kwargs["dataset"]
    counts["dpo.pairs"] += len(dataset)
    _, history = result
    if history:
        counts["dpo.final_accuracy"] = history[-1].accuracy


TRACED = {
    "cli.main": None,
    "mesh.load_obj": _observe_triangles,
    "mesh.normalize": None,
    "mesh.extract_uv_seams": None,
    "mesh.build_edge_graph": None,
    "projection.project_seams": _observe_projection,
    "projection.shortest_path": None,
    "projection.nearest_vertex": None,
    "unwrap.cut_mesh": None,
    "unwrap.unwrap_atlas": _observe_atlas,
    "unwrap.parameterize_island": None,
    "metrics.evaluate_with_atlas": None,
    "metrics.evaluate_edges": None,
    "metrics.distortion": None,
    "tokenizer.read_seam_text": None,
    "tokenizer.decode": None,
    "tokenizer.canonicalize": None,
    "sampling.build_conditioning_clouds": None,
    "sampling.fps_anchors": None,
    "model.encode_condition": None,
    "model.sample": _observe_sample,
    "model.sequence_logprob": None,
    "model.init_parameters": None,
    "model.save_checkpoint": None,
    "dpo.dpo_train": _observe_dpo,
    "dpo.build_pairs": None,
    "autodiff.backward": None,
}

# Inclusive times of the cylinder op, beside ROADMAP's single-run baseline.
CYLINDER_STAGES = ("mesh.extract_uv_seams", "unwrap.cut_mesh", "unwrap.unwrap_atlas")


def layer_values(summary: dict, op_key: str) -> dict:
    """Per-op layer values: span totals plus the ratios derived from counts."""
    v = dict(summary)
    segments = v.get("projection.segments", 0)
    v["projection.useful_ratio"] = v.get("projection.useful_segments", 0) / segments if segments else 0.0
    samples = v.get("model.sample.calls", 0)
    v["model.malformed_ratio"] = v.get("model.sample.malformed", 0) / samples if samples else 0.0
    steps = v.get("model.sample.steps", 0)
    v["model.sample.s_per_step"] = v.get("model.sample.self_s", 0.0) / steps if steps else 0.0
    if op_key == "cylinder":
        for stage in CYLINDER_STAGES:
            v[f"cylinder.{stage.split('.', 1)[1]}.total_s"] = v.get(f"{stage}.total_s", 0.0)
    return v


class Runner:
    """The closed-loop client: one op at a time, each checked after it returns."""

    def __init__(self, cli, workload, handler, compare=None):
        self.cli = cli  # the module: the traced pass replaces cli.main
        self.workload = workload
        self.handler = handler
        self.compare = compare  # (op key, observation) -> problems, for the default seed

    def run_op(self, op, tracer=None) -> dict:
        """Time one CLI invocation, then check its outputs (untimed)."""
        buf = io.StringIO()
        self.handler.count = 0
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        seconds = time.perf_counter() - t0
        record = {"key": op.key, "seconds": seconds}
        if tracer is not None:
            record["layers"] = layer_values(spans.op_summary(tracer), op.key)
            record["layers"]["log.warnings"] = self.handler.count
        try:
            outcome = self.workload.check(op, rc, buf.getvalue())
            problems = list(outcome.problems)
            if self.compare is not None and not problems:
                problems += self.compare(op.key, outcome.observation)
            record.update(work=outcome.work, observation=outcome.observation)
        except Exception:  # a check that crashes is a failed op, not a lost run
            problems = [traceback.format_exc(limit=3)]
            record.update(work=0.0, observation={})
        record["problems"] = problems
        return record

    def loop(self, seconds: float, calibrator, tracer=None) -> list:
        """Timed ops for ``seconds``, each followed by calibration kernel runs."""
        ops = self.workload.ops
        ends_on = self.workload.ends_on
        records = []
        deadline = time.perf_counter() + seconds
        while True:
            record = self.run_op(ops[len(records) % len(ops)], tracer)
            record["calibration_s"] = calibrator.samples_for(record["seconds"])
            records.append(record)
            if time.perf_counter() >= deadline and ends_on in (None, records[-1]["key"]):
                return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "record"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args(argv)

    try:
        _import_seamkit()
    except ImportError as exc:
        print(f"worker: cannot import seamkit: {exc}", file=sys.stderr)
        return EXIT_SETUP
    import workloads
    from calibration import Calibrator
    from seamkit import cli

    handler = CountingHandler()
    logging.getLogger("seamkit").addHandler(handler)
    compare = None
    if args.seed == DEFAULT_SEED and args.mode != "record":
        with open(REFERENCE) as fh:
            reference = json.load(fh)[args.workload]

        def compare(key, observation):
            return workloads.reference_problems(args.workload, observation, reference[key])

    os.makedirs(args.work_dir)
    try:
        try:
            workload = workloads.WORKLOADS[args.workload](args.work_dir, args.seed)
            runner = Runner(cli, workload, handler, compare)
            warm = runner.run_op(workload.warmup)
        except workloads.SetupError as exc:
            print(f"worker: set-up failed: {exc}", file=sys.stderr)
            return EXIT_SETUP
        if warm["problems"]:
            print(f"worker: warm-up op failed: {warm['problems']}", file=sys.stderr)
            return EXIT_SETUP
        setup_s = time.monotonic() - args.spawned_at
        calibrator = Calibrator()
        result = {
            "setup_s": setup_s,
            "setup_calibration_s": [calibrator.sample() for _ in range(SETUP_CALIBRATIONS)],
            "env": _environment(),
            "work_unit": workload.work_unit,
        }
        if args.mode == "record":
            records = [runner.run_op(op) for op in workload.ops]
            if any(r["problems"] for r in records):
                print(f"worker: record op failed: {records}", file=sys.stderr)
                return EXIT_SETUP
            result["observations"] = {r["key"]: r["observation"] for r in records}
        elif args.mode in ("run", "trace"):
            result["ops"] = runner.loop(args.seconds, calibrator)
            if args.mode == "trace":
                tracer = spans.Tracer()
                with spans.installed(tracer, TRACED, "seamkit"):
                    result["traced_ops"] = runner.loop(args.seconds, calibrator, tracer)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(args.work_dir, ignore_errors=True)
    for records in (result.get("ops", []), result.get("traced_ops", [])):
        for r in records:
            r.pop("observation", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
