"""Seam quality evaluation: distortion, island count, runtime."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from seamkit.mesh import IndexedMesh, SeamEdgeSet
from seamkit.projection import project_seams
from seamkit.tokenizer import SeamSet
from seamkit.unwrap import UVAtlas, cut_mesh, unwrap_atlas


class MetricsError(Exception):
    pass


class UndefinedMetricError(MetricsError):
    """Every triangle was excluded; the distortion average is undefined."""


class StageError(MetricsError):
    """Wraps a failure from one pipeline stage with the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}': {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class SeamMetrics:
    """Evaluation record for one seam set on one mesh.

    ``runtime_s`` is the wall-clock time of the evaluation: projection
    through measurement for a seam file (``evaluate_with_atlas``), the cut
    through measurement for marked edges (``evaluate_edges``: UV seams or an
    edge file).  Neither includes file I/O or normalization.
    """

    distortion: float
    fragments: int
    runtime_s: float
    excluded_triangles: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, d: dict) -> "SeamMetrics":
        """The record in parsed JSON ``d``, checked as ``metrics.schema.json``
        checks it: errors as ``json_field`` raises them."""
        return cls(
            distortion=json_field(d, "distortion", float),
            fragments=json_field(d, "fragments", int, minimum=1),
            runtime_s=json_field(d, "runtime_s", float),
            excluded_triangles=json_field(d, "excluded_triangles", int),
        )


_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def json_field(d: dict, key: str, kind: type, minimum=0):
    """``d[key]`` of a parsed JSON object as ``kind`` (int or finite float
    no less than ``minimum``, or str; a bool is no number): KeyError if
    missing, TypeError for another type, ValueError out of range, each
    naming the key."""
    value = d[key]
    types, name = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{key} must be {name}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be finite, got {value!r}")
    if kind is not str and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value}")
    return kind(value)


def distortion(atlas: UVAtlas) -> float:
    """Area-weighted mean of |sigma1^2 - sigma2^2| over non-excluded triangles.

    Weights are the 3D triangle areas.  Zero for conformal (similarity) maps.
    """
    live = ~atlas.excluded
    if not live.any():
        raise UndefinedMetricError("all triangles are excluded")
    terms = atlas.distortion_terms()[live]
    areas = atlas.area3d[live]
    return float(np.sum(areas * terms) / np.sum(areas))


def _stage(name: str, fn, *args):
    """``fn(*args)``; any exception it raises becomes a ``StageError`` naming
    the pipeline stage ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(name, exc) from exc


def evaluate_edges(mesh: IndexedMesh, seam_edges: SeamEdgeSet) -> tuple[SeamMetrics, UVAtlas]:
    """Cut along marked edges, parameterize, and measure; runtime covers the
    cut through the measurement."""
    t0 = time.perf_counter()
    cut = _stage("cut", cut_mesh, mesh, seam_edges)
    atlas = _stage("parameterize", unwrap_atlas, cut)
    dist = _stage("metrics", distortion, atlas)
    return (
        SeamMetrics(
            distortion=dist,
            fragments=int(atlas.island_count),
            runtime_s=time.perf_counter() - t0,
            excluded_triangles=atlas.n_excluded,
        ),
        atlas,
    )


def evaluate_with_atlas(mesh: IndexedMesh, seams: SeamSet) -> tuple[SeamMetrics, UVAtlas]:
    """Full pipeline on a normalized mesh: project, cut, parameterize, measure.

    ``mesh`` must already be in the canonical cube (``mesh.normalize``), as
    must the seam segments; the metrics are then invariant to uniform
    rescaling of the original input.  Runtime covers projection through
    measurement, excluding any file I/O and the normalization.
    """
    t0 = time.perf_counter()
    metrics, atlas = evaluate_edges(mesh, _stage("project", project_seams, mesh, seams))
    return replace(metrics, runtime_s=time.perf_counter() - t0), atlas
