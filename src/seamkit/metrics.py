"""Seam quality evaluation: distortion, island count, runtime."""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass

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
    """Evaluation record for one seam set on one mesh."""

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
        return cls(
            distortion=json_field(d, "distortion", float),
            fragments=json_field(d, "fragments", int),
            runtime_s=json_field(d, "runtime_s", float),
            excluded_triangles=json_field(d, "excluded_triangles", int),
        )


_JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string")}


def json_field(d: dict, key: str, kind: type):
    """``d[key]`` of a parsed JSON object as ``kind`` (int >= 0, finite float
    or str; a bool is no number): KeyError if missing, TypeError for another
    type, ValueError out of range, each naming the key."""
    value = d[key]
    types, name = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types):
        raise TypeError(f"{key} must be {name}, got {value!r}")
    if kind is int and value < 0:
        raise ValueError(f"{key} must be >= 0, got {value}")
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be finite, got {value!r}")
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


def evaluate_edges(
    mesh: IndexedMesh, seam_edges: SeamEdgeSet, pre_seconds: float = 0.0
) -> tuple[SeamMetrics, UVAtlas]:
    """Cut along marked edges, parameterize, and measure.

    ``pre_seconds`` is added to the reported runtime (``evaluate_with_atlas``
    passes the projection stage's time).
    """
    t0 = time.perf_counter()
    try:
        cut = cut_mesh(mesh, seam_edges)
    except Exception as exc:
        raise StageError("cut", exc) from exc
    try:
        atlas = unwrap_atlas(cut)
    except Exception as exc:
        raise StageError("parameterize", exc) from exc
    try:
        dist = distortion(atlas)
    except Exception as exc:
        raise StageError("metrics", exc) from exc
    runtime = pre_seconds + (time.perf_counter() - t0)
    return (
        SeamMetrics(
            distortion=dist,
            fragments=int(atlas.island_count),
            runtime_s=runtime,
            excluded_triangles=atlas.n_excluded,
        ),
        atlas,
    )


def evaluate_with_atlas(mesh: IndexedMesh, seams: SeamSet) -> tuple[SeamMetrics, UVAtlas]:
    """Full pipeline on a normalized mesh: project, cut, parameterize, measure.

    ``mesh`` must already be in the canonical cube (``mesh.normalize``), as
    must the seam segments; the metrics are then invariant to uniform
    rescaling of the original input.  Runtime covers projection through
    parameterization, excluding any file I/O and the normalization.
    """
    t0 = time.perf_counter()
    try:
        edges = project_seams(mesh, seams)
    except Exception as exc:
        raise StageError("project", exc) from exc
    project_time = time.perf_counter() - t0
    return evaluate_edges(mesh, edges, pre_seconds=project_time)
