"""Shared helpers for the test modules."""

import numpy as np

from seamkit.mesh import IndexedMesh, SeamEdgeSet, content_lines, extract_uv_seams, normalize
from seamkit.model import ModelConfig, init_parameters
from seamkit.projection import seam_edges_to_segments
from seamkit.sampling import build_conditioning_clouds
from seamkit.shapes import grid_vertex, make_grid
from seamkit.tokenizer import canonicalize, encode
from seamkit.unwrap import unwrap_mesh

DESK_CONFIG = ModelConfig(
    tokens_per_branch=32, d_model=64, n_layers=8, n_heads=2, max_segments=64, seed=0
)

TINY_CONFIG = ModelConfig(
    tokens_per_branch=8, d_model=16, n_layers=4, n_heads=2, max_segments=16, seed=1
)


def training_example(mesh, config, seed=0, seam_edges=None):
    """(clouds, tokens) for one mesh with its artist seams."""
    norm, _ = normalize(mesh)
    if seam_edges is None:
        seam_edges = extract_uv_seams(norm)
    seams = canonicalize(seam_edges_to_segments(norm, seam_edges))
    tokens = encode(seams)
    n = max(2 * config.tokens_per_branch, 48)
    clouds = build_conditioning_clouds(norm, n_topo=n, n_geom=n, seed=seed)
    return clouds, tokens


def read_xyz(text):
    """Points of an XYZ text (``sampling.write_xyz``): one "x y z" row per line."""
    rows = [[float(p) for p in line.split()] for _, line in content_lines(text)]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 3)


def desk_params(config=None, seed=None):
    config = config or DESK_CONFIG
    if seed is not None:
        config = ModelConfig(**{**config.__dict__, "seed": seed})
    return init_parameters(config)


def sliver_grid_atlas():
    """A 3x3 grid with one zero-area triangle along its bottom edge, unwrapped
    without seams: one island, with the sliver (the last triangle) excluded."""
    grid = make_grid(3, 3)
    sliver = [grid_vertex(3, 0, 0), grid_vertex(3, 1, 0), grid_vertex(3, 2, 0)]
    mesh = IndexedMesh(vertices=grid.vertices, triangles=np.vstack([grid.triangles, [sliver]]))
    atlas = unwrap_mesh(mesh, SeamEdgeSet(edges=frozenset()))
    assert atlas.excluded.tolist() == [False] * grid.n_triangles + [True]
    return atlas
