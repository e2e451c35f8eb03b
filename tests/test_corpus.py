"""Pinned outputs of the corpus cuts in ``tests/corpus.py``.

The edge sets below were recorded from the per-edge loop implementation
that the ``face_edges``/``scipy.sparse.csgraph`` port replaced, so a changed
edge, tie-break or error message in either cut fails here.  The sweep leaves
out angles at which some mesh's neighbouring faces meet exactly at the
threshold (the cube and L-prism at 90 degrees, an n-gon tube at 360/n): there
the cut follows the rounding of one dot product, not the geometry.
"""

import hashlib
import json

import pytest

from seamkit.mesh import normalize
from tests.corpus import corpus_meshes, developable_cut_edges, quad_cutout_loops
from tests.test_equivalence import GENERATED

ARTIST_SEAMS = {
    "cube": [
        [0, 21], [2, 23], [6, 18], [8, 20], [9, 10], [9, 12], [9, 21],
        [10, 11], [11, 18], [12, 15], [15, 16], [15, 23], [16, 17], [17, 20],
    ],
    "cylinder_a": [[0, 8], [8, 16], [16, 24], [24, 32]],
    "cylinder_b": [[0, 10], [10, 20], [20, 30], [30, 40], [40, 50]],
    "l_extrusion": [
        [0, 8], [2, 10], [4, 12], [5, 13], [6, 14], [7, 15],
        [8, 11], [10, 13], [10, 14], [11, 15], [12, 13], [14, 15],
    ],
}

# quad_cutout_loops(normalize(mesh)[0], 2) of each corpus mesh
TWO_QUAD_LOOPS = {
    "cube": [[0, 4], [0, 21], [1, 4], [1, 21], [2, 5], [2, 22], [5, 23], [22, 23]],
    "cylinder_a": [[0, 8], [0, 9], [2, 10], [2, 11], [8, 17], [9, 17], [10, 19], [11, 19]],
    "cylinder_b": [[0, 10], [0, 11], [2, 12], [2, 13], [10, 21], [11, 21], [12, 23], [13, 23]],
    "l_extrusion": [[0, 2], [0, 9], [1, 2], [1, 9], [2, 6], [2, 10], [6, 14], [10, 14]],
}

ANGLES = (5, 30, 60, 89)
KS = (1, 3, 8)

# edge counts of each GENERATED mesh, raw then normalized, at developable
# ANGLES then quad KS; None where the cut raises ValueError
SWEEP_COUNTS = {
    "grid": [0, 0, 0, 0, 4, 12, 32] * 2,
    "perturbed_grid": [81, 14, 0, 0, 4, 12, 32] * 2,
    "cube": [21, 21, 21, 21, 4, 12, 32] * 2,
    "cube_plain": [14, 14, 14, 14, 4, 12, None] * 2,
    "cylinder": [12, 0, 0, 0, 4, 12, 32] * 2,
    "sphere": [415, 0, 0, 0, 4, 12, 32] * 2,
    "tetrahedron": [3, 3, 3, 3, 4, None, None] * 2,
    "l_extrusion": [12, 12, 12, 12, 4, 12, None] * 2,
    "hull": [28, 26, 24, 24, 4, 12, None] * 2,
}
# sha256 of one line per case: "name cut argument: " and the pairs as JSON,
# or the ValueError message
SWEEP_SHA256 = "18026c9579fd4ceb11b7c33ff2651a0a2a3e6657578a24c555d080ecc05a6f14"


CORPUS = {name: (mesh, seams) for name, mesh, seams in corpus_meshes()}


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_seams_are_pinned(name):
    mesh, seams = CORPUS[name]
    assert seams.pairs.tolist() == ARTIST_SEAMS[name]
    assert quad_cutout_loops(normalize(mesh)[0], 2).pairs.tolist() == TWO_QUAD_LOOPS[name]


def test_cut_sweep_over_generated_meshes_is_pinned():
    digest, counts = hashlib.sha256(), {}
    cuts = [(developable_cut_edges, a) for a in ANGLES] + [(quad_cutout_loops, k) for k in KS]
    for name, mesh in GENERATED:
        counts[name] = []
        for m in (mesh, normalize(mesh)[0]):
            for cut, arg in cuts:
                try:
                    pairs = cut(m, arg).pairs
                except ValueError as exc:
                    text, count = str(exc), None
                else:
                    text, count = json.dumps(pairs.tolist()), len(pairs)
                counts[name].append(count)
                digest.update(f"{name} {cut.__name__} {arg}: {text}\n".encode())
    assert counts == SWEEP_COUNTS
    assert digest.hexdigest() == SWEEP_SHA256
