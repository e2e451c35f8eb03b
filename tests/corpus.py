"""Synthetic desk-scale corpus: meshes, artist seams, and dominated negatives.

Positives are developable single-island layouts (generator cut for tubes, a
face-spanning-tree "cross" cut for the cube and the L-prism), so they unwrap
with distortion near zero and one island.  Negative candidates instead cut
small quad loops out of the surface: every cutout adds an island, and the
leftover shell keeps its corners and curvature with no unrolling cuts, so it
flattens with large distortion.  The joint strict-dominance rule would
therefore pair them deterministically.
"""

from collections import deque

import numpy as np

from seamkit.mesh import SeamEdgeSet, extract_uv_seams
from seamkit.shapes import make_cube, make_cylinder, make_l_extrusion


def _tri_edges(tri):
    return ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))


def quad_cutout_loops(mesh, k: int) -> SeamEdgeSet:
    """Seam edges forming k disjoint quad-boundary loops.

    Each loop is the 4-edge boundary of two triangles sharing an interior
    edge; cutting it separates that quad into its own island.
    """
    edges: set = set()
    used_faces: set[int] = set()
    loops = 0
    for eid in range(len(mesh.edges)):
        if loops >= k:
            break
        faces = mesh.edge_faces[eid]
        if len(faces) != 2 or any(f in used_faces for f in faces):
            continue
        f1, f2 = faces
        t1 = {tuple(sorted((int(a), int(b)))) for a, b in _tri_edges(mesh.triangles[f1])}
        t2 = {tuple(sorted((int(a), int(b)))) for a, b in _tri_edges(mesh.triangles[f2])}
        boundary = t1 ^ t2
        if len(boundary) != 4:
            continue
        boundary_ids = mesh.edge_ids(sorted(boundary))
        if any(len(mesh.edge_faces[eid]) != 2 for eid in boundary_ids):
            continue  # keep loops away from the surface boundary
        if edges & boundary:
            continue
        neighbors = set()
        for eid in boundary_ids:
            neighbors.update(mesh.edge_faces[eid])
        if neighbors & used_faces:
            continue
        edges.update(boundary)
        used_faces.update(neighbors)
        loops += 1
    if loops < k:
        raise ValueError(f"only found {loops} disjoint quad loops, wanted {k}")
    return SeamEdgeSet(list(edges))


def developable_cut_edges(mesh, angle_deg: float = 30.0) -> SeamEdgeSet:
    """Single-island developable cut for piecewise-planar meshes.

    Groups coplanar faces, spans the group-adjacency graph with a tree, and
    cuts every crease chain that is not a tree hinge.  The cut surface is a
    tree of flat patches, so it unrolls with zero distortion.
    """
    p = mesh.vertices[mesh.triangles]
    normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cos_thresh = np.cos(np.deg2rad(angle_deg))

    crease = []
    flat_pairs = []
    for eid, faces in enumerate(mesh.edge_faces):
        if len(faces) != 2:
            continue
        f1, f2 = faces
        if normals[f1] @ normals[f2] < cos_thresh:
            crease.append(eid)
        else:
            flat_pairs.append((f1, f2))

    group = np.full(mesh.n_triangles, -1, dtype=np.int64)
    adj = [[] for _ in range(mesh.n_triangles)]
    for f1, f2 in flat_pairs:
        adj[f1].append(f2)
        adj[f2].append(f1)
    n_groups = 0
    for start in range(mesh.n_triangles):
        if group[start] != -1:
            continue
        queue = deque([start])
        group[start] = n_groups
        while queue:
            f = queue.popleft()
            for g in adj[f]:
                if group[g] == -1:
                    group[g] = n_groups
                    queue.append(g)
        n_groups += 1

    # one chain per unordered group pair; a chain is kept (uncut) iff it is
    # the hinge selected by the spanning tree
    chains: dict[tuple[int, int], list[int]] = {}
    for eid in crease:
        f1, f2 = mesh.edge_faces[eid]
        key = (min(group[f1], group[f2]), max(group[f1], group[f2]))
        chains.setdefault(key, []).append(eid)

    tree_edges = set()
    seen = {0}
    queue = deque([0])
    group_adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for key in chains:
        a, b = key
        group_adj.setdefault(a, []).append((b, key))
        group_adj.setdefault(b, []).append((a, key))
    while queue:
        g = queue.popleft()
        for other, key in sorted(group_adj.get(g, [])):
            if other not in seen:
                seen.add(other)
                tree_edges.add(key)
                queue.append(other)

    cut = set()
    for key, eids in chains.items():
        if key in tree_edges:
            continue
        for eid in eids:
            a, b = (int(x) for x in mesh.edges[eid])
            cut.add((a, b))
    return SeamEdgeSet(list(cut))


def corpus_meshes():
    """(name, mesh, artist seam edges) triples; edges are index-based."""
    cube = make_cube(n=2, with_uv=True)
    cyl_a = make_cylinder(8, 4, radius=0.3, height=1.0)
    cyl_b = make_cylinder(10, 5, radius=0.2, height=0.8)
    ell = make_l_extrusion(height=0.6)
    return [
        ("cube", cube, developable_cut_edges(cube)),
        ("cylinder_a", cyl_a, extract_uv_seams(cyl_a)),
        ("cylinder_b", cyl_b, extract_uv_seams(cyl_b)),
        ("l_extrusion", ell, developable_cut_edges(ell)),
    ]
