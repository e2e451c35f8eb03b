"""Synthetic desk-scale corpus: meshes, artist seams, and dominated negatives.

Positives are developable single-island layouts (generator cut for tubes, a
face-spanning-tree "cross" cut for the cube and the L-prism), so they unwrap
with distortion near zero and one island.  Negative candidates instead cut
small quad loops out of the surface: every cutout adds an island, and the
leftover shell keeps its corners and curvature with no unrolling cuts, so it
flattens with large distortion.  The joint strict-dominance rule would
therefore pair them deterministically.

Both cuts read the one incidence array, ``mesh.face_edges``, through
``matched_corners``.  The developable cut is two ``scipy.sparse.csgraph``
calls: ``connected_components`` of the dual graph restricted to flat face
pairs gives the flat groups, numbered by their lowest face, and
``breadth_first_order`` from group 0 over the symmetric group-adjacency graph
gives the hinge tree, visiting each group's neighbours in ascending order.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, connected_components

from seamkit.mesh import SeamEdgeSet, extract_uv_seams, matched_corners, triangle_normals
from seamkit.shapes import make_cube, make_cylinder, make_l_extrusion


def _two_face_edges(mesh):
    """``(edge, f1, f2)`` with ``f1 < f2`` for every edge with exactly two faces, in edge order."""
    edge, a, b = matched_corners(mesh.triangles, mesh.face_edges)
    two = np.bincount(mesh.face_edges.ravel())[edge] == 2
    return edge[two], a[two, 0] // 3, b[two, 0] // 3


def quad_cutout_loops(mesh, k: int) -> SeamEdgeSet:
    """Seam edges forming k disjoint quad-boundary loops.

    Each loop is the 4-edge boundary of two triangles sharing an interior
    edge; cutting it separates that quad into its own island.  Interior edges
    are tried in id order; a loop is taken when all four boundary edges are
    interior, none is already cut, and no face on them is already used.
    """
    edge, f1, f2 = _two_face_edges(mesh)
    faces = np.full((len(mesh.edges), 2), -1)
    faces[edge] = np.stack([f1, f2], axis=1)
    used_face = np.zeros(mesh.n_triangles, dtype=bool)
    used_edge = np.zeros(len(mesh.edges), dtype=bool)
    loops = 0
    for a, b in zip(f1.tolist(), f2.tolist()):
        if loops >= k:
            break
        boundary = np.setxor1d(mesh.face_edges[a], mesh.face_edges[b])
        ring = faces[boundary]  # the quad's faces and its neighbours
        if len(boundary) != 4 or (ring < 0).any() or used_edge[boundary].any() or used_face[ring].any():
            continue
        used_edge[boundary] = True
        used_face[ring] = True
        loops += 1
    if loops < k:
        raise ValueError(f"only found {loops} disjoint quad loops, wanted {k}")
    return SeamEdgeSet(mesh.edges[used_edge])


def developable_cut_edges(mesh, angle_deg: float = 30.0) -> SeamEdgeSet:
    """Single-island developable cut for piecewise-planar meshes.

    Groups coplanar faces, spans the group-adjacency graph with a tree, and
    cuts every crease edge whose two groups the tree does not join.  The cut
    surface is a tree of flat patches, so it unrolls with zero distortion.
    """
    normals, _ = triangle_normals(mesh.vertices[mesh.triangles])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    edge, f1, f2 = _two_face_edges(mesh)
    # matmul rounds each dot product as ``n[f1] @ n[f2]`` does; einsum or a row
    # sum may not, and faces meeting at the threshold would then cut otherwise
    cos = np.matmul(normals[f1][:, None, :], normals[f2][:, :, None]).ravel()
    crease = cos < np.cos(np.deg2rad(angle_deg))

    n, flat = mesh.n_triangles, ~crease
    dual = sp.coo_matrix((np.ones(flat.sum()), (f1[flat], f2[flat])), shape=(n, n))
    n_groups, group = connected_components(dual, directed=False)
    g1, g2 = group[f1[crease]], group[f2[crease]]
    adjacent = sp.coo_matrix((np.ones(len(g1)), (g1, g2)), shape=(n_groups, n_groups)).tocsr()
    _, parent = breadth_first_order(adjacent + adjacent.T, 0, directed=False, return_predecessors=True)
    hinge = (parent[g1] == g2) | (parent[g2] == g1)
    return SeamEdgeSet(mesh.edges[edge[crease][~hinge]])


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
