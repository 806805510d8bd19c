"""Reference values for the loss terms and face normals, computed apart
from the library: plain numpy loops and all-pairs distances, with SciPy's
kd-tree called directly for clouds too large for an all-pairs matrix.
Nothing here goes through ``alphaforge.loss``, so a test that compares the
library with an oracle compares two computations.

Cloud terms take PointClouds; mesh terms take Meshes. The Laplacian
clamps its cotangent weights to [-50, 50], as the library documents.
"""

import itertools
from collections import defaultdict

import numpy as np
from scipy.spatial import cKDTree

ALL_PAIRS_LIMIT = 10**6  # largest len(a) * len(b) matched by an all-pairs argmin
COT_CLAMP = 50.0


def nearest(a, b):
    """Index into b of the nearest row for each row of a, with the squared
    distances: an argmin over every pair, or a kd-tree query for large
    clouds."""
    if len(a) * len(b) > ALL_PAIRS_LIMIT:
        dist, idx = cKDTree(b).query(a, k=1)
        return idx, dist**2
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    idx = np.argmin(d2, axis=1)
    return idx, d2[np.arange(len(a)), idx]


def chamfer(p, q):
    """Mean squared nearest-neighbour distance from P to Q plus Q to P."""
    return float(nearest(p.points, q.points)[1].mean() + nearest(q.points, p.points)[1].mean())


def log_chamfer(p, q, mu):
    """Sum over both directions of log10(squared nearest distance + mu)."""
    return float(sum(np.log10(nearest(a, b)[1] + mu).sum()
                     for a, b in ((p.points, q.points), (q.points, p.points))))


def normal_loss(p, q):
    """Mean of 1 - |cos| between each point's normal and its nearest
    neighbour's, pooled over both directions."""
    total = 0.0
    for a, b in ((p, q), (q, p)):
        idx, _ = nearest(a.points, b.points)
        total += (1.0 - np.abs((a.normals * b.normals[idx]).sum(axis=1))).sum()
    return total / (len(p) + len(q))


def face_normals(mesh):
    """Unit (b - a) x (c - a) per face."""
    v, f = mesh.vertices, mesh.faces
    cross = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    return cross / np.linalg.norm(cross, axis=1, keepdims=True)


def _edge_faces(mesh):
    """Unordered edge -> indices of the faces containing it."""
    faces_of = defaultdict(list)
    for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
        for edge in ((a, b), (b, c), (c, a)):
            faces_of[frozenset(edge)].append(fi)
    return faces_of


def edge_length_reg(mesh):
    """Mean squared length over the mesh's distinct edges."""
    v = mesh.vertices
    return float(np.mean([((v[i] - v[j]) ** 2).sum() for i, j in map(tuple, _edge_faces(mesh))]))


def normal_consistency(mesh):
    """Sum of 1 - cos over every pair of faces sharing an edge."""
    n = face_normals(mesh)
    return float(sum(1.0 - n[f] @ n[g] for faces in _edge_faces(mesh).values()
                     for f, g in itertools.combinations(faces, 2)))


def cot_laplacian(mesh):
    """LO(i) = sum over edges (i, j) of w_ij (v_i - v_j), w_ij half the sum
    of the cotangents of the angles opposite the edge, clamped."""
    v = mesh.vertices
    weight = defaultdict(float)
    for face in mesh.faces.tolist():
        for k in range(3):
            i, j, c = face[(k + 1) % 3], face[(k + 2) % 3], face[k]
            u, w = v[i] - v[c], v[j] - v[c]
            weight[min(i, j), max(i, j)] += 0.5 * (u @ w) / np.linalg.norm(np.cross(u, w))
    lo = np.zeros_like(v)
    for (i, j), wij in weight.items():
        wij = min(max(wij, -COT_CLAMP), COT_CLAMP)
        lo[i] += wij * (v[i] - v[j])
        lo[j] += wij * (v[j] - v[i])
    return lo


def laplacian_reg(mesh, baseline):
    """Mean squared difference of the two meshes' Laplacian coordinates."""
    return float(((cot_laplacian(mesh) - cot_laplacian(baseline)) ** 2).sum(axis=1).mean())
