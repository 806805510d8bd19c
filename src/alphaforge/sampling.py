"""Area-uniform surface sampling of triangle meshes."""

from __future__ import annotations

import numpy as np

from .errors import NoSurface
from .mesh import Mesh, PointCloud, _frame, face_cross_products

# Sample-count conventions: policy rewards use 3000 points, metric protocols
# 10000 (reward count fixed by the evaluation setup, metric count a
# variance/runtime balance).
REWARD_SAMPLES = 3000
METRIC_SAMPLES = 10000


def sample_surface(mesh: Mesh, n: int, seed: int) -> PointCloud:
    """Draw n area-uniform points from the mesh surface.

    Faces are selected with probability proportional to area (binary search
    on the cumulative-area table) and positions within a face use the
    square-root barycentric map

        P = (1 - sqrt(r1)) A + sqrt(r1) (1 - r2) B + sqrt(r1) r2 C,

    which is uniform over the triangle. Each sample carries its source
    face's unit normal. The stream comes from a counter-based Philox
    generator, so results are reproducible for a fixed (mesh, n, seed).
    The points are drawn in the mesh's frame (``mesh._frame``) and scaled
    back, so scaling the mesh by 2^j scales them by 2^j, bit for bit.
    """
    k = _frame(mesh.vertices)
    framed = mesh.with_vertices(np.ldexp(mesh.vertices, -k))
    cross = face_cross_products(framed)
    face_idx, bary = _draw(cross, n, seed)
    pos = _place(framed.vertices, mesh.faces[face_idx], bary)
    normals = cross[face_idx]
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    # renormalize to keep the unit invariant tight after the division
    normals = normals / np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(np.ldexp(pos, k, out=pos), normals)


def _draw(cross: np.ndarray, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Source face and (n, 3) barycentric coordinates of n area-uniform
    samples of the faces whose ``face_cross_products`` are ``cross``, as
    ``sample_surface`` draws them.

    Raises ValueError for n < 0 and NoSurface when the faces' total area is
    zero or not finite.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    total = areas.sum()
    if not 0.0 < total < np.inf:
        raise NoSurface(f"total mesh area {total} is not positive and finite")
    rng = np.random.Generator(np.random.Philox(seed))
    cumulative = np.cumsum(areas)
    u = rng.random(n) * cumulative[-1]
    face_idx = np.minimum(np.searchsorted(cumulative, u, side="right"), len(areas) - 1)
    s = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    return face_idx, np.stack([1.0 - s, s * (1.0 - r2), s * r2], axis=1)


def _place(v: np.ndarray, f: np.ndarray, bary: np.ndarray) -> np.ndarray:
    """Points at barycentric coordinates ``bary`` (n, 3) of the triangles
    whose vertex indices into ``v`` are the rows of ``f`` (n, 3)."""
    a, b, c = (np.take(v, corner, axis=0) for corner in f.T)
    return bary[:, 0, None] * a + bary[:, 1, None] * b + bary[:, 2, None] * c
