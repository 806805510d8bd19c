"""3D Delaunay tetrahedralization with per-tetrahedron circumspheres."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .errors import DegenerateInput, DegenerateTetrahedron, TooFewPoints
from .mesh import PointCloud, _lex_order

# Affine-independence predicate: |det| of the edge matrix must exceed this
# factor times (max edge length)^3, else the quadruple is treated as coplanar.
ORIENTATION_TOL = 1e-12


@dataclass(frozen=True)
class DelaunayComplex:
    """Delaunay tetrahedralization of a point set, stored as arrays.

    ``simplices`` is a (T, 4) int64 array of ascending vertex indices with
    rows in lexicographic order; ``centers`` (T, 3) and ``radii`` (T,) hold
    each row's circumsphere. ``neighbors`` (T, 4) int64 gives, for slot k,
    the row sharing the face opposite ``simplices[t, k]``, or -1 across the
    hull and across a dropped sliver. No input point lies strictly inside
    any circumsphere (strictly: closer than radius * (1 - 1e-9)), and the
    union of tetrahedra triangulates the convex hull.

    The complex is a filtration: the alpha shape at tau keeps the rows with
    radius <= tau, a prefix of the rows ordered by radius, so one complex
    serves every threshold.
    """

    points: PointCloud
    simplices: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    neighbors: np.ndarray

    def __len__(self) -> int:
        return len(self.simplices)


def circumsphere(p0, p1, p2, p3) -> tuple[np.ndarray, float]:
    """Circumcenter and circumradius of the tetrahedron (p0, p1, p2, p3).

    Solves the linear system expressing equidistance from the four points,
    in a frame translated to p0 for conditioning. Raises
    DegenerateTetrahedron for (near-)coplanar quadruples.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    A = np.stack([np.asarray(p, dtype=np.float64) - p0 for p in (p1, p2, p3)])
    scale = np.linalg.norm(A, axis=1).max()
    if scale == 0.0 or abs(np.linalg.det(A)) <= ORIENTATION_TOL * scale**3:
        raise DegenerateTetrahedron("coplanar quadruple: circumsphere undefined")
    b = 0.5 * np.einsum("ij,ij->i", A, A)
    local = np.linalg.solve(A, b)
    return p0 + local, float(np.linalg.norm(local))


def _batch_circumspheres(pts: np.ndarray, simplices: np.ndarray):
    """Vectorized circumspheres; returns (centers, radii, valid_mask).

    With edge vectors a, b, c from the first vertex, the determinant is
    a . (b x c) and, by Cramer's rule, the centre sits at
    (|a|^2 b x c + |b|^2 c x a + |c|^2 a x b) / (2 det) from that vertex.
    """
    p0 = pts[simplices[:, 0]]
    a, b, c = (pts[simplices[:, k]] - p0 for k in (1, 2, 3))
    bc, ca, ab = np.cross(b, c), np.cross(c, a), np.cross(a, b)
    sq = [np.einsum("ij,ij->i", e, e) for e in (a, b, c)]
    scale = np.sqrt(np.maximum(np.maximum(sq[0], sq[1]), sq[2]))
    det = np.einsum("ij,ij->i", a, bc)
    ok = np.abs(det) > ORIENTATION_TOL * scale**3
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with det 0
        local = (sq[0][:, None] * bc + sq[1][:, None] * ca
                 + sq[2][:, None] * ab) / (2.0 * det[:, None])
    centers = np.where(ok[:, None], p0 + local, np.nan)
    radii = np.where(ok, np.linalg.norm(local, axis=1), np.nan)
    return centers, radii, ok


def _spread_quadruple_determinant(pts: np.ndarray) -> float:
    """|det| of the best-spread quadruple, relative to its edge scale.

    Greedy: farthest point from the first, then farthest from that line,
    then farthest from that plane. Returns 0 for flat inputs.
    """
    a = pts[0]
    d = np.linalg.norm(pts - a, axis=1)
    b = pts[np.argmax(d)]
    ab = b - a
    nab = np.linalg.norm(ab)
    if nab == 0.0:
        return 0.0
    cross = np.cross(pts - a, ab)
    c = pts[np.argmax(np.linalg.norm(cross, axis=1))]
    n = np.cross(ab, c - a)
    nn = np.linalg.norm(n)
    if nn == 0.0:
        return 0.0
    h = np.abs((pts - a) @ n) / nn
    dpt = pts[np.argmax(h)]
    A = np.stack([b - a, c - a, dpt - a])
    scale = np.linalg.norm(A, axis=1).max()
    return abs(np.linalg.det(A)) / scale**3


def delaunay_complex(points: PointCloud | np.ndarray) -> DelaunayComplex:
    """Delaunay tetrahedralization of the cloud (normals ignored).

    Deterministic for a fixed input ordering. Simplices failing the
    affine-independence predicate (flat slivers from cospherical tie-breaking)
    carry no defined circumsphere and are dropped; they have zero volume
    within tolerance, so the hull-volume identity is unaffected.

    Raises TooFewPoints (< 4 points) or DegenerateInput (all coplanar).
    """
    cloud = points if isinstance(points, PointCloud) else PointCloud(points)
    pts = cloud.points
    if len(pts) < 4:
        raise TooFewPoints(f"need at least 4 points, got {len(pts)}")
    if _spread_quadruple_determinant(pts) <= ORIENTATION_TOL:
        raise DegenerateInput("all points coplanar within predicate tolerance")
    try:
        tri = _SciPyDelaunay(pts)
    except QhullError as exc:
        # Qhull's report runs to dozens of lines; the first names the failure.
        first_line = str(exc).partition("\n")[0]
        raise DegenerateInput(f"tetrahedralization failed: {first_line}") from exc
    # Sort each row's vertices and carry the neighbour across each slot along.
    slots = np.argsort(tri.simplices, axis=1)
    simplices = np.take_along_axis(tri.simplices, slots, axis=1).astype(np.int64)
    neighbors = np.take_along_axis(tri.neighbors, slots, axis=1)
    rows = _lex_order(simplices)
    simplices, neighbors = simplices[rows], neighbors[rows]
    centers, radii, ok = _batch_circumspheres(pts, simplices)
    # Qhull id -> kept row id; the extra last entry maps Qhull's -1 to -1.
    renumber = np.full(len(rows) + 1, -1, dtype=np.int64)
    renumber[rows[ok]] = np.arange(np.count_nonzero(ok))
    return DelaunayComplex(cloud, simplices[ok], centers[ok], radii[ok],
                           renumber[neighbors[ok]])
