"""3D Delaunay tetrahedralization with per-tetrahedron circumspheres.

Qhull and the circumspheres see the cloud scaled by an exact power of two
to a largest |coordinate| in [0.5, 1), so the complex is the same at every
scale in the supported range: a largest |coordinate| in [2^-300, 2^300).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .errors import DegenerateInput, DegenerateTetrahedron, TooFewPoints
from .mesh import PointCloud, _cross, _lex_order

# Affine-independence predicate: |det| of the edge matrix must exceed this
# factor times (max edge length)^3, else the quadruple is treated as coplanar.
ORIENTATION_TOL = 1e-12

# A cloud whose second singular value (centred) is at most this factor times
# its first is collinear; SciPy's Qhull can crash within about 3e-12 of a line.
COLLINEAR_TOL = 1e-6

# Supported largest |coordinate|: [2^MIN_EXPONENT, 2^MAX_EXPONENT). Beyond
# it, extract_boundary_faces' orientation triple products leave float range.
MIN_EXPONENT, MAX_EXPONENT = -300, 300


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
    bc, ca, ab = _cross(b, c), _cross(c, a), _cross(a, b)
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


def delaunay_complex(points: PointCloud | np.ndarray) -> DelaunayComplex:
    """Delaunay tetrahedralization of the cloud (normals ignored).

    Deterministic for a fixed input ordering. The cloud is tetrahedralized
    scaled by 2^-k, where 2^k is the least power of two above its largest
    |coordinate|; the centres and radii are scaled back by 2^k. ``points``
    is the caller's cloud. Simplices failing the affine-independence
    predicate (flat slivers from cospherical tie-breaking) carry no defined
    circumsphere and are dropped; they have zero volume within tolerance,
    so the hull-volume identity is unaffected.

    Raises:
        TooFewPoints: fewer than 4 points.
        DegenerateInput: the largest |coordinate| is outside
            [2^-300, 2^300); the cloud is collinear within
            ``COLLINEAR_TOL``; Qhull rejects the cloud (coplanar points,
            say), with the first line of its report, or leaves its point at
            infinity in a simplex; or every tetrahedron fails the
            affine-independence predicate.
    """
    cloud = points if isinstance(points, PointCloud) else PointCloud(points)
    pts = cloud.points
    if len(pts) < 4:
        raise TooFewPoints(f"need at least 4 points, got {len(pts)}")
    largest = np.abs(pts).max()
    k = int(np.frexp(largest)[1])
    if not MIN_EXPONENT < k <= MAX_EXPONENT:
        raise DegenerateInput(f"largest |coordinate| {largest:.3g} is outside the "
                              f"supported range [2^{MIN_EXPONENT}, 2^{MAX_EXPONENT})")
    unit = np.ldexp(pts, -k)
    spread = np.linalg.svd(unit - unit.mean(axis=0), compute_uv=False)
    if spread[1] <= COLLINEAR_TOL * spread[0]:
        raise DegenerateInput(f"all points collinear within {COLLINEAR_TOL:g} "
                              "of the cloud's extent")
    try:
        tri = _SciPyDelaunay(unit)
    except QhullError as exc:
        # Qhull's report runs to dozens of lines; the first names the failure.
        first_line = str(exc).partition("\n")[0]
        raise DegenerateInput(f"tetrahedralization failed: {first_line}") from exc
    if (tri.simplices >= len(pts)).any():
        # Qhull's point at infinity (option Qz, index n) stays in a flat cloud.
        raise DegenerateInput("tetrahedralization failed: a simplex has Qhull's "
                              "point at infinity as a vertex")
    # Sort each row's vertices and carry the neighbour across each slot along.
    slots = np.argsort(tri.simplices, axis=1)
    simplices = np.take_along_axis(tri.simplices, slots, axis=1).astype(np.int64)
    neighbors = np.take_along_axis(tri.neighbors, slots, axis=1)
    rows = _lex_order(simplices)
    simplices, neighbors = simplices[rows], neighbors[rows]
    centers, radii, ok = _batch_circumspheres(unit, simplices)
    if not ok.any():
        raise DegenerateInput("every tetrahedron is flat within predicate tolerance")
    # Qhull id -> kept row id; the extra last entry maps Qhull's -1 to -1.
    renumber = np.full(len(rows) + 1, -1, dtype=np.int64)
    renumber[rows[ok]] = np.arange(np.count_nonzero(ok))
    return DelaunayComplex(cloud, simplices[ok], np.ldexp(centers[ok], k),
                           np.ldexp(radii[ok], k), renumber[neighbors[ok]])
