"""3D Delaunay tetrahedralization with per-tetrahedron circumradii.

Qhull and the circumradii see the cloud in its power-of-two frame
(``mesh._frame``), so the complex is the same at every scale in the
frame's range.

The build holds the complex plus one block of circumradius temporaries
(``BLOCK_ROWS`` rows), and SciPy's Delaunay object is dropped before that
pass, so its peak memory is Qhull's own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from .errors import DegenerateInput, TooFewPoints
from .mesh import PointCloud, _cross, _frame, _lex_order

# Affine-independence predicate: |det| of the edge matrix must exceed this
# factor times (max edge length)^3, else the quadruple is treated as coplanar.
ORIENTATION_TOL = 1e-12

# A cloud whose second singular value (centred) is at most this factor times
# its first is collinear; SciPy's Qhull can crash within about 3e-12 of a line.
COLLINEAR_TOL = 1e-6

# Rows per block of the circumradius pass: one block's temporaries take
# a few MB, well under what Qhull itself takes.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DelaunayComplex:
    """Delaunay tetrahedralization of a point set, stored as arrays.

    ``simplices`` is a (T, 4) int64 array of ascending vertex indices with
    rows in lexicographic order; ``radii`` (T,) holds their circumradii.
    ``neighbors`` (T, 4) int64 gives, for slot k, the row sharing the face
    opposite ``simplices[t, k]``, or -1 across the hull and across a dropped
    sliver. The triangulation is Delaunay: no input point lies strictly
    inside any row's circumsphere (closer than radius * (1 - 1e-9)), and
    the union of tetrahedra triangulates the convex hull.

    The complex is a filtration: the alpha shape at tau keeps the rows with
    radius <= tau, a prefix of the rows ordered by radius, so one complex
    serves every threshold.
    """

    points: PointCloud
    simplices: np.ndarray
    radii: np.ndarray
    neighbors: np.ndarray

    def __len__(self) -> int:
        return len(self.simplices)


def _batch_circumspheres(pts: np.ndarray, simplices: np.ndarray):
    """Vectorized circumradii; returns (radii, valid_mask).

    Each row's corners are taken in the lexicographic order of their
    coordinates, so a tetrahedron gets the same bits however the cloud is
    numbered. With edge vectors a, b, c from the least corner, the
    determinant is a . (b x c) and, by Cramer's rule, the radius is the
    norm of (|a|^2 b x c + |b|^2 c x a + |c|^2 a x b) / (2 det). Rows go
    through in blocks of ``BLOCK_ROWS``, each by the same operations in the
    same order, so one block's temporaries are held at a time and the bits
    do not depend on the block size.
    """
    by_rank = np.lexsort(pts.T[::-1])
    rank = np.empty(len(pts), dtype=np.int64)
    rank[by_rank] = np.arange(len(pts))
    radii = np.empty(len(simplices))
    ok = np.empty(len(simplices), dtype=bool)
    for start in range(0, len(simplices), BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        corners = by_rank[np.sort(rank[simplices[block]], axis=1)]
        p0 = pts[corners[:, 0]]
        a, b, c = (pts[corners[:, k]] - p0 for k in (1, 2, 3))
        bc, ca, ab = _cross(b, c), _cross(c, a), _cross(a, b)
        sq = [np.einsum("ij,ij->i", e, e) for e in (a, b, c)]
        scale = np.sqrt(np.maximum(np.maximum(sq[0], sq[1]), sq[2]))
        det = np.einsum("ij,ij->i", a, bc)
        valid = ok[block] = np.abs(det) > ORIENTATION_TOL * scale**3
        with np.errstate(divide="ignore", invalid="ignore"):  # rows with det 0
            local = (sq[0][:, None] * bc + sq[1][:, None] * ca
                     + sq[2][:, None] * ab) / (2.0 * det[:, None])
        radii[block] = np.where(valid, np.linalg.norm(local, axis=1), np.nan)
    return radii, ok


def delaunay_complex(points: PointCloud | np.ndarray) -> DelaunayComplex:
    """Delaunay tetrahedralization of the cloud (normals ignored).

    Deterministic for a fixed input ordering. The cloud is tetrahedralized
    in its frame, scaled by 2^-k to a largest |coordinate| in [1, 2); the
    radii are scaled back by 2^k. ``points`` is the caller's cloud.
    Simplices failing the affine-independence predicate (flat slivers from
    cospherical tie-breaking) carry no defined circumradius and are
    dropped; they have zero volume within tolerance, so the hull-volume
    identity is unaffected.

    Raises:
        TooFewPoints: fewer than 4 points.
        DegenerateInput: the largest |coordinate| is outside the frame's
            range; the cloud is collinear within ``COLLINEAR_TOL``; Qhull
            rejects the cloud (coplanar points, say), with the first line
            of its report, or leaves its point at infinity in a simplex; or
            every tetrahedron fails the affine-independence predicate.
    """
    cloud = points if isinstance(points, PointCloud) else PointCloud(points)
    pts = cloud.points
    if len(pts) < 4:
        raise TooFewPoints(f"need at least 4 points, got {len(pts)}")
    k = _frame(pts)
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
    del tri, slots  # Qhull's arrays are not needed past this point
    rows = _lex_order(simplices)
    simplices, neighbors = simplices[rows], neighbors[rows]
    radii, ok = _batch_circumspheres(unit, simplices)
    if not ok.any():
        raise DegenerateInput("every tetrahedron is flat within predicate tolerance")
    # Qhull id -> kept row id; the extra last entry maps Qhull's -1 to -1.
    renumber = np.full(len(rows) + 1, -1, dtype=np.int64)
    renumber[rows[ok]] = np.arange(np.count_nonzero(ok))
    return DelaunayComplex(cloud, simplices[ok], np.ldexp(radii[ok], k),
                           renumber[neighbors[ok]])
