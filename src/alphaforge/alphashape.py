"""Alpha-shape triangulation: circumradius filtering and boundary extraction.

The reconstruction pipeline builds the Delaunay complex of a cloud, deletes
every tetrahedron whose circumradius exceeds a threshold tau, and keeps the
faces incident to exactly one surviving tetrahedron. Interior walls (faces
shared by two kept tetrahedra) are discarded, so the result is the boundary
surface of the filtered solid.
"""

from __future__ import annotations

import numpy as np

from .delaunay import DelaunayComplex, delaunay_complex
from .errors import EmptyMesh, EmptySelection
from .mesh import Mesh, PointCloud

# Threshold presets (filtering action sets). "smooth" is the 3-action set,
# "pretty" the wide 24-action ladder restricted to its positive entries.
SMOOTH_TAUS: tuple[float, ...] = (0.05, 0.085, 0.11)
PRETTY_TAUS: tuple[float, ...] = tuple(
    round(0.15 + i / 50, 6) for i in range(-12, 12) if 0.15 + i / 50 > 0
)

TAU_PRESETS: dict[str, tuple[float, ...]] = {
    "smooth": SMOOTH_TAUS,
    "pretty": PRETTY_TAUS,
}

# The face opposite vertex slot k of a tetrahedron, for k = 0..3.
_FACE_SLOTS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def filter_tetrahedra(complex_: DelaunayComplex, tau: float) -> np.ndarray:
    """Simplices with circumradius <= tau, as a (k, 4) array in input order."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    return complex_.simplices[complex_.radii <= tau]


def extract_boundary_faces(
    simplices: np.ndarray, points: PointCloud
) -> tuple[Mesh, np.ndarray]:
    """Boundary mesh of a (k, 4) tetrahedron index array, plus the vertex
    index remap.

    Keeps faces whose unordered index triple appears in exactly one
    tetrahedron, oriented so each face normal points away from its
    tetrahedron's fourth vertex. Output vertices are re-indexed to those
    referenced; the second return value maps new index -> original index.
    """
    quads = np.asarray(simplices, dtype=np.int64)
    if not len(quads):
        raise EmptySelection("no tetrahedra to extract faces from")
    # slot-major: every tetrahedron's slot-0 face, then every slot-1 face, ...
    faces = quads[:, _FACE_SLOTS].swapaxes(0, 1).reshape(-1, 3)
    opposite = quads.T.reshape(-1)
    key = np.sort(faces, axis=1)
    _, first, counts = np.unique(key, axis=0, return_index=True, return_counts=True)
    boundary_idx = np.sort(first[counts == 1])
    bfaces = faces[boundary_idx]
    bopp = opposite[boundary_idx]

    pts = points.points
    a, b, c = pts[bfaces[:, 0]], pts[bfaces[:, 1]], pts[bfaces[:, 2]]
    outward = np.einsum("ij,ij->i", np.cross(b - a, c - a), pts[bopp] - a)
    flip = outward > 0
    bfaces[flip] = bfaces[flip][:, [0, 2, 1]]

    used = np.unique(bfaces)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return Mesh(pts[used], remap[bfaces]), used


def triangulate(points: PointCloud | np.ndarray, tau: float) -> Mesh:
    """Full triangulation layer: Delaunay complex, tau filter, boundary mesh.

    Raises EmptyMesh when filtering removes every tetrahedron, i.e. tau is
    too small for this cloud; the caller decides how to recover.
    """
    complex_ = delaunay_complex(points)
    kept = filter_tetrahedra(complex_, tau)
    if not len(kept):
        raise EmptyMesh(f"tau={tau} removed all {len(complex_)} tetrahedra")
    mesh, _ = extract_boundary_faces(kept, complex_.points)
    return mesh
