"""Alpha-shape triangulation: circumradius filtering and boundary extraction.

The reconstruction pipeline builds the Delaunay complex of a cloud, deletes
every tetrahedron whose circumradius exceeds a threshold tau, and keeps the
faces incident to exactly one surviving tetrahedron. Interior walls (faces
shared by two kept tetrahedra) are discarded, so the result is the boundary
surface of the filtered solid.

The complex is a filtration: every tau keeps a prefix of the tetrahedra
ordered by circumradius, so one complex serves every threshold
(:func:`boundary_meshes`). Boundary faces are found from the complex's
neighbour array, one lookup per face of a kept tetrahedron.
"""

from __future__ import annotations

import numpy as np

from .delaunay import DelaunayComplex, delaunay_complex
from .errors import EmptyMesh, EmptySelection
from .mesh import Mesh, PointCloud, _cross

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
    """Ascending row indices of the tetrahedra with circumradius <= tau."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    return np.flatnonzero(complex_.radii <= tau)


def extract_boundary_faces(
    complex_: DelaunayComplex, kept: np.ndarray
) -> tuple[Mesh, np.ndarray]:
    """Boundary mesh of the tetrahedra at row indices ``kept``, plus the
    vertex index remap.

    A face of a kept tetrahedron is on the boundary iff its neighbour across
    that face is the hull (-1) or not kept. Faces come in slot-major order
    (every kept tetrahedron's slot-0 face, then every slot-1 face, ...),
    oriented so each face normal points away from its tetrahedron's fourth
    vertex. Output vertices are re-indexed to those referenced; the second
    return value maps new index -> original index.
    """
    kept = np.asarray(kept, dtype=np.int64)
    if not len(kept):
        raise EmptySelection("no tetrahedra to extract faces from")
    inside = np.zeros(len(complex_) + 1, dtype=bool)  # last entry: the hull, -1
    inside[kept] = True
    boundary = ~inside[complex_.neighbors[kept]]
    slot, row = np.divmod(np.flatnonzero(boundary.T.reshape(-1)), len(kept))
    quads = complex_.simplices[kept[row]]
    bfaces = np.take_along_axis(quads, _FACE_SLOTS[slot], axis=1)
    bopp = quads[np.arange(len(quads)), slot]

    pts = complex_.points.points
    a, b, c = pts[bfaces[:, 0]], pts[bfaces[:, 1]], pts[bfaces[:, 2]]
    outward = np.einsum("ij,ij->i", _cross(b - a, c - a), pts[bopp] - a)
    flip = outward > 0
    bfaces[flip] = bfaces[flip][:, [0, 2, 1]]

    referenced = np.zeros(len(pts), dtype=bool)
    referenced[bfaces] = True
    used = np.flatnonzero(referenced)
    remap = np.full(len(pts), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return Mesh(pts[used], remap[bfaces]), used


def boundary_meshes(complex_: DelaunayComplex, taus) -> list[Mesh | None]:
    """The alpha-shape boundary mesh at each tau, read off one complex;
    None where filtering removes every tetrahedron."""
    meshes = []
    for tau in taus:
        kept = filter_tetrahedra(complex_, tau)
        meshes.append(extract_boundary_faces(complex_, kept)[0] if len(kept) else None)
    return meshes


def triangulate(points: PointCloud | np.ndarray, tau: float) -> Mesh:
    """Full triangulation layer: Delaunay complex, tau filter, boundary mesh.

    Raises EmptyMesh, naming the least tau that keeps a tetrahedron, when
    tau is too small for this cloud; the caller decides how to recover.
    """
    complex_ = delaunay_complex(points)
    (mesh,) = boundary_meshes(complex_, (tau,))
    if mesh is None:
        raise EmptyMesh(f"tau={tau} removed all {len(complex_)} tetrahedra; the least "
                        f"tau that keeps one is {float(complex_.radii.min())!r}")
    return mesh
