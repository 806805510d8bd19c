"""Core value types (point clouds, triangle meshes) and topology diagnostics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInput, InvalidMesh

NORMAL_UNIT_TOL = 1e-9


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=np.float64)
    if pts.size == 0:
        return pts.reshape(0, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must have shape (n, 3), got {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} contains NaN or infinite coordinates")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """Ordered 3D points with optional unit normals.

    ``points`` is an (n, 3) float64 array. ``normals``, when present, is an
    (n, 3) array of unit vectors (norm within 1e-9 of 1).
    """

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_points(self.points, "points")
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = _as_points(self.normals, "normals")
            if len(nrm) != len(pts):
                raise ValueError("normals count must equal point count")
            if len(nrm) and np.abs(np.linalg.norm(nrm, axis=1) - 1.0).max() > NORMAL_UNIT_TOL:
                raise ValueError("normals must have unit length")
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def has_normals(self) -> bool:
        return self.normals is not None


@dataclass(frozen=True)
class Mesh:
    """Indexed triangle mesh: ``vertices`` (v, 3) float64, ``faces`` (f, 3) int.

    Faces are oriented counter-clockwise seen from outside. Construction
    checks index bounds, per-face index distinctness, and rejects duplicate
    faces (same unordered index triple). Face areas are not checked, because
    intermediate optimization states may pass through near-zero-area
    configurations.
    """

    vertices: np.ndarray
    faces: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))

    def __post_init__(self):
        verts = _as_points(self.vertices, "vertices")
        object.__setattr__(self, "vertices", verts)
        faces = np.asarray(self.faces, dtype=np.int64)
        if faces.size == 0:
            faces = faces.reshape(0, 3)
        if faces.ndim != 2 or faces.shape[1] != 3:
            raise InvalidMesh(f"faces must have shape (f, 3), got {faces.shape}")
        if len(faces):
            if faces.min() < 0 or faces.max() >= len(verts):
                raise InvalidMesh("face index out of range")
            a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
            if ((a == b) | (b == c) | (a == c)).any():
                raise InvalidMesh("face with repeated vertex index")
            if len(_unique_rows(np.sort(faces, axis=1))[0]) != len(faces):
                raise InvalidMesh("duplicate faces (same unordered index triple)")
        object.__setattr__(self, "faces", faces)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    def with_vertices(self, vertices) -> "Mesh":
        """Same connectivity, new vertex positions.

        The faces were validated when this mesh was built, so only the new
        vertex array is checked: its shape, and that it has as many rows as
        the old one (else InvalidMesh).
        """
        verts = _as_points(vertices, "vertices")
        if len(verts) != len(self.vertices):
            raise InvalidMesh(f"expected {len(self.vertices)} vertices, got {len(verts)}")
        out = object.__new__(Mesh)
        object.__setattr__(out, "vertices", verts)
        object.__setattr__(out, "faces", self.faces)
        return out


def _lex_order(rows: np.ndarray) -> np.ndarray:
    """A permutation that sorts the rows of an (n, k) int64 array
    lexicographically (equal rows in any order).

    The rows are ordered by one packed 1-D key when the span of their values
    fits k times into 63 bits, else by ``np.lexsort``.
    """
    if not len(rows):
        return np.zeros(0, dtype=np.int64)
    lo = int(rows.min())
    bits = (int(rows.max()) - lo).bit_length()
    if bits * rows.shape[1] > 63:
        return np.lexsort(rows.T[::-1])
    shifted = rows - lo
    key = shifted[:, 0]
    for j in range(1, rows.shape[1]):
        key = (key << bits) | shifted[:, j]
    return np.argsort(key)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True, return_counts=True)``
    for an (n, k) int64 array: the distinct rows in lexicographic order, the
    index of each input row among them, and how often each occurs. Sorted
    by ``_lex_order``, without the structured-dtype sort that ``np.unique``
    makes along an axis."""
    n = len(rows)
    order = _lex_order(rows)
    srt = rows[order]
    new = np.ones(n, dtype=bool)
    np.any(srt[1:] != srt[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    return srt[starts], inverse, np.diff(np.append(starts, n))


def _edge_table(faces: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge table of an (f, 3) face array: the distinct unordered edges as
    an (e, 2) array in lexicographic order; a (3, f) array whose row k
    indexes, for every face, the edge opposite the face's corner k; and the
    number of faces on each edge."""
    pairs = np.stack([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]])
    edges, inverse, counts = _unique_rows(np.sort(pairs.reshape(-1, 2), axis=1))
    return edges, inverse.reshape(3, -1), counts


class Topology(NamedTuple):
    """Edge-level topology of a mesh: the distinct unordered edges (e, 2) in
    lexicographic order, those incident to exactly one face (none iff the
    mesh is closed), those incident to more than two faces, and the Euler
    characteristic V - E + F."""

    edges: np.ndarray
    boundary_edges: np.ndarray
    nonmanifold_edges: np.ndarray
    chi: int


def topology(mesh: Mesh) -> Topology:
    """The mesh's ``Topology``, read off one edge table."""
    edges, _, counts = _edge_table(mesh.faces)
    return Topology(edges, edges[counts == 1], edges[counts > 2],
                    mesh.num_vertices - len(edges) + mesh.num_faces)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise a x b of two (n, 3) arrays, bit for bit ``np.cross(a, b)``:
    the same products and differences, written into one output array."""
    out = np.empty(a.shape)
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.subtract(a[:, i] * b[:, j], a[:, j] * b[:, i], out=out[:, k])
    return out


def _frame(*arrays: np.ndarray) -> int:
    """The k for which 2^-k times the largest |value| in ``arrays`` lies in
    [1, 2). Every stage that measures distance works on its input scaled by
    2^-k (``np.ldexp``, exact) and scales lengths back by 2^k, so it gives
    the same bits, scaled, at every scale. All-zero values get k = -1.

    Raises DegenerateInput outside the supported range [2^-300, 2^300),
    beyond which the boundary's orientation triple products leave the float
    range.
    """
    largest = max(np.abs(a).max(initial=0.0) for a in arrays)
    k = int(np.frexp(largest)[1]) - 1
    if not -300 <= k < 300:
        raise DegenerateInput(f"largest |coordinate| {largest:.3g} is outside the "
                              "supported range [2^-300, 2^300)")
    return k


def face_cross_products(mesh: Mesh) -> np.ndarray:
    """(b - a) x (c - a) for each face; twice the area vector."""
    a, b, c = (np.take(mesh.vertices, corner, axis=0) for corner in mesh.faces.T)
    return _cross(b - a, c - a)


def enclosed_volume(mesh: Mesh) -> float:
    """Signed volume by divergence-theorem summation; positive for
    consistently outward-oriented closed meshes."""
    v = mesh.vertices
    f = mesh.faces
    if not len(f):
        return 0.0
    return float(np.einsum("ij,ij->i", v[f[:, 0]], _cross(v[f[:, 1]], v[f[:, 2]])).sum() / 6.0)
