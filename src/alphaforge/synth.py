"""Synthetic test shapes with known topology.

Each shape provides a reference triangulation with known Euler
characteristic (sphere 2, torus 0, box 2, stacked -2) and seeded point
sampling, either on the surface (area-uniform, with normals, noise applied
along normals) or filling the solid body (no normals, isotropic noise).
Solid clouds are the fixtures for genus recovery: treating the circumradius
filter as a solid-body classifier, reconstruction keeps interior tetrahedra
and deletes the large ones spanning holes and cavities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import ConfigError
from .mesh import Mesh, PointCloud
from .refine import subdivide
from .sampling import sample_surface

SHAPES = ("sphere", "torus", "box", "stacked")
FILLS = ("surface", "solid")

# Stacked (genus-2) block: outer dimensions and the two rectangular
# through-holes, all on a 0.25 grid so wall vertices coincide exactly.
_STACKED_CELL = 0.25
_STACKED_DIMS = (3.0, 1.5, 0.75)
_STACKED_HOLES = (((0.5, 1.0), (0.5, 1.0)), ((2.0, 2.5), (0.5, 1.0)))


@dataclass(frozen=True)
class SyntheticSpec:
    """A seeded synthetic cloud. ``sigma`` must be finite and >= 0, a
    sphere's ``major_radius`` finite and > 0, and a torus's radii
    0 < minor < major < inf; any other value raises ``ConfigError``.
    The box and the stacked block have fixed sizes and ignore the radii."""

    shape: str
    n: int = 2000
    sigma: float = 0.0
    seed: int = 0
    fill: str = "surface"
    major_radius: float = 1.0
    minor_radius: float = 0.4

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ConfigError(f"shape must be one of {SHAPES}, got {self.shape!r}")
        if self.fill not in FILLS:
            raise ConfigError(f"fill must be one of {FILLS}, got {self.fill!r}")
        if self.n < 0:
            raise ConfigError("n must be >= 0")
        if not 0 <= self.sigma < np.inf:
            raise ConfigError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.shape == "sphere" and not 0 < self.major_radius < np.inf:
            raise ConfigError(f"sphere needs a finite major_radius > 0, got {self.major_radius}")
        if self.shape == "torus" and not 0 < self.minor_radius < self.major_radius < np.inf:
            raise ConfigError("torus needs 0 < minor_radius < major_radius < inf")


def synth(spec: SyntheticSpec) -> tuple[PointCloud, Mesh]:
    """Seeded point cloud plus the reference mesh for the requested shape."""
    ref = reference_mesh(spec)
    rng = np.random.Generator(np.random.Philox(spec.seed))
    if spec.fill == "surface":
        cloud = _surface_cloud(spec, ref, rng)
    else:
        cloud = _solid_cloud(spec, rng)
    return cloud, ref


def reference_mesh(spec: SyntheticSpec) -> Mesh:
    if spec.shape == "sphere":
        return icosphere(subdivisions=3, radius=spec.major_radius)
    if spec.shape == "torus":
        return torus_mesh(spec.major_radius, spec.minor_radius)
    if spec.shape == "box":
        return box_mesh(1.0)
    return stacked_mesh()


# ---------------------------------------------------------------------------
# Reference triangulations


def icosphere(subdivisions: int = 3, radius: float = 1.0) -> Mesh:
    """Icosahedron subdivided and projected to the sphere; chi = 2."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    faces = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    mesh = Mesh(verts, faces)
    for _ in range(subdivisions):
        mesh = subdivide(mesh)
        v = mesh.vertices
        mesh = mesh.with_vertices(v / np.linalg.norm(v, axis=1, keepdims=True))
    v = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    return mesh.with_vertices(v * radius)


def torus_mesh(major: float, minor: float, n_u: int = 48, n_v: int = 24) -> Mesh:
    """Grid triangulation of the torus, outward-oriented; chi = 0."""
    iu, iv = np.meshgrid(np.arange(n_u), np.arange(n_v), indexing="ij")
    u = 2 * np.pi * iu / n_u
    v = 2 * np.pi * iv / n_v
    ring = major + minor * np.cos(v)
    verts = np.stack([ring * np.cos(u), ring * np.sin(u),
                      minor * np.sin(v)], axis=2).reshape(-1, 3)
    # cell (i, j) has corners a = (i, j), b = (i + 1, j), c = (i + 1, j + 1)
    # and d = (i, j + 1), indices wrapping; its faces are (a, b, c), (a, c, d)
    i0, i1 = iu * n_v, (iu + 1) % n_u * n_v
    j1 = (iv + 1) % n_v
    a, b, c, d = i0 + iv, i1 + iv, i1 + j1, i0 + j1
    faces = np.stack([a, b, c, a, c, d], axis=2).reshape(-1, 3)
    return Mesh(verts, faces)


def box_mesh(edge: float = 1.0) -> Mesh:
    """Axis-aligned cube centered at the origin, 12 outward triangles."""
    h = edge / 2.0
    verts = np.array([[x, y, z] for x in (-h, h) for y in (-h, h) for z in (-h, h)])
    # index bit layout: x*4 + y*2 + z
    faces = np.array([
        [0, 1, 3], [0, 3, 2],  # -x
        [4, 6, 7], [4, 7, 5],  # +x
        [0, 4, 5], [0, 5, 1],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [0, 2, 6], [0, 6, 4],  # -z
        [1, 5, 7], [1, 7, 3],  # +z
    ], dtype=np.int64)
    return Mesh(verts, faces)


def _walls(axis: int, sides, u: np.ndarray, v: np.ndarray):
    """Unit grid quads normal to ``axis``, one per (position, outward sign)
    in ``sides`` for each cell (u[m], v[m]) on the other two axes, cells
    first: (quads (Q, 4, 3) int, reverse flags (Q,)).

    Corners run (u, v), (u + 1, v), (u + 1, v + 1), (u, v + 1) over the
    other axes in ascending order, whose normal is +x, -y or +z for axis
    0, 1 or 2; a quad is flagged where that normal points inward."""
    pos, sign = np.array(sides).T
    quads = np.empty((len(u), len(sides), 4, 3), dtype=np.int64)
    a, b = (ax for ax in range(3) if ax != axis)
    quads[..., axis] = pos[:, None]
    quads[..., a] = (u[:, None] + [0, 1, 1, 0])[:, None]
    quads[..., b] = (v[:, None] + [0, 0, 1, 1])[:, None]
    flip = np.broadcast_to(sign * (-1) ** axis < 0, (len(u), len(sides)))
    return quads.reshape(-1, 4, 3), flip.reshape(-1)


def stacked_mesh() -> Mesh:
    """Genus-2 block: a box with two rectangular through-holes; chi = -2.

    Built from unit quads on a regular grid so shared wall vertices
    coincide exactly, numbered in order of first use; centered at the
    origin. Quads come caps first, then the outer x and y walls, then
    each hole's walls layer by layer.
    """
    cell = _STACKED_CELL
    nx, ny, nz = (round(d / cell) for d in _STACKED_DIMS)
    holes = [[round(e / cell) for e in (*hx, *hy)] for hx, hy in _STACKED_HOLES]
    solid = np.ones((nx, ny), dtype=bool)
    for i0, i1, j0, j1 in holes:
        solid[i0:i1, j0:j1] = False
    parts = [_walls(2, [(nz, 1), (0, -1)], *np.nonzero(solid)),
             _walls(0, [(0, -1), (nx, 1)], *np.indices((ny, nz)).reshape(2, -1)),
             _walls(1, [(0, -1), (ny, 1)], *np.indices((nx, nz)).reshape(2, -1))]
    for (i0, i1, j0, j1), k in product(holes, range(nz)):
        # the solid lies outside the hole, so outward points into it
        parts += [_walls(0, [(i0, 1), (i1, -1)], np.arange(j0, j1), np.full(j1 - j0, k)),
                  _walls(1, [(j0, 1), (j1, -1)], np.arange(i0, i1), np.full(i1 - i0, k))]
    corners, flip = map(np.concatenate, zip(*parts))
    corners = corners.reshape(-1, 3)
    _, first, inverse = np.unique(np.ravel_multi_index(corners.T, (nx + 1, ny + 1, nz + 1)),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    quads = rank[inverse].reshape(-1, 4)
    quads[flip] = quads[flip][:, [0, 3, 2, 1]]
    verts = corners[first[order]] * cell - np.array(_STACKED_DIMS) / 2.0
    return Mesh(verts, quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3))


# ---------------------------------------------------------------------------
# Point sampling


def _surface_cloud(spec: SyntheticSpec, ref: Mesh, rng: np.random.Generator) -> PointCloud:
    if spec.shape == "sphere":
        d = rng.normal(size=(spec.n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts, normals = spec.major_radius * d, d
    elif spec.shape == "torus":
        u, v = _torus_angles(spec, rng, spec.n)
        pts, normals = _torus_point_normal(spec, u, v)
    else:
        # polyhedral shapes: the reference mesh is the exact surface
        cloud = sample_surface(ref, spec.n, seed=spec.seed ^ 0x5EED)
        pts, normals = cloud.points, cloud.normals
    if spec.sigma > 0 and spec.n:
        pts = pts + spec.sigma * rng.normal(size=(spec.n, 1)) * normals
    return PointCloud(pts, normals)


def _rejection_sample(n: int, width: int, draw) -> np.ndarray:
    """n rows of width columns from rounds of draw(batch, need), which
    proposes batch = max(2 * need, 64) candidates and returns at most need."""
    out = np.empty((0, width))
    while len(out) < n:
        out = np.concatenate([out, draw(max(2 * (n - len(out)), 64), n - len(out))])
    return out


def _torus_angles(spec, rng, n):
    """Area-uniform torus angles (u, v): u uniform, v by rejection with
    acceptance ratio (R + r cos v) / (R + r)."""
    def draw(batch, need):
        v = rng.random(batch) * 2 * np.pi
        accept = rng.random(batch) < (
            (spec.major_radius + spec.minor_radius * np.cos(v))
            / (spec.major_radius + spec.minor_radius))
        v = v[accept][:need]
        return np.stack([rng.random(len(v)) * 2 * np.pi, v], axis=1)

    return _rejection_sample(n, 2, draw).T


def _torus_point_normal(spec, u, v):
    ring = spec.major_radius + spec.minor_radius * np.cos(v)
    pts = np.stack([ring * np.cos(u), ring * np.sin(u),
                    spec.minor_radius * np.sin(v)], axis=1)
    normals = np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u),
                        np.sin(v)], axis=1)
    return pts, normals


def _solid_cloud(spec: SyntheticSpec, rng: np.random.Generator) -> PointCloud:
    n = spec.n
    if spec.shape == "sphere":
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        pts = spec.major_radius * d * (rng.random((n, 1)) ** (1.0 / 3.0))
    elif spec.shape == "torus":
        pts = _solid_torus(spec, rng, n)
    elif spec.shape == "box":
        pts = rng.random((n, 3)) - 0.5
    else:
        pts = _solid_stacked(rng, n)
    if spec.sigma > 0 and n:
        pts = pts + spec.sigma * rng.normal(size=pts.shape)
    return PointCloud(pts)


def _solid_torus(spec, rng, n):
    def draw(batch, need):
        rho = spec.minor_radius * np.sqrt(rng.random(batch))
        v = rng.random(batch) * 2 * np.pi
        accept = rng.random(batch) < (
            (spec.major_radius + rho * np.cos(v))
            / (spec.major_radius + spec.minor_radius))
        rho, v = rho[accept][:need], v[accept][:need]
        u = rng.random(len(v)) * 2 * np.pi
        ring = spec.major_radius + rho * np.cos(v)
        return np.stack([ring * np.cos(u), ring * np.sin(u), rho * np.sin(v)], axis=1)

    return _rejection_sample(n, 3, draw)


def _solid_stacked(rng, n):
    dims = np.array(_STACKED_DIMS)

    def draw(batch, need):
        cand = rng.random((batch, 3)) * dims
        mask = np.ones(batch, dtype=bool)
        for (hx0, hx1), (hy0, hy1) in _STACKED_HOLES:
            mask &= ~((cand[:, 0] > hx0) & (cand[:, 0] < hx1)
                      & (cand[:, 1] > hy0) & (cand[:, 1] < hy1))
        return cand[mask][:need]

    return _rejection_sample(n, 3, draw) - dims / 2.0
