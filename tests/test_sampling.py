import hashlib

import numpy as np
import pytest

from alphaforge import (
    LossWeights,
    Mesh,
    SyntheticSpec,
    icosphere,
    loss_plan,
    reference_mesh,
    sample_surface,
)
from alphaforge.errors import NoSurface
import oracles

UNIT_SQUARE = Mesh(
    np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]]),
    np.array([[0, 1, 2], [0, 2, 3]]),
)


def barycentric(p, a, b, c):
    v0, v1, v2 = b - a, c - a, p - a
    d00, d01, d11 = v0 @ v0, v0 @ v1, v1 @ v1
    d20, d21 = v2 @ v0, v2 @ v1
    denom = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    return 1.0 - v - w, v, w


def test_zero_samples_empty_cloud(single_triangle):
    cloud = sample_surface(single_triangle, 0, seed=1)
    assert len(cloud) == 0
    assert cloud.has_normals


def test_samples_lie_inside_triangle(single_triangle):
    cloud = sample_surface(single_triangle, 1000, seed=2)
    a, b, c = single_triangle.vertices
    for p in cloud.points:
        u, v, w = barycentric(p, a, b, c)
        assert min(u, v, w) > -1e-9


def test_two_triangle_split_is_even():
    # binomial bound: p=0.5, n=1e5, 6 sigma ~ 0.0095
    cloud = sample_surface(UNIT_SQUARE, 100_000, seed=3)
    in_first = (cloud.points[:, 0] >= cloud.points[:, 1]).mean()
    assert abs(in_first - 0.5) < 0.01


def test_density_uniform_on_grid():
    cloud = sample_surface(UNIT_SQUARE, 1_000_000, seed=4)
    ix = np.minimum((cloud.points[:, 0] * 10).astype(int), 9)
    iy = np.minimum((cloud.points[:, 1] * 10).astype(int), 9)
    counts = np.bincount(ix * 10 + iy, minlength=100)
    expected = len(cloud) / 100
    assert np.abs(counts - expected).max() < 0.05 * expected


def test_normals_are_unit_and_match_source_face(tetra_mesh):
    cloud = sample_surface(tetra_mesh, 500, seed=5)
    np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0,
                               atol=1e-12)
    fn = oracles.face_normals(tetra_mesh)
    match = np.abs(cloud.normals @ fn.T).max(axis=1)
    np.testing.assert_allclose(match, 1.0, atol=1e-9)


def test_deterministic(tetra_mesh):
    a = sample_surface(tetra_mesh, 257, seed=99)
    b = sample_surface(tetra_mesh, 257, seed=99)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.normals, b.normals)
    c = sample_surface(tetra_mesh, 257, seed=100)
    assert not np.array_equal(a.points, c.points)


def test_no_surface_raises():
    """Only zero area is no surface: a tiny triangle samples in its frame."""
    tiny = Mesh(np.array([[0.0, 0, 0], [1e-9, 0, 0], [0.0, 1e-9, 0]]), np.array([[0, 1, 2]]))
    assert len(sample_surface(tiny, 10, seed=0)) == 10
    degenerate = tiny.with_vertices([[0.0, 0, 0], [1e-9, 0, 0], [3e-9, 0, 0]])
    with pytest.raises(NoSurface):
        sample_surface(degenerate, 10, seed=0)


def sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


@pytest.mark.parametrize("mesh, points, normals", [
    (icosphere(2),
     "9ab6c0d88dca650db84804c1894d1fa892614e122578433d8d466dcb1e6ec06c",
     "08be6f0830a6ee5dad0492ca3a3098038d61b5ba9ab16ef34001a3e96236d60a"),
    (reference_mesh(SyntheticSpec("torus")),
     "639d8e6baf648f836575faa304c59aaad14d589416afec6f047fdabdf2789a03",
     "28a015f311bb39647769ed187d3d15bfe46da87d4e1861b998f1565ff86e2ac8"),
], ids=["icosphere", "torus"])
def test_samples_pinned(mesh, points, normals):
    cloud = sample_surface(mesh, 1000, seed=3)
    assert (sha256(cloud.points), sha256(cloud.normals)) == (points, normals)


def test_loss_plan_samples_equal_sample_surface():
    """The loss's sampling map places its samples where ``sample_surface``
    does, bit for bit."""
    mesh = reference_mesh(SyntheticSpec("torus"))
    target = sample_surface(icosphere(2), 300, seed=1)
    plan = loss_plan(mesh, target, None, LossWeights(), 1000, seed=3)
    v, f = mesh.vertices, plan.sample_faces
    positions = sum(plan.bary[:, k, None] * v[f[:, k]] for k in range(3))
    assert np.array_equal(positions, sample_surface(mesh, 1000, seed=3).points)
