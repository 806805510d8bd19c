import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from alphaforge import PointCloud, SyntheticSpec, circumsphere, delaunay_complex, synth
from alphaforge.errors import DegenerateInput, DegenerateTetrahedron, TooFewPoints

REGULAR_TETRA = np.array([
    [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
]) / np.sqrt(8)  # edge length 1


def hull_volume_oracle(points):
    """Divergence-theorem volume over outward-oriented hull facets."""
    hull = ConvexHull(points)
    tri = points[hull.simplices]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flip = np.einsum("ij,ij->i", normals, hull.equations[:, :3]) < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0


def empty_circumsphere_violations(points, complex_):
    """Oracle: points strictly inside any circumsphere (1e-9 relative slack)."""
    bad = 0
    for quad, center, radius in zip(complex_.simplices, complex_.centers, complex_.radii):
        dist = np.linalg.norm(points - center, axis=1)
        inside = dist < radius * (1.0 - 1e-9)
        inside[quad] = False
        bad += int(inside.sum())
    return bad


def tetrahedra_volume(points, simplices):
    """Sum of |det| / 6 over the tetrahedra."""
    edges = points[simplices[:, 1:]] - points[simplices[:, :1]]
    return float(np.abs(np.linalg.det(edges)).sum() / 6)


GRID_3 = np.mgrid[0:3, 0:3, 0:3].reshape(3, -1).T.astype(float)


def check_neighbors(complex_):
    """Oracle for ``neighbors``: the array shape and dtype, symmetric
    adjacency, the neighbour across slot k sharing the row minus vertex k,
    and -1 exactly on faces that no other kept row contains."""
    simplices, neighbors = complex_.simplices, complex_.neighbors
    assert neighbors.shape == simplices.shape and neighbors.dtype == np.int64
    assert neighbors.min() >= -1 and neighbors.max() < len(simplices)
    face_count = Counter(frozenset(q) - {v} for q in simplices.tolist() for v in q)
    for t, (quad, nbrs) in enumerate(zip(simplices.tolist(), neighbors.tolist())):
        for k, n in enumerate(nbrs):
            face = frozenset(quad) - {quad[k]}
            if n < 0:
                assert face_count[face] == 1
                continue
            assert face_count[face] == 2
            back = neighbors[n].tolist()
            assert back.count(t) == 1
            assert frozenset(simplices[n].tolist()) - {simplices[n, back.index(t)]} == face


class TestCircumsphere:
    def test_regular_tetrahedron_edge_one(self):
        center, radius = circumsphere(*REGULAR_TETRA)
        assert radius == pytest.approx(np.sqrt(3.0 / 8.0), abs=1e-12)
        np.testing.assert_allclose(center, [0, 0, 0], atol=1e-12)

    def test_corner_tetrahedron(self):
        center, radius = circumsphere([0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1])
        np.testing.assert_allclose(center, [0.5, 0.5, 0.5], atol=1e-12)
        assert radius == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_coplanar_raises(self):
        with pytest.raises(DegenerateTetrahedron):
            circumsphere([0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0])


class TestDelaunayComplex:
    def test_minimal_simplex(self):
        complex_ = delaunay_complex(PointCloud(REGULAR_TETRA))
        assert len(complex_) == 1
        assert complex_.simplices.tolist() == [[0, 1, 2, 3]]

    def test_centroid_splits_into_four(self):
        pts = np.vstack([REGULAR_TETRA, REGULAR_TETRA.mean(axis=0)])
        complex_ = delaunay_complex(PointCloud(pts))
        got = set(map(tuple, complex_.simplices.tolist()))

        # oracle: enumerate all 4-subsets and keep those whose circumsphere
        # is empty of the remaining points
        expected = set()
        for quad in itertools.combinations(range(5), 4):
            try:
                center, radius = circumsphere(*pts[list(quad)])
            except DegenerateTetrahedron:
                continue
            others = [i for i in range(5) if i not in quad]
            dist = np.linalg.norm(pts[others] - center, axis=1)
            if (dist > radius * (1.0 - 1e-9)).all():
                expected.add(quad)
        assert got == expected
        assert len(got) == 4
        assert all(4 in quad for quad in got)

    def test_coplanar_rejected(self):
        pts = np.c_[np.random.default_rng(0).random((10, 2)), np.zeros(10)]
        with pytest.raises(DegenerateInput):
            delaunay_complex(PointCloud(pts))

    def test_qhull_failure_reports_its_first_line(self):
        """An exactly coplanar cloud reaches Qhull, which fails with a report
        of dozens of lines; the error keeps the first and chains the rest."""
        cloud, _ = synth(SyntheticSpec("torus", n=2000, seed=2, fill="solid"))
        with pytest.raises(DegenerateInput) as info:
            delaunay_complex(cloud.points * [1.0, 1.0, 0.0])
        message = str(info.value)
        assert message.startswith("tetrahedralization failed: QH6154 ")
        assert "\n" not in message
        assert isinstance(info.value.__cause__, QhullError)
        assert len(str(info.value.__cause__).splitlines()) > 10

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            delaunay_complex(PointCloud(np.eye(3)))

    def test_random_clouds_pass_empty_sphere_and_volume_oracles(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            pts = rng.random((int(rng.integers(20, 51)), 3))
            complex_ = delaunay_complex(PointCloud(pts))
            assert empty_circumsphere_violations(pts, complex_) == 0
            vol = tetrahedra_volume(pts, complex_.simplices)
            assert vol == pytest.approx(hull_volume_oracle(pts), rel=1e-6)

    def test_equidistance_invariant(self):
        rng = np.random.default_rng(7)
        pts = rng.random((40, 3))
        complex_ = delaunay_complex(PointCloud(pts))
        assert complex_.simplices.dtype == np.int64
        assert complex_.centers.shape == (len(complex_), 3)
        assert complex_.radii.shape == (len(complex_),)
        for quad, center, radius in zip(complex_.simplices, complex_.centers,
                                        complex_.radii):
            dist = np.linalg.norm(pts[quad] - center, axis=1)
            assert np.abs(dist - radius).max() < 1e-7 * radius
            assert radius > 0 and np.isfinite(radius)
            # the batched circumspheres agree with the scalar reference
            ref_center, ref_radius = circumsphere(*pts[quad])
            np.testing.assert_allclose(center, ref_center, rtol=1e-9, atol=1e-12)
            assert radius == pytest.approx(ref_radius, rel=1e-9)

    def test_translation_invariance_as_quadruple_set(self):
        rng = np.random.default_rng(3)
        pts = rng.random((60, 3))
        base = set(map(tuple, delaunay_complex(PointCloud(pts)).simplices.tolist()))
        moved = set(map(tuple, delaunay_complex(
            PointCloud(pts + [17.0, -4.0, 9.0])).simplices.tolist()))
        assert base == moved

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        pts = rng.random((80, 3))
        a = delaunay_complex(PointCloud(pts))
        b = delaunay_complex(PointCloud(pts.copy()))
        np.testing.assert_array_equal(a.simplices, b.simplices)
        np.testing.assert_array_equal(a.radii, b.radii)
        # rows hold ascending indices and are lexicographically ordered
        assert (np.diff(a.simplices, axis=1) > 0).all()
        assert a.simplices.tolist() == sorted(a.simplices.tolist())


class TestNeighbors:
    def test_single_tetrahedron_touches_only_the_hull(self):
        complex_ = delaunay_complex(PointCloud(REGULAR_TETRA))
        np.testing.assert_array_equal(complex_.neighbors, [[-1, -1, -1, -1]])

    def test_grid_drops_flat_slivers(self):
        # ties on the cubic grid make Qhull emit flat slivers, which are dropped
        complex_ = delaunay_complex(GRID_3)
        assert len(complex_) < len(Delaunay(GRID_3).simplices)
        check_neighbors(complex_)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 120))
    def test_random_clouds(self, seed, n):
        check_neighbors(delaunay_complex(np.random.default_rng(seed).random((n, 3))))
