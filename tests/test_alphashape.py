import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from alphaforge import (
    PRETTY_TAUS,
    SMOOTH_TAUS,
    PointCloud,
    SyntheticSpec,
    boundary_edges,
    delaunay_complex,
    enclosed_volume,
    euler_characteristic,
    extract_boundary_faces,
    filter_tetrahedra,
    nonmanifold_edges,
    synth,
    triangulate,
)
from alphaforge.errors import EmptyMesh, EmptySelection
from test_delaunay import REGULAR_TETRA


def circumradii_and_volumes(points, simplices):
    """Circumradius and volume of each tetrahedron; the radius from edge lengths:
    R = sqrt((aA+bB+cC)(aA+bB-cC)(aA-bB+cC)(-aA+bB+cC)) / (24 V), where
    (a, A), (b, B), (c, C) are the lengths of opposite edge pairs."""
    p = points[simplices]

    def length(i, j):
        return np.linalg.norm(p[:, i] - p[:, j], axis=1)

    aa = length(0, 1) * length(2, 3)
    bb = length(0, 2) * length(1, 3)
    cc = length(0, 3) * length(1, 2)
    volume = np.abs(np.linalg.det(p[:, 1:] - p[:, :1])) / 6
    prod = (aa + bb + cc) * (aa + bb - cc) * (aa - bb + cc) * (-aa + bb + cc)
    return np.sqrt(np.maximum(prod, 0.0)) / (24 * volume), volume


def edge_face_counts(mesh):
    counts = Counter()
    for a, b, c in mesh.faces.tolist():
        for e in ((a, b), (b, c), (c, a)):
            counts[frozenset(e)] += 1
    return counts


class TestFilter:
    def test_keeps_below_threshold(self):
        complex_ = delaunay_complex(PointCloud(REGULAR_TETRA))
        assert len(filter_tetrahedra(complex_, 0.7)) == 1  # radius ~0.6124

    def test_removes_above_threshold(self):
        complex_ = delaunay_complex(PointCloud(REGULAR_TETRA))
        assert filter_tetrahedra(complex_, 0.5).shape == (0, 4)

    def test_presets(self):
        assert SMOOTH_TAUS == (0.05, 0.085, 0.11)
        assert len(PRETTY_TAUS) == 19
        assert all(t > 0 for t in PRETTY_TAUS)
        assert PRETTY_TAUS[0] == pytest.approx(0.01)
        assert PRETTY_TAUS[-1] == pytest.approx(0.37)

    def test_monotone_in_tau(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=300, fill="solid", seed=8))
        complex_ = delaunay_complex(cloud)
        taus = [0.1, 0.2, 0.4, 0.8]
        kept = [set(map(tuple, filter_tetrahedra(complex_, tau).tolist())) for tau in taus]
        for small, big in zip(kept, kept[1:]):
            assert small <= big


class TestExtractBoundary:
    def test_single_tetrahedron(self):
        pts = PointCloud(REGULAR_TETRA)
        mesh, used = extract_boundary_faces(np.array([[0, 1, 2, 3]]), pts)
        assert mesh.num_faces == 4
        assert euler_characteristic(mesh) == 2
        assert len(boundary_edges(mesh)) == 0
        assert enclosed_volume(mesh) > 0  # outward orientation
        np.testing.assert_array_equal(used, [0, 1, 2, 3])

    def test_two_tetrahedra_share_interior_face(self):
        # triangular bipyramid: equilateral base + apexes above and below
        pts = np.array([
            [1.0, 0.0, 0.0],
            [-0.5, np.sqrt(3) / 2, 0.0],
            [-0.5, -np.sqrt(3) / 2, 0.0],
            [0.0, 0.0, 0.8],
            [0.0, 0.0, -0.8],
        ])
        tets = np.array([[0, 1, 2, 3], [0, 1, 2, 4]])
        mesh, _ = extract_boundary_faces(tets, PointCloud(pts))
        assert mesh.num_faces == 6
        assert euler_characteristic(mesh) == 2

    def test_cube_from_six_tetrahedra(self):
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))

        def cid(x, y, z):
            return x * 4 + y * 2 + z

        quads = []
        for axes in itertools.permutations(range(3)):
            walk = [(0, 0, 0)]
            for ax in axes:
                nxt = list(walk[-1])
                nxt[ax] = 1
                walk.append(tuple(nxt))
            quads.append(tuple(cid(*p) for p in walk))

        # oracle: brute-force face incidence over the six simplices
        counts = Counter()
        for q in quads:
            for tri in itertools.combinations(sorted(q), 3):
                counts[tri] += 1
        expected_boundary = {t for t, c in counts.items() if c == 1}
        assert len(expected_boundary) == 12

        mesh, used = extract_boundary_faces(np.array(quads), PointCloud(corners))
        got = {tuple(sorted(used[list(f)])) for f in mesh.faces.tolist()}
        assert got == expected_boundary
        assert euler_characteristic(mesh) == 2
        assert enclosed_volume(mesh) == pytest.approx(1.0)

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            extract_boundary_faces(np.zeros((0, 4), dtype=np.int64),
                                   PointCloud(REGULAR_TETRA))


class TestTriangulate:
    def test_sphere_cloud_closed_genus_zero(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=2000, fill="solid", seed=11))
        mesh = triangulate(cloud, 0.3)
        assert euler_characteristic(mesh) == 2
        assert len(boundary_edges(mesh)) == 0

    def test_torus_cloud_closed_genus_one(self):
        cloud, _ = synth(SyntheticSpec("torus", n=2000, fill="solid", seed=12))
        mesh = triangulate(cloud, 0.3)
        assert euler_characteristic(mesh) == 0
        assert len(boundary_edges(mesh)) == 0

    def test_tiny_tau_empties_mesh(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=200, fill="solid", seed=13))
        with pytest.raises(EmptyMesh):
            triangulate(cloud, 1e-9)

    def test_huge_tau_gives_convex_hull(self):
        from scipy.spatial import ConvexHull
        cloud, _ = synth(SyntheticSpec("torus", n=500, fill="solid", seed=14))
        complex_ = delaunay_complex(cloud)
        tau = complex_.radii.max() + 1.0
        kept = filter_tetrahedra(complex_, tau)
        mesh, used = extract_boundary_faces(kept, cloud)
        assert euler_characteristic(mesh) == 2
        assert len(boundary_edges(mesh)) == 0
        hull_faces = {tuple(sorted(f)) for f in ConvexHull(cloud.points).simplices}
        got = {tuple(sorted(used[list(f)])) for f in mesh.faces.tolist()}
        assert got == hull_faces

    def test_edges_shared_by_exactly_two_faces(self):
        for shape in ("sphere", "torus"):
            cloud, _ = synth(SyntheticSpec(shape, n=1500, fill="solid", seed=15))
            mesh = triangulate(cloud, 0.3)
            assert set(edge_face_counts(mesh).values()) == {2}

    def test_deterministic_face_lists(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=400, fill="solid", seed=16))
        a = triangulate(cloud, 0.35)
        b = triangulate(PointCloud(cloud.points.copy()), 0.35)
        np.testing.assert_array_equal(a.faces, b.faces)
        np.testing.assert_array_equal(a.vertices, b.vertices)

    def test_stacked_cloud_reports_nonmanifold_edges(self):
        cloud, _ = synth(SyntheticSpec("stacked", n=3000, fill="solid", seed=3))
        mesh = triangulate(cloud, 0.15)
        bad = nonmanifold_edges(mesh)
        assert len(bad) == 3
        assert euler_characteristic(mesh) == -3
        counts = edge_face_counts(mesh)
        assert {tuple(e) for e in bad.tolist()} == {
            tuple(sorted(e)) for e, c in counts.items() if c > 2}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 200),
       tau=st.floats(0.02, 2.0))
def test_triangulate_properties(seed, n, tau):
    """Enclosed volume is the kept tetrahedra's volume, every edge has an
    even face count, and every vertex is an input point."""
    pts = np.random.default_rng(seed).random((n, 3))
    simplices = Delaunay(pts).simplices
    radii, volumes = circumradii_and_volumes(pts, simplices)
    expected = volumes[radii <= tau].sum()
    try:
        mesh = triangulate(pts, tau)
    except EmptyMesh:
        assert expected == 0.0
        return
    assert abs(enclosed_volume(mesh) - expected) <= 1e-9 * expected
    assert all(c % 2 == 0 for c in edge_face_counts(mesh).values())
    assert set(map(tuple, mesh.vertices.tolist())) <= set(map(tuple, pts.tolist()))
