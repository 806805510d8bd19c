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
    DelaunayComplex,
    Mesh,
    PointCloud,
    SyntheticSpec,
    boundary_meshes,
    delaunay_complex,
    enclosed_volume,
    extract_boundary_faces,
    filter_tetrahedra,
    synth,
    topology,
    triangulate,
)
from alphaforge.errors import EmptyMesh, EmptySelection
from test_delaunay import GRID_3, REGULAR_TETRA


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


def complex_from_quads(points, quads):
    """A DelaunayComplex over hand-built tetrahedra, with the neighbours
    found by brute-force face matching; every radius NaN."""
    quads = np.sort(np.asarray(quads, dtype=np.int64), axis=1)
    quads = quads[np.lexsort(quads.T[::-1])]
    owners = {}
    for t, q in enumerate(quads.tolist()):
        for v in q:
            owners.setdefault(frozenset(q) - {v}, []).append(t)
    neighbors = np.array([[next((o for o in owners[frozenset(q) - {v}] if o != t), -1)
                           for v in q] for t, q in enumerate(quads.tolist())],
                         dtype=np.int64).reshape(-1, 4)
    return DelaunayComplex(PointCloud(points), quads, np.full(len(quads), np.nan),
                           neighbors)


def face_count_boundary(complex_, kept):
    """Oracle: the boundary by counting faces over the kept tetrahedra.

    Faces in slot-major order (all slot-0 faces, then all slot-1 faces, ...)
    whose vertex set occurs once, oriented away from the opposite vertex,
    re-indexed to the vertices they use."""
    quads = complex_.simplices[kept].tolist()
    count = Counter(frozenset(q) - {v} for q in quads for v in q)
    pts = complex_.points.points
    faces = []
    for k in range(4):
        for q in quads:
            face = [v for v in q if v != q[k]]
            if count[frozenset(face)] != 1:
                continue
            a, b, c = pts[face]
            if np.dot(np.cross(b - a, c - a), pts[q[k]] - a) > 0:
                face = [face[0], face[2], face[1]]
            faces.append(face)
    used = sorted({v for f in faces for v in f})
    index = {v: i for i, v in enumerate(used)}
    return Mesh(pts[used], [[index[v] for v in f] for f in faces]), np.array(used)


def assert_matches_face_count(complex_, kept):
    mesh, used = extract_boundary_faces(complex_, kept)
    ref, ref_used = face_count_boundary(complex_, kept)
    np.testing.assert_array_equal(mesh.faces, ref.faces)
    np.testing.assert_array_equal(mesh.vertices, ref.vertices)
    np.testing.assert_array_equal(used, ref_used)


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
        assert filter_tetrahedra(complex_, 0.5).shape == (0,)

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
        kept = [set(filter_tetrahedra(complex_, tau).tolist()) for tau in taus]
        for small, big in zip(kept, kept[1:]):
            assert small <= big


class TestExtractBoundary:
    def test_single_tetrahedron(self):
        complex_ = complex_from_quads(REGULAR_TETRA, [[0, 1, 2, 3]])
        mesh, used = extract_boundary_faces(complex_, np.array([0]))
        assert mesh.num_faces == 4
        assert topology(mesh).chi == 2
        assert len(topology(mesh).boundary_edges) == 0
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
        complex_ = complex_from_quads(pts, [[0, 1, 2, 3], [0, 1, 2, 4]])
        mesh, _ = extract_boundary_faces(complex_, np.array([0, 1]))
        assert mesh.num_faces == 6
        assert topology(mesh).chi == 2

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

        mesh, used = extract_boundary_faces(complex_from_quads(corners, quads),
                                            np.arange(6))
        got = {tuple(sorted(used[list(f)])) for f in mesh.faces.tolist()}
        assert got == expected_boundary
        assert topology(mesh).chi == 2
        assert enclosed_volume(mesh) == pytest.approx(1.0)

    def test_empty_selection(self):
        with pytest.raises(EmptySelection):
            extract_boundary_faces(complex_from_quads(REGULAR_TETRA, [[0, 1, 2, 3]]),
                                   np.zeros(0, dtype=np.int64))

    def test_grid_with_dropped_slivers_matches_face_count(self):
        complex_ = delaunay_complex(GRID_3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            kept = np.flatnonzero(rng.random(len(complex_)) < rng.random())
            if len(kept):
                assert_matches_face_count(complex_, kept)
        assert_matches_face_count(complex_, np.arange(len(complex_)))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 150),
           tau=st.floats(0.02, 2.0))
    def test_random_clouds_match_face_count(self, seed, n, tau):
        complex_ = delaunay_complex(np.random.default_rng(seed).random((n, 3)))
        kept = filter_tetrahedra(complex_, tau)
        if len(kept):
            assert_matches_face_count(complex_, kept)


class TestBoundaryMeshes:
    def test_one_complex_serves_every_tau(self):
        cloud, _ = synth(SyntheticSpec("torus", n=600, fill="solid", seed=21))
        taus = (1e-9, 0.15, 0.3, 0.9)
        meshes = boundary_meshes(delaunay_complex(cloud), taus)
        assert meshes[0] is None
        for tau, mesh in zip(taus[1:], meshes[1:]):
            ref = triangulate(cloud, tau)
            np.testing.assert_array_equal(mesh.faces, ref.faces)
            np.testing.assert_array_equal(mesh.vertices, ref.vertices)


class TestTriangulate:
    def test_sphere_cloud_closed_genus_zero(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=2000, fill="solid", seed=11))
        mesh = triangulate(cloud, 0.3)
        assert topology(mesh).chi == 2
        assert len(topology(mesh).boundary_edges) == 0

    def test_torus_cloud_closed_genus_one(self):
        cloud, _ = synth(SyntheticSpec("torus", n=2000, fill="solid", seed=12))
        mesh = triangulate(cloud, 0.3)
        assert topology(mesh).chi == 0
        assert len(topology(mesh).boundary_edges) == 0

    def test_tiny_tau_empties_mesh(self):
        """The error names the least radius exactly, and that tau keeps a
        tetrahedron."""
        cloud, _ = synth(SyntheticSpec("sphere", n=200, fill="solid", seed=13))
        with pytest.raises(EmptyMesh, match="removed all") as info:
            triangulate(cloud, 1e-9)
        least = float(str(info.value).rpartition(" ")[2])
        assert least == delaunay_complex(cloud).radii.min()
        assert triangulate(cloud, least).num_faces > 0

    def test_huge_tau_gives_convex_hull(self):
        from scipy.spatial import ConvexHull
        cloud, _ = synth(SyntheticSpec("torus", n=500, fill="solid", seed=14))
        complex_ = delaunay_complex(cloud)
        tau = complex_.radii.max() + 1.0
        kept = filter_tetrahedra(complex_, tau)
        mesh, used = extract_boundary_faces(complex_, kept)
        assert topology(mesh).chi == 2
        assert len(topology(mesh).boundary_edges) == 0
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
        bad = topology(mesh).nonmanifold_edges
        assert len(bad) == 3
        assert topology(mesh).chi == -3
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
