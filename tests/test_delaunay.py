import hashlib
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, Delaunay, QhullError

from alphaforge import PointCloud, SyntheticSpec, delaunay, delaunay_complex, synth
from alphaforge.delaunay import ORIENTATION_TOL
from alphaforge.errors import DegenerateInput, TooFewPoints

REGULAR_TETRA = np.array([
    [1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0],
]) / np.sqrt(8)  # edge length 1


class CoplanarQuadruple(ValueError):
    """The four points are coplanar within ORIENTATION_TOL."""


def circumsphere(p0, p1, p2, p3):
    """Oracle: circumcenter and circumradius of one tetrahedron, by solving
    the equidistance equations in a frame translated to p0 for
    conditioning. Raises CoplanarQuadruple where the complex drops the
    tetrahedron as flat."""
    p0 = np.asarray(p0, dtype=np.float64)
    A = np.stack([np.asarray(p, dtype=np.float64) - p0 for p in (p1, p2, p3)])
    scale = np.linalg.norm(A, axis=1).max()
    if scale == 0.0 or abs(np.linalg.det(A)) <= ORIENTATION_TOL * scale**3:
        raise CoplanarQuadruple("coplanar quadruple: circumsphere undefined")
    local = np.linalg.solve(A, 0.5 * (A * A).sum(axis=1))
    return p0 + local, float(np.linalg.norm(local))


def hull_volume_oracle(points):
    """Divergence-theorem volume over outward-oriented hull facets."""
    hull = ConvexHull(points)
    tri = points[hull.simplices]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    flip = np.einsum("ij,ij->i", normals, hull.equations[:, :3]) < 0
    tri[flip] = tri[flip][:, [0, 2, 1]]
    return np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0


def circumcenters(points, simplices):
    """Oracle: every row's circumcentre at once, by solving its 3x3 edge
    system edges @ (center - p0) = |edges|^2 / 2 from its first corner."""
    p0 = points[simplices[:, 0]]
    edges = points[simplices[:, 1:]] - p0[:, None, :]
    rhs = 0.5 * (edges**2).sum(axis=2)
    return p0 + np.linalg.solve(edges, rhs[..., None])[..., 0]


def empty_circumsphere_violations(points, complex_):
    """Oracle: points strictly inside any circumsphere (1e-9 relative
    slack), each sphere the oracle's centre with the complex's radius."""
    simplices = complex_.simplices
    centers = circumcenters(points, simplices)
    dist = np.linalg.norm(points[None, :, :] - centers[:, None, :], axis=2)
    inside = dist < complex_.radii[:, None] * (1.0 - 1e-9)
    inside[np.arange(len(simplices))[:, None], simplices] = False
    return int(inside.sum())


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
        with pytest.raises(CoplanarQuadruple):
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
            except CoplanarQuadruple:
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
        assert complex_.radii.shape == (len(complex_),)
        radii = complex_.radii
        assert (radii > 0).all() and np.isfinite(radii).all()
        # every corner lies on the oracle's sphere of the complex's radius
        centers = circumcenters(pts, complex_.simplices)
        dist = np.linalg.norm(pts[complex_.simplices] - centers[:, None, :], axis=2)
        assert (np.abs(dist - radii[:, None]).max(axis=1) < 1e-7 * radii).all()
        # the batched radii agree with the scalar reference
        for quad, radius in zip(complex_.simplices, radii):
            assert radius == pytest.approx(circumsphere(*pts[quad])[1], rel=1e-9)

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

    @pytest.mark.parametrize("spec, pins", [
        pytest.param(SyntheticSpec("torus", n=3000, fill="solid", seed=2), (
            "7b3f6a9f1e4e9ecc069fae37ae40fae5aafcaaa9cda772a1804eec57d0c9a319",
            "14a6492061297bf3549838d2ae3538250c289da336b2058da2a35e539516626c",
            "ed64402c1ab93389fe4b32c5217d61ddcb0f011af27e698e71a9a8aeed80ac68",
        ), id="solid-torus"),
        pytest.param(SyntheticSpec("torus", n=1000, fill="solid", seed=100,
                                   minor_radius=0.25), (
            "42dac64a46b84dfeb10232b1fae3afa8ad77d0b5c4e9d17b5e9ba9ad86b2d1fc",
            "3896d4773f506528fe759643cc37a5ee762f46f6a4084df4a22af72f559460e5",
            "39e3ae99d7eb6883b21672df075907ce54ae888fd96e6cd349524a624174a8ef",
        ), id="policy-torus"),
        pytest.param(SyntheticSpec("sphere", n=80, fill="solid", seed=200,
                                   major_radius=0.8), (
            "0ac32b65e4e50e516f18b66520a9f92ab6d3a8eb12af86c7dc6b39dbf843a619",
            "f58c6c6de26805c5140ca0dd347e40e22a4eaedbde86dabad8f1f1d039f7bf54",
            "7dceaf049b49833d18c63b502bde47715fc98c0292ea7a282c5e85c46f913ee9",
        ), id="policy-sphere"),
    ])
    def test_complex_bytes_pinned(self, spec, pins):
        """SHA-256 of the simplices, radii and neighbours. Every threshold's
        mesh is read off these arrays. Adding the circumradius pass's dot
        products in another order changes 43 % of the solid torus's radii,
        and no value-level check sees it."""
        complex_ = delaunay_complex(synth(spec)[0])
        got = tuple(hashlib.sha256(getattr(complex_, name).tobytes()).hexdigest()
                    for name in ("simplices", "radii", "neighbors"))
        assert got == pins


class TestBlocks:
    @pytest.mark.parametrize("points", [
        pytest.param(GRID_3, id="grid"),
        *(pytest.param(np.random.default_rng(seed).random((n, 3)), id=f"random-{n}")
          for seed, n in [(0, 30), (1, 300), (2, 1000)]),
    ])
    def test_blocks_are_exact(self, points, monkeypatch):
        """Blocks of 7 rows, the last one short, give the radii and flags of
        one block, byte for byte; on the grid, flat (NaN) rows fall in
        several blocks."""
        simplices = np.sort(Delaunay(points).simplices, axis=1).astype(np.int64)
        assert len(simplices) % 7
        monkeypatch.setattr(delaunay, "BLOCK_ROWS", len(simplices))
        radii, ok = delaunay._batch_circumspheres(points, simplices)
        monkeypatch.setattr(delaunay, "BLOCK_ROWS", 7)
        block_radii, block_ok = delaunay._batch_circumspheres(points, simplices)
        assert block_radii.tobytes() == radii.tobytes()
        assert block_ok.tobytes() == ok.tobytes()
        if points is GRID_3:
            assert len(np.unique(np.flatnonzero(~ok) // 7)) > 1

    def test_peak_memory_is_the_complex_and_one_block(self):
        """Traced peak of building the complex of a 10k-point solid torus
        (65,588 tetrahedra): 10.6 MiB with 4096-row blocks, SciPy's object
        dropped first and no circumcentres. A (T, 3) float array takes
        1.5 MiB, so one more breaks the bound: stored circumcentres took
        the peak to 13.4 MiB, full-length temporaries to 31.2 MiB."""
        cloud = synth(SyntheticSpec("torus", n=10000, fill="solid", seed=1))[0]
        tracemalloc.start()
        try:
            delaunay_complex(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20


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
