import hashlib
import tracemalloc
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from alphaforge import (
    LossWeights,
    Mesh,
    PointCloud,
    icosphere,
    laplacian_coords,
    loss_plan,
    sample_surface,
    smooth_weights,
    subdivide,
    total_loss,
)
from alphaforge.errors import (
    EmptyCloud,
    IsolatedVertex,
    MissingNormals,
    NoEdges,
    VertexCountMismatch,
)
import alphaforge.loss
from alphaforge.loss import (
    _chamfer_grad,
    _chamfer_value,
    _log_chamfer_grad,
    _log_chamfer_value,
    _match,
    _Match,
    _NeighborList,
    _normal_cosines,
    _scatter,
    FIXED_CANDIDATES,
    LOG_CHAMFER_MU,
    REVERSE_CANDIDATES,
)
import oracles
from conftest import random_rotation


def cloud(arr, normals=None):
    return PointCloud(np.asarray(arr, dtype=float), normals)


def fd_cloud_grad(fn, p, q, h=1e-6):
    g = np.zeros_like(p.points)
    for i in range(len(p)):
        for d in range(3):
            plus = p.points.copy()
            plus[i, d] += h
            minus = p.points.copy()
            minus[i, d] -= h
            g[i, d] = (fn(cloud(plus, p.normals), q)
                       - fn(cloud(minus, p.normals), q)) / (2 * h)
    return g


def oracle_match(p, q):
    """The loss's correspondence record, filled from the oracle's match."""
    return _Match(*oracles.nearest(p.points, q.points), *oracles.nearest(q.points, p.points))


def cmd(p, q):
    """The Chamfer of P and Q from the oracle, and from the loss's term
    helper on the oracle's match."""
    return oracles.chamfer(p, q), _chamfer_value(oracle_match(p, q))


def log_cmd(p, q, mu):
    """The log-Chamfer from the oracle and from the loss's term helper."""
    return oracles.log_chamfer(p, q, mu), _log_chamfer_value(oracle_match(p, q), mu)


def normal_loss(p, q):
    """The normal loss from the oracle and from the loss's term helper."""
    return oracles.normal_loss(p, q), _normal_cosines(p.normals, q.normals, oracle_match(p, q))[0]


ORIGIN = PointCloud(np.zeros((1, 3)))


def one_term(mesh, field, baseline=None, **weights):
    """Value of one term of ``total_loss`` on a plan that weights only it."""
    w = LossWeights(**{"lambda1": 0.0, "lambda2": 0.0, **weights})
    breakdown, _ = total_loss(mesh, loss_plan(mesh, ORIGIN, baseline, w, 1, seed=0))
    return getattr(breakdown, field)


class TestNearestNeighbors:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 60),
           n_b=st.integers(1, 100), on_grid=st.booleans())
    def test_matches_argmin_oracle(self, seed, n_a, n_b, on_grid):
        """Targets of 1 to 100 points; on a half-unit grid, many queries are
        equidistant from several targets or coincide with one, and any
        nearest target is a valid answer."""
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_a, 3))
        b = rng.normal(size=(n_b, 3))
        if on_grid:
            a, b = np.round(2 * a) / 2, np.round(2 * b) / 2
        _, want = oracles.nearest(a, b)
        _, want_rev = oracles.nearest(b, a)
        for tree in (None, cKDTree(b)):
            m = _match(a, b, tree)
            for x, y, idx, d2, w in ((a, b, m.idx_pq, m.d2_pq, want),
                                     (b, a, m.idx_qp, m.d2_qp, want_rev)):
                np.testing.assert_allclose(d2, w, rtol=1e-12, atol=0)
                np.testing.assert_allclose(((x - y[idx]) ** 2).sum(axis=1), w,
                                           rtol=1e-12, atol=0)

    def test_empty_cloud_raises(self):
        a = np.zeros((2, 3))
        with pytest.raises(EmptyCloud, match="P is empty"):
            _match(a[:0], a)
        with pytest.raises(EmptyCloud, match="Q is empty"):
            _match(a, a[:0])


def nudged(x, move, rng):
    """x after one move of a random 70 % of its rows: by a few ulps
    ("ulp"), by a normal step of the given size, or, for "jump", all rows
    translated by more than the clouds' diameter."""
    if move == "jump":
        return x + (np.ptp(x, axis=0).max() + 1.0) * np.array([0.6, 0.0, 0.8])
    scale = np.spacing(np.abs(x)) * rng.integers(0, 3, x.shape) if move == "ulp" else move
    return x + scale * (rng.random(len(x)) < 0.7)[:, None] * rng.normal(size=x.shape)


class TestNeighborList:
    @pytest.mark.parametrize("moving", ["rows", "b", "both"])
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 60),
           n_b=st.integers(1, 40), n_dup=st.integers(0, 10),
           on_grid=st.booleans(),
           k=st.sampled_from([FIXED_CANDIDATES, REVERSE_CANDIDATES]),
           moves=st.lists(st.sampled_from(["ulp", 0.0, 1e-9, 1e-5, 1e-4, 1e-2, 0.3,
                                           3.0, "jump"]),
                          min_size=1, max_size=8))
    @example(seed=1, n_a=30, n_b=1, n_dup=5, on_grid=False, k=REVERSE_CANDIDATES,
             moves=[1e-2, "jump", 0.3])
    @example(seed=2, n_a=30, n_b=2, n_dup=1, on_grid=True, k=REVERSE_CANDIDATES,
             moves=[0.0, 1e-9, 1e-4, "jump"])
    @example(seed=3, n_a=40, n_b=7, n_dup=3, on_grid=True, k=FIXED_CANDIDATES,
             moves=[1e-9, 1e-4, 1e-2, 0.3])
    @example(seed=4, n_a=50, n_b=40, n_dup=10, on_grid=False, k=REVERSE_CANDIDATES,
             moves=[0.0, 1e-9, 1e-4, 1e-2, 0.3, "jump", 1e-4])
    @example(seed=5, n_a=60, n_b=40, n_dup=4, on_grid=False, k=REVERSE_CANDIDATES,
             moves=["ulp", 1e-9, 1e-4] * 20)
    def test_matches_a_fresh_query_after_every_move(self, moving, seed, n_a, n_b, n_dup,
                                                    on_grid, k, moves):
        """Rows of a and points of b, on a half-unit grid or not; b with
        duplicates (gap 0) and, while it moves, rows that stay exact copies
        of others (ties); half the rows on or just off the bisector plane of
        a pair of b (near-ties). Then steps that move the rows, b or both by
        a few ulps, by 0 to 3, or by a jump past the clouds' diameter. Every
        call gives the indices and squared-distance bytes of a fresh k=1
        query of a tree over b; a list over a b that stays put keeps the
        tree it was given."""
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(n_b, 3))
        b[rng.integers(0, n_b, n_dup)] = b[rng.integers(0, n_b, n_dup)]
        a = rng.normal(size=(n_a, 3))
        if on_grid:
            a, b = np.round(2 * a) / 2, np.round(2 * b) / 2
        i, j = rng.integers(0, n_b, (2, n_a))
        axis = b[j] - b[i]
        length2 = np.maximum((axis**2).sum(axis=1), 1e-300)  # i == j gives a zero axis
        along = ((a - (b[i] + b[j]) / 2) * axis).sum(axis=1) / length2
        offset = rng.choice([0.0, 1e-15, -1e-15, 1e-9, -1e-9], n_a)
        tie = rng.random(n_a) < 0.5
        a[tie] -= ((along - offset)[:, None] * axis)[tie]
        copies, originals = rng.integers(0, n_b, (2, n_dup))
        tree = cKDTree(b) if moving == "rows" else None
        neighbors = _NeighborList(n_a, n_b, k, tree)
        for move in [0.0, *moves]:
            if moving != "b":
                a = nudged(a, move, rng)
            if moving != "rows":
                b = nudged(b, move, rng)
                b[copies] = b[originals]
            idx, d2 = neighbors(a, b)
            dist, want = cKDTree(b).query(a, k=1)
            np.testing.assert_array_equal(idx, want)
            assert d2.tobytes() == (dist**2).tobytes()
        if tree is not None:
            assert neighbors.tree is tree

    def test_rounding_margin_on_the_bisector(self):
        """2000 rows on the bisector plane of two points of b, moved by a
        few ulps at a time, with one candidate each (with both, every
        distance would be exact): the tree's distances differ by rounding
        only, and a certificate without a margin for it keeps a neighbor
        the tree no longer returns."""
        rng = np.random.default_rng(0)
        b = rng.normal(size=(2, 3))
        axis = b[1] - b[0]
        a = rng.normal(size=(2000, 3))
        a -= ((a - b.mean(axis=0)) @ axis / (axis @ axis))[:, None] * axis
        tree = cKDTree(b)
        neighbors = _NeighborList(len(a), len(b), 1, tree)
        for _ in range(4):
            idx, d2 = neighbors(a, b)
            dist, want = tree.query(a, k=1)
            np.testing.assert_array_equal(idx, want)
            assert d2.tobytes() == (dist**2).tobytes()
            a = a + rng.normal(size=a.shape) * np.spacing(np.abs(a)) * rng.integers(0, 3, a.shape)

    @pytest.mark.parametrize("seed", range(3))
    def test_rounding_margin_on_a_sphere_of_samples(self, seed):
        """2000 targets a few ulps apart at the centre of a unit sphere of 40
        samples, a few of which move by a few ulps at a time: every sample
        is within rounding of every candidate's distance, and a certificate
        without a margin for it keeps a neighbor the tree no longer
        returns."""
        rng = np.random.default_rng(seed)
        centre = rng.normal(size=3)
        targets = centre + np.spacing(np.abs(centre)) * rng.integers(-4, 5, (2000, 3))
        directions = rng.normal(size=(40, 3))
        samples = centre + directions / np.linalg.norm(directions, axis=1, keepdims=True)
        neighbors = _NeighborList(len(targets), len(samples), REVERSE_CANDIDATES)
        for _ in range(8):
            idx, d2 = neighbors(targets, samples)
            dist, want = cKDTree(samples).query(targets, k=1)
            np.testing.assert_array_equal(idx, want)
            assert d2.tobytes() == (dist**2).tobytes()
            moving = rng.random(len(samples)) < 0.05
            samples = samples + (moving[:, None] * rng.normal(size=samples.shape)
                                 * np.spacing(np.abs(samples)) * rng.integers(0, 3, samples.shape))

    def test_drift_sums_every_move_of_b(self):
        """One row, and a point of b walking toward it in steps smaller than
        the gap between the row's two candidates: only the sum of the steps,
        not the last one, tells the row that the walker may have come nearer
        than its nearest candidate."""
        a = np.zeros((1, 3))
        b = np.array([[1.0, 0.0, 0.0], [0.0, 1.2, 0.0], [0.0, 0.0, 2.0]])
        neighbors = _NeighborList(1, 3, FIXED_CANDIDATES)
        for _ in range(15):
            idx, d2 = neighbors(a, b)
            dist, want = cKDTree(b).query(a, k=1)
            np.testing.assert_array_equal(idx, want)
            assert d2.tobytes() == (dist**2).tobytes()
            b = b.copy()
            b[2, 2] -= 0.1

    def test_memory_stays_flat_while_b_moves(self):
        """1500 targets in a solid unit ball against 1500 samples on the
        unit sphere, which move by the same small step at every call, as
        refinement's target -> samples list sees them: the memory the loss
        module holds after 200 calls is no more than after 20, since the
        list keeps no copy of b but the current one."""
        rng = np.random.default_rng(0)
        targets = rng.normal(size=(1500, 3))
        targets *= rng.random((1500, 1)) ** (1 / 3) / np.linalg.norm(targets, axis=1, keepdims=True)
        samples = rng.normal(size=(1500, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        step = 1e-4 * rng.normal(size=samples.shape)
        neighbors = _NeighborList(len(targets), len(samples), REVERSE_CANDIDATES)
        in_loss = [tracemalloc.Filter(True, alphaforge.loss.__file__)]
        held = {}
        tracemalloc.start()
        try:
            for call in range(1, 201):
                samples = samples + step
                neighbors(targets, samples)
                if call in (20, 200):
                    traces = tracemalloc.take_snapshot().filter_traces(in_loss).traces
                    held[call] = sum(trace.size for trace in traces)
        finally:
            tracemalloc.stop()
        assert held[200] <= held[20]


class TestChamfer:
    def test_self_distance_zero(self):
        p = cloud([[0, 0, 0], [1, 2, 3]])
        assert cmd(p, p) == (0.0, 0.0)

    def test_unit_separation(self):
        assert cmd(cloud([[0, 0, 0]]), cloud([[1, 0, 0]])) == pytest.approx((2.0, 2.0))

    def test_hand_computed_asymmetric(self):
        # (1 + 1)/2 toward Q, plus 1 from Q's single point
        p = cloud([[0, 0, 0], [2, 0, 0]])
        q = cloud([[1, 0, 0]])
        assert cmd(p, q) == pytest.approx((2.0, 2.0))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        p, q = cloud(rng.random((15, 3))), cloud(rng.random((9, 3)))
        assert cmd(p, q) == pytest.approx(cmd(q, p), rel=1e-15)

    def test_empty_raises(self, single_triangle):
        with pytest.raises(EmptyCloud):
            loss_plan(single_triangle, cloud(np.zeros((0, 3))), None,
                      LossWeights(lambda1=0, lambda2=1), 10, seed=0)


class TestChamferGrad:
    def test_matched_zero(self):
        p = cloud([[0, 0, 0], [1, 1, 1]])
        np.testing.assert_array_equal(_chamfer_grad(p.points, p.points, oracle_match(p, p)), 0.0)

    def test_singletons(self):
        p, q = cloud([[0, 0, 0]]), cloud([[1, 0, 0]])
        g = _chamfer_grad(p.points, q.points, oracle_match(p, q))
        np.testing.assert_allclose(g, [[-4.0, 0.0, 0.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        p, q = cloud(rng.random((20, 3))), cloud(rng.random((20, 3)))
        g = _chamfer_grad(p.points, q.points, oracle_match(p, q))
        gfd = fd_cloud_grad(oracles.chamfer, p, q)
        assert np.linalg.norm(g - gfd) / np.linalg.norm(gfd) < 1e-5


class TestLogChamfer:
    def test_identical_singletons(self):
        p = cloud([[0, 0, 0]])
        assert log_cmd(p, p, 1e-4) == pytest.approx((-8.0, -8.0))

    def test_unit_separation(self):
        val = log_cmd(cloud([[0, 0, 0]]), cloud([[1, 0, 0]]), 1e-4)
        assert val == pytest.approx((2 * np.log10(1.0001),) * 2, rel=1e-12)

    def test_identical_clouds_collapse(self):
        rng = np.random.default_rng(1)
        p = cloud(rng.random((17, 3)))
        assert log_cmd(p, p, 1e-4) == pytest.approx((2 * 17 * np.log10(1e-4),) * 2)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        p, q = cloud(rng.random((8, 3))), cloud(rng.random((11, 3)))
        assert log_cmd(p, q, 1e-3) == pytest.approx(log_cmd(q, p, 1e-3))


class TestLogChamferGrad:
    def test_matched_zero(self):
        p = cloud([[0.5, 0.5, 0.5]])
        g = _log_chamfer_grad(p.points, p.points, oracle_match(p, p), 1e-4)
        np.testing.assert_array_equal(g, 0.0)

    def test_magnitude_decreases_with_distance(self):
        mags = []
        for d in (0.1, 1.0, 10.0):
            p, q = cloud([[0, 0, 0]]), cloud([[d, 0, 0]])
            g = _log_chamfer_grad(p.points, q.points, oracle_match(p, q), 1e-4)
            mags.append(np.linalg.norm(g))
        assert mags[0] > mags[1] > mags[2]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(22)
        p, q = cloud(rng.random((20, 3))), cloud(rng.random((20, 3)))
        g = _log_chamfer_grad(p.points, q.points, oracle_match(p, q), 1e-4)
        gfd = fd_cloud_grad(lambda a, b: oracles.log_chamfer(a, b, 1e-4), p, q)
        assert np.linalg.norm(g - gfd) / np.linalg.norm(gfd) < 1e-5


def flat_grid_mesh(n=5):
    xs, ys = np.meshgrid(np.arange(n), np.arange(n))
    verts = np.c_[xs.ravel(), ys.ravel(), np.zeros(n * n)].astype(float)
    faces = []
    for i in range(n - 1):
        for j in range(n - 1):
            a = i * n + j
            faces.append((a, a + 1, a + n))
            faces.append((a + 1, a + n + 1, a + n))
    return Mesh(verts, np.array(faces))


class TestLaplacianCoords:
    def test_flat_grid_interior_harmonic(self):
        mesh = flat_grid_mesh(5)
        lo = laplacian_coords(mesh)
        interior = [i * 5 + j for i in range(1, 4) for j in range(1, 4)]
        assert np.linalg.norm(lo[interior], axis=1).max() < 1e-9

    def test_regular_tetra_matches_direct_summation(self, tetra_mesh):
        lo = laplacian_coords(tetra_mesh)
        # oracle: accumulate w_ij (v_i - v_j) by direct angle evaluation
        v = tetra_mesh.vertices
        for i in range(4):
            acc = np.zeros(3)
            for j in range(4):
                if j == i:
                    continue
                cots = []
                for k in range(4):
                    if k in (i, j):
                        continue
                    u, w = v[i] - v[k], v[j] - v[k]
                    cots.append((u @ w) / np.linalg.norm(np.cross(u, w)))
                acc += 0.5 * sum(cots) * (v[i] - v[j])
            np.testing.assert_allclose(lo[i], acc, atol=1e-12)
            # collinear with the vertex-centroid axis (centroid at origin)
            cosang = lo[i] @ v[i] / (np.linalg.norm(lo[i]) * np.linalg.norm(v[i]))
            assert abs(abs(cosang) - 1.0) < 1e-12

    def test_isolated_vertex_raises(self):
        mesh = Mesh(np.vstack([np.eye(3), [5.0, 5.0, 5.0]]), np.array([[0, 1, 2]]))
        with pytest.raises(IsolatedVertex):
            laplacian_coords(mesh)


def laplacian_reg(mesh, baseline):
    return one_term(mesh, "laplacian_reg", baseline, lambda3=1.0)


class TestLaplacianReg:
    def test_identical_meshes_zero(self, tetra_mesh):
        assert laplacian_reg(tetra_mesh, tetra_mesh) == 0.0

    def test_displaced_vertex_matches_direct_sum(self, tetra_mesh):
        moved = tetra_mesh.vertices.copy()
        moved[0] += [0.05, -0.02, 0.04]
        m = tetra_mesh.with_vertices(moved)
        expected = oracles.laplacian_reg(m, tetra_mesh)
        assert laplacian_reg(m, tetra_mesh) == pytest.approx(expected, rel=1e-12)

    def test_vertex_count_mismatch(self, tetra_mesh, single_triangle):
        with pytest.raises(VertexCountMismatch):
            laplacian_reg(tetra_mesh, single_triangle)


def normal_consistency(mesh):
    return one_term(mesh, "normal_consistency", lambda5=1.0)


class TestNormalConsistency:
    def test_coplanar_pair_zero(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0], [0.0, 1, 0]]),
                    np.array([[0, 1, 2], [0, 2, 3]]))
        assert normal_consistency(mesh) == pytest.approx(0.0, abs=1e-15)

    def test_right_dihedral_is_one(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]]),
                    np.array([[0, 1, 2], [0, 3, 1]]))
        assert normal_consistency(mesh) == pytest.approx(1.0)

    def test_cube_matches_pair_enumeration(self):
        from alphaforge.synth import box_mesh
        mesh = box_mesh(1.0)
        normals = oracles.face_normals(mesh)
        # oracle: enumerate shared edges quadratically
        edges = {}
        total = 0.0
        pairs = 0
        for fi, (a, b, c) in enumerate(mesh.faces.tolist()):
            for e in (frozenset((a, b)), frozenset((b, c)), frozenset((c, a))):
                if e in edges:
                    total += 1.0 - normals[edges[e]] @ normals[fi]
                    pairs += 1
                else:
                    edges[e] = fi
        assert pairs == 18
        assert normal_consistency(mesh) == pytest.approx(total, rel=1e-12)


    def test_nonmanifold_edge_pairs_every_face(self):
        # three faces share edge (0, 1): each of the three pairs is adjacent
        verts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, 1, 0], [0.5, -1, 0.2],
                          [0.5, 0.3, 1]])
        mesh = Mesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
        n = oracles.face_normals(mesh)
        expected = sum(1.0 - n[a] @ n[b] for a, b in ((0, 1), (0, 2), (1, 2)))
        assert normal_consistency(mesh) == pytest.approx(expected, rel=1e-12)


class TestNormalLoss:
    def test_identical_zero(self):
        rng = np.random.default_rng(5)
        n = rng.normal(size=(10, 3))
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        p = cloud(rng.random((10, 3)), n)
        assert normal_loss(p, p) == pytest.approx((0.0, 0.0))

    def test_perpendicular_is_one(self):
        p = cloud([[0, 0, 0], [1, 0, 0]], np.array([[0.0, 0, 1], [0.0, 0, 1]]))
        q = cloud([[0, 0, 0], [1, 0, 0]], np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        assert normal_loss(p, q) == pytest.approx((1.0, 1.0))

    def test_orientation_flip_ignored(self):
        p = cloud([[0, 0, 0]], np.array([[0.0, 0, 1]]))
        q = cloud([[0, 0, 0]], np.array([[0.0, 0, -1]]))
        assert normal_loss(p, q) == pytest.approx((0.0, 0.0))

    def test_matches_quadratic_scan_oracle(self):
        rng = np.random.default_rng(6)
        def rand_cloud(n):
            m = rng.normal(size=(n, 3))
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            return cloud(rng.random((n, 3)), m)
        p, q = rand_cloud(13), rand_cloud(9)
        d2 = ((p.points[:, None] - q.points[None]) ** 2).sum(axis=2)
        fwd = d2.argmin(axis=1)
        rev = d2.argmin(axis=0)
        total = (1 - np.abs(np.einsum("ij,ij->i", p.normals, q.normals[fwd]))).sum()
        total += (1 - np.abs(np.einsum("ij,ij->i", p.normals[rev], q.normals))).sum()
        assert normal_loss(p, q) == pytest.approx((total / (13 + 9),) * 2, rel=1e-12)

    def test_missing_normals(self, single_triangle):
        with pytest.raises(MissingNormals):
            loss_plan(single_triangle, cloud([[0, 0, 0]]), None,
                      LossWeights(lambda6=1.0), 10, seed=0)


def edge_length_reg(mesh):
    return one_term(mesh, "edge_len", lambda4=1.0)


class TestEdgeLength:
    def test_unit_triangle(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.5, np.sqrt(3) / 2, 0]]),
                    np.array([[0, 1, 2]]))
        assert edge_length_reg(mesh) == pytest.approx(1.0)

    def test_coincident_vertices_zero(self):
        mesh = Mesh(np.zeros((3, 3)), np.array([[0, 1, 2]]))
        assert edge_length_reg(mesh) == 0.0

    def test_matches_brute_force(self, tetra_mesh):
        v = tetra_mesh.vertices
        edges = set()
        for a, b, c in tetra_mesh.faces.tolist():
            edges |= {frozenset((a, b)), frozenset((b, c)), frozenset((c, a))}
        expected = np.mean([((v[i] - v[j]) ** 2).sum() for i, j in map(tuple, edges)])
        assert edge_length_reg(tetra_mesh) == pytest.approx(expected, rel=1e-12)

    def test_no_edges(self):
        with pytest.raises(NoEdges):
            edge_length_reg(Mesh(np.zeros((3, 3))))


class TestTotalLoss:
    def setup_method(self):
        rng = np.random.default_rng(33)
        self.mesh = icosphere(1)
        self.noisy = self.mesh.with_vertices(
            self.mesh.vertices + 0.03 * rng.normal(size=self.mesh.vertices.shape))
        self.gt = sample_surface(icosphere(2), 400, seed=7)

    def evaluate(self, w, base=None):
        return total_loss(self.noisy, loss_plan(self.noisy, self.gt, base, w, 300, seed=5))

    def test_cmd_only_equals_sampled_chamfer(self):
        w = LossWeights(lambda1=0, lambda2=1)
        breakdown, _ = self.evaluate(w)
        samples = sample_surface(self.noisy, 300, seed=5)
        assert breakdown.total == pytest.approx(oracles.chamfer(samples, self.gt), rel=1e-12)
        assert breakdown.logcmd == 0.0

    def test_total_is_weighted_sum_of_terms(self):
        w = smooth_weights()
        b, _ = self.evaluate(w, self.mesh)
        expected = (w.lambda1 * b.logcmd + w.lambda2 * b.cmd
                    + w.lambda3 * b.laplacian_reg + w.lambda4 * b.edge_len
                    + w.lambda5 * b.normal_consistency + w.lambda6 * b.normal_loss)
        assert b.total == pytest.approx(expected, rel=1e-12)
        # cross-check each term against its oracle
        samples = sample_surface(self.noisy, 300, seed=5)
        assert b.cmd == pytest.approx(oracles.chamfer(samples, self.gt), rel=1e-12)
        assert b.logcmd == pytest.approx(
            oracles.log_chamfer(samples, self.gt, LOG_CHAMFER_MU), rel=1e-12)
        assert b.laplacian_reg == pytest.approx(
            oracles.laplacian_reg(self.noisy, self.mesh), rel=1e-12)
        assert b.edge_len == pytest.approx(oracles.edge_length_reg(self.noisy), rel=1e-12)
        assert b.normal_consistency == pytest.approx(
            oracles.normal_consistency(self.noisy), rel=1e-12)
        assert b.normal_loss == pytest.approx(
            oracles.normal_loss(samples, self.gt), rel=1e-12)

    def test_smooth_preset_values(self):
        w = smooth_weights()
        assert (w.lambda2, w.lambda4, w.lambda3, w.lambda5, w.lambda6) == \
            (1.0, 0.15, 0.5, 1e-3, 1e-4)

    def test_zero_weights_zero_gradient(self):
        w = LossWeights(lambda1=0, lambda2=0)
        _, g = self.evaluate(w)
        np.testing.assert_array_equal(g, 0.0)


class TestTotalLossGrad:
    def fd(self, mesh, plan, h=1e-6):
        """Central differences of the plan's frozen-sample objective, the
        one refinement descends."""
        g = np.zeros_like(mesh.vertices)
        for i in range(mesh.num_vertices):
            for d in range(3):
                vp = mesh.vertices.copy()
                vp[i, d] += h
                vm = mesh.vertices.copy()
                vm[i, d] -= h
                fp = total_loss(mesh.with_vertices(vp), plan)[0].total
                fm = total_loss(mesh.with_vertices(vm), plan)[0].total
                g[i, d] = (fp - fm) / (2 * h)
        return g

    def test_cmd_only_small_mesh(self):
        rng = np.random.default_rng(40)
        mesh = Mesh(rng.random((10, 3)) + [0, 0, 1],
                    np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8], [1, 2, 9]]))
        gt = cloud(rng.random((30, 3)))
        w = LossWeights(lambda1=0, lambda2=1)
        plan = loss_plan(mesh, gt, None, w, 200, seed=3)
        _, g = total_loss(mesh, plan)
        gfd = self.fd(mesh, plan)
        assert np.linalg.norm(g - gfd) / np.linalg.norm(gfd) < 1e-4

    def test_full_smooth_weights(self):
        rng = np.random.default_rng(41)
        mesh = icosphere(0)  # 12 vertices
        noisy = mesh.with_vertices(mesh.vertices + 0.05 * rng.normal(size=(12, 3)))
        gt = sample_surface(icosphere(1), 200, seed=9)
        w = smooth_weights()
        plan = loss_plan(noisy, gt, mesh, w, 150, seed=4)
        _, g = total_loss(noisy, plan)
        gfd = self.fd(noisy, plan)
        assert np.linalg.norm(g - gfd) / np.linalg.norm(gfd) < 1e-3


class TestRigidInvariance:
    def test_all_terms_invariant(self, tetra_mesh):
        """Every term of the total loss, on a mesh, its baseline and a
        target with normals, is unchanged by a rigid motion of all three."""
        rng = np.random.default_rng(50)
        rot = random_rotation(rng)
        shift = rng.normal(size=3)
        nrm = rng.normal(size=(5, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        q = cloud(rng.random((5, 3)), nrm)
        moved_q = cloud(q.points @ rot.T + shift, nrm @ rot.T)
        moved = tetra_mesh.with_vertices(tetra_mesh.vertices @ rot.T + shift)
        other = tetra_mesh.with_vertices(tetra_mesh.vertices * 1.1)
        other_moved = other.with_vertices(other.vertices @ rot.T + shift)
        w = LossWeights(lambda3=1.0, lambda4=1.0, lambda5=1.0, lambda6=1.0)

        def breakdown(mesh, target, baseline):
            return total_loss(mesh, loss_plan(mesh, target, baseline, w, 6, seed=0))[0]

        before = breakdown(tetra_mesh, q, other)
        after = breakdown(moved, moved_q, other_moved)
        for term in ("cmd", "logcmd", "normal_loss", "edge_len", "normal_consistency",
                     "laplacian_reg"):
            assert getattr(after, term) == pytest.approx(getattr(before, term), abs=1e-9)


class TestLossPlan:
    def setup_method(self):
        rng = np.random.default_rng(60)
        self.base = icosphere(2)
        self.mesh = self.base.with_vertices(
            self.base.vertices + 0.03 * rng.normal(size=self.base.vertices.shape))
        self.gt = sample_surface(icosphere(3), 500, seed=61)  # with normals
        self.w = LossWeights(lambda1=1.0, lambda2=1.0, lambda3=0.5, lambda4=0.15,
                             lambda5=1e-3, lambda6=0.2)

    def test_breakdown_and_gradient_pinned(self):
        """Every term active; the values and gradient bytes are those of the
        plan path before the one-shot entry points were folded into it."""
        plan = loss_plan(self.mesh, self.gt, self.base, self.w, 400, seed=62)
        breakdown, grad = total_loss(self.mesh, plan)
        assert astuple(breakdown) == (
            -1986.0162157799175, 0.01907376868037102, 0.010730117822074413,
            0.09436544963502083, 19.0358401700869, 0.028506653632467606,
            -1985.9528849639844)
        assert grad.dtype == np.float64 and grad.shape == (162, 3)
        assert hashlib.sha256(grad.tobytes()).hexdigest() == (
            "1f11200ac9add9569b6e335db9d1e672e2330a6df313053c27feeb5e51d7441e")

    def test_plan_is_reusable_across_vertex_moves(self):
        plan = loss_plan(self.mesh, self.gt, self.base, self.w, 400, seed=62)
        first = total_loss(self.mesh, plan)
        moved = self.mesh.with_vertices(self.mesh.vertices * 1.01)
        assert total_loss(moved, plan)[0] != first[0]
        again = total_loss(self.mesh, plan)
        assert again[0] == first[0]
        assert np.array_equal(again[1], first[1])

    def test_other_connectivity_rejected(self):
        plan = loss_plan(self.mesh, self.gt, self.base, self.w, 400, seed=62)
        with pytest.raises(ValueError):
            total_loss(subdivide(self.mesh), plan)


# values whose sums round, cancel exactly, or are signed zeros
SCATTER_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 1e-300, -1e-300,
                                  1e300, -1e300, 3.0, 2.0**-52])


class TestScatter:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 12), width=st.sampled_from([None, 3]),
           n_terms=st.integers(1, 3), with_initial=st.booleans())
    def test_matches_add_at(self, data, n, width, n_terms, with_initial):
        """Terms of 0 to 30 repeated indices each, 1-D or (n, 3) values,
        onto zeros, optionally after a leading term that adds an initial
        array with -0.0 rows to every row, as the Chamfer gradients do."""
        shape = (n,) if width is None else (n, width)
        elements = st.lists(SCATTER_VALUES, min_size=int(np.prod(shape)),
                            max_size=int(np.prod(shape)))
        terms = []
        for _ in range(n_terms):
            idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=30)),
                           dtype=np.intp)
            count = len(idx) * (1 if width is None else width)
            vals = np.array(data.draw(st.lists(SCATTER_VALUES, min_size=count,
                                               max_size=count)), dtype=float)
            terms.append((idx, vals.reshape((len(idx),) + shape[1:])))
        if with_initial:
            initial = np.array(data.draw(elements), dtype=float).reshape(shape)
            initial[0] = -0.0
            terms.insert(0, (np.arange(n), initial))
        want = np.zeros(shape)
        for idx, vals in terms:
            np.add.at(want, idx, vals)
        got = _scatter(n, terms)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        if with_initial:
            assert initial[0].tobytes() == np.full(shape[1:], -0.0).tobytes()

    def test_empty_index_keeps_the_initial_bits(self):
        """Up to the sign of a zero: sums start from +0.0."""
        initial = np.array([[-0.0, 1.5, 0.0], [2.0, -0.0, -3.0]])
        got = _scatter(2, [(np.arange(2), initial),
                           (np.zeros(0, dtype=np.intp), np.zeros((0, 3)))])
        assert got.tobytes() == (initial + 0.0).tobytes()
        assert _scatter(4, [(np.zeros(0, dtype=np.intp), np.zeros(0))]).tobytes() == (
            np.zeros(4).tobytes())


def descent_mesh_and_target(seed, n_target, n_dup):
    """A noisy icosphere and a target of n_target points near the unit
    sphere with unit normals, n_dup of them overwritten by copies of others
    (gap 0 for a sample nearest to a duplicated point)."""
    rng = np.random.default_rng(seed)
    base = icosphere(1)
    mesh = base.with_vertices(base.vertices + 0.05 * rng.normal(size=base.vertices.shape))
    pts = rng.normal(size=(n_target, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= rng.uniform(0.8, 1.2, (n_target, 1))
    pts[rng.integers(0, n_target, n_dup)] = pts[rng.integers(0, n_target, n_dup)]
    normals = rng.normal(size=(n_target, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return base, mesh, PointCloud(pts, normals), rng


class TestCertifiedMatch:
    W = LossWeights(lambda1=1.0, lambda2=1.0, lambda3=0.5, lambda4=0.15,
                    lambda5=1e-3, lambda6=0.2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_target=st.integers(1, 40),
           n_dup=st.integers(0, 10), n_samples=st.integers(1, 80),
           steps=st.lists(st.sampled_from([0.0, 1e-9, 1e-4, 1e-2, 0.3, "jump"]),
                          min_size=1, max_size=6))
    @example(seed=1, n_target=1, n_dup=0, n_samples=50, steps=[1e-2, "jump", 0.3])
    @example(seed=2, n_target=2, n_dup=0, n_samples=50, steps=[1e-2, "jump", 0.3])
    @example(seed=3, n_target=20, n_dup=10, n_samples=80, steps=[1e-4, 1e-2, "jump"])
    @example(seed=242, n_target=3, n_dup=0, n_samples=2, steps=["jump"])
    def test_plan_path_matches_a_fresh_match_every_step(self, seed, n_target, n_dup,
                                                          n_samples, steps):
        """Descent steps from tiny to large (a "jump" translates the mesh by
        more than the target's diameter). At every step the plan path gives
        the breakdown and gradient bytes of a loop that calls ``_match``
        against the plan's tree, both directions give the indices and
        squared-distance bytes of full kd-tree queries, and every forward
        row the step did not re-query has moved less than the K-th distance
        of its last query. A row may keep its certificate through a jump:
        the movement only has to stay under the K-th distance less the
        nearest distance now, which a row moving toward its nearest
        candidate can meet."""
        base, mesh, target, rng = descent_mesh_and_target(seed, n_target, n_dup)
        plan = loss_plan(mesh, target, base, self.W, n_samples, seed=7)
        reference = loss_plan(mesh, target, base, self.W, n_samples, seed=7)
        tree = plan.neighbors.tree
        certified = alphaforge.loss._certified_match
        matches = []

        def recording(pos, plan_):
            matches.append((pos, certified(pos, plan_)))
            return matches[-1][1]

        def fresh(pos, plan_):
            return _match(pos, plan_.target.points, tree)

        diameter = np.ptp(target.points, axis=0).max()
        v = mesh.vertices
        last = None  # the forward list's anchors and K-th distances after a step
        for step in [0.0, *steps]:
            if step == "jump":
                v = v + (diameter + 1.0) * np.array([0.6, 0.0, 0.8])
            m = mesh.with_vertices(v)
            with mock.patch.object(alphaforge.loss, "_certified_match", recording):
                breakdown, grad = total_loss(m, plan)
            with mock.patch.object(alphaforge.loss, "_certified_match", fresh):
                want_breakdown, want_grad = total_loss(m, reference)
            assert astuple(breakdown) == astuple(want_breakdown)
            assert grad.tobytes() == want_grad.tobytes()
            pos, got = matches[-1]
            dist, idx = tree.query(pos, k=1)
            np.testing.assert_array_equal(got.idx_pq, idx)
            assert got.d2_pq.tobytes() == (dist**2).tobytes()
            dist, idx = cKDTree(pos).query(target.points, k=1)
            np.testing.assert_array_equal(got.idx_qp, idx)
            assert got.d2_qp.tobytes() == (dist**2).tobytes()
            if last is not None:
                anchor, kth = last
                kept = (plan.neighbors.anchor == anchor).all(axis=0)  # not re-queried
                moved = np.sqrt(((pos.T - anchor) ** 2).sum(axis=0))
                assert (moved[kept] < kth[kept]).all()
            last = plan.neighbors.anchor.copy(), plan.neighbors.kth.copy()
            if step != "jump":
                v = v - step * grad / max(np.abs(grad).max(), 1e-300)
