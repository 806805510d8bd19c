import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from alphaforge import (
    PointCloud,
    RigidTransform,
    SyntheticSpec,
    apply_protocol_scaling,
    evaluate,
    icosphere,
    icp_align,
    reference_mesh,
    sample_surface,
    synth,
)
from alphaforge.errors import DegenerateConfiguration
from alphaforge.loss import _match
from alphaforge.metrics import PROTOCOLS, _best_rigid_fit, _f1, _icp, _mean_abs_cosine
from conftest import random_rotation


def rot_z(deg):
    a = np.deg2rad(deg)
    return np.array([[np.cos(a), -np.sin(a), 0],
                     [np.sin(a), np.cos(a), 0],
                     [0, 0, 1.0]])


class TestF1:
    def test_identical_clouds(self):
        p = PointCloud(np.random.default_rng(0).random((50, 3)))
        assert _f1(_match(p.points, p.points), 0.01) == (100.0, 100.0, 100.0)

    def test_far_apart_zero(self):
        p = PointCloud(np.zeros((3, 3)))
        q = PointCloud(np.zeros((3, 3)) + 10.0)
        assert _f1(_match(p.points, q.points), 0.1) == (0.0, 0.0, 0.0)

    def test_hand_counted(self):
        p = PointCloud([[0, 0, 0], [5, 0, 0]])
        q = PointCloud([[0, 0, 0]])
        precision, recall, f1 = _f1(_match(p.points, q.points), 0.1)
        assert (precision, recall) == (50.0, 100.0)
        assert f1 == pytest.approx(200.0 / 3.0)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(1)
        p, q = PointCloud(rng.random((30, 3))), PointCloud(rng.random((20, 3)))
        pr, rc, _ = _f1(_match(p.points, q.points), 0.2)
        pr2, rc2, _ = _f1(_match(q.points, p.points), 0.2)
        assert (pr, rc) == (rc2, pr2)


class TestNormalCosine:
    def test_identical(self):
        n = np.tile([0.0, 0.0, 1.0], (5, 1))
        p = PointCloud(np.random.default_rng(2).random((5, 3)), n)
        cos = _mean_abs_cosine(p.normals, p.normals, _match(p.points, p.points))
        assert cos == pytest.approx(1.0)

    def test_orthogonal(self):
        pts = np.random.default_rng(3).random((4, 3))
        p = PointCloud(pts, np.tile([0.0, 0.0, 1.0], (4, 1)))
        q = PointCloud(pts, np.tile([1.0, 0.0, 0.0], (4, 1)))
        cos = _mean_abs_cosine(p.normals, q.normals, _match(p.points, q.points))
        assert cos == pytest.approx(0.0)

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(4)
        def rc(n):
            m = rng.normal(size=(n, 3))
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            return PointCloud(rng.random((n, 3)), m)
        p, q = rc(12), rc(7)
        d2 = ((p.points[:, None] - q.points[None]) ** 2).sum(axis=2)
        fwd, rev = d2.argmin(axis=1), d2.argmin(axis=0)
        total = np.abs(np.einsum("ij,ij->i", p.normals, q.normals[fwd])).sum()
        total += np.abs(np.einsum("ij,ij->i", p.normals[rev], q.normals)).sum()
        cos = _mean_abs_cosine(p.normals, q.normals, _match(p.points, q.points))
        assert cos == pytest.approx(total / 19, rel=1e-12)


class TestIcp:
    def test_identity_fixed_point(self):
        p = PointCloud(np.random.default_rng(5).random((40, 3)))
        transform, cd = icp_align(p, p)
        assert transform.angle == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(transform.translation, 0.0, atol=1e-12)
        assert cd == pytest.approx(0.0, abs=1e-20)

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(6)
        p = PointCloud(rng.random((100, 3)))
        rot = rot_z(20.0)
        t = np.array([0.3, -0.1, 0.2])
        q = PointCloud(p.points @ rot.T + t)
        transform, cd = icp_align(p, q, max_iters=60)
        residual = RigidTransform(transform.rotation @ rot.T, np.zeros(3))
        assert residual.angle < 1e-6
        assert cd < 1e-12

    def test_collinear_degenerate(self):
        p = PointCloud([[0, 0, 0], [1, 0, 0]])
        q = PointCloud(np.random.default_rng(7).random((10, 3)))
        with pytest.raises(DegenerateConfiguration):
            icp_align(p, q)

    def test_mse_non_increasing(self):
        rng = np.random.default_rng(8)
        p = PointCloud(rng.random((80, 3)))
        q = PointCloud(p.points @ rot_z(25.0).T + [0.2, 0.1, -0.3]
                       + 0.01 * rng.normal(size=(80, 3)))
        history = []
        icp_align(p, q, max_iters=40, history=history)
        assert len(history) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("max_iters", [1, 4, 12])
    def test_two_kdtree_builds_whatever_the_iterations(self, kdtree_builds, max_iters):
        """One tree over the fixed target serves every iteration; one over
        the aligned cloud serves the final Chamfer."""
        rng = np.random.default_rng(8)
        p = PointCloud(rng.random((80, 3)))
        q = PointCloud(p.points @ rot_z(25.0).T + [0.2, 0.1, -0.3]
                       + 0.01 * rng.normal(size=(80, 3)))
        history = []
        icp_align(p, q, max_iters=max_iters, tol=-np.inf, history=history)
        assert len(history) == max_iters
        assert len(kdtree_builds) == 2


def torus_icp_clouds():
    """2000 samples per side of the torus reference and of a stretched,
    rotated and shifted copy, which ICP takes 25 iterations to align."""
    gt = reference_mesh(SyntheticSpec("torus"))
    a = np.deg2rad(5.0)
    rot_x = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    pred = gt.with_vertices(gt.vertices * [1.04, 0.97, 1.02] @ (rot_z(12.0) @ rot_x).T
                            + [0.05, -0.03, 0.02])
    return sample_surface(pred, 2000, seed=4), sample_surface(gt, 2000, seed=4)


def sha256(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def plain_icp(p, q, max_iters=50, tol=1e-10):
    """Oracle: the ICP loop with a fresh k=1 query of every point at every
    iteration."""
    tree = cKDTree(q)
    transform, aligned, prev_mse, history = RigidTransform.identity(), p.copy(), np.inf, []
    for _ in range(max_iters):
        dist, idx = tree.query(aligned, k=1)
        if dist.max() == 0.0:
            history.append(0.0)
            break
        step = _best_rigid_fit(aligned, q[idx])
        aligned = step.apply(aligned)
        transform = step.compose_after(transform)
        history.append(float(((aligned - q[idx]) ** 2).sum(axis=1).mean()))
        if prev_mse - history[-1] < tol:
            break
        prev_mse = history[-1]
    return transform, history


class CountingTree:
    """A kd-tree that records, for each query, the ICP iteration it came
    from (the length of ``history`` so far) and the number of rows."""

    def __init__(self, points, history):
        self.tree = cKDTree(points)
        self.m = self.tree.m
        self.history = history
        self.rows = []

    def query(self, x, k=1):
        self.rows.append((len(self.history), len(x)))
        return self.tree.query(x, k=k)


class TestIcpRequeries:
    def test_torus_alignment_pinned(self):
        """Rotation, translation, Chamfer and MSE history recorded when ICP
        queried every point at every iteration."""
        p, q = torus_icp_clouds()
        history = []
        transform, cd = icp_align(p, q, history=history)
        assert sha256(transform.rotation) == (
            "d72e901d7abea8f618efd45521a5fbb1ba8c5f3afb3cf3ab8a5bd963ab9c6b6a")
        assert sha256(transform.translation) == (
            "35dcd05dc89d1a8777d0d817a69a575bd2404d5de6e3fa4651dfffb79fbd0361")
        assert cd == float.fromhex("0x1.92d1650b6b1a0p-8")
        assert len(history) == 25
        assert sha256(np.array(history)) == (
            "b40dfbfd2366add34fe6c10647c8b2072015c40b3f15437bee6010120cee493c")

    def test_later_iterations_query_fewer_rows(self):
        p, q = torus_icp_clouds()
        history = []
        tree = CountingTree(q.points, history)
        _icp(p, q, tree, history=history)
        rows = tree.rows
        per_iteration = np.bincount([it for it, _ in rows], weights=[n for _, n in rows])
        assert len(per_iteration) == len(history) == 25
        assert per_iteration[0] == len(p)
        assert (per_iteration[1:] < len(p)).all()

    def test_identical_clouds_stop_at_the_first_query(self):
        p = PointCloud(np.random.default_rng(5).random((40, 3)))
        history = []
        tree = CountingTree(p.points, history)
        transform, aligned = _icp(p, p, tree, history=history)
        assert history == [0.0]
        assert tree.rows == [(0, 40)]
        np.testing.assert_array_equal(transform.rotation, np.eye(3))
        np.testing.assert_array_equal(aligned, p.points)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_p=st.integers(3, 40), n_q=st.integers(1, 30),
           max_iters=st.integers(1, 30))
    @example(seed=1, n_p=12, n_q=1, max_iters=50)
    @example(seed=2, n_p=12, n_q=2, max_iters=50)
    def test_matches_fresh_queries(self, seed, n_p, n_q, max_iters):
        """Bit for bit the loop that queries every point at every iteration,
        also against targets of 2 points and of 1, where the k=2 query finds
        no runner-up (distance inf, index n_q)."""
        rng = np.random.default_rng(seed)
        p = rng.normal(size=(n_p, 3))
        q = rng.normal(size=(n_q, 3)) @ random_rotation(rng).T + 0.1 * rng.normal(size=3)
        history = []
        try:
            transform, _ = icp_align(PointCloud(p), PointCloud(q), max_iters=max_iters,
                                     history=history)
        except DegenerateConfiguration:
            return
        want, want_history = plain_icp(p, q, max_iters=max_iters)
        assert sha256(transform.rotation) == sha256(want.rotation)
        assert sha256(transform.translation) == sha256(want.translation)
        assert history == want_history


class TestProtocolScaling:
    def test_meshrcnn_longest_edge_ten(self):
        cube = reference_mesh(SyntheticSpec("box"))
        scaled = apply_protocol_scaling(cube, "meshrcnn")
        extent = scaled.vertices.max(axis=0) - scaled.vertices.min(axis=0)
        np.testing.assert_allclose(extent.max(), 10.0, rtol=0, atol=0)

    def test_meshrcnn_idempotent(self):
        mesh = reference_mesh(SyntheticSpec("stacked"))
        once = apply_protocol_scaling(mesh, "meshrcnn")
        twice = apply_protocol_scaling(once, "meshrcnn")
        np.testing.assert_array_equal(once.vertices, twice.vertices)

    def test_pixel2mesh_exact_factor(self):
        mesh = icosphere(1)
        scaled = apply_protocol_scaling(mesh, "pixel2mesh")
        np.testing.assert_array_equal(scaled.vertices, mesh.vertices * 0.57)

    def test_tmnet_and_skeleton_identity(self):
        mesh = icosphere(1)
        for proto in ("tmnet", "skeleton"):
            np.testing.assert_array_equal(
                apply_protocol_scaling(mesh, proto).vertices, mesh.vertices)


class TestEvaluate:
    def test_identical_fixed_point_all_protocols(self):
        mesh = reference_mesh(SyntheticSpec("stacked"))
        for proto in PROTOCOLS:
            report = evaluate(mesh, mesh, proto, n_samples=1500, seed=2,
                              class_label="block")
            assert report.chamfer == 0.0
            assert all(v == 100.0 for v in report.f1.values())
            assert report.normal_cosine == 1.0
            if proto == "skeleton":
                assert report.per_class == {"block": 0.0}

    def test_displaced_sphere_chamfer_matches_oracle(self):
        sphere = icosphere(2)
        moved = sphere.with_vertices(sphere.vertices + [0.05, 0, 0])
        report = evaluate(moved, sphere, "meshrcnn", n_samples=1200, seed=9)
        # oracle: quadratic scan on the same protocol-scaled seeded samples
        a = sample_surface(apply_protocol_scaling(moved, "meshrcnn"), 1200, seed=9)
        b = sample_surface(apply_protocol_scaling(sphere, "meshrcnn"), 1200, seed=9)
        d2 = ((a.points[:, None] - b.points[None]) ** 2).sum(axis=2)
        expected = d2.min(axis=1).mean() + d2.min(axis=0).mean()
        assert report.chamfer == pytest.approx(expected, rel=1e-9)

    def test_tmnet_aligns_rigid_copy(self):
        brick = reference_mesh(SyntheticSpec("stacked"))
        moved = brick.with_vertices(brick.vertices @ rot_z(20.0).T + [0.3, -0.1, 0.2])
        report = evaluate(moved, brick, "tmnet", n_samples=1500, seed=3)
        assert report.chamfer < 1e-6

    @pytest.mark.parametrize("proto", PROTOCOLS)
    def test_one_correspondence_per_evaluation(self, nn_calls, proto):
        """One two-way match; ICP's loop queries through its neighbour list
        instead."""
        sphere = icosphere(2)
        moved = sphere.with_vertices(sphere.vertices * 1.05)
        evaluate(moved, sphere, proto, n_samples=300, seed=5)
        assert len(nn_calls) == 1

    @pytest.mark.parametrize("proto, builds", [
        ("pixel2mesh", 2), ("meshrcnn", 2), ("tmnet", 2), ("skeleton", 2)])
    def test_one_ground_truth_tree_per_evaluation(self, kdtree_builds, proto, builds):
        """One tree over the ground-truth samples, one over the prediction's
        for the reverse queries; under tmnet, ICP's loop reuses the
        ground-truth tree and the prediction's is built over ICP's aligned
        points."""
        sphere = icosphere(2)
        moved = sphere.with_vertices(sphere.vertices * 1.05)
        evaluate(moved, sphere, proto, n_samples=300, seed=5)
        assert len(kdtree_builds) == builds

    def test_reports_pinned(self):
        """Reports recorded before the metrics shared one correspondence;
        300 samples put every query on the kd-tree path."""
        gt = icosphere(2)
        pred = gt.with_vertices(gt.vertices * [1.1, 0.95, 1.0] + [0.03, 0.0, -0.02])
        rotated = pred.with_vertices(pred.vertices @ rot_z(25.0).T + [0.2, -0.1, 0.05])
        got = {proto: evaluate(rotated if proto == "tmnet" else pred, gt, proto,
                               n_samples=300, seed=5, class_label="ball").to_dict()
               for proto in PROTOCOLS}
        assert got == PINNED_REPORTS

    def test_report_round_trips_to_dict(self):
        cloud, mesh = synth(SyntheticSpec("box", n=50))
        report = evaluate(mesh, mesh, "pixel2mesh", n_samples=500, seed=1)
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert set(doc["f1"]) == {"0.1", "0.2"}


PINNED_REPORTS = {
    "pixel2mesh": {
        "schema_version": 1,
        "protocol": "pixel2mesh",
        "chamfer": 0.007153556844117483,
        "f1": {"0.1": 92.0, "0.2": 100.0},
        "precision": {"0.1": 92.0, "0.2": 100.0},
        "recall": {"0.1": 92.0, "0.2": 100.0},
        "normal_cosine": 0.986623049677167,
        "per_class": None,
    },
    "meshrcnn": {
        "schema_version": 1,
        "protocol": "meshrcnn",
        "chamfer": 0.8086259873237351,
        "f1": {"0.1": 0.0, "0.3": 6.984126984126983, "0.5": 27.15746421267894},
        "precision": {"0.1": 0.0, "0.3": 7.333333333333333, "0.5": 27.666666666666668},
        "recall": {"0.1": 0.0, "0.3": 6.666666666666667, "0.5": 26.666666666666668},
        "normal_cosine": 0.9873612466006585,
        "per_class": None,
    },
    "tmnet": {
        "schema_version": 1,
        "protocol": "tmnet",
        "chamfer": 0.0263900810736153,
        "f1": {"0.1": 55.48748748748749},
        "precision": {"0.1": 56.333333333333336},
        "recall": {"0.1": 54.666666666666664},
        "normal_cosine": 0.9826744709947045,
        "per_class": None,
    },
    "skeleton": {
        "schema_version": 1,
        "protocol": "skeleton",
        "chamfer": 0.022017718818459476,
        "f1": {"0.1": 61.39837398373984},
        "precision": {"0.1": 64.0},
        "recall": {"0.1": 59.0},
        "normal_cosine": 0.986623049677167,
        "per_class": {"ball": 0.022017718818459476},
    },
}
