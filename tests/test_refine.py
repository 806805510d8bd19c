from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

import alphaforge.loss
from alphaforge import (
    LossWeights,
    Mesh,
    PointCloud,
    RefineConfig,
    enclosed_volume,
    icosphere,
    loss_plan,
    refine_mesh,
    sample_surface,
    smooth_weights,
    subdivide,
    taubin_smooth,
    topology,
    total_loss,
    trace_to_csv,
)
from alphaforge.errors import ConfigError, NonFinite
import oracles


class TestTaubinSmooth:
    def test_zero_iterations_identity(self, tetra_mesh):
        out = taubin_smooth(tetra_mesh, 0)
        np.testing.assert_array_equal(out.vertices, tetra_mesh.vertices)

    def test_connectivity_unchanged(self):
        mesh = icosphere(2)
        out = taubin_smooth(mesh, 5)
        np.testing.assert_array_equal(out.faces, mesh.faces)

    def test_isolated_vertices_pass_through(self):
        mesh = Mesh(np.vstack([np.eye(3), [9.0, 9.0, 9.0]]), np.array([[0, 1, 2]]))
        out = taubin_smooth(mesh, 3)
        np.testing.assert_array_equal(out.vertices[3], [9.0, 9.0, 9.0])

    def test_negative_count_rejected(self, tetra_mesh):
        with pytest.raises(ConfigError, match="iterations must be >= 0"):
            taubin_smooth(tetra_mesh, -1)

    def test_anti_shrinkage_vs_lambda_only(self):
        mesh = icosphere(3)
        taubin = taubin_smooth(mesh, 10)

        # oracle: plain lambda-only umbrella smoothing, same lam/iterations
        from alphaforge.refine import TAUBIN_LAM, _umbrella
        v = mesh.vertices.copy()
        edges = topology(mesh).edges
        for _ in range(10):
            v = v + TAUBIN_LAM * _umbrella(v, edges)
        lam_only = mesh.with_vertices(v)

        v0 = enclosed_volume(mesh)
        assert enclosed_volume(taubin) / v0 > enclosed_volume(lam_only) / v0


class TestSubdivide:
    def test_single_triangle(self, single_triangle):
        out = subdivide(single_triangle)
        assert out.num_vertices == 6
        assert out.num_faces == 4

    def test_tetra_counts(self, tetra_mesh):
        out = subdivide(tetra_mesh)
        assert out.num_vertices == 10  # V + E = 4 + 6
        assert out.num_faces == 16

    def test_euler_preserved_closed(self, tetra_mesh):
        assert topology(subdivide(tetra_mesh)).chi == 2

    def test_midpoints_on_edges(self, tetra_mesh):
        out = subdivide(tetra_mesh)
        edges = topology(tetra_mesh).edges
        mids = 0.5 * (tetra_mesh.vertices[edges[:, 0]] + tetra_mesh.vertices[edges[:, 1]])
        np.testing.assert_allclose(out.vertices[4:], mids)

    def test_identical_connectivity_gives_identical_indexing(self, tetra_mesh):
        other = tetra_mesh.with_vertices(tetra_mesh.vertices * 2.0 + 1.0)
        a, b = subdivide(tetra_mesh), subdivide(other)
        np.testing.assert_array_equal(a.faces, b.faces)

    def test_exact_arrays(self, tetra_mesh):
        out = subdivide(tetra_mesh)
        np.testing.assert_array_equal(out.vertices, [
            [1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1], [1, 0, 0],
            [0, 1, 0], [0, 0, 1], [0, 0, -1], [0, -1, 0], [-1, 0, 0]])
        np.testing.assert_array_equal(out.faces, [
            [0, 4, 5], [4, 1, 7], [5, 7, 2], [4, 7, 5], [0, 6, 4], [6, 3, 8],
            [4, 8, 1], [6, 8, 4], [0, 5, 6], [5, 2, 9], [6, 9, 3], [5, 9, 6],
            [1, 8, 7], [8, 3, 9], [7, 9, 2], [8, 9, 7]])
        assert out.faces.dtype == np.int64

    def test_no_faces(self):
        mesh = Mesh(np.eye(3))
        out = subdivide(mesh)
        np.testing.assert_array_equal(out.vertices, mesh.vertices)
        assert out.faces.shape == (0, 3)


class TestRefineMesh:
    def make_fixture(self, noise=0.05, seed=30):
        rng = np.random.Generator(np.random.Philox(seed))
        mesh = icosphere(2)
        noisy = mesh.with_vertices(mesh.vertices
                                   + noise * rng.normal(size=mesh.vertices.shape))
        gt = sample_surface(icosphere(3), 800, seed=31)
        return noisy, gt

    def test_zero_iterations_identity(self):
        noisy, gt = self.make_fixture()
        cfg = RefineConfig(stages=1, iters_per_stage=0, weights=smooth_weights())
        out, trace = refine_mesh(noisy, gt, cfg, seed=1)
        np.testing.assert_array_equal(out.vertices, noisy.vertices)
        assert trace == []

    def test_laplacian_baseline_is_the_taubin_smoothed_initial_mesh(self):
        """The first trace entry is the loss against a baseline of
        taubin_iters Taubin iterations; with none, the baseline is the
        initial mesh itself and the Laplacian term is exactly 0."""
        noisy, gt = self.make_fixture()
        w = smooth_weights()
        firsts = []
        for k in (0, 3, 10):
            cfg = RefineConfig(stages=1, iters_per_stage=1, step_size=3e-5, weights=w,
                               taubin_iters=k)
            _, trace = refine_mesh(noisy, gt, cfg, seed=10)
            plan = loss_plan(noisy, gt, taubin_smooth(noisy, k), w, len(gt), 10)
            assert trace[0] == total_loss(noisy, plan)[0]
            firsts.append(trace[0].laplacian_reg)
        assert firsts[0] == 0.0
        assert 0.0 < firsts[1] < firsts[2]

    def test_ground_truth_fixed_point(self):
        mesh = icosphere(2)
        gt = sample_surface(mesh, 800, seed=32)
        cfg = RefineConfig(stages=1, iters_per_stage=30, step_size=3e-5,
                           weights=LossWeights(lambda1=0, lambda2=1))
        out, _ = refine_mesh(mesh, gt, cfg, seed=2)
        before = oracles.chamfer(sample_surface(mesh, 800, seed=33), gt)
        after = oracles.chamfer(sample_surface(out, 800, seed=33), gt)
        assert after <= before * 1.01

    def test_noisy_sphere_improves(self):
        noisy, gt = self.make_fixture()
        cfg = RefineConfig(stages=2, iters_per_stage=40, step_size=3e-5,
                           weights=smooth_weights())
        out, trace = refine_mesh(noisy, gt, cfg, seed=3)
        before = oracles.chamfer(sample_surface(noisy, 1000, seed=34), gt)
        after = oracles.chamfer(sample_surface(out, 1000, seed=34), gt)
        assert after < before * 0.75
        totals = [b.total for b in trace]
        drops = sum(b <= a + 1e-12 for a, b in zip(totals, totals[1:]))
        assert drops / (len(totals) - 1) >= 0.9

    def test_connectivity_never_changes(self):
        noisy, gt = self.make_fixture()
        cfg = RefineConfig(stages=2, iters_per_stage=5, step_size=3e-5,
                           weights=smooth_weights())
        out, _ = refine_mesh(noisy, gt, cfg, seed=4)
        np.testing.assert_array_equal(out.faces, noisy.faces)

    def test_tanh_displacement_bound(self):
        noisy, gt = self.make_fixture()
        cfg = RefineConfig(stages=1, iters_per_stage=20, step_size=5.0,
                           weights=LossWeights(lambda1=1, lambda2=0))
        out, _ = refine_mesh(noisy, gt, cfg, seed=5)
        assert np.abs(out.vertices - noisy.vertices).max() < 1.0 - 1e-12

    def test_subdivide_between_stages(self):
        noisy, gt = self.make_fixture()
        cfg = RefineConfig(stages=2, iters_per_stage=2, step_size=3e-5,
                           weights=smooth_weights(), subdivide_between_stages=True)
        out, _ = refine_mesh(noisy, gt, cfg, seed=6)
        assert out.num_faces == 4 * noisy.num_faces

    def test_nonfinite_loss_raises(self):
        noisy, gt = self.make_fixture()
        huge = LossWeights(lambda1=1e308, lambda2=0)  # total overflows to -inf
        cfg = RefineConfig(stages=1, iters_per_stage=5, step_size=1e-5,
                           weights=huge)
        with np.errstate(all="ignore"), pytest.raises(NonFinite):
            refine_mesh(noisy, gt, cfg, seed=7)

    @pytest.mark.parametrize("with_normals", [False, True])
    def test_forward_queries_only_uncertified_samples(self, monkeypatch, with_normals):
        """Per iteration, the samples->target rows the plan's kd-tree is
        queried with, and the target->samples rows queried against trees
        over the samples. Each stage's first iteration queries every sample
        and every target; later ones re-query only the rows whose
        certificate lapsed."""
        noisy, gt = self.make_fixture()
        weights = smooth_weights()
        if not with_normals:
            gt = PointCloud(gt.points)
            weights = replace(weights, lambda6=0.0)
        queries = []  # (tree, rows) per kd-tree query

        class CountingTree(cKDTree):
            def query(self, x, k=1):
                queries.append((self, len(x)))
                return super().query(x, k=k)

        per_iteration = []  # (forward rows, reverse rows)
        certified = alphaforge.loss._certified_match

        def counting(pos, plan):
            queries.clear()
            match = certified(pos, plan)
            forward = sum(rows for tree, rows in queries if tree is plan.neighbors.tree)
            per_iteration.append((forward, sum(rows for _, rows in queries) - forward))
            return match

        monkeypatch.setattr(alphaforge.loss, "cKDTree", CountingTree)
        monkeypatch.setattr(alphaforge.loss, "_certified_match", counting)
        cfg = RefineConfig(stages=2, iters_per_stage=5, step_size=3e-5, weights=weights)
        _, trace = refine_mesh(noisy, gt, cfg, seed=9)
        assert len(per_iteration) == len(trace) == 10
        n = len(gt)  # refine_mesh draws one sample per target point
        forward_rows, reverse_rows = (list(rows) for rows in zip(*per_iteration))
        assert forward_rows[0] == forward_rows[5] == n
        assert all(rows < n for rows in forward_rows[1:5] + forward_rows[6:])
        assert reverse_rows[0] == reverse_rows[5] == n
        assert all(rows < n for rows in reverse_rows[1:5] + reverse_rows[6:])

    def test_trace_csv_shape(self):
        noisy, gt = self.make_fixture()
        cfg = RefineConfig(stages=1, iters_per_stage=3, step_size=3e-5,
                           weights=smooth_weights())
        _, trace = refine_mesh(noisy, gt, cfg, seed=8)
        csv = trace_to_csv(trace)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("iteration,logcmd,cmd,")
        assert len(lines) == 4
