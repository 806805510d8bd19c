import hashlib

import numpy as np
import pytest

from alphaforge import (
    SyntheticSpec,
    enclosed_volume,
    reference_mesh,
    synth,
    topology,
)
from alphaforge.errors import ConfigError
from alphaforge.synth import FILLS, SHAPES, torus_mesh
import oracles
from test_mesh import brute_force_euler


class TestSpecValidation:
    def test_unknown_shape(self):
        with pytest.raises(ConfigError):
            SyntheticSpec("cone")

    def test_torus_radii_ordering(self):
        with pytest.raises(ConfigError):
            SyntheticSpec("torus", minor_radius=1.2, major_radius=1.0)

    def test_negative_sigma(self):
        with pytest.raises(ConfigError):
            SyntheticSpec("sphere", sigma=-0.1)

    @pytest.mark.parametrize("fill", FILLS)
    @pytest.mark.parametrize("shape", SHAPES)
    def test_zero_points_give_an_empty_cloud(self, shape, fill):
        cloud, _ = synth(SyntheticSpec(shape, n=0, sigma=0.1, fill=fill))
        assert cloud.points.shape == (0, 3)


class TestReferenceMeshes:
    def test_euler_characteristics(self):
        expected = {"sphere": 2, "torus": 0, "box": 2, "stacked": -2}
        for shape, chi in expected.items():
            mesh = reference_mesh(SyntheticSpec(shape))
            assert topology(mesh).chi == chi, shape
            assert brute_force_euler(mesh) == chi, shape
            assert len(topology(mesh).boundary_edges) == 0, shape

    def test_outward_orientation_positive_volume(self):
        for shape in ("sphere", "torus", "box", "stacked"):
            assert enclosed_volume(reference_mesh(SyntheticSpec(shape))) > 0, shape

    def test_stacked_volume_matches_construction(self):
        mesh = reference_mesh(SyntheticSpec("stacked"))
        expected = 3.0 * 1.5 * 0.75 - 2 * (0.5 * 0.5 * 0.75)
        assert enclosed_volume(mesh) == pytest.approx(expected, rel=1e-12)


    @pytest.mark.parametrize("shape, verts, faces", [
        ("sphere", "019f578bcdb2da418031e5b6401633835c02122f106ddb3565a70335f8d2ab8b",
         "5f972a407b51f0a2903c5191c6d33b38831a568ac570fb14b8327a35f5505e95"),
        ("torus", "433897600c61ec1887c71600239d415e9bebfa66f09eaccb68f0f466415983fb",
         "b7502c3eb6450750be1b900c7c9b47b38202037c4005a2caa74caacb7dfcab15"),
        ("box", "6040f86a7df7863ef75c589fa6f4f6dc2696f9a8634d001b85dbd62103cc6e1f",
         "b23d475faed4c6b4ef73d7c31eb0afa9aa0c5696a6ee66ce4eee81c68aef55db"),
        ("stacked", "1b49ae4a388ebcbb90e9a1d35bd59c07e3460101a6fd47ff73609410c2ee0e01",
         "4f49ceb339dbfacff6dcfe1d9858775f8a3dbf4cfb3388d67da73883d0a72895"),
    ])
    def test_reference_mesh_bytes_pinned(self, shape, verts, faces):
        """SHA-256 of the int64 faces and float64 vertices, recorded when
        the torus faces came from a per-face Python loop."""
        mesh = reference_mesh(SyntheticSpec(shape))
        assert mesh.faces.dtype == np.int64
        assert hashlib.sha256(mesh.vertices.tobytes()).hexdigest() == verts
        assert hashlib.sha256(mesh.faces.tobytes()).hexdigest() == faces


    @pytest.mark.parametrize("n_u, n_v", [(3, 3), (5, 4), (4, 7), (48, 24)])
    def test_torus_faces_match_the_per_cell_loop(self, n_u, n_v):
        """Two faces per grid cell, (a, b, c) and (a, c, d), cells in
        row-major order, indices wrapping around both circles."""
        def vid(i, j):
            return (i % n_u) * n_v + (j % n_v)

        want = []
        for i in range(n_u):
            for j in range(n_v):
                a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
                want += [(a, b, c), (a, c, d)]
        np.testing.assert_array_equal(torus_mesh(1.0, 0.4, n_u, n_v).faces, want)


class TestSurfaceSampling:
    def test_sphere_points_on_unit_sphere(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=1000, sigma=0.0, seed=1))
        radii = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(radii, 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(cloud.normals, axis=1), 1.0,
                                   atol=1e-12)

    def test_torus_points_on_surface(self):
        spec = SyntheticSpec("torus", n=500, seed=2)
        cloud, _ = synth(spec)
        ring = np.sqrt(cloud.points[:, 0] ** 2 + cloud.points[:, 1] ** 2)
        tube = np.sqrt((ring - spec.major_radius) ** 2 + cloud.points[:, 2] ** 2)
        np.testing.assert_allclose(tube, spec.minor_radius, atol=1e-9)

    def test_noise_moves_along_normals(self):
        clean, _ = synth(SyntheticSpec("sphere", n=400, sigma=0.0, seed=3))
        noisy, _ = synth(SyntheticSpec("sphere", n=400, sigma=0.05, seed=3))
        delta = noisy.points - clean.points
        # offsets parallel to the (shared) normals
        cross = np.linalg.norm(np.cross(delta, clean.normals), axis=1)
        np.testing.assert_allclose(cross, 0.0, atol=1e-12)
        assert np.abs(delta).max() > 0

    def test_box_sample_normals_match_faces(self):
        cloud, ref = synth(SyntheticSpec("box", n=300, seed=4))
        fn = oracles.face_normals(ref)
        agree = np.abs(cloud.normals @ fn.T).max(axis=1)
        np.testing.assert_allclose(agree, 1.0, atol=1e-9)


class TestSolidSampling:
    def test_sphere_inside_ball(self):
        cloud, _ = synth(SyntheticSpec("sphere", n=800, fill="solid", seed=5))
        assert not cloud.has_normals
        assert np.linalg.norm(cloud.points, axis=1).max() <= 1.0 + 1e-12

    def test_torus_inside_tube(self):
        spec = SyntheticSpec("torus", n=800, fill="solid", seed=6)
        cloud, _ = synth(spec)
        ring = np.sqrt(cloud.points[:, 0] ** 2 + cloud.points[:, 1] ** 2)
        tube = np.sqrt((ring - spec.major_radius) ** 2 + cloud.points[:, 2] ** 2)
        assert tube.max() <= spec.minor_radius + 1e-12

    def test_stacked_avoids_holes(self):
        cloud, _ = synth(SyntheticSpec("stacked", n=800, fill="solid", seed=7))
        pts = cloud.points + np.array([3.0, 1.5, 0.75]) / 2
        for (hx0, hx1), (hy0, hy1) in (((0.5, 1.0), (0.5, 1.0)),
                                       ((2.0, 2.5), (0.5, 1.0))):
            inside = ((pts[:, 0] > hx0) & (pts[:, 0] < hx1)
                      & (pts[:, 1] > hy0) & (pts[:, 1] < hy1))
            assert not inside.any()

    def test_deterministic(self):
        a, _ = synth(SyntheticSpec("torus", n=300, fill="solid", seed=8))
        b, _ = synth(SyntheticSpec("torus", n=300, fill="solid", seed=8))
        np.testing.assert_array_equal(a.points, b.points)
        c, _ = synth(SyntheticSpec("torus", n=300, fill="solid", seed=9))
        assert not np.array_equal(a.points, c.points)
