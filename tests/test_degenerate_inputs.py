"""Degenerate inputs to the triangulation layer: extreme scales, duplicated
and permuted points, slabs and needles. Each gives a mesh or a typed error,
never a crash or a RuntimeWarning."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaforge import PointCloud, SyntheticSpec, delaunay_complex, meshio, synth, triangulate
from alphaforge.errors import DegenerateInput, EmptyMesh
from conftest import random_rotation

ROOT = Path(__file__).resolve().parents[1]
RANGE_MESSAGE = r"outside the supported range \[2\^-300, 2\^300\)"


def unit_cloud(seed: int, n: int) -> np.ndarray:
    """A random cloud whose largest |coordinate| lies in [1, 2)."""
    pts = np.random.default_rng(seed).normal(size=(n, 3))
    return np.ldexp(pts, 1 - np.frexp(np.abs(pts).max())[1])


def oriented_faces(mesh) -> set:
    """Each face as its corner coordinates, rotated to start at the least
    corner, so the set is independent of vertex numbering but not of
    orientation."""
    faces = set()
    for tri in mesh.vertices[mesh.faces].tolist():
        corners = [tuple(c) for c in tri]
        start = corners.index(min(corners))
        faces.add(tuple(corners[start:] + corners[:start]))
    return faces


def needle(seed: int, n: int, thickness: int, rotate: bool) -> np.ndarray:
    """Uniform points in the unit cube, thinned along y and z."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 3))
    pts[:, 1:] *= 10.0 ** -thickness
    return pts @ random_rotation(rng).T if rotate else pts


def run_triangulate(points: np.ndarray, tau: float, tmp_path):
    """CLI ``triangulate`` in a subprocess, where a crash shows as a signal
    instead of ending the test run."""
    path = tmp_path / "cloud.xyz"
    meshio.write_points(PointCloud(points), path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "alphaforge.cli", "triangulate", "--in", str(path),
         "--tau", str(tau), "--out", str(tmp_path / "mesh.obj")],
        env=env, capture_output=True, text=True, timeout=120)
    assert "RuntimeWarning" not in proc.stderr
    return proc


class TestScale:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 80),
           e=st.integers(-300, 299))
    @example(seed=0, n=60, e=-300)
    @example(seed=0, n=60, e=299)
    def test_power_of_two_scales_are_exact(self, seed, n, e):
        pts = unit_cloud(seed, n)
        base = delaunay_complex(pts)
        scaled = delaunay_complex(np.ldexp(pts, e))
        np.testing.assert_array_equal(scaled.simplices, base.simplices)
        np.testing.assert_array_equal(scaled.neighbors, base.neighbors)
        assert scaled.radii.tobytes() == np.ldexp(base.radii, e).tobytes()

        tau = float(np.median(base.radii))
        mesh = triangulate(pts, tau)
        scaled_mesh = triangulate(np.ldexp(pts, e), float(np.ldexp(tau, e)))
        np.testing.assert_array_equal(scaled_mesh.faces, mesh.faces)
        assert scaled_mesh.vertices.tobytes() == np.ldexp(mesh.vertices, e).tobytes()

    @pytest.mark.parametrize("e, accepted", [(-301, False), (-300, True),
                                             (299, True), (300, False)])
    def test_range_ends(self, e, accepted):
        """The largest |coordinate| is exactly 2^e here; the range is
        [2^-300, 2^300)."""
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, size=(40, 3))
        pts[7, 1] = -1.0
        scaled = np.ldexp(pts, e)
        if accepted:
            assert len(delaunay_complex(scaled)) > 0
        else:
            with pytest.raises(DegenerateInput, match=RANGE_MESSAGE):
                delaunay_complex(scaled)

    @pytest.mark.parametrize("scale", ["1e110", "1e300"])
    def test_cli_rejects_out_of_range_clouds(self, scale, tmp_path):
        """SciPy's Qhull crashes on the raw torus at 1e110 and above."""
        cloud, _ = synth(SyntheticSpec("torus", n=2000, seed=2, fill="solid"))
        proc = run_triangulate(cloud.points * float(scale), 0.3 * float(scale), tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "supported range [2^-300, 2^300)" in proc.stderr


class TestDuplicatesAndPermutations:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(10, 80),
           copies=st.integers(1, 30))
    # A radius computed from the lowest-numbered corner kept one more face here.
    @example(seed=154, n=10, copies=1)
    def test_same_faces_as_coordinate_sets(self, seed, n, copies):
        """tau is the lower median radius, so a tetrahedron whose radius
        changed in its last bits with the numbering would change the faces."""
        rng = np.random.default_rng(seed)
        pts = rng.random((n, 3))
        radii = np.sort(delaunay_complex(pts).radii)
        tau = float(radii[(len(radii) - 1) // 2])
        noisy = rng.permutation(np.vstack([pts, pts[rng.integers(0, n, copies)]]))
        assert oriented_faces(triangulate(noisy, tau)) == oriented_faces(triangulate(pts, tau))


class TestFlatClouds:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 200),
           thickness=st.integers(3, 15), is_needle=st.booleans(),
           rotate=st.booleans(), tau=st.sampled_from([0.1, 10.0]))
    # Qhull keeps its point at infinity as a vertex of this slab's simplices.
    @example(seed=34397493, n=130, thickness=13, is_needle=False, rotate=False, tau=0.1)
    def test_slabs_and_needles_mesh_or_raise_a_typed_error(
            self, seed, n, thickness, is_needle, rotate, tau):
        """A slab is thin along z, a needle along y and z, 1e-3 to 1e-15."""
        if is_needle:
            pts = needle(seed, n, thickness, rotate)
        else:
            rng = np.random.default_rng(seed)
            pts = rng.random((n, 3))
            pts[:, 2] *= 10.0 ** -thickness
            if rotate:
                pts = pts @ random_rotation(rng).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                mesh = triangulate(pts, tau)
            except (EmptyMesh, DegenerateInput):
                return
        assert mesh.num_faces > 0

    def test_cli_rejects_a_needle_that_crashes_qhull(self, tmp_path):
        """SciPy's Qhull segfaults on this needle, 1e-13 thick."""
        proc = run_triangulate(needle(3522530527, 121, 13, rotate=True), 0.1, tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "collinear" in proc.stderr
