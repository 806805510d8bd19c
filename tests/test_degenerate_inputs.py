"""Degenerate inputs: extreme scales, for every stage that measures distance,
and, for the triangulation layer, duplicated and permuted points, slabs and
needles. Each gives a result or a typed error, never a crash or a
RuntimeWarning."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaforge import (
    Mesh,
    PointCloud,
    SyntheticSpec,
    delaunay_complex,
    evaluate,
    meshio,
    reference_mesh,
    sample_surface,
    score_row,
    synth,
    triangulate,
)
from alphaforge.errors import DegenerateInput, EmptyMesh
from alphaforge.metrics import PROTOCOLS
from conftest import random_rotation

ROOT = Path(__file__).resolve().parents[1]
RANGE_MESSAGE = r"outside the supported range \[2\^-300, 2\^300\)"

# The torus reference mesh and a solid torus cloud at 11/8 scale: the mesh's
# largest |coordinate| is 1.925, in [1/0.57, 2), so every protocol-scaled
# mesh stays inside the range at every 2^j with j in [-300, 299].
TORUS = reference_mesh(SyntheticSpec("torus"))
TORUS = TORUS.with_vertices(TORUS.vertices * 1.375)
TORUS_CLOUD = PointCloud(synth(SyntheticSpec("torus", n=300, seed=1, fill="solid"))[0].points
                         * 1.375)
# A prediction that ICP has to turn back: the mesh turned 0.1 rad about x.
TURN = np.array(
    [[1.0, 0.0, 0.0], [0.0, np.cos(0.1), np.sin(0.1)], [0.0, -np.sin(0.1), np.cos(0.1)]])
TILTED = TORUS.with_vertices(TORUS.vertices @ TURN)


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


def run_cli(*args: str):
    """The CLI in a subprocess, where a crash shows as a signal instead of
    ending the test run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "alphaforge.cli", *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert "RuntimeWarning" not in proc.stderr
    return proc


def run_triangulate(points: np.ndarray, tau: float, tmp_path):
    """CLI ``triangulate`` of the points, in a subprocess."""
    path = tmp_path / "cloud.xyz"
    meshio.write_points(PointCloud(points), path)
    return run_cli("triangulate", "--in", str(path), "--tau", str(tau),
                   "--out", str(tmp_path / "mesh.obj"))


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

    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(-300, 299))
    @example(j=-300)
    @example(j=299)
    def test_sampling_evaluate_and_reward_are_exact_at_power_of_two_scales(self, j):
        """Scaled by 2^j, the samples scale by 2^j, bit for bit; under
        meshrcnn, which rescales, the report is equal; under the other
        protocols the Chamfer scales by 4^j and the normal cosine is equal;
        and the reward row, with its radius read off the ground truth, is
        equal."""
        def scaled(mesh):
            return mesh.with_vertices(np.ldexp(mesh.vertices, j))

        base, got = sample_surface(TORUS, 500, seed=1), sample_surface(scaled(TORUS), 500, seed=1)
        assert got.points.tobytes() == np.ldexp(base.points, j).tobytes()
        assert got.normals.tobytes() == base.normals.tobytes()

        for protocol in PROTOCOLS:
            base = evaluate(TILTED, TORUS, protocol, n_samples=300)
            got = evaluate(scaled(TILTED), scaled(TORUS), protocol, n_samples=300)
            if protocol == "meshrcnn":
                assert got == base
            else:
                assert got.chamfer == np.ldexp(base.chamfer, 2 * j), protocol
                assert got.normal_cosine == base.normal_cosine, protocol

        taus = [0.4, 0.8]
        want = score_row(TORUS_CLOUD, TORUS, taus, n_samples=300)
        assert 0 < min(want)
        assert score_row(PointCloud(np.ldexp(TORUS_CLOUD.points, j)), scaled(TORUS),
                         [float(np.ldexp(t, j)) for t in taus], n_samples=300) == want

    @pytest.mark.parametrize("subcommand", [
        ["sample", "--mesh", "{mesh}", "--n", "1000"],
        ["evaluate", "--protocol", "tmnet", "--pred", "{mesh}", "--gt", "{mesh}",
         "--n-samples", "1000"],
    ], ids=["sample", "evaluate-tmnet"])
    def test_cli_samples_and_evaluates_in_the_frame(self, subcommand, tmp_path):
        """The torus at 1e-7 has a total area near 1e-13 and is measured;
        a tetrahedron at 1e200 is refused with the range, not a warning."""
        torus = reference_mesh(SyntheticSpec("torus"))
        tetrahedron = Mesh(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]),
                           np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))
        for mesh, scale, code in ((torus, 1e-7, 0), (tetrahedron, 1e200, 2)):
            path = tmp_path / "mesh.obj"
            meshio.write_mesh(mesh.with_vertices(mesh.vertices * scale), path)
            proc = run_cli(*(a.format(mesh=path) for a in subcommand),
                           "--out", str(tmp_path / "out"))
            assert proc.returncode == code, proc.stderr
            if code:
                assert proc.stderr.splitlines() == [
                    "error: largest |coordinate| 1e+200 is outside the supported range "
                    "[2^-300, 2^300)"]


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
