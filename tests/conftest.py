import sys

import numpy as np
import pytest

from alphaforge import Mesh


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture
def tetra_mesh() -> Mesh:
    """Regular tetrahedron surface, outward orientation."""
    verts = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    faces = np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])
    return Mesh(verts, faces)


@pytest.fixture
def single_triangle() -> Mesh:
    return Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
                np.array([[0, 1, 2]]))


def _count_calls(monkeypatch, original, name: str) -> list:
    """Wrap ``original`` in every alphaforge module that binds it as
    ``name``; the returned list gets one entry (the positional arguments)
    per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, module in list(sys.modules.items()):
        if ((modname == "alphaforge" or modname.startswith("alphaforge."))
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def complex_builds(monkeypatch):
    """Counts ``delaunay_complex`` calls made through any alphaforge module."""
    from alphaforge import delaunay

    return _count_calls(monkeypatch, delaunay.delaunay_complex, "delaunay_complex")


@pytest.fixture
def descriptor_calls(monkeypatch):
    """Counts ``state_descriptor`` calls made through any alphaforge module."""
    from alphaforge import policy

    return _count_calls(monkeypatch, policy.state_descriptor, "state_descriptor")


@pytest.fixture
def surface_samplings(monkeypatch):
    """Counts ``sample_surface`` calls made through any alphaforge module;
    each entry's first item is the sampled mesh."""
    from alphaforge import sampling

    return _count_calls(monkeypatch, sampling.sample_surface, "sample_surface")


@pytest.fixture
def nn_calls(monkeypatch):
    """Counts ``loss._match`` calls (two-way correspondences) made through
    any alphaforge module."""
    from alphaforge import loss

    return _count_calls(monkeypatch, loss._match, "_match")


@pytest.fixture
def kdtree_builds(monkeypatch):
    """Counts kd-trees built by any alphaforge module."""
    from alphaforge import loss

    return _count_calls(monkeypatch, loss.cKDTree, "cKDTree")
