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


@pytest.fixture
def complex_builds(monkeypatch):
    """Counts ``delaunay_complex`` calls made through any alphaforge module."""
    import sys

    from alphaforge import delaunay

    original = delaunay.delaunay_complex
    calls = []

    def counted(points):
        calls.append(points)
        return original(points)

    for name, module in list(sys.modules.items()):
        if ((name == "alphaforge" or name.startswith("alphaforge."))
                and getattr(module, "delaunay_complex", None) is original):
            monkeypatch.setattr(module, "delaunay_complex", counted)
    return calls
