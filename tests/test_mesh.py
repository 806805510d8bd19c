import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from alphaforge import (
    Mesh,
    PointCloud,
    SyntheticSpec,
    enclosed_volume,
    reference_mesh,
    subdivide,
    topology,
)
from alphaforge.errors import InvalidMesh
from alphaforge.loss import _unit_normals
from alphaforge.mesh import _cross, _edge_table, _unique_rows, face_cross_products
from conftest import random_rotation


def brute_force_euler(mesh):
    """Oracle: set-based V, E, F counting independent of the library path."""
    edges = set()
    for a, b, c in mesh.faces.tolist():
        edges.add(frozenset((a, b)))
        edges.add(frozenset((b, c)))
        edges.add(frozenset((c, a)))
    return len(mesh.vertices) - len(edges) + len(mesh.faces)


class TestEulerCharacteristic:
    def test_tetrahedron_is_two(self, tetra_mesh):
        assert topology(tetra_mesh).chi == 2

    def test_empty_mesh_is_zero(self):
        assert topology(Mesh(np.zeros((0, 3)))).chi == 0

    def test_torus_reference_is_zero(self):
        torus = reference_mesh(SyntheticSpec("torus"))
        assert brute_force_euler(torus) == 0
        assert topology(torus).chi == 0

    def test_matches_brute_force_on_all_reference_shapes(self):
        for shape in ("sphere", "torus", "box", "stacked"):
            mesh = reference_mesh(SyntheticSpec(shape))
            assert topology(mesh).chi == brute_force_euler(mesh)

    def test_preserved_by_midpoint_subdivision(self, tetra_mesh):
        for mesh in (tetra_mesh, reference_mesh(SyntheticSpec("torus")),
                     reference_mesh(SyntheticSpec("stacked"))):
            assert topology(subdivide(mesh)).chi == topology(mesh).chi


class TestBoundaryEdges:
    def test_single_triangle_all_edges_boundary(self, single_triangle):
        be = topology(single_triangle).boundary_edges
        assert sorted(map(tuple, be.tolist())) == [(0, 1), (0, 2), (1, 2)]

    def test_closed_tetrahedron_has_none(self, tetra_mesh):
        assert len(topology(tetra_mesh).boundary_edges) == 0

    def test_hole_rim_has_three(self, tetra_mesh):
        holed = Mesh(tetra_mesh.vertices, tetra_mesh.faces[:-1])
        assert len(topology(holed).boundary_edges) == 3


class TestNonmanifoldEdges:
    def test_closed_tetrahedron_has_none(self, tetra_mesh):
        assert topology(tetra_mesh).nonmanifold_edges.shape == (0, 2)

    def test_empty_mesh_has_none(self):
        assert topology(Mesh(np.zeros((0, 3)))).nonmanifold_edges.shape == (0, 2)

    def test_three_fins_on_one_edge(self):
        verts = np.array([[0.0, 0, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0], [-1, -1, 0]])
        fins = Mesh(verts, np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4]]))
        topo = topology(fins)
        assert topo.nonmanifold_edges.tolist() == [[0, 1]]
        assert len(topo.boundary_edges) == 6


class TestTopology:
    def test_read_off_one_edge_table(self, monkeypatch, tetra_mesh):
        tables = []

        def counted(faces):
            tables.append(_edge_table(faces))
            return tables[-1]

        monkeypatch.setattr("alphaforge.mesh._edge_table", counted)
        topo = topology(tetra_mesh)
        assert len(tables) == 1
        np.testing.assert_array_equal(topo.edges, tables[0][0])
        assert (topo.chi, len(topo.edges)) == (2, 6)


def face_normals(mesh):
    """The unit face normals the loss's normal terms use."""
    return _unit_normals(face_cross_products(mesh))[0]


class TestFaceNormals:
    def test_axis_aligned(self, single_triangle):
        np.testing.assert_allclose(face_normals(single_triangle), [[0, 0, 1]])

    def test_reversed_winding_flips(self):
        mesh = Mesh(np.array([[0.0, 0, 0], [0.0, 1, 0], [1.0, 0, 0]]),
                    np.array([[0, 1, 2]]))
        np.testing.assert_allclose(face_normals(mesh), [[0, 0, -1]])

    def test_collinear_has_zero_cross_product(self):
        """A collinear face has no area and no normal direction: its cross
        product is exactly zero, and so is the normal the loss gives it."""
        collinear = Mesh(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
                         np.array([[0, 1, 2]]))
        np.testing.assert_array_equal(face_cross_products(collinear), 0.0)
        np.testing.assert_array_equal(face_normals(collinear), 0.0)
        good = Mesh(np.eye(3), np.array([[0, 1, 2]]))
        assert 0.5 * np.linalg.norm(face_cross_products(good)) == pytest.approx(np.sqrt(3) / 2)

    def test_rigid_equivariance(self, tetra_mesh):
        rng = np.random.default_rng(4)
        base = face_normals(tetra_mesh)
        for _ in range(5):
            rot = random_rotation(rng)
            shift = rng.normal(size=3)
            moved = tetra_mesh.with_vertices(tetra_mesh.vertices @ rot.T + shift)
            np.testing.assert_allclose(face_normals(moved), base @ rot.T, atol=1e-9)

    def test_translation_invariance(self, tetra_mesh):
        moved = tetra_mesh.with_vertices(tetra_mesh.vertices + [3.0, -2.0, 7.0])
        np.testing.assert_allclose(face_normals(moved), face_normals(tetra_mesh),
                                   atol=1e-9)


class TestInvariants:
    def test_face_index_out_of_range(self):
        with pytest.raises(InvalidMesh):
            Mesh(np.zeros((2, 3)), np.array([[0, 1, 2]]))

    def test_repeated_vertex_in_face(self):
        with pytest.raises(InvalidMesh):
            Mesh(np.zeros((3, 3)), np.array([[0, 1, 1]]))

    def test_duplicate_unordered_triple(self):
        verts = np.eye(3)
        with pytest.raises(InvalidMesh):
            Mesh(verts, np.array([[0, 1, 2], [2, 1, 0]]))

    def test_with_vertices_checks_the_new_vertex_array(self, tetra_mesh):
        moved = tetra_mesh.with_vertices(tetra_mesh.vertices * 2.0)
        assert moved.faces is tetra_mesh.faces
        np.testing.assert_array_equal(moved.vertices, tetra_mesh.vertices * 2.0)
        for count in (3, 5):
            with pytest.raises(InvalidMesh):
                tetra_mesh.with_vertices(np.zeros((count, 3)))
        with pytest.raises(ValueError):
            tetra_mesh.with_vertices(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            tetra_mesh.with_vertices(np.full((4, 3), np.inf))

    def test_nonfinite_vertices_rejected(self):
        with pytest.raises(ValueError):
            Mesh(np.array([[np.nan, 0, 0]]), np.zeros((0, 3), dtype=int))

    def test_pointcloud_normal_count_and_unit_norm(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((2, 3)), np.array([[1.0, 0, 0]]))
        with pytest.raises(ValueError):
            PointCloud(np.zeros((1, 3)), np.array([[0.5, 0, 0]]))
        PointCloud(np.zeros((1, 3)), np.array([[1.0, 0, 0]]))

    def test_outward_tetra_volume_positive(self, tetra_mesh):
        assert enclosed_volume(tetra_mesh) > 0



def assert_unique_rows_match_numpy(rows):
    got = _unique_rows(rows)
    want = np.unique(rows, axis=0, return_inverse=True, return_counts=True)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


# Values near 0, near 2**21 (where a 3-column packed key stops fitting in 63
# bits) and anywhere in int64, so both the packed key and lexsort are taken.
ROW_VALUES = st.one_of(st.integers(0, 4), st.integers(2**21 - 2, 2**21 + 2),
                       st.integers(-2**63, 2**63 - 1))


class TestUniqueRows:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.integers(1, 3).flatmap(lambda k: hnp.arrays(
        np.int64, st.tuples(st.integers(0, 40), st.just(k)), elements=ROW_VALUES)))
    def test_matches_numpy_unique(self, rows):
        assert_unique_rows_match_numpy(rows)

    @pytest.mark.parametrize("rows", [
        np.zeros((0, 3), dtype=np.int64),
        np.array([[7, 3, 5]]),
        np.full((6, 2), 9),
        np.array([[2**21, 0, 1], [0, 2**21, 1], [2**21, 0, 1], [0, 0, 2**21 + 5]]),
        np.array([[2**40, 3], [0, 2**40], [2**40, 3]]),
    ], ids=["empty", "single", "all-equal", "3-columns-past-2**21", "2-columns-past-2**31"])
    def test_edge_cases(self, rows):
        assert_unique_rows_match_numpy(rows.astype(np.int64))


def assert_edge_table_matches_numpy(faces):
    edges, opposite, counts = _edge_table(faces)
    # the edge opposite corner k of a face joins its other two corners
    pairs = np.stack([faces[:, [1, 2]], faces[:, [2, 0]], faces[:, [0, 1]]])
    pairs = np.sort(pairs, axis=2)
    want_edges, want_inverse, want_counts = np.unique(
        pairs.reshape(-1, 2), axis=0, return_inverse=True, return_counts=True)
    np.testing.assert_array_equal(edges, want_edges)
    np.testing.assert_array_equal(opposite, want_inverse.reshape(3, len(faces)))
    np.testing.assert_array_equal(counts, want_counts)
    for k in range(3):
        np.testing.assert_array_equal(edges[opposite[k]], pairs[k])


class TestEdgeTable:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_vertices=st.integers(3, 12),
           n_faces=st.integers(0, 40))
    def test_matches_numpy_unique(self, seed, n_vertices, n_faces):
        rng = np.random.default_rng(seed)
        faces = np.array([rng.choice(n_vertices, 3, replace=False)
                          for _ in range(n_faces)], dtype=np.int64).reshape(-1, 3)
        assert_edge_table_matches_numpy(faces)

    @pytest.mark.parametrize("faces", [
        np.zeros((0, 3), dtype=np.int64),
        np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4], [4, 1, 5]]),
        reference_mesh(SyntheticSpec("torus")).faces,
    ], ids=["empty", "nonmanifold-fan", "torus"])
    def test_cases(self, faces):
        assert_edge_table_matches_numpy(faces)

    def test_nonmanifold_fan_counts(self):
        edges, _, counts = _edge_table(np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
        assert edges[counts == 3].tolist() == [[0, 1]]
        assert (counts[np.any(edges != [0, 1], axis=1)] == 1).all()


class TestCross:
    @settings(max_examples=200, deadline=None)
    @given(pair=st.integers(0, 12).flatmap(lambda n: st.tuples(*[hnp.arrays(
        np.float64, (n, 3), elements=st.one_of(
            st.sampled_from([0.0, -0.0, 1.0, -1.0]),
            st.floats(-1e200, 1e200, allow_subnormal=True)))] * 2)))
    def test_matches_numpy_cross(self, pair):
        a, b = pair
        with np.errstate(all="ignore"):
            assert _cross(a, b).tobytes() == np.cross(a, b).tobytes()
