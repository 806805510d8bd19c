import numpy as np
import pytest

from alphaforge import (
    Mesh,
    PointCloud,
    SyntheticSpec,
    read_mesh,
    read_points,
    synth,
    triangulate,
    write_mesh,
    write_points,
)
from alphaforge.errors import ParseError, UnsupportedElement

MINIMAL_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
MINIMAL_OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
MINIMAL_PLY = """ply
format ascii 1.0
element vertex 3
property double x
property double y
property double z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
3 0 1 2
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestReadMesh:
    def test_minimal_obj(self, tmp_path):
        mesh = read_mesh(write(tmp_path, "t.obj", MINIMAL_OBJ))
        assert mesh.num_vertices == 3
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_minimal_off_matches_obj(self, tmp_path):
        a = read_mesh(write(tmp_path, "t.obj", MINIMAL_OBJ))
        b = read_mesh(write(tmp_path, "t.off", MINIMAL_OFF))
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.faces, b.faces)

    def test_minimal_ply_matches_obj(self, tmp_path):
        a = read_mesh(write(tmp_path, "t.obj", MINIMAL_OBJ))
        c = read_mesh(write(tmp_path, "t.ply", MINIMAL_PLY))
        np.testing.assert_array_equal(a.vertices, c.vertices)
        np.testing.assert_array_equal(a.faces, c.faces)

    def test_truncated_off_names_line(self, tmp_path):
        path = write(tmp_path, "bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n")
        with pytest.raises(ParseError) as err:
            read_mesh(path)
        assert "truncated" in str(err.value)

    def test_bad_float_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.obj", "v 0 0 0\nv oops 0 0\n")
        with pytest.raises(ParseError) as err:
            read_mesh(path)
        assert err.value.line == 2

    def test_nan_rejected(self, tmp_path):
        path = write(tmp_path, "nan.obj", "v nan 0 0\n")
        with pytest.raises(ParseError):
            read_mesh(path)

    def test_quad_fan_triangulated(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n"
        mesh = read_mesh(write(tmp_path, "quad.obj", text))
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])

    def test_binary_ply_rejected(self, tmp_path):
        text = "ply\nformat binary_little_endian 1.0\nend_header\n"
        with pytest.raises(UnsupportedElement):
            read_mesh(write(tmp_path, "bin.ply", text))

    def test_duplicate_vertices_kept_as_written(self, tmp_path):
        text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 0 0\nv 0 1 0\nv 0 0 1\n"
                "f 1 2 3\nf 4 5 6\n")
        mesh = read_mesh(write(tmp_path, "dup.obj", text))
        assert mesh.num_vertices == 6
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [3, 4, 5]])

    def test_obj_negative_indices(self, tmp_path):
        text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n"
        mesh = read_mesh(write(tmp_path, "neg.obj", text))
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


class TestRoundTrips:
    def test_mesh_round_trip_all_formats(self, tmp_path, tetra_mesh):
        for fmt in ("obj", "off", "ply"):
            path = tmp_path / f"t.{fmt}"
            write_mesh(tetra_mesh, path)
            back = read_mesh(path)
            np.testing.assert_array_equal(back.vertices, tetra_mesh.vertices)
            np.testing.assert_array_equal(back.faces, tetra_mesh.faces)

    def test_empty_mesh_round_trip(self, tmp_path):
        empty = Mesh(np.zeros((0, 3)))
        for fmt in ("off", "ply"):
            path = tmp_path / f"e.{fmt}"
            write_mesh(empty, path)
            back = read_mesh(path)
            assert back.num_vertices == 0 and back.num_faces == 0

    def test_reconstruction_bitwise_round_trip(self, tmp_path):
        cloud, _ = synth(SyntheticSpec("sphere", n=2000, fill="solid", seed=40))
        mesh = triangulate(cloud, 0.3)
        for fmt in ("obj", "off", "ply"):
            path = tmp_path / f"recon.{fmt}"
            write_mesh(mesh, path)
            back = read_mesh(path)
            assert np.array_equal(back.vertices, mesh.vertices)  # bitwise
            np.testing.assert_array_equal(back.faces, mesh.faces)

    def test_points_round_trip_exact(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(41))
        normals = rng.normal(size=(10_000, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(rng.random((10_000, 3)), normals)
        for fmt in ("xyz", "ply"):
            path = tmp_path / f"c.{fmt}"
            write_points(cloud, path)
            back = read_points(path)
            assert np.array_equal(back.points, cloud.points)
            assert np.array_equal(back.normals, cloud.normals)


class TestReadPoints:
    def test_single_point_no_normals(self, tmp_path):
        cloud = read_points(write(tmp_path, "p.xyz", "0 0 0\n"))
        assert len(cloud) == 1 and not cloud.has_normals

    def test_six_fields_normalizes(self, tmp_path):
        cloud = read_points(write(tmp_path, "p.xyz", "0 0 0 0 0 2\n"))
        np.testing.assert_allclose(cloud.normals, [[0, 0, 1]])

    def test_zero_normal_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            read_points(write(tmp_path, "p.xyz", "0 0 0 0 0 0\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError):
            read_points(write(tmp_path, "p.xyz", "0 0 0 1\n"))

    def test_mixed_normal_presence_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            read_points(write(tmp_path, "p.xyz", "0 0 0 0 0 1\n1 1 1\n"))
