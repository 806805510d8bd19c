import hashlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from alphaforge import meshio
from alphaforge.errors import AlphaForgeError, InvalidMesh, ParseError, UnsupportedElement
from alphaforge.policy import QPolicy, load_policy, policy_to_json

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
PLY_TWO_VERTICES_THREE_ROWS = """ply
format ascii 1.0
element vertex 2
property double x
property double y
property double z
end_header
0 0 0
1 0 0
0 1 0
"""


MALFORMED_PLY_HEADER_LINES = [
    "element vertex", "element", "format", "element vertex x", "element vertex -2",
    "element vertex 2 extra", "property", "property double", "property double z extra",
    "property list uchar int", "property list uchar int z extra",
]


def malformed_ply_header_index(line):
    """Where a line of MALFORMED_PLY_HEADER_LINES goes in a header of 'ply',
    'format', 'element vertex 2' and three property lines."""
    return 1 if line == "format" else 5 if line.startswith("property") else 2


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

    @pytest.mark.parametrize("read, text, line", [
        (meshio.mesh_from_text, MINIMAL_OFF + "3 0 2 1\n", 7),
        (meshio.mesh_from_text, PLY_TWO_VERTICES_THREE_ROWS, 10),
        (meshio.points_from_text, PLY_TWO_VERTICES_THREE_ROWS, 10),
    ], ids=["off-face", "ply-mesh", "ply-points"])
    def test_row_after_the_last_element_rejected_at_its_line(self, read, text, line):
        """A row beyond the declared counts is refused, not dropped: an OFF
        face row after the last face, a PLY vertex row after the last vertex."""
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.line == line
        assert "after the last element" in str(err.value)

    @pytest.mark.parametrize("read, text, line", [
        (meshio.mesh_from_text, "OFF\n3 1 0\n0 0 0\n1 0 0 9\n0 1 0\n3 0 1 2\n", 4),
        (meshio.mesh_from_text, "OFF\n3 1 0\n0 0 0\n1 0\n0 1 0\n3 0 1 2\n", 4),
        (meshio.mesh_from_text, MINIMAL_PLY.replace("1 0 0\n", "1 0 0 4 5 6\n"), 11),
        (meshio.points_from_text, PLY_TWO_VERTICES_THREE_ROWS.replace("1 0 0\n0 1 0\n",
                                                                      "1 0 0 0 0 1\n"), 9),
    ], ids=["off-extra", "off-short", "ply-mesh-extra", "ply-points-extra"])
    def test_vertex_row_of_another_width_rejected_at_its_line(self, read, text, line):
        """A vertex row has exactly its element's fields: a PLY row with
        normals under x/y/z properties is not read as a bare point, nor an
        OFF row with a fourth field as its first three."""
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.line == line
        assert "vertex row has" in str(err.value)

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

    @pytest.mark.parametrize("line", MALFORMED_PLY_HEADER_LINES)
    def test_malformed_ply_header_line_rejected_at_its_line(self, line):
        """A header line that lacks a field or has one too many, or whose
        count is not a whole number >= 0, is a ParseError at that line, also
        when vertex lines follow that a count could take. Property lines
        replace the vertex element's third property line."""
        header = ["ply", "format ascii 1.0", "element vertex 2", "property double x",
                  "property double y", "property double z", "end_header"]
        at = malformed_ply_header_index(line)
        header[at] = line
        text = "\n".join(header + ["0 0 0", "1 1 1"]) + "\n"
        for read in (meshio.mesh_from_text, meshio.points_from_text):
            with pytest.raises(ParseError) as err:
                read(text)
            assert err.value.line == at + 1

    @pytest.mark.parametrize("counts", ["3 -1 0", "-1 1 0", "3 x 0", "+3 1 0", "3"])
    def test_off_counts_must_be_decimal_digits(self, counts):
        """A count is decimal digits, as in PLY: a negative nf must not read
        as no faces, nor a negative nv reach the mesh as a bad face index."""
        with pytest.raises(ParseError) as err:
            meshio.mesh_from_text(f"OFF\n{counts}\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
        assert err.value.line == 2

    def test_dash_reads_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MINIMAL_OFF))
        mesh = read_mesh("-")
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
        monkeypatch.setattr("sys.stdin", io.StringIO("0 0 0\n1 2 3\n"))
        np.testing.assert_array_equal(read_points("-").points, [[0, 0, 0], [1, 2, 3]])

    @pytest.mark.parametrize("read, dump, text", [
        (read_mesh, lambda m: meshio.mesh_to_text(m, "obj"), MINIMAL_OBJ),
        (read_mesh, lambda m: meshio.mesh_to_text(m, "obj"), MINIMAL_OFF),
        (read_mesh, lambda m: meshio.mesh_to_text(m, "obj"), MINIMAL_PLY),
        (read_points, lambda c: meshio.points_to_text(c, "xyz"), "0 0 0 0 0 2\n1 2 3 1 0 0\n"),
        (load_policy, policy_to_json, policy_to_json(QPolicy.fresh((0.3, 0.9)))),
    ], ids=["obj", "off", "ply", "xyz", "policy"])
    def test_leading_byte_order_mark_dropped(self, tmp_path, monkeypatch, read, dump, text):
        """A file or stdin that starts with a UTF-8 byte-order mark reads as
        the same text without one."""
        want = dump(read(write(tmp_path, "plain", text)))
        path = tmp_path / "bom"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
        assert dump(read(path)) == dump(read("-")) == want

    @pytest.mark.parametrize("head", ["# a comment\n", "\n  \n", "# a\n\n\t# b\r\n"])
    def test_off_line_after_comments_and_blank_lines(self, head):
        """The format is the first word after any blank or '#' lines."""
        mesh = meshio.mesh_from_text(head + MINIMAL_OFF)
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])

    def test_format_read_from_content_not_suffix(self, tmp_path):
        """OBJ text named .off reads as OBJ and an XYZ cloud named .txt
        reads; OFF text without its OFF line, OFF given as a cloud and PLY
        whose magic is not on line 1 are refused at their line."""
        mesh = read_mesh(write(tmp_path, "t.off", MINIMAL_OBJ))
        np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])
        cloud = read_points(write(tmp_path, "c.txt", "0 0 0\n1 2 3\n"))
        np.testing.assert_array_equal(cloud.points, [[0, 0, 0], [1, 2, 3]])
        for read, text in ((read_mesh, MINIMAL_OFF.split("\n", 1)[1]),
                           (read_points, MINIMAL_OFF), (read_mesh, "\n" + MINIMAL_PLY)):
            with pytest.raises(ParseError) as err:
                read(write(tmp_path, "t.off", text))
            assert err.value.line == 1

    @pytest.mark.parametrize("text, line", [
        (MINIMAL_OFF, 2), (MINIMAL_PLY, 10), ("v 0 0 0\n-1 2 3\n", 2),
        ("v 0 0 0\n+1 2 3\n", 2), ("# a comment\n.5 1 2\n", 2),
    ], ids=["off", "ply", "minus", "plus", "dot"])
    def test_obj_record_starting_like_a_number_rejected_at_its_line(self, text, line):
        """No OBJ keyword starts with a digit, a sign or '.', so an OFF or
        PLY body read as OBJ is a ParseError, not an empty mesh."""
        with pytest.raises(ParseError) as err:
            meshio._read_obj(text)
        assert err.value.line == line

    def test_dash_writes_stdout(self, capsys):
        write_mesh(meshio.mesh_from_text(MINIMAL_OBJ), "-", "obj")
        write_points(PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])), "-", "xyz")
        assert capsys.readouterr().out == (
            "v 0.0 0.0 0.0\nv 1.0 0.0 0.0\nv 0.0 1.0 0.0\nf 1 2 3\n"
            "0.0 0.0 0.0\n1.0 2.0 3.0\n")

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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestWritersPinned:
    """SHA-256 of the writers' output, recorded when each format had its
    own row and header code."""

    @pytest.mark.parametrize("fmt, solid, empty", [
        ("obj", "8c8f1170122c510835e11b81a1dc38409e0cf3383aadd1ab52b283580656bb17",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("off", "38d87ea7c09d8004f95c0806e92c03e5dbdc521062d76579e6c9e3a1a8123614",
         "3e5911a056895b33a80f0c2b8a4ffbe28896d4eb287627c837eb156ad5ddd3ce"),
        ("ply", "002d07ac7bef77a1c4f26f60bd498707fef3649397691d2807e9716c14a9ca44",
         "cc4b73a93f144324e887588632025591e3f12d585a937d4d09e97f9a3031db89"),
    ])
    def test_mesh_bytes_pinned(self, fmt, solid, empty):
        cloud, _ = synth(SyntheticSpec("torus", n=500, fill="solid", seed=3))
        mesh = triangulate(cloud, 0.3)
        assert sha256(meshio.mesh_to_text(mesh, fmt)) == solid
        assert sha256(meshio.mesh_to_text(Mesh(np.zeros((0, 3))), fmt)) == empty

    @pytest.mark.parametrize("fmt, plain, with_normals", [
        ("xyz", "8387da1b8eb8decfbc899e38750fe1a349f1bc83a7e01c2de85c5b877abf808e",
         "14de9e6017e6f068d55bc7b979bb54b45e3066c91a3dadd5fe62b517754c0649"),
        ("ply", "a3380e5c0ed19c2f861ddb2029cd97104adad66a28ae7e4af3228fee0b1caae0",
         "67c4f4b6eeaf8793efa15a9af7fb26b56b138e9026045d7364893ca7da3ce93c"),
    ])
    def test_points_bytes_pinned(self, fmt, plain, with_normals):
        cloud, _ = synth(SyntheticSpec("torus", n=300, fill="surface", seed=5))
        assert cloud.has_normals
        assert sha256(meshio.points_to_text(PointCloud(cloud.points), fmt)) == plain
        assert sha256(meshio.points_to_text(cloud, fmt)) == with_normals


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

    def test_first_normal_after_plain_lines_rejected_at_its_line(self):
        with pytest.raises(ParseError, match="mixed lines") as err:
            meshio.points_from_text("1 1 1\n1 1 1 1 1 1\n")
        assert err.value.line == 2

    @pytest.mark.parametrize("normal", ["1e154 1e154 1e154", "0 0 1e-13", "0 0 0"])
    def test_normal_that_cannot_be_normalized_rejected_at_its_line(self, normal):
        xyz = f"0 0 0 0 0 1\n1 1 1 {normal}\n"
        ply = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
               "property double y\nproperty double z\nproperty double nx\n"
               "property double ny\nproperty double nz\nend_header\n") + xyz
        for text, line in ((xyz, 2), (ply, 12)):
            with pytest.raises(ParseError, match="normal cannot be normalized") as err:
                meshio.points_from_text(text)
            assert err.value.line == line


# ---------------------------------------------------------------------------
# The array-wide OBJ/XYZ path against the line parser


def failure(exc):
    return type(exc).__name__, str(exc), getattr(exc, "line", None)


def obj_outcome(read, arg):
    """Byte-exact result of an OBJ reader: the vertex and face arrays as
    ``mesh_from_text`` builds them, or the error with its line."""
    try:
        verts, faces = read(arg)
    except (AlphaForgeError, ValueError) as exc:
        return failure(exc)
    faces = np.array(faces, dtype=np.int64).reshape(-1, 3)
    return verts.dtype.str, verts.shape, verts.tobytes(), faces.shape, faces.tobytes()


def xyz_outcome(read, arg):
    try:
        cloud = read(arg)
    except (AlphaForgeError, ValueError) as exc:
        return failure(exc)
    normals = None if cloud.normals is None else cloud.normals.tobytes()
    return cloud.points.dtype.str, cloud.points.shape, cloud.points.tobytes(), normals


def array_path_obj(text):
    return obj_outcome(meshio._read_obj, text)


def line_parser_obj(text):
    return obj_outcome(meshio._read_obj_lines, text.splitlines())


def array_path_xyz(text):
    return xyz_outcome(meshio.points_from_text, text)


def line_parser_xyz(text):
    return xyz_outcome(meshio._read_xyz_lines, text.splitlines())


def line_parser_unused():
    """Make the line parsers raise: writer output must never reach them."""
    def unused(lines):
        raise AssertionError("the line parser ran on plain writer output")
    return mock.patch.multiple(meshio, _read_obj_lines=unused, _read_xyz_lines=unused)


COORDS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.floats(-2.0, 2.0))


@st.composite
def meshes(draw):
    nv = draw(st.integers(0, 12))
    verts = draw(hnp.arrays(np.float64, (nv, 3), elements=COORDS))
    faces = []
    if nv >= 3:
        index = st.integers(0, nv - 1)
        faces = draw(st.lists(st.tuples(index, index, index).filter(
            lambda t: len(set(t)) == 3), unique_by=lambda t: tuple(sorted(t)), max_size=15))
    return Mesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))


@st.composite
def clouds(draw):
    n = draw(st.integers(0, 12))
    points = draw(hnp.arrays(np.float64, (n, 3), elements=COORDS))
    if not draw(st.booleans()):
        return PointCloud(points)
    raw = draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-1.0, 1.0)).filter(
        lambda a: (np.linalg.norm(a, axis=1) > 0.1).all()))
    return PointCloud(points, raw / np.linalg.norm(raw, axis=1, keepdims=True))


def _edit_line(k, edit):
    def apply(lines):
        i = k % len(lines) if lines else 0
        return lines[:i] + edit(lines[i] if lines else "") + lines[i + 1:]
    return apply


def _replace_token(k, new):
    def edit(line):
        fields = line.split()
        if len(fields) > 1:
            fields[1 + k % (len(fields) - 1)] = new(fields[1 + k % (len(fields) - 1)])
        return [" ".join(fields)]
    return _edit_line(k, edit)


def _underscore(token):
    return token[0] + "_" + token[1:] if len(token) > 1 and token[:2].isdigit() else token


# Each edit takes the file's lines and a position, and returns new lines (or
# the text itself when the edit is to the line ends).
EDITS = {
    "comment": lambda lines, k: lines[:k] + ["# a comment"] + lines[k:],
    "blank": lambda lines, k: lines[:k] + ["", "   "] + lines[k:],
    "crlf": lambda lines, k: "\r\n".join(lines) + "\r\n",
    "no-final-newline": lambda lines, k: "\n".join(lines),
    # positive integer fields, so a record read under the wrong tag converts
    "vn": lambda lines, k: lines[:k] + ["vn 1 1 1"] + lines[k:],
    "quad": lambda lines, k: lines + ["f 1 2 3 4"],
    "slashes": lambda lines, k: _replace_token(k, lambda t: f"{t}/{t}/{t}")(lines),
    "negative": lambda lines, k: lines + ["f -1 -2 -3"],
    "zero-index": lambda lines, k: lines + ["f 0 1 2"],
    "interleaved": lambda lines, k: lines[:k] + ["v 1 2 3"] + lines[k:],
    "nan": lambda lines, k: _replace_token(k, lambda t: "nan")(lines),
    "inf": lambda lines, k: _replace_token(k, lambda t: "-Infinity")(lines),
    "underscore": lambda lines, k: _replace_token(k, _underscore)(lines),
    "bad-field": lambda lines, k: _replace_token(k, lambda t: "oops")(lines),
    "extra-field": lambda lines, k: _edit_line(k, lambda line: [line + " 1"])(lines),
    # one line as long as two records and their newline
    "extra-record": lambda lines, k: _edit_line(
        k, lambda line: [line + " 1" * (4 + k % 2)])(lines),
    "short-line": lambda lines, k: _edit_line(k, lambda line: [line.rsplit(" ", 1)[0]])(lines),
    "two-per-line": lambda lines, k: _edit_line(k, lambda line: [line + " " + line])(lines),
    "split-line": lambda lines, k: _edit_line(k, lambda line: line.split(" ", 1))(lines),
    "tab": lambda lines, k: _edit_line(k, lambda line: [line.replace(" ", "\t", 1)])(lines),
    "indent": lambda lines, k: _edit_line(k, lambda line: ["  " + line])(lines),
    # line breaks that splitlines honours and a newline count does not see
    "joined-by-cr": lambda lines, k: "\n".join(lines).replace("\n", "\r", 1 + k % 2),
    "split-by-cr": lambda lines, k: _edit_line(
        k, lambda line: [line.replace(" ", "\r", 1)])(lines),
    "split-by-vt": lambda lines, k: _edit_line(
        k, lambda line: [line.replace(" ", "\x0b", 1)])(lines),
    "split-by-fs": lambda lines, k: _edit_line(
        k, lambda line: [line.replace(" ", "\x1c", 1)])(lines),
    "split-by-ls": lambda lines, k: _edit_line(
        k, lambda line: [line.replace(" ", "\u2028", 1)])(lines),
    # a ';' field and a line break that only splitlines honours: the counts
    # of newlines and of fields still fit a plain layout
    "semicolon": lambda lines, k: _edit_line(k, lambda line: [
        line.split(" ", 1)[0] + " ;\r" + line.split(" ", 1)[1] if " " in line else line])(
            lines),
}


def apply_edit(text, name, k):
    out = EDITS[name](text.splitlines(), k)
    return out if isinstance(out, str) else "\n".join(out) + "\n"


class TestArrayPath:
    @settings(max_examples=150, deadline=None)
    @given(mesh=meshes())
    def test_obj_writer_output_identical_and_never_line_parsed(self, mesh):
        text = meshio.mesh_to_text(mesh, "obj")
        with line_parser_unused():
            fast = array_path_obj(text)
        assert fast == line_parser_obj(text)

    @settings(max_examples=150, deadline=None)
    @given(cloud=clouds())
    def test_xyz_writer_output_identical(self, cloud):
        text = meshio.points_to_text(cloud, "xyz")
        assert array_path_xyz(text) == line_parser_xyz(text)
        if not cloud.has_normals:
            with line_parser_unused():
                array_path_xyz(text)

    @settings(max_examples=300, deadline=None)
    @given(mesh=meshes(), edit=st.sampled_from(sorted(EDITS)), k=st.integers(0, 50))
    def test_obj_edited_copies_agree(self, mesh, edit, k):
        text = apply_edit(meshio.mesh_to_text(mesh, "obj"), edit, k)
        assert array_path_obj(text) == line_parser_obj(text)

    @settings(max_examples=300, deadline=None)
    @given(cloud=clouds(), edit=st.sampled_from(sorted(EDITS)), k=st.integers(0, 50))
    def test_xyz_edited_copies_agree(self, cloud, edit, k):
        text = apply_edit(meshio.points_to_text(cloud, "xyz"), edit, k)
        assert array_path_xyz(text) == line_parser_xyz(text)

    @pytest.mark.parametrize("text, fmt, line", [
        ("v 1 2\n3 v 4 5 6\n", "obj", 1),
        ("1 2\n3 4 5 6\n", "xyz", 1),
        ("1 2 3 ;\r4 5 6\n", "xyz", 1),
        ("0 0 0\n1 1 nan\n", "xyz", 2),
    ])
    def test_misaligned_records_reach_the_line_parser(self, text, fmt, line):
        """Field counts that fit a plain layout although the lines do not."""
        read = meshio.mesh_from_text if fmt == "obj" else meshio.points_from_text
        with pytest.raises(ParseError) as err:
            read(text)
        assert err.value.line == line

    def test_two_records_on_one_line_read_as_one(self):
        """The line parser reads the first three fields of a 'v' line, so
        face 1 2 3 names a third vertex that does not exist."""
        with pytest.raises(InvalidMesh):
            meshio.mesh_from_text("v 0 0 0\nv 1 2 3 v 4 5 6\nf 1 2 3\n")

    def test_plain_files_never_reach_the_line_parser(self, tmp_path):
        cloud, ref = synth(SyntheticSpec("torus", n=500, fill="solid", seed=3))
        write_mesh(ref, tmp_path / "ref.obj")
        write_points(cloud, tmp_path / "cloud.xyz")
        with line_parser_unused():
            mesh = read_mesh(tmp_path / "ref.obj")
            back = read_points(tmp_path / "cloud.xyz")
        assert np.array_equal(mesh.vertices, ref.vertices)
        np.testing.assert_array_equal(mesh.faces, ref.faces)
        assert np.array_equal(back.points, cloud.points) and back.normals is None
