"""Mesh and point-cloud file I/O: OBJ, OFF, ASCII PLY, and XYZ.

Writers emit shortest round-trip decimal floats (Python repr), so files are
diff-stable and re-reading reproduces coordinates bit-for-bit. Parsers
reject non-finite coordinates and report 1-based line numbers on failure.
Readers take the path ``-`` as standard input, writers as standard output.
Readers tell formats apart by the first word after any blank or ``#`` lines
(``ply``, ``OFF``, else OBJ or XYZ); writers by ``format``, else the suffix.

OBJ and XYZ files laid out as the writers lay them out (only ``v x y z``
lines followed by only ``f a b c`` lines; only ``x y z`` lines) are read
array-wide: one ``split`` of the whole text, then one ``float``/``int``
conversion per field, so a field is accepted exactly when the line parser
accepts it. Any other layout (comments, blank lines, ``vn`` or other
records, polygons, ``a/b/c`` indices, zero or negative indices, ``v`` lines
after an ``f`` line, XYZ normals) and any field the array path cannot take
(a non-finite or malformed value) go to the line-by-line parser. It alone
raises ``ParseError``, so error line numbers do not depend on the path.

OFF and PLY share one element reader, ``_read_elements``: the PLY header
and OFF's counts line each give counted ``(name, count, properties)``
elements. A count is decimal digits.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

import numpy as np

from .errors import IoError, ParseError, UnsupportedElement
from .mesh import Mesh, PointCloud

MESH_FORMATS = ("obj", "off", "ply")
POINT_FORMATS = ("xyz", "ply")
_FIRST_WORD = re.compile(r"(?:\s*#[^\n]*\n)*\s*(\S*)")


def _infer_format(path, fmt, allowed) -> str:
    fmt = (fmt or Path(path).suffix.lstrip(".")).lower()
    if fmt not in allowed:
        raise ValueError(f"format {fmt!r} not in {allowed}")
    return fmt


def _parse_floats(fields, lineno, count) -> list[float]:
    try:
        vals = [float(x) for x in fields[:count]]
    except ValueError as exc:
        raise ParseError(str(exc), lineno) from None
    if len(vals) < count:
        raise ParseError(f"expected {count} numeric fields, got {len(fields)}", lineno)
    if not all(math.isfinite(v) for v in vals):
        raise ParseError("non-finite coordinate", lineno)
    return vals


def _fan(indices, lineno):
    if len(indices) < 3:
        raise ParseError("face with fewer than 3 indices", lineno)
    return [(indices[0], indices[k], indices[k + 1]) for k in range(1, len(indices) - 1)]


def _text(path) -> str:
    """The contents of ``path``, or of standard input when it is ``-``,
    without a leading byte-order mark."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8", errors="strict") as fh:
                text = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise UnsupportedElement(f"file is not ASCII/UTF-8 text ({exc})") from None
    return text.removeprefix("\ufeff")


def read_mesh(path) -> Mesh:
    """Read a triangle mesh; polygonal faces are fan-triangulated. Vertices
    are kept as written (never merged), so topology diagnostics see the
    file's own connectivity."""
    return mesh_from_text(_text(path))


def mesh_from_text(text: str) -> Mesh:
    """Parse a mesh from file contents already in memory."""
    reader = {"ply": _read_ply, "OFF": _read_off}.get(_FIRST_WORD.match(text).group(1))
    verts, faces = _read_obj(text) if reader is None else reader(text.splitlines())[:2]
    return Mesh(verts, np.array(faces, dtype=np.int64).reshape(-1, 3))


def _fields(text: str, width: int) -> list[str] | None:
    """The whitespace-separated fields of ``text``, or None when its token
    and line counts cannot hold ``width`` fields per line.

    Every newline becomes a ';' token, so one ``split`` gives the fields
    and the line ends; then every (width + 1)-th token is deleted. The rest
    holds ``width`` fields per line only if each deleted token was a line
    end; otherwise a ';' is left among the fields, and no ``float``/``int``
    conversion or OBJ tag accepts it. The ``splitlines`` count rejects line
    breaks other than newlines.
    """
    if text and not text.endswith("\n"):
        text += "\n"
    n = text.count("\n")
    tokens = text.replace("\n", " ; ").split()
    if len(tokens) != (width + 1) * n or len(text.splitlines()) != n:
        return None
    del tokens[width::width + 1]
    return tokens


def _floats(fields: list[str]) -> np.ndarray | None:
    """``fields`` as finite float64 (n, 3) coordinates, or None."""
    try:
        vals = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
    except ValueError:
        return None
    return vals.reshape(-1, 3) if np.isfinite(vals).all() else None


def _read_obj(text: str):
    """Vertices and faces of an OBJ file: array-wide for plain ``v``/``f``
    records, else by the line parser (see the module docstring)."""
    fields = _fields(text, 4)
    if fields is not None:
        tags = fields[::4]
        nv = tags.count("v")
        if tags[nv:].count("f") == len(tags) - nv:
            del fields[::4]
            verts = _floats(fields[:3 * nv])
            try:
                faces = np.fromiter(map(int, fields[3 * nv:]), dtype=np.int64,
                                    count=len(fields) - 3 * nv)
            except (ValueError, OverflowError):
                faces = None
            if verts is not None and faces is not None and (faces > 0).all():
                return verts, (faces - 1).reshape(-1, 3)
    return _read_obj_lines(text.splitlines())


def _read_obj_lines(lines):
    verts: list[list[float]] = []
    faces: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        tag = fields[0]
        if tag == "v":
            verts.append(_parse_floats(fields[1:], lineno, 3))
        elif tag == "f":
            idx = []
            for token in fields[1:]:
                head = token.split("/")[0]
                try:
                    k = int(head)
                except ValueError:
                    raise ParseError(f"bad face index {token!r}", lineno) from None
                if k == 0:
                    raise ParseError("OBJ indices are 1-based; got 0", lineno)
                idx.append(k - 1 if k > 0 else len(verts) + k)
            faces.extend(_fan(idx, lineno))
        elif tag[0] in "0123456789+-.":  # no OBJ keyword does: an OFF/PLY body
            raise ParseError(f"record {tag!r} has no OBJ keyword", lineno)
        # vn/vt/usemtl and friends are ignored
    return np.array(verts, dtype=np.float64).reshape(-1, 3), faces


def _read_off(lines):
    """OFF reader: the ``OFF`` and counts lines, then ``_read_elements``."""
    content = [(i, ln.strip()) for i, ln in enumerate(lines, start=1)
               if ln.strip() and not ln.strip().startswith("#")]
    if not content or content[0][1] != "OFF":
        raise ParseError("missing OFF header", content[0][0] if content else 1)
    if len(content) < 2:
        raise ParseError("missing OFF counts line", content[0][0])
    lineno, counts = content[1]
    fields = counts.split()
    if len(fields) < 2 or not all(f.isdecimal() for f in fields[:2]):
        raise ParseError("OFF counts line must be 'nv nf ne'", lineno)
    elements = [("vertex", int(fields[0]), ["x", "y", "z"]), ("face", int(fields[1]), [])]
    return _read_elements(elements, content[2:], lineno)


def _read_ply(lines):
    """ASCII PLY reader: the header, then ``_read_elements``."""
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic", 1)
    elements: list[tuple[str, int, list[str]]] = []
    lineno = 1
    fmt_seen = False
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("comment"):
            continue
        fields = line.split()
        if fields[0] == "format":
            if len(fields) < 2:
                raise ParseError("format line names no format", lineno)
            if fields[1] != "ascii":
                raise UnsupportedElement(f"binary PLY ({fields[1]}) not supported",
                                         lineno)
            fmt_seen = True
        elif fields[0] == "element":
            if len(fields) != 3 or not fields[2].isdecimal():
                raise ParseError(f"element line needs a name and a count >= 0: {line!r}",
                                 lineno)
            elements.append((fields[1], int(fields[2]), []))
        elif fields[0] == "property":
            if not elements:
                raise ParseError("property before any element", lineno)
            if len(fields) != (5 if fields[1:2] == ["list"] else 3):
                raise ParseError("property line must be 'property <type> <name>' or "
                                 f"'property list <count type> <index type> <name>': "
                                 f"{line!r}", lineno)
            elements[-1][2].append(fields[-1])
        elif fields[0] == "end_header":
            break
        else:
            raise ParseError(f"unexpected header line {fields[0]!r}", lineno)
    else:
        raise ParseError("missing end_header", lineno)
    if not fmt_seen:
        raise ParseError("missing format line", lineno)
    body = [(i, ln.strip()) for i, ln in enumerate(lines[lineno:], start=lineno + 1)
            if ln.strip()]
    return _read_elements(elements, body, lineno)


def _read_elements(elements, rows, lineno):
    """(vertices, faces, normals or None, vertex line numbers) of an OFF or
    PLY body: ``rows`` are its (line number, text) records, read in turn as
    the header's counted ``(name, count, properties)`` elements, and
    ``lineno`` is the header's last line."""
    cursor = 0
    verts: list[list[float]] = []  # x y z, or x y z nx ny nz
    vertex_lines: list[int] = []
    faces: list[tuple[int, int, int]] = []
    for name, count, props in elements:
        if cursor + count > len(rows):
            raise ParseError(f"file truncated in element {name!r}",
                             rows[-1][0] if rows else lineno)
        block = rows[cursor:cursor + count]
        cursor += count
        if name == "vertex":
            if not {"x", "y", "z"}.issubset(props):
                raise ParseError("vertex element lacks x/y/z properties",
                                 block[0][0] if block else lineno)
            width = 6 if {"nx", "ny", "nz"}.issubset(props) else 3
            cols = [props.index(c) for c in ("x", "y", "z", "nx", "ny", "nz")[:width]]
            for ln, text in block:
                vals = _parse_floats(text.split(), ln, len(props))
                verts.append([vals[i] for i in cols])
                vertex_lines.append(ln)
        elif name == "face":
            for ln, text in block:
                fields = text.split()
                try:
                    k = int(fields[0])
                    idx = [int(x) for x in fields[1:1 + k]]
                except (ValueError, IndexError):
                    raise ParseError("bad face record", ln) from None
                if len(idx) != k:
                    raise ParseError(f"face promises {k} indices, has {len(idx)}", ln)
                faces.extend(_fan(idx, ln))
        else:
            raise UnsupportedElement(f"element {name!r} not supported",
                                     block[0][0] if block else lineno)
    normals = [row[3:] for row in verts if len(row) == 6]
    return (np.array([row[:3] for row in verts], dtype=np.float64).reshape(-1, 3), faces,
            np.array(normals, dtype=np.float64) if normals else None, vertex_lines)


def write_mesh(mesh: Mesh, path, format: str | None = None) -> None:
    """Write a mesh; re-reading reproduces vertices exactly and faces
    identically."""
    _write_text(path, mesh_to_text(mesh, _infer_format(path, format, MESH_FORMATS)))


def mesh_to_text(mesh: Mesh, format: str) -> str:
    """Serialize a mesh to file contents (same encoding as write_mesh)."""
    fmt = _infer_format("", format, MESH_FORMATS)
    v, f = mesh.vertices, mesh.faces
    if fmt == "obj":
        out = _rows("v ", v) + _rows("f ", f + 1)
    else:
        head = (["OFF", f"{len(v)} {len(f)} 0"] if fmt == "off"
                else _ply_header(len(v), len(f), normals=False))
        out = head + _rows("", v) + _rows("3 ", f)
    return "\n".join(out) + ("\n" if out else "")


def _rows(prefix: str, rows: np.ndarray, normals: np.ndarray | None = None) -> list[str]:
    """One ``prefix a b c`` line per row, or ``prefix a b c nx ny nz`` with
    normals; floats in their shortest round-trip form."""
    if normals is None:
        return [f"{prefix}{a!r} {b!r} {c!r}" for a, b, c in rows.tolist()]
    return [f"{prefix}{a!r} {b!r} {c!r} {x!r} {y!r} {z!r}"
            for (a, b, c), (x, y, z) in zip(rows.tolist(), normals.tolist())]


def _ply_header(nv: int, nf: int, normals: bool) -> list[str]:
    props = ("x", "y", "z", "nx", "ny", "nz")[:6 if normals else 3]
    return ["ply", "format ascii 1.0", f"element vertex {nv}",
            *(f"property double {p}" for p in props), f"element face {nf}",
            "property list uchar int vertex_indices", "end_header"]


def read_points(path) -> PointCloud:
    """Read a point cloud: XYZ ('x y z [nx ny nz]' per line) or ASCII PLY."""
    return points_from_text(_text(path))


def points_from_text(text: str) -> PointCloud:
    """Parse a point cloud from file contents already in memory."""
    if _FIRST_WORD.match(text).group(1) == "ply":
        verts, _, normals, lines = _read_ply(text.splitlines())
        return PointCloud(verts, None if normals is None else _normalize_normals(normals, lines))
    fields = _fields(text, 3)
    pts = None if fields is None else _floats(fields)
    if pts is not None:
        return PointCloud(pts)
    return _read_xyz_lines(text.splitlines())


def _read_xyz_lines(lines) -> PointCloud:
    rows: list[list[float]] = []
    row_lines: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 6):
            raise ParseError(f"expected 3 or 6 fields, got {len(fields)}", lineno)
        rows.append(_parse_floats(fields, lineno, len(fields)))
        row_lines.append(lineno)
        if len(fields) != len(rows[0]):
            raise ParseError("mixed lines with and without normals", lineno)
    data = np.array(rows, dtype=np.float64).reshape(-1, len(rows[0]) if rows else 3)
    normals = _normalize_normals(data[:, 3:], row_lines) if data.shape[1] == 6 else None
    return PointCloud(data[:, :3], normals)


def _normalize_normals(normals: np.ndarray, lines: list[int]) -> np.ndarray:
    """Unit rows in place, already-unit rows kept bit-exact; a ParseError at
    the line of a row whose norm is below 1e-12 or overflows."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(normals, axis=1)
    bad = (norms < 1e-12) | np.isinf(norms)
    if bad.any():
        raise ParseError("normal cannot be normalized", lines[int(np.argmax(bad))])
    fix = np.abs(norms - 1.0) > 1e-10
    normals[fix] = normals[fix] / norms[fix, None]
    return normals


def write_points(cloud: PointCloud, path, format: str | None = None) -> None:
    """Write a point cloud in XYZ or ASCII PLY form; exact round-trip."""
    _write_text(path, points_to_text(cloud, _infer_format(path, format, POINT_FORMATS)))


def points_to_text(cloud: PointCloud, format: str) -> str:
    """Serialize a point cloud to file contents (same encoding as
    write_points)."""
    fmt = _infer_format("", format, POINT_FORMATS)
    p, n = cloud.points, cloud.normals
    out = [] if fmt == "xyz" else _ply_header(len(p), 0, normals=n is not None)
    out += _rows("", p, n)
    return "\n".join(out) + ("\n" if out else "")


def _csv(header, rows) -> str:
    """CSV text: the header, then one line per row, each value as ``str``
    gives it (for a float, its shortest round-trip form)."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


def _write_text(path, text: str) -> None:
    """Write text to ``path``, or to standard output when it is ``-``."""
    try:
        if path == "-":
            sys.stdout.write(text)
            return
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
