"""Point-cloud file reading and writing: ASCII XYZ and ASCII PLY.

Coordinates are written with shortest round-trip precision (Python float
repr), so a write/parse cycle reproduces the array bit for bit. Binary
PLY is recognized and rejected explicitly.

A coordinate token is accepted exactly when Python's `float()` accepts it
and |value| <= `COORD_LIMIT` (in a transform file 4 `COORD_LIMIT`, the
translation bound; `RigidTransform` checks the rest). Each file's tokens
are converted in one pass; a malformed file raises the first error in file
order, with its line.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path

import numpy as np

from .errors import ParseError, UnsupportedFormat
from .geom import PointCloud, RigidTransform
from .metrics import CorrespondenceSet
from .spatial import COORD_LIMIT, _in_coord_domain

__all__ = [
    "FORMATS",
    "detect_format",
    "parse_cloud_file",
    "parse_correspondence_file",
    "parse_transform_file",
    "write_cloud_file",
    "write_correspondence_file",
    "write_transform_file",
]

FORMATS = ("xyz-ascii", "ply-ascii")

_SUFFIX_FORMAT = {".xyz": "xyz-ascii", ".txt": "xyz-ascii", ".ply": "ply-ascii"}

# Scalar property types a PLY vertex row may carry.
_PLY_SCALAR_TYPES = {
    "char", "int8", "uchar", "uint8", "short", "int16", "ushort", "uint16",
    "int", "int32", "uint", "uint32", "float", "float32", "double", "float64",
}


def detect_format(path) -> str:
    """Pick a format from the file suffix (.xyz/.txt or .ply)."""
    suffix = Path(path).suffix.lower()
    try:
        return _SUFFIX_FORMAT[suffix]
    except KeyError:
        raise UnsupportedFormat(
            f"cannot infer cloud format from suffix {suffix!r}; "
            f"expected one of {sorted(set(_SUFFIX_FORMAT))}") from None


def _parse_float(token: str, path: str, lineno: int,
                 limit: float = COORD_LIMIT) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"not a number: {token!r}", path, lineno) from None
    if not _in_coord_domain(np.float64(value), limit):
        what = "out-of-range" if math.isfinite(value) else "non-finite"
        raise ParseError(f"{what} coordinate: {token!r}", path, lineno)
    return value


def _resolve_format(path: str, format: str | None) -> str:
    """`format`, or the one the suffix of `path` names when it is None."""
    if format is None:
        format = detect_format(path)
    if format not in FORMATS:
        raise UnsupportedFormat(
            f"unknown format {format!r}; expected one of {FORMATS}")
    return format


def _read_lines(path: str) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _token_rows(lines: list[str], path: str, width: int | None = None,
                unit: str = "values"):
    """Yield (line number, tokens) for each line left non-blank once its
    `#` comment is cut. With `width`, a line of any other token count
    raises ParseError when it is reached."""
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if width is not None and len(tokens) != width:
            raise ParseError(
                f"expected {width} {unit}, got {len(tokens)}", path, lineno)
        yield lineno, tokens


def _to_floats(rows, path: str, limit: float = COORD_LIMIT) -> np.ndarray:
    """Every token of `rows()`, an iterator of (line number, tokens), as
    one flat float64 array of values within +-`limit`.

    Each token goes through Python's `float()` once and the array gets one
    domain check. If anything is malformed, the rows are walked again in
    file order, token by token, to raise the first error with its line.
    """
    tokens = []
    try:
        for _, row in rows():
            tokens += row
        values = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except (ParseError, ValueError):
        pass
    else:
        if _in_coord_domain(values, limit):
            return values
    for lineno, row in rows():
        for token in row:
            _parse_float(token, path, lineno, limit)
    raise AssertionError(f"{path}: malformed, but no token fails to parse")


def _parse_xyz(lines: list[str], path: str) -> PointCloud:
    points = _to_floats(
        lambda: _token_rows(lines, path, 3, "coordinates"), path)
    if not len(points):
        raise ParseError("no points found (empty cloud)", path)
    return PointCloud(points.reshape(-1, 3))


def _parse_ply(lines: list[str], path: str) -> PointCloud:
    if not lines or lines[0].strip() != "ply":
        raise ParseError("missing 'ply' magic line", path, 1)

    elements: list[tuple[str, int, list[str], bool]] = []  # name, count, props, has_list
    saw_format = False
    body_start = None
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens or tokens[0] == "comment" or tokens[0] == "obj_info":
            continue
        keyword = tokens[0]
        if keyword == "format":
            if len(tokens) < 2:
                raise ParseError("malformed format line", path, lineno)
            if tokens[1] in ("binary_little_endian", "binary_big_endian"):
                raise UnsupportedFormat(
                    f"{path}: binary PLY is not supported; "
                    "convert to ascii 1.0 first")
            if tokens[1] != "ascii":
                raise ParseError(f"unknown PLY format {tokens[1]!r}", path, lineno)
            saw_format = True
        elif keyword == "element":
            if len(tokens) != 3:
                raise ParseError("malformed element line", path, lineno)
            try:
                count = int(tokens[2])
            except ValueError:
                raise ParseError(
                    f"bad element count {tokens[2]!r}", path, lineno) from None
            elements.append((tokens[1], count, [], False))
        elif keyword == "property":
            if not elements:
                raise ParseError("property before any element", path, lineno)
            name, count, props, has_list = elements[-1]
            if len(tokens) >= 2 and tokens[1] == "list":
                elements[-1] = (name, count, props, True)
            elif len(tokens) == 3 and tokens[1] in _PLY_SCALAR_TYPES:
                props.append(tokens[2])
            else:
                raise ParseError("malformed property line", path, lineno)
        elif keyword == "end_header":
            if not saw_format:
                raise ParseError("end_header before format line", path, lineno)
            body_start = lineno
            break
        else:
            raise ParseError(f"unknown header keyword {keyword!r}", path, lineno)
    if body_start is None:
        raise ParseError("missing end_header", path, len(lines))

    vertex = [e for e in elements if e[0] == "vertex"]
    if not vertex:
        raise ParseError("no vertex element", path, body_start)
    v_props = vertex[0][2]
    if vertex[0][3]:
        raise UnsupportedFormat(
            f"{path}: list properties on the vertex element are not supported")
    try:
        columns = [v_props.index(axis) for axis in ("x", "y", "z")]
    except ValueError:
        raise ParseError(
            f"vertex element lacks x/y/z properties (has {v_props})",
            path, body_start) from None

    points = _to_floats(
        lambda: _ply_vertex_rows(lines, elements, body_start, columns, path),
        path)
    if not len(points):
        raise ParseError("no points found (empty cloud)", path)
    return PointCloud(points.reshape(-1, 3))


def _ply_vertex_rows(lines: list[str], elements, body_start: int,
                     columns: list[int], path: str):
    """Walk the PLY body, which starts after line `body_start`, one element
    row at a time, and yield (line number, x/y/z tokens) for each vertex
    row. A vertex row of the wrong width or a file that ends inside an
    element raises ParseError when it is reached."""
    pick = operator.itemgetter(*columns)
    i = body_start  # lines[i] is line i + 1
    for name, count, props, _ in elements:
        rows_read = 0
        while rows_read < count:
            if i == len(lines):
                raise ParseError(
                    f"file ends inside element {name!r} "
                    f"({rows_read} of {count} rows)", path, i)
            tokens = lines[i].split()
            i += 1
            if not tokens:
                continue
            if name == "vertex":
                if len(tokens) != len(props):
                    raise ParseError(
                        f"expected {len(props)} values, got {len(tokens)}",
                        path, i)
                yield i, pick(tokens)
            rows_read += 1


def parse_cloud_file(path, format: str | None = None) -> PointCloud:
    """Read a point cloud; `format` defaults to suffix detection.

    A coordinate is any token that `float()` accepts with |value| <=
    `COORD_LIMIT`. Raises :class:`ParseError` on malformed content: the
    first error in file order, with its line number where it has one.
    Raises :class:`UnsupportedFormat` for binary PLY or unrecognized
    formats.
    """
    path = str(path)
    format = _resolve_format(path, format)
    lines = _read_lines(path)
    if format == "xyz-ascii":
        return _parse_xyz(lines, path)
    return _parse_ply(lines, path)


def parse_correspondence_file(path) -> CorrespondenceSet:
    """Read correspondences: one "xs ys zs xt yt zt" line per item."""
    path = str(path)
    lines = _read_lines(path)
    data = _to_floats(lambda: _token_rows(lines, path, 6), path)
    if not len(data):
        raise ParseError("no correspondences found", path)
    data = data.reshape(-1, 6)
    return CorrespondenceSet(data[:, :3], data[:, 3:])


def parse_transform_file(path) -> RigidTransform:
    """Read a rigid transform: 12 numbers ([R | t] rows) or a 4x4 matrix,
    each within +-4 `COORD_LIMIT`; `RigidTransform` checks the rest."""
    path = str(path)
    lines = _read_lines(path)
    values = _to_floats(lambda: _token_rows(lines, path), path,
                        4 * COORD_LIMIT)
    if len(values) == 16:
        matrix = values.reshape(4, 4)
        if not np.allclose(matrix[3], [0.0, 0.0, 0.0, 1.0], atol=1e-9):
            raise ParseError("last row of a 4x4 transform must be 0 0 0 1", path)
        matrix = matrix[:3]
    elif len(values) == 12:
        matrix = values.reshape(3, 4)
    else:
        raise ParseError(
            f"expected 12 or 16 numbers for a transform, got {len(values)}", path)
    try:
        return RigidTransform(matrix[:, :3], matrix[:, 3])
    except ValueError as exc:
        raise ParseError(f"invalid rigid transform: {exc}", path) from None


def _format_row(row: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in row)


def write_correspondence_file(path, corrs: CorrespondenceSet) -> None:
    """Write correspondences as "xs ys zs xt yt zt" lines."""
    with open(str(path), "w", encoding="utf-8") as fh:
        for s, t in zip(corrs.sources, corrs.targets):
            fh.write(_format_row(s) + " " + _format_row(t) + "\n")


def write_transform_file(path, transform: RigidTransform) -> None:
    """Write a transform as three "[R | t]" rows."""
    with open(str(path), "w", encoding="utf-8") as fh:
        for row in transform.matrix3x4():
            fh.write(_format_row(row) + "\n")


def write_cloud_file(path, cloud: PointCloud, format: str | None = None) -> None:
    """Write a cloud as ASCII XYZ or ASCII PLY (suffix-detected by default)."""
    path = str(path)
    format = _resolve_format(path, format)
    pts = cloud.points
    with open(path, "w", encoding="utf-8") as fh:
        if format == "ply-ascii":
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {len(pts)}\n")
            fh.write("property double x\nproperty double y\nproperty double z\n")
            fh.write("end_header\n")
        for row in pts:
            fh.write(_format_row(row) + "\n")
