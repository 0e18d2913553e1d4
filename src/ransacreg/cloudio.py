"""Point-cloud file reading and writing: ASCII XYZ and ASCII PLY.

Coordinates are written with shortest round-trip precision (Python float
repr), so a write/parse cycle reproduces the array bit for bit. Binary
PLY is recognized and rejected explicitly.

A coordinate token is accepted exactly when Python's `float()` accepts it
and |value| <= `COORD_LIMIT` (in a transform file 4 `COORD_LIMIT`, the
translation bound; `RigidTransform` checks the rest). numpy's C text reader
(`np.loadtxt`) converts the rows of XYZ clouds, correspondence files and
PLY vertex blocks. It splits lines on the whitespace `str.split` splits on
and converts each token with the routine `float()` calls, so a token it
reads has `float()`'s bits; it refuses more (underscores, non-ASCII
digits). A file it refuses, or whose rows have the wrong width or an
out-of-domain value, goes to the per-token walk (`_to_floats`), which
takes every token `float()` takes, converts each once in file order and
raises the first error it meets, with its line. An XYZ or correspondence
file that the reader finds no row in holds only blank and comment lines,
and raises its no-data error without the walk. Transforms take the walk.
"""

from __future__ import annotations

import math
import operator
import warnings
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


def _read_lines(path: str, header=None) -> list[str]:
    """The file's lines as UTF-8 text; a byte that is not UTF-8 raises
    ParseError with its line. `header(lines, path)`, when given, first
    reads the complete lines before that byte's, so an error it raises
    there, such as a binary PLY format line, comes first in file order."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # Valid up to the bad byte; "x" stands in for it, on its line.
        head = (data[:exc.start].decode("utf-8") + "x").splitlines()
        if header is not None and len(head) > 1:
            header(head[:-1], path)
        raise ParseError(f"not UTF-8 text: byte 0x{data[exc.start]:02x}", path,
                         len(head)) from None


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
    """Every token of `rows`, an iterator of (line number, tokens), as one
    flat float64 array of values within +-`limit`: the per-token walk,
    which takes every token `float()` takes.

    Each token goes through `_parse_float` once, in file order, so the
    first error the walk meets, with its line, is the one it raises.
    """
    return np.array([_parse_float(token, path, lineno, limit)
                     for lineno, row in rows for token in row], np.float64)


def _read_rows(lines: list[str], width: int, comments: str | None = "#",
               rows: int | None = None, columns=slice(None)
               ) -> np.ndarray | None:
    """The `columns` of `lines` read as float64 rows by numpy's C text
    reader, or None when the reader refuses a token or a row count, a row
    is not `width` values wide, there are not exactly `rows` rows after
    skipping blank lines (when `rows` is given) or a kept value is outside
    +-`COORD_LIMIT`. None means: take the per-token walk. Without `rows`,
    lines that hold no row (blank and comment lines only, where the walk
    finds no token either) read as a (0, `width`) array."""
    try:
        with warnings.catch_warnings():  # blank lines within `rows`, no data
            warnings.simplefilter("ignore", UserWarning)
            # An iterator, not the list: the no-data warning formats its
            # argument, and a list formats every line.
            table = np.loadtxt(iter(lines), np.float64, comments=comments,
                               max_rows=rows, ndmin=2)
    except ValueError:
        return None
    if rows is None and not len(table):
        return np.empty((0, width))
    if table.shape != (len(table) if rows is None else rows, width):
        return None
    values = table[:, columns]
    return values if _in_coord_domain(values) else None


def _parse_xyz(lines: list[str], path: str) -> np.ndarray:
    points = _read_rows(lines, 3)
    if points is not None:
        return points
    return _to_floats(_token_rows(lines, path, 3, "coordinates"), path)


def _ply_header(lines: list[str], path: str):
    """(elements, line of `end_header`) of a PLY header, raising its first
    error; the line is None when `lines` end before `end_header`."""
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
            if count < 0:
                raise ParseError(
                    f"negative element count {count}", path, lineno)
            if (tokens[1] == "vertex"
                    and any(e[0] == "vertex" for e in elements)):
                raise ParseError("second vertex element", path, lineno)
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
    return elements, body_start


def _parse_ply(lines: list[str], path: str) -> np.ndarray:
    elements, body_start = _ply_header(lines, path)
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

    # The reader takes a vertex element that comes first. Once its rows
    # read, the walk raises only where the file ends inside an element:
    # where the body holds fewer non-blank lines than all elements' rows.
    body = lines[body_start:]
    count = vertex[0][1]
    if elements[0][0] == "vertex" and count and (
            len(elements) == 1
            or sum(e[1] for e in elements) <= _non_blank(body)):
        points = _read_rows(body, len(v_props), comments=None, rows=count,
                            columns=columns)
        if points is not None:
            return points
    return _to_floats(
        _ply_vertex_rows(lines, elements, body_start, columns, path), path)


def _non_blank(lines: list[str]) -> int:
    """How many of `lines` hold a token (`str.split` whitespace)."""
    return len(lines) - lines.count("") - sum(map(str.isspace, lines))


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
    if format == "xyz-ascii":
        points = _parse_xyz(_read_lines(path), path)
    else:  # a binary body is not text, but its header is
        points = _parse_ply(_read_lines(path, _ply_header), path)
    if not len(points):
        raise ParseError("no points found (empty cloud)", path)
    return PointCloud(points.reshape(-1, 3))


def parse_correspondence_file(path) -> CorrespondenceSet:
    """Read correspondences: one "xs ys zs xt yt zt" line per item."""
    path = str(path)
    lines = _read_lines(path)
    data = _read_rows(lines, 6)
    if data is None:
        data = _to_floats(_token_rows(lines, path, 6), path)
    if not len(data):
        raise ParseError("no correspondences found", path)
    data = data.reshape(-1, 6)
    return CorrespondenceSet(data[:, :3], data[:, 3:])


def parse_transform_file(path) -> RigidTransform:
    """Read a rigid transform: 12 numbers ([R | t] rows) or a 4x4 matrix,
    each within +-4 `COORD_LIMIT`; `RigidTransform` checks the rest."""
    path = str(path)
    lines = _read_lines(path)
    values = _to_floats(_token_rows(lines, path), path, 4 * COORD_LIMIT)
    if len(values) == 16:
        matrix = values.reshape(4, 4)
        if not np.allclose(matrix[3], (0, 0, 0, 1), rtol=0, atol=1e-9):
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
