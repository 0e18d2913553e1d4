"""File IO: XYZ and PLY clouds, correspondence lists, transform matrices."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ransacreg import (
    CorrespondenceSet,
    ParseError,
    PointCloud,
    RigidTransform,
    UnsupportedFormat,
    parse_cloud_file,
    rotation_about_axis,
    write_cloud_file,
)
from ransacreg import cloudio
from ransacreg.cloudio import (
    FORMATS,
    _read_lines,
    detect_format,
    parse_correspondence_file,
    parse_transform_file,
    write_correspondence_file,
    write_transform_file,
)
from ransacreg.spatial import COORD_LIMIT

from conftest import random_rigid


def random_points(seed, n=25):
    return np.random.default_rng(seed).normal(size=(n, 3)) * 37.5


# ------------------------------------------------------------ detect_format


def test_detect_format_suffixes():
    assert detect_format("cloud.xyz") == "xyz-ascii"
    assert detect_format("cloud.txt") == "xyz-ascii"
    assert detect_format("CLOUD.PLY") == "ply-ascii"
    with pytest.raises(UnsupportedFormat):
        detect_format("cloud.pcd")
    with pytest.raises(UnsupportedFormat):
        detect_format("cloud")
    assert set(FORMATS) == {"xyz-ascii", "ply-ascii"}


def test_explicit_format_overrides_suffix(tmp_path):
    pts = random_points(1)
    path = tmp_path / "cloud.dat"
    write_cloud_file(path, PointCloud(pts), format="xyz-ascii")
    cloud = parse_cloud_file(path, format="xyz-ascii")
    np.testing.assert_array_equal(cloud.points, pts)
    with pytest.raises(UnsupportedFormat):
        parse_cloud_file(path, format="laz")


# ------------------------------------------------------------------- XYZ


def test_xyz_roundtrip_is_bit_exact(tmp_path):
    pts = random_points(2, n=60)
    path = tmp_path / "cloud.xyz"
    write_cloud_file(path, PointCloud(pts))
    back = parse_cloud_file(path)
    np.testing.assert_array_equal(back.points, pts)


def test_xyz_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n\n 1 2 3  # trailing note\n\n4 5 6\n")
    cloud = parse_cloud_file(path)
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize("body,fragment", [
    ("1 2\n", "expected 3 coordinates, got 2"),
    ("1 2 3 4\n", "expected 3 coordinates, got 4"),
    ("1 2 apple\n", "not a number"),
    ("1 2 inf\n", "non-finite"),
    ("# only comments\n", "no points found"),
])
def test_xyz_parse_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.xyz"
    path.write_text(body)
    with pytest.raises(ParseError, match=fragment):
        parse_cloud_file(path)


def test_xyz_parse_error_carries_path_and_line(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("1 2 3\n1 2 zebra\n")
    with pytest.raises(ParseError) as excinfo:
        parse_cloud_file(path)
    message = str(excinfo.value)
    assert "bad.xyz" in message
    assert "2" in message


# -------------------------------------------------------------------- PLY


def test_ply_roundtrip_is_bit_exact(tmp_path):
    pts = random_points(3, n=40)
    path = tmp_path / "cloud.ply"
    write_cloud_file(path, PointCloud(pts))
    text = path.read_text()
    assert text.startswith("ply\nformat ascii 1.0\n")
    assert "element vertex 40" in text
    back = parse_cloud_file(path)
    np.testing.assert_array_equal(back.points, pts)


def test_ply_extra_vertex_properties_and_column_order(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "comment made by hand\n"
        "obj_info scanner test\n"
        "element vertex 2\n"
        "property uchar red\n"
        "property float z\n"
        "property float x\n"
        "property float y\n"
        "end_header\n"
        "255 30 10 20\n"
        "128 60 40 50\n")
    cloud = parse_cloud_file(path)
    np.testing.assert_array_equal(cloud.points, [[10, 20, 30], [40, 50, 60]])


def test_ply_skips_other_elements(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 2\n"
        "property double x\n"
        "property double y\n"
        "property double z\n"
        "element face 2\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
        "1 2 3\n"
        "\n"  # blank and whitespace-only body lines are skipped
        "4 5 6\n"
        "  \n"
        "3 0 1 2\n"
        "3 0 2 3\n")
    cloud = parse_cloud_file(path)
    np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])


def test_ply_rejects_binary(tmp_path):
    path = tmp_path / "cloud.ply"
    header = ("ply\nformat {} 1.0\n"
              "element vertex 1\nproperty float x\nproperty float y\n"
              "property float z\nend_header\n")
    path.write_text(header.format("binary_little_endian"))
    with pytest.raises(UnsupportedFormat, match="binary"):
        parse_cloud_file(path)
    # A real body is not UTF-8 text; the header's format line comes first.
    for fmt in ("binary_little_endian", "binary_big_endian"):
        path.write_bytes(header.format(fmt).encode("ascii")
                         + b"\x00\x00\x80\xff" * 3)
        with pytest.raises(UnsupportedFormat,
                           match="binary PLY is not supported"):
            parse_cloud_file(path)


def test_ply_rejects_vertex_list_property(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text("ply\nformat ascii 1.0\n"
                    "element vertex 1\nproperty list uchar float x\n"
                    "end_header\n1 2\n")
    with pytest.raises(UnsupportedFormat, match="list"):
        parse_cloud_file(path)


@pytest.mark.parametrize("text,fragment", [
    ("not a ply\n", "magic"),
    ("ply\nformat ascii 1.0\nend_header\n", "no vertex element"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
     "property float y\nend_header\n1 2\n", "lacks x/y/z"),
    ("ply\nend_header\n", "end_header before format"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
     "property float y\nproperty float z\n", "missing end_header"),
    ("ply\nformat ascii 1.0\nshiny keyword\n", "unknown header keyword"),
    ("ply\nformat ascii 1.0\nproperty float x\n", "property before any element"),
    ("ply\nformat ascii 1.0\nelement vertex one\n", "bad element count"),
    ("ply\nformat ascii 1.0\nelement vertex 3\nproperty double x\n"
     "property double y\nproperty double z\nend_header\n1 2 3\n",
     "file ends inside element"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
     "property double y\nproperty double z\nend_header\n1 2 3 4\n",
     "expected 3 values, got 4"),
    ("ply\nformat wacky 1.0\n", "unknown PLY format"),
    ("ply\nformat\n", ":2: malformed format line"),
    ("ply\nformat ascii 1.0\nelement vertex\n", ":3: malformed element line"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty float\n",
     ":4: malformed property line"),
    ("ply\nformat ascii 1.0\nelement vertex 0\nproperty double x\n"
     "property double y\nproperty double z\nend_header\n",
     "no points found"),
    ("ply\nformat ascii 1.0\nelement vertex -3\nproperty double x\n"
     "property double y\nproperty double z\nend_header\n",
     ":3: negative element count -3"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
     "property double y\nproperty double z\nelement face -2\n"
     "property list uchar int vertex_indices\nend_header\n1 2 3\n",
     ":7: negative element count -2"),
    ("ply\nformat ascii 1.0\nelement vertex 1\nproperty double x\n"
     "property double y\nproperty double z\nelement vertex 1\n"
     "property double q\nproperty double x\nproperty double y\n"
     "property double z\nend_header\n1 2 3\n9 1 2 3\n",
     ":7: second vertex element"),
])
def test_ply_parse_errors(tmp_path, text, fragment):
    path = tmp_path / "bad.ply"
    path.write_text(text)
    with pytest.raises(ParseError, match=fragment):
        parse_cloud_file(path)


# --------------------------------------------------------- correspondences


def test_correspondence_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    corrs = CorrespondenceSet(rng.normal(size=(30, 3)) * 12,
                              rng.normal(size=(30, 3)) * 12)
    path = tmp_path / "corrs.txt"
    write_correspondence_file(path, corrs)
    back = parse_correspondence_file(path)
    np.testing.assert_array_equal(back.sources, corrs.sources)
    np.testing.assert_array_equal(back.targets, corrs.targets)


def test_correspondence_file_comments_and_errors(tmp_path):
    path = tmp_path / "corrs.txt"
    path.write_text("# pairs\n1 2 3 4 5 6\n")
    assert parse_correspondence_file(path).n == 1
    path.write_text("1 2 3 4 5\n")
    with pytest.raises(ParseError, match="expected 6 values, got 5"):
        parse_correspondence_file(path)
    path.write_text("# nothing\n")
    with pytest.raises(ParseError, match="no correspondences found"):
        parse_correspondence_file(path)


# -------------------------------------------------------------- transforms


def test_transform_roundtrip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    transform = random_rigid(rng)
    path = tmp_path / "pose.txt"
    write_transform_file(path, transform)
    back = parse_transform_file(path)
    np.testing.assert_array_equal(back.rotation, transform.rotation)
    np.testing.assert_array_equal(back.translation, transform.translation)


def test_transform_accepts_4x4(tmp_path):
    rot = rotation_about_axis([0.0, 0.0, 1.0], 0.5)
    transform = RigidTransform(rot, np.array([1.0, 2.0, 3.0]))
    rows = ["{} {} {} {}".format(*rot[i], transform.translation[i])
            for i in range(3)]
    path = tmp_path / "pose.txt"
    path.write_text("\n".join(rows) + "\n0 0 0 1\n")
    back = parse_transform_file(path)
    np.testing.assert_allclose(back.rotation, rot, atol=1e-15)
    np.testing.assert_allclose(back.translation, [1, 2, 3], atol=1e-15)


def test_transform_parse_errors(tmp_path):
    path = tmp_path / "pose.txt"
    path.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n5 0 0 1\n")
    with pytest.raises(ParseError, match="last row"):
        parse_transform_file(path)
    path.write_text("1 2 3\n")
    with pytest.raises(ParseError, match="expected 12 or 16"):
        parse_transform_file(path)
    # 12 numbers whose 3x3 block is not a rotation
    path.write_text("2 0 0 0\n0 2 0 0\n0 0 2 0\n")
    with pytest.raises(ParseError, match="invalid rigid transform"):
        parse_transform_file(path)
    path.write_text("1 0 0 0\n0 1 0 nope\n0 0 1 0\n")
    with pytest.raises(ParseError, match="not a number"):
        parse_transform_file(path)
    # w = 1.00001 is a scale, not 1 within a relative tolerance
    path.write_text("1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1.00001\n")
    with pytest.raises(ParseError, match="last row"):
        parse_transform_file(path)


def test_transform_file_takes_the_translation_bound(tmp_path):
    """Transform-file numbers may reach 4 COORD_LIMIT, the translation
    bound; RigidTransform rejects such a rotation entry."""
    path = tmp_path / "pose.txt"
    far = RigidTransform(np.eye(3), [2e75, 0.0, 0.0])
    write_transform_file(path, far)
    back = parse_transform_file(path)
    _same_bits(back.rotation, far.rotation)
    _same_bits(back.translation, far.translation)
    path.write_text("1 0 0 0\n0 1 0 5e75\n0 0 1 0\n")
    with pytest.raises(ParseError,
                       match="out-of-range coordinate: '5e75'") as excinfo:
        parse_transform_file(path)
    assert excinfo.value.line == 2
    path.write_text("1 0 0 0\n0 1 2e75 0\n0 0 1 0\n")
    with pytest.raises(ParseError, match="invalid rigid transform"):
        parse_transform_file(path)


def test_transform_takes_float_only_tokens_each_once(tmp_path, monkeypatch):
    """Translation tokens that only `float()` reads parse to its bits, and
    the walk converts every token once, in file order."""
    parse_one, seen = cloudio._parse_float, []

    def parse_float(token, *args):
        seen.append(token)
        return parse_one(token, *args)
    monkeypatch.setattr(cloudio, "_parse_float", parse_float)
    text = "1 0 0 +.5\n0 1 0 1_0  # comment\n\n0 0 1 \u0663\n"
    path = tmp_path / "pose.txt"
    path.write_text(text, encoding="utf-8")
    back = parse_transform_file(path)
    _same_bits(back.translation, [float("+.5"), float("1_0"), float("\u0663")])
    _same_bits(back.rotation, np.eye(3))
    assert seen == [t for line in text.splitlines()
                    for t in line.split("#")[0].split()]


def test_transform_raises_its_first_error_in_file_order(tmp_path):
    path = tmp_path / "pose.txt"
    path.write_text("1 0 0 inf\n0 1 0 apple\n0 0 1 0\n")
    with pytest.raises(ParseError,
                       match="non-finite coordinate: 'inf'") as excinfo:
        parse_transform_file(path)
    assert excinfo.value.line == 1


# ------------------------------------- one-pass conversion vs per-token parse
#
# A frozen copy of the per-token parser that the one-pass conversion
# replaced: every token through `float()`, `math.isfinite` and the
# coordinate domain as its line is reached. The one-pass parser must give
# the same bits and, on a malformed file, the same first error (message
# and line).


def _ref_parse_float(token, path, lineno):
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"not a number: {token!r}", path, lineno) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite coordinate: {token!r}", path, lineno)
    if abs(value) > COORD_LIMIT:
        raise ParseError(f"out-of-range coordinate: {token!r}", path, lineno)
    return value


def _ref_numeric_rows(lines, path, width=None, unit="values"):
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if width is not None and len(tokens) != width:
            raise ParseError(
                f"expected {width} {unit}, got {len(tokens)}", path, lineno)
        rows.append([_ref_parse_float(t, path, lineno) for t in tokens])
    return rows


def _ref_ply_points(lines, path):
    # Header: just enough for the well-formed headers used here.
    elements = []
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if tokens[:1] == ["element"]:
            elements.append((tokens[1], int(tokens[2]), [], False))
        elif tokens[:1] == ["property"] and tokens[1] != "list":
            elements[-1][2].append(tokens[2])
        elif tokens[:1] == ["end_header"]:
            body_start = lineno
            break
    v_props = [e for e in elements if e[0] == "vertex"][0][2]
    columns = [v_props.index(axis) for axis in ("x", "y", "z")]
    # The per-token body loop.
    points = []
    lineno = body_start
    line_iter = iter(range(body_start, len(lines)))
    for name, count, props, _ in elements:
        rows_read = 0
        while rows_read < count:
            try:
                i = next(line_iter)
            except StopIteration:
                raise ParseError(
                    f"file ends inside element {name!r} "
                    f"({rows_read} of {count} rows)", path, lineno) from None
            lineno = i + 1
            tokens = lines[i].split()
            if not tokens:
                continue
            if name == "vertex":
                if len(tokens) != len(props):
                    raise ParseError(
                        f"expected {len(props)} values, got {len(tokens)}",
                        path, lineno)
                points.append([_ref_parse_float(tokens[c], path, lineno)
                               for c in columns])
            rows_read += 1
    return points


def _ref_parse(kind, path):
    path = str(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if kind == "xyz":
        return np.array(_ref_numeric_rows(lines, path, 3, "coordinates"))
    if kind == "corrs":
        return np.array(_ref_numeric_rows(lines, path, 6))
    return np.array(_ref_ply_points(lines, path))


def _parse(kind, path):
    if kind == "corrs":
        corrs = parse_correspondence_file(path)
        return np.hstack([corrs.sources, corrs.targets])
    return parse_cloud_file(path).points


_PLY_HEAD = ("ply\nformat ascii 1.0\ncomment one-pass check\n"
             "element vertex {n}\nproperty float x\nproperty uchar label\n"
             "property float y\nproperty float z\n"
             "element face 2\nproperty list uchar int vertex_indices\n"
             "end_header\n")
_PLY_FACES = "3 0 1 2\n3 2 1 0\n"


def _write(tmp_path, kind, rows, eol="\n"):
    """A file of `kind` holding `rows`, lists of x y z (x y z) tokens; a
    PLY vertex row also carries a non-number in its extra property."""
    if kind == "ply":
        body = [f"{r[0]} tag{i} {' '.join(r[1:])}" if len(r) == 3
                else " ".join(r) for i, r in enumerate(rows)]
        text = _PLY_HEAD.format(n=len(rows)) + "\n".join(body) + "\n"
        text += _PLY_FACES
        path = tmp_path / "cloud.ply"
    else:
        text = "\n".join(" ".join(r) for r in rows) + "\n"
        path = tmp_path / ("cloud.xyz" if kind == "xyz" else "corrs.txt")
    path.write_bytes(text.replace("\n", eol).encode("utf-8"))
    return path


def _rows(kind, tokens):
    """Rows of 3 tokens (6 for correspondences) that put each of `tokens`
    in every column."""
    width = 6 if kind == "corrs" else 3
    tokens = tokens * width
    return [tokens[i:i + width] for i in range(0, len(tokens) - width + 1, width)]


_ODD_TOKENS = ["+.5", "5.", "1e-400", "1_0", "٣", "-0.0", "0.1",
               "-1.5e70", "7"]


@pytest.mark.parametrize("kind", ["xyz", "ply", "corrs"])
@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_one_pass_matches_per_token_parse(tmp_path, kind, eol):
    path = _write(tmp_path, kind, _rows(kind, _ODD_TOKENS), eol)
    want = _ref_parse(kind, path)
    got = _parse(kind, path)
    assert got.dtype == np.float64 and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_one_pass_matches_with_comments_and_blank_lines(tmp_path):
    path = tmp_path / "cloud.xyz"
    path.write_text("# header\n\n+.5 5. 1e-400 # trailing\n   \n"
                    "1_0 ٣ -0.0#x\n\n")
    want = _ref_parse("xyz", path)
    got = parse_cloud_file(path).points
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[1, 1] == 3.0  # ARABIC-INDIC DIGIT THREE


def _two_errors(kind, first, second):
    """Eight good rows with `first` at row 2 and `second` at row 5, each
    ("value", token) or ("count", None)."""
    rows = [["1.5", "2", "-3"] * (2 if kind == "corrs" else 1)] * 8
    for at, (what, token) in ((1, first), (4, second)):
        if what == "count":
            rows[at] = rows[at][:-1]
        else:
            rows[at] = rows[at][:-1] + [token]
    return rows


@pytest.mark.parametrize("kind", ["xyz", "ply", "corrs"])
@pytest.mark.parametrize("first,second", [
    (("value", "inf"), ("value", "apple")),
    (("value", "apple"), ("value", "inf")),
    (("value", "nan"), ("value", "1e400")),
    (("value", "zebra"), ("count", None)),
    (("count", None), ("value", "zebra")),
    (("value", "-inf"), ("count", None)),
])
def test_first_error_matches_per_token_parse(tmp_path, kind, first, second):
    path = _write(tmp_path, kind, _two_errors(kind, first, second))
    with pytest.raises(ParseError) as want:
        _ref_parse(kind, path)
    with pytest.raises(ParseError) as got:
        _parse(kind, path)
    assert str(got.value) == str(want.value)
    assert got.value.line == want.value.line
    assert got.value.path == str(path)


_FIRST_ROW_LINE = {"xyz": 1, "corrs": 1, "ply": 12}  # after _PLY_HEAD


@pytest.mark.parametrize("kind", ["xyz", "ply", "corrs"])
@pytest.mark.parametrize("token", [
    repr(float(np.nextafter(COORD_LIMIT, np.inf))), "-1e76", "1e200", "-1e308",
])
def test_out_of_range_token_raises_at_its_line(tmp_path, kind, token):
    """A token `float()` accepts but outside +-COORD_LIMIT is a ParseError
    at its line; the limit itself parses."""
    rows = [[repr(COORD_LIMIT), "2", repr(-COORD_LIMIT)]
            * (2 if kind == "corrs" else 1)] * 5
    rows[3] = rows[3][:-1] + [token]
    path = _write(tmp_path, kind, rows)
    with pytest.raises(ParseError, match=re.escape(
            f"out-of-range coordinate: '{token}'")) as excinfo:
        _parse(kind, path)
    assert excinfo.value.line == _FIRST_ROW_LINE[kind] + 3
    rows[3] = rows[0]
    got = _parse(kind, _write(tmp_path, kind, rows))
    assert got.max() == COORD_LIMIT and got.min() == -COORD_LIMIT


@pytest.mark.parametrize("kind", ["xyz", "ply", "corrs", "transform"])
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"])
def test_non_utf8_byte_raises_at_its_line(tmp_path, kind, eol):
    """A byte that is not UTF-8 is a ParseError with the path and its line,
    whichever parser reads the file."""
    if kind == "transform":
        path = tmp_path / "pose.txt"
        path.write_bytes(eol.join(["1 0 0 0", "0 1 0 0", "0 0 1 0", "",
                                   "# 0xBAD"]).encode("utf-8"))
        line = 5
    else:
        rows = [["1", "2", "3"] * (2 if kind == "corrs" else 1)] * 5
        rows[3] = rows[3][:-1] + ["3BAD"]
        path = _write(tmp_path, kind, rows, eol)
        line = _FIRST_ROW_LINE[kind] + 3
    path.write_bytes(path.read_bytes().replace(b"BAD", b"\xff"))
    with pytest.raises(ParseError, match="not UTF-8 text: byte 0xff") as excinfo:
        if kind == "transform":
            parse_transform_file(path)
        else:
            _parse(kind, path)
    assert (excinfo.value.path, excinfo.value.line) == (str(path), line)


def test_read_lines_splits_as_a_text_mode_read(tmp_path):
    path = tmp_path / "lines.xyz"
    path.write_bytes("\ufeff1 2 3\r\n4 5 6\r7\x0b8\x85 9\u2028\n\n é\x1c0\r\n"
                     .encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert _read_lines(str(path)) == want


def test_bad_vertex_beats_a_ply_that_ends_early(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(_PLY_HEAD.format(n=3)
                    + "1 a 2 3\n4 b oops 6\n7 c 8 9\n"
                    + "3 0 1 2\n")  # one face of two: the file ends early
    with pytest.raises(ParseError) as want:
        _ref_parse("ply", path)
    with pytest.raises(ParseError, match="not a number: 'oops'") as got:
        parse_cloud_file(path)
    assert (str(got.value), got.value.line) == (str(want.value), want.value.line)
    path.write_text(path.read_text().replace("oops", "5"))
    with pytest.raises(ParseError, match="file ends inside element 'face'"):
        parse_cloud_file(path)


# ------------------------------------------ C reader vs the per-token walk
#
# numpy's C text reader converts well-formed files; whatever it refuses
# goes to the per-token walk. Either way the result must be `_ref_parse`'s.


def _no_walk(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the per-token walk ran")
    monkeypatch.setattr("ransacreg.cloudio._to_floats", walk)


def test_reader_parses_well_formed_files_without_the_walk(tmp_path,
                                                           monkeypatch):
    _no_walk(monkeypatch)
    points = random_points(6, n=50)
    for suffix in (".xyz", ".ply"):
        path = tmp_path / f"cloud{suffix}"
        write_cloud_file(path, PointCloud(points))
        _same_bits(parse_cloud_file(path).points, points)
    targets = random_points(7, n=50)
    path = tmp_path / "corrs.txt"
    write_correspondence_file(path, CorrespondenceSet(points, targets))
    back = parse_correspondence_file(path)
    _same_bits(back.sources, points)
    _same_bits(back.targets, targets)
    path = tmp_path / "faces.ply"
    path.write_text(_plain_ply([["1.5", "2", "-3"], [" ", ""],
                                ["4", "5e-3", "6"]], faces=2))
    _same_bits(parse_cloud_file(path).points, [[1.5, 2, -3], [4, 5e-3, 6]])


@pytest.mark.parametrize("body", [
    "", "# only comments\n" * 50, "\n \n\t\n", "# a\n\n  # b\n\x0b\n"],
    ids=["empty", "comments", "blank", "mixed"])
def test_files_without_data_rows_raise_without_the_walk(tmp_path, monkeypatch,
                                                        body):
    _no_walk(monkeypatch)
    path = tmp_path / "empty.xyz"
    path.write_text(body)
    with pytest.raises(ParseError, match="no points found"):
        parse_cloud_file(path)
    path = tmp_path / "empty.txt"
    path.write_text(body)
    with pytest.raises(ParseError, match="no correspondences found"):
        parse_correspondence_file(path)


def _plain_ply(rows, n=None, faces=0, face_rows=None, extra=(), tail=()):
    """A PLY whose vertex rows are `rows` (lists of tokens), with double
    x y z and the `extra` properties, then `face_rows` (default `faces`) of
    the `faces` list-face rows it declares, then the lines `tail`. `n`
    (default: the rows that hold a token) is the declared vertex count."""
    n = sum(bool(" ".join(r).split()) for r in rows) if n is None else n
    head = ["ply", "format ascii 1.0", f"element vertex {n}"]
    head += [f"property double {a}" for a in ("x", "y", "z")]
    head += [f"property uchar {name}" for name in extra]
    if faces:
        head += [f"element face {faces}",
                 "property list uchar int vertex_indices"]
    head.append("end_header")
    body = [" ".join(r) for r in rows]
    body += ["3 0 1 2"] * (faces if face_rows is None else face_rows)
    return "\n".join(head + body + list(tail)) + "\n"


def _matches_ref(kind, path):
    """`_parse(kind, path)` gives `_ref_parse`'s bits or its ParseError."""
    try:
        want = _ref_parse(kind, path)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            _parse(kind, path)
        assert (str(got.value), got.value.line) == (str(exc), exc.line)
    else:
        _same_bits(_parse(kind, path), want)


def _write_kind(tmp_path, kind, rows, **ply):
    if kind != "ply":
        return _write(tmp_path, kind, rows)
    path = tmp_path / "plain.ply"
    path.write_text(_plain_ply(rows, **ply), encoding="utf-8")
    return path


# Characters that are whitespace to `str.split` or not, line breaks to
# `str.splitlines` or not, and a byte-order mark.
_ODD_CHARS = ["\x00", "\x0b", "\x0c", "\x1c", "\x1f", "\x7f", "\x85",
              "\xa0", "\u180e", "\u200b", "\u3000", "\ufeff"]


def _odd_lines(char, width):
    """A good row of `width` tokens with `char` before, inside or after a
    token, or in place of or beside a separating space."""
    tokens = [f"{v}.5" for v in range(width)]
    good = " ".join(tokens)
    lines = [char + good, good + char, tokens[0][:1] + char + good[1:]]
    for i in range(width - 1):
        head, tail = " ".join(tokens[:i + 1]), " ".join(tokens[i + 1:])
        lines += [head + char + tail, head + f" {char} " + tail,
                  head + char + " " + tail]
    return good, lines


@pytest.mark.parametrize("kind", ["xyz", "ply", "corrs"])
@pytest.mark.parametrize("char", _ODD_CHARS)
def test_reader_and_walk_agree_on_odd_characters(tmp_path, kind, char):
    good, lines = _odd_lines(char, 6 if kind == "corrs" else 3)
    for line in lines:
        for rows in ([[line], [good]], [[good], [good], [line]]):
            _matches_ref(kind, _write_kind(tmp_path, kind, rows))


@pytest.mark.parametrize("kind", ["xyz", "ply", "corrs"])
@pytest.mark.parametrize("token", ["1_0", "\u0663", "nan", "-inf", "inf",
                                   "1e76", "-1e76", "1e400", "+.5"])
def test_reader_and_walk_agree_on_odd_tokens(tmp_path, kind, token):
    width = 6 if kind == "corrs" else 3
    rows = [["1", "2", "3"] * (width // 3) for _ in range(4)]
    rows[2][1] = token
    _matches_ref(kind, _write_kind(tmp_path, kind, rows))


@pytest.mark.parametrize("rows", [
    [["1", "2", "3", "4", "5", "6"]] * 3,
    [["1", "2", "3"], ["1", "2", "3", "4", "5", "6"], ["1", "2", "3"]],
    [["1", "2", "3"], ["4", "5"]],
])
def test_reader_and_walk_agree_on_xyz_rows_of_the_wrong_width(tmp_path, rows):
    _matches_ref("xyz", _write_kind(tmp_path, "xyz", rows))


@pytest.mark.parametrize("rows,ply", [
    # A vertex row of the wrong width, alone or among good rows.
    ([["1", "2", "3", "4"]] * 2, {}),
    ([["1", "2", "3"], ["1", "2"], ["1", "2", "3"]], {"faces": 2}),
    # `#` is a token in a PLY body, not a comment.
    ([["1", "2", "3"], ["1", "2", "#", "3"]], {}),
    ([["1", "2", "3"], ["1", "2", "3", "#"]], {"n": 2}),
    ([["1", "2", "3 # note"]], {}),
    # A non-numeric extra property: the walk ignores it.
    ([["1", "2", "3", "tag0"], ["4", "5", "6", "7"]], {"extra": ["tag"]}),
    ([["1", "2", "3", "nan"], ["4", "5", "6", "1e400"]], {"extra": ["c"]}),
    # Faces that end early, after good or bad vertex rows; blank lines
    # hold no row.
    ([["1", "2", "3"], ["4", "5", "6"]], {"faces": 3, "face_rows": 2}),
    ([["1", "2", "3"], [""], ["4", "5", "6"]],
     {"faces": 3, "face_rows": 2, "tail": ["", " ", "\t"]}),
    ([["1", "2", "3"], ["4", "5", "6"]], {"faces": 3, "tail": ["", ""]}),
    ([["1", "2", "x"], ["4", "5", "6"]], {"faces": 3, "face_rows": 2}),
    # Fewer vertex rows than declared, with and without faces.
    ([["1", "2", "3"], ["4", "5", "6"]], {"n": 3}),
    ([["1", "2", "3"], ["4", "5", "6"]], {"n": 3, "faces": 1}),
])
def test_reader_and_walk_agree_on_ply_bodies(tmp_path, rows, ply):
    path = _write_kind(tmp_path, "ply", rows, **ply)
    _matches_ref("ply", path)


def test_ply_whose_faces_end_early_still_raises(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(_plain_ply([["1", "2", "3"], [], ["4", "5", "6"]],
                               faces=3, face_rows=2, tail=["", "  "]))
    with pytest.raises(ParseError, match="file ends inside element 'face' "
                       r"\(2 of 3 rows\)"):
        parse_cloud_file(path)


# ---------------------------------------------------- write/parse round trips

_FLOATS = st.floats(-COORD_LIMIT, COORD_LIMIT)
_ROUND_TRIP = settings(max_examples=60)


def _points(max_rows=12):
    return hnp.arrays(np.float64, st.tuples(st.integers(1, max_rows),
                                            st.just(3)), elements=_FLOATS)


def _same_bits(got, want):
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


@_ROUND_TRIP
@given(points=_points(), suffix=st.sampled_from([".xyz", ".ply"]))
def test_cloud_round_trip_is_bit_exact(tmp_path_factory, points, suffix):
    path = tmp_path_factory.mktemp("rt") / f"cloud{suffix}"
    write_cloud_file(path, PointCloud(points))
    _same_bits(parse_cloud_file(path).points, points)


@st.composite
def _decorated_ply(draw):
    """A hand-written PLY: (text, points) with header comments, extra
    vertex properties in any column order, and a list-face element."""
    points = draw(_points())
    n_extra = draw(st.integers(0, 3))
    names = draw(st.permutations(["x", "y", "z"]
                                 + [f"extra{k}" for k in range(n_extra)]))
    n_faces = draw(st.integers(0, 3))
    head = ["ply", "format ascii 1.0"]
    head += [f"comment {w}" for w in draw(st.lists(
        st.sampled_from(["scan", "made by hand", "x y z"]), max_size=2))]
    head.append(f"element vertex {len(points)}")
    head += [f"property {'double' if n in 'xyz' else 'uchar'} {n}"
             for n in names]
    if n_faces:
        head += [f"element face {n_faces}",
                 "property list uchar int vertex_indices"]
    head.append("end_header")
    body = []
    for row in points:
        value = dict(zip("xyz", row))
        body.append(" ".join(repr(float(value[n])) if n in value
                             else str(draw(st.integers(0, 255)))
                             for n in names))
    body += ["3 0 1 2"] * n_faces
    return "\n".join(head + body) + "\n", points


@_ROUND_TRIP
@given(ply=_decorated_ply())
def test_decorated_ply_round_trip_is_bit_exact(tmp_path_factory, ply):
    text, points = ply
    path = tmp_path_factory.mktemp("rt") / "cloud.ply"
    path.write_text(text)
    _same_bits(parse_cloud_file(path).points, points)


@_ROUND_TRIP
@given(points=_points(), shift=_points())
def test_correspondence_round_trip_is_bit_exact(tmp_path_factory, points,
                                                shift):
    targets = np.resize(shift, points.shape)
    path = tmp_path_factory.mktemp("rt") / "corrs.txt"
    write_correspondence_file(path, CorrespondenceSet(points, targets))
    back = parse_correspondence_file(path)
    _same_bits(back.sources, points)
    _same_bits(back.targets, targets)


@_ROUND_TRIP
@given(seed=st.integers(0, 2**32 - 1),
       translation=hnp.arrays(np.float64, 3, elements=_FLOATS))
def test_transform_round_trip_is_bit_exact(tmp_path_factory, seed, translation):
    rotation = random_rigid(np.random.default_rng(seed)).rotation
    path = tmp_path_factory.mktemp("rt") / "pose.txt"
    write_transform_file(path, RigidTransform(rotation, translation))
    back = parse_transform_file(path)
    _same_bits(back.rotation, rotation)
    _same_bits(back.translation, translation)
