"""Command-line interface: subcommands, exit codes, file round trips."""

from __future__ import annotations

import argparse
import io
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ransacreg.cli import (CSV_HEADER, _MAX_RANGE_VALUES, _metric_list,
                           _values_spec, main)
from ransacreg.metrics import MetricKind


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def make_scene_files(capsys, tmp_path, seed=3, n_points=2000, n_corrs=60,
                     ratio=0.5, sigma=0.0):
    paths = {name: str(tmp_path / f"{name}.xyz") for name in ("src", "tgt")}
    paths["gt"] = str(tmp_path / "gt.txt")
    paths["corrs"] = str(tmp_path / "corrs.txt")
    code, out, err = run_cli(
        capsys, "synth",
        "--out-source", paths["src"], "--out-target", paths["tgt"],
        "--out-gt", paths["gt"], "--out-corrs", paths["corrs"],
        "--seed", str(seed), "--n-points", str(n_points),
        "--n-corrs", str(n_corrs), "--inlier-ratio", str(ratio),
        "--sigma", str(sigma))
    assert code == 0, err
    return paths, out


# --------------------------------------------------------------- arg parsing


def test_values_spec_forms():
    assert _values_spec("4,15,7.5") == (4.0, 15.0, 7.5)
    assert _values_spec("1:3:1") == (1.0, 2.0, 3.0)
    assert _values_spec("4:15:1") == tuple(float(v) for v in range(4, 16))
    assert _values_spec("0.5:1.0:0.25") == (0.5, 0.75, 1.0)
    # A range is counted before its values are built: the cap parses, and
    # one value more is rejected before a range of 1e300 values is tried.
    cap = _MAX_RANGE_VALUES
    assert len(_values_spec(f"1:{cap}:1")) == cap
    for bad in ("", "a,b", "1:2", "1:2:0", "5:1:1", "1:2:3:4",
                "0:inf:1", "-inf:0:1", "0:1e300:1e-300",
                f"1:{cap + 1}:1", "0:1e300:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            _values_spec(bad)


def test_metric_list_parsing():
    kinds = _metric_list("mae, mse,inlier-count")
    assert [k.value for k in kinds] == ["mae", "mse", "inlier-count"]
    with pytest.raises(argparse.ArgumentTypeError, match="unknown metric"):
        _metric_list("mae,typo")
    with pytest.raises(argparse.ArgumentTypeError):
        _metric_list(" , ")


def test_no_arguments_prints_usage(capsys):
    code, out, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err.lower()


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert "register" in out and "bench" in out


_BENCH_DEFAULTS = {
    "--trials": "100", "--seed": "0", "--iterations": "1000",
    "--d-rmse": "2.5", "--hole-fraction": "0.01", "--t": "7.5", "--m": "0.9",
    "--t-overlap": "2.0", "--n-points": "10000", "--shape": "random-blob",
    "--diameter": "100.0", "--angle": "0.8", "--translation": "30.0",
    "--n-corrs": "1000", "--inlier-ratio": "0.5", "--sigma": "1.0",
}


def test_bench_help_shows_the_defaults(capsys, monkeypatch):
    """The flags that read their default from the library show the same
    values as the literals they replaced."""
    monkeypatch.setenv("COLUMNS", "200")  # one help entry per line
    code, out, err = run_cli(capsys, "bench", "--help")
    assert code == 0
    shown, flag = {}, None
    for line in out.splitlines():
        if m := re.match(r"\s+(--[\w-]+)", line):
            flag = m.group(1)
        if d := re.search(r"\(default: ([^)]*)\)", line):
            shown[flag] = d.group(1)
    assert shown == _BENCH_DEFAULTS


def test_unknown_metric_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "register", "a.xyz", "b.xyz",
                             "--metric", "nope")
    assert code == 1


# --------------------------------------------------------------------- synth


def test_synth_writes_scene_files(capsys, tmp_path):
    paths, out = make_scene_files(capsys, tmp_path)
    assert "scene: 2000 points, resolution" in out
    for path in paths.values():
        assert f"wrote {path}" in out
    # the emitted ground truth maps emitted source onto emitted target
    from ransacreg import parse_cloud_file
    from ransacreg.cloudio import parse_transform_file
    src = parse_cloud_file(paths["src"])
    tgt = parse_cloud_file(paths["tgt"])
    gt = parse_transform_file(paths["gt"])
    assert len(src) == len(tgt) == 2000
    np.testing.assert_allclose(gt.apply(src.points), tgt.points, atol=1e-9)


# ------------------------------------------------------------------ register


def parse_register_output(out):
    lines = out.strip().splitlines()
    matrix = np.array([[float(v) for v in line.split()] for line in lines[:3]])
    fields = {}
    for line in lines[3:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    return matrix, fields


def test_register_with_correspondences_and_gt(capsys, tmp_path):
    paths, _ = make_scene_files(capsys, tmp_path)
    code, out, err = run_cli(
        capsys, "register", paths["src"], paths["tgt"],
        "--corrs", paths["corrs"], "--gt", paths["gt"],
        "--iterations", "300", "--seed", "1")
    assert code == 0, err
    matrix, fields = parse_register_output(out)
    assert matrix.shape == (3, 4)
    kind, score = fields["score"].split()
    assert kind == "mae"
    assert float(score) > 0.0
    assert float(fields["rmse"]) < 1e-6  # noise-free inliers: exact recovery


def test_register_pairs_equal_clouds_by_index(capsys, tmp_path):
    paths, _ = make_scene_files(capsys, tmp_path)
    code, out, err = run_cli(
        capsys, "register", paths["src"], paths["tgt"], "--gt", paths["gt"],
        "--iterations", "50", "--seed", "2")
    assert code == 0, err
    _, fields = parse_register_output(out)
    assert float(fields["rmse"]) < 1e-6
    assert float(fields["score"].split()[1]) == pytest.approx(2000.0, rel=1e-9)


def test_register_cloud_metric(capsys, tmp_path):
    paths, _ = make_scene_files(capsys, tmp_path, n_points=800, n_corrs=40,
                                ratio=1.0)
    code, out, err = run_cli(
        capsys, "register", paths["src"], paths["tgt"],
        "--corrs", paths["corrs"], "--metric", "pc-dist",
        "--iterations", "40", "--seed", "4")
    assert code == 0, err
    _, fields = parse_register_output(out)
    kind, score = fields["score"].split()
    assert kind == "pc-dist"
    assert float(score) == pytest.approx(0.0, abs=1e-6)


def test_register_rejects_unequal_unpaired_clouds(capsys, tmp_path):
    a = tmp_path / "a.xyz"
    b = tmp_path / "b.xyz"
    rng = np.random.default_rng(0)
    a.write_text("\n".join(" ".join(map(str, row))
                           for row in rng.normal(size=(20, 3))) + "\n")
    b.write_text("\n".join(" ".join(map(str, row))
                           for row in rng.normal(size=(21, 3))) + "\n")
    code, out, err = run_cli(capsys, "register", str(a), str(b))
    assert code == 2
    assert err.startswith("error:")
    assert "equal-sized" in err


def test_register_missing_file_is_data_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "register",
                             str(tmp_path / "none.xyz"),
                             str(tmp_path / "none2.xyz"))
    assert code == 2
    assert err.startswith("error:")


# --------------------------------------------------------------------- bench


def bench_args(out_path, seed="5"):
    return ("bench", "--metrics", "mae,inlier-count", "--sweep", "t",
            "--values", "6:9:1.5", "--out", str(out_path),
            "--trials", "1", "--iterations", "40", "--seed", seed,
            "--n-points", "2000", "--n-corrs", "40", "--sigma", "0.0")


def test_bench_writes_csv_report(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, *bench_args(out_path))
    assert code == 0, err
    assert f"wrote 6 rows to {out_path}" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    cells = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 8 for row in cells)
    assert [row[0] for row in cells] == ["mae"] * 3 + ["inlier-count"] * 3
    assert [float(row[2]) for row in cells] == [6.0, 7.5, 9.0] * 2
    assert all(row[1] == "t" and row[3] == "1" for row in cells)
    # noise-free half-inlier scene is easy: every cell registers correctly
    assert all(float(row[4]) == 1.0 for row in cells)


def test_bench_is_deterministic_modulo_timing(capsys, tmp_path):
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    assert run_cli(capsys, *bench_args(path_a))[0] == 0
    assert run_cli(capsys, *bench_args(path_b))[0] == 0
    rows_a = [line.split(",") for line in path_a.read_text().splitlines()]
    rows_b = [line.split(",") for line in path_b.read_text().splitlines()]
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:6] == rb[:6]  # timing columns 7-8 may differ


def test_bench_bad_values_spec_is_usage_error(capsys, tmp_path):
    for spec in ("9:4:1", f"1:{_MAX_RANGE_VALUES + 1}:1"):  # above the cap
        code, out, err = run_cli(
            capsys, "bench", "--metrics", "mae", "--sweep", "t",
            "--values", spec, "--out", str(tmp_path / "x.csv"))
        assert code == 1 and "bad values spec" in err


def test_bench_missing_required_flag_is_usage_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "bench", "--metrics", "mae")
    assert code == 1


def test_bench_non_finite_threshold_is_data_error(capsys, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(capsys, *bench_args(out_path), "--d-rmse", "nan")
    assert code == 2
    assert err.startswith("error:") and not out_path.exists()


def test_bench_library_config_error_is_data_error(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "bench", "--metrics", "mae", "--sweep", "t",
        "--values", "7.5", "--out", str(tmp_path / "x.csv"),
        "--trials", "0")
    assert code == 2
    assert err.startswith("error:")


def test_bench_bad_sweep_threshold_is_data_error(capsys, tmp_path):
    """A t sweep value is checked in resolution units before any trial
    runs, so the message names the value as given."""
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "bench", "--metrics", "mae", "--sweep", "t",
        "--values=-1,5", "--out", str(out_path), "--trials", "1")
    assert code == 2
    assert err.startswith("error:") and "-1.0" in err
    assert not out_path.exists()


def test_bench_tiny_decimation_is_data_error(capsys, tmp_path):
    """A keep fraction whose step overflows leaves one target point, whose
    resolution is undefined: a data error, not a traceback."""
    out_path = tmp_path / "x.csv"
    code, out, err = run_cli(
        capsys, "bench", "--metrics", "mae", "--sweep", "decimation-uniform",
        "--values", "1e-300", "--out", str(out_path), "--trials", "1",
        "--iterations", "5", "--n-points", "500", "--n-corrs", "40")
    assert code == 2
    assert err == "error: cloud resolution needs at least 2 points\n"
    assert not out_path.exists()


# ---------------------------------------------------------------------- info


def test_info_reports_cloud_statistics(capsys, tmp_path):
    path = tmp_path / "cloud.xyz"
    # collinear points spaced 2 apart: every nearest neighbor is at 2
    path.write_text("0 0 0\n2 0 0\n4 0 0\n6 0 0\n")
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "points 4"
    assert lines[1] == "resolution 2"
    assert lines[2] == "min 0 0 0"
    assert lines[3] == "max 6 0 0"
    assert lines[4] == "centroid 3 0 0"


def test_info_non_utf8_file_is_data_error(capsys, tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_bytes(b"0 0 0\n1 2 \xff\n")
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert err == f"error: {path}:2: not UTF-8 text: byte 0xff\n"


def test_info_binary_ply_is_unsupported_not_a_text_error(capsys, tmp_path):
    path = tmp_path / "b.ply"
    path.write_bytes(_ply_header(1, fmt="binary_little_endian").encode("ascii")
                     + b"\x00\x00\x80\xff" * 3)
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 2
    assert err == (f"error: {path}: binary PLY is not supported; "
                   "convert to ascii 1.0 first\n")


def test_budget_beyond_int64_is_a_config_error(scene_files, tmp_path):
    """Exit 2 with one error line, before any sampling."""
    assert exit_code("register", scene_files["src"], scene_files["tgt"],
                     "--iterations", str(10**20)) == 2
    out = tmp_path / "x.csv"
    assert exit_code("bench", "--metrics", "mae", "--sweep", "iterations",
                     "--values", "1e300", "--trials", "1", "--n-points",
                     "2000", "--n-corrs", "40", "--out", str(out)) == 2
    assert not out.exists()


def test_info_single_point_has_no_resolution(capsys, tmp_path):
    path = tmp_path / "one.xyz"
    path.write_text("1 2 3\n")
    code, out, err = run_cli(capsys, "info", str(path))
    assert code == 0
    assert "resolution undefined (needs >= 2 points)" in out


# ------------------------------------------------------------ pinned output
#
# Each sweep: (shape, n_points, axis, values). Two values per axis, so the
# axes that draw one stream per value draw two; the lattice scene needs more
# points than the blob to leave room for the outliers' clearance.
_PINNED_SWEEPS = (
    ("random-blob", "1500", "t", "3,12"),
    ("random-blob", "1500", "iterations", "15,60"),
    ("random-blob", "1500", "d_rmse", "0.8,2.5"),
    ("random-blob", "1500", "inlier_ratio", "0.15,0.5"),
    ("random-blob", "1500", "noise", "0.5,2"),
    ("random-blob", "1500", "decimation-uniform", "0.7,1"),
    ("random-blob", "1500", "decimation-random", "0.6,0.9"),
    ("random-blob", "1500", "holes", "1,4"),
    ("lattice", "8000", "holes", "1,4"),
)


def test_bench_and_register_output_is_pinned(capsys, tmp_path):
    """The non-timing CSV columns of `bench` on every axis and `register`'s
    stdout, for all ten metrics, equal the text in cli_pinned_output.txt.

    Like the bulk-sampling tests in test_ransac.py, this pins the bits of
    the numpy/scipy build it was recorded with (numpy 2.4, scipy 1.17): a
    change that moves any hypothesis stream, score, winner or RMSE shows
    here as a diff."""
    metrics = ",".join(kind.value for kind in MetricKind)
    lines = []
    for shape, n_points, axis, values in _PINNED_SWEEPS:
        out_path = tmp_path / f"{shape}-{axis}.csv"
        code, out, err = run_cli(
            capsys, "bench", "--metrics", metrics, "--sweep", axis,
            "--values", values, "--out", str(out_path), "--trials", "2",
            "--iterations", "50", "--seed", "3", "--shape", shape,
            "--n-points", n_points, "--n-corrs", "50", "--inlier-ratio", "0.4",
            "--sigma", "0.5")
        assert code == 0, err
        lines += [",".join(row.split(",")[:6])
                  for row in out_path.read_text().splitlines()[1:]]
    paths, _ = make_scene_files(capsys, tmp_path, n_points=1500, n_corrs=50,
                                ratio=0.4, sigma=0.5)
    for kind in MetricKind:
        code, out, err = run_cli(
            capsys, "register", paths["src"], paths["tgt"], "--corrs",
            paths["corrs"], "--gt", paths["gt"], "--metric", kind.value,
            "--iterations", "50", "--seed", "1")
        assert code == 0, err
        lines += out.splitlines()
    pinned = Path(__file__).with_name("cli_pinned_output.txt").read_text()
    assert "\n".join(lines) + "\n" == pinned


# ------------------------------------------------- exit codes on bad input


def exit_code(*argv) -> int:
    """main's exit code: 0 success, 1 usage error (argparse's usage line), 2
    data or config error (one "error:" line). An exception escaping main
    fails the test."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    err = err.getvalue()
    assert code in (0, 1, 2), err
    if code == 1:
        assert "usage:" in err
    if code == 2:
        assert err.startswith("error:")
    return code


@pytest.fixture(scope="module")
def scene_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("scene")
    paths = {name: str(tmp / f"{name}.xyz") for name in ("src", "tgt")}
    assert main(["synth", "--out-source", paths["src"], "--out-target",
                 paths["tgt"], "--seed", "3", "--n-points", "2000"]) == 0
    return paths


_NUMBER = st.floats(-1e3, 1e3).map(repr)
_ODD_NUMBER = st.sampled_from(["1_0", "+.5", "5.", "1e-400", "1e75", "-1e75"])
_BAD_TOKEN = st.sampled_from(["nan", "inf", "0x10", "x", "1,5", "--1"])


@st.composite
def _rows(draw, width, min_rows=0):
    """Text rows of `width` numbers; in half the files one row is changed:
    an odd but valid number, a bad token, a token too few or too many, a
    trailing comment, or a comment or blank line put before it."""
    rows = draw(st.lists(st.lists(_NUMBER, min_size=width, max_size=width),
                         min_size=min_rows, max_size=8))
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(
            ["odd", "bad", "short", "long", "trailing", "comment", "blank"]))
        if change in ("odd", "bad"):
            rows[i][draw(st.integers(0, width - 1))] = draw(
                _ODD_NUMBER if change == "odd" else _BAD_TOKEN)
        elif change == "short":
            rows[i].pop()
        elif change == "long":
            rows[i].append("1")
        elif change == "trailing":
            rows[i].append("# note")
        else:
            rows.insert(i, ["# note"] if change == "comment" else [])
    return [" ".join(row) for row in rows]


def _ply_header(count: int, props=("x", "y", "z"), fmt="ascii") -> str:
    return "".join(["ply\n", f"format {fmt} 1.0\n", f"element vertex {count}\n",
                    *(f"property float {p}\n" for p in props), "end_header\n"])


@settings(max_examples=60)
@given(rows=_rows(3), header=st.sampled_from(
           ["none", "ply", "ply-count", "ply-binary", "ply-no-z"]),
       suffix=st.sampled_from([".xyz", ".ply", ".ply", ".pcd"]))
def test_malformed_cloud_files_exit_0_or_2(tmp_path_factory, rows, header,
                                            suffix):
    n = len(rows)
    text = {"none": "", "ply": _ply_header(n), "ply-count": _ply_header(n + 1),
            "ply-binary": _ply_header(n, fmt="binary_little_endian"),
            "ply-no-z": _ply_header(n, props=("x", "y"))}[header]
    path = tmp_path_factory.mktemp("cloud") / f"cloud{suffix}"
    path.write_text(text + "\n".join(rows) + "\n", encoding="utf-8")
    assert exit_code("info", str(path)) in (0, 2)


@settings(max_examples=30)
@given(rows=_rows(6, min_rows=3))
def test_malformed_correspondence_files_exit_0_or_2(tmp_path_factory,
                                                    scene_files, rows):
    path = tmp_path_factory.mktemp("corrs") / "corrs.txt"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert exit_code("register", scene_files["src"], scene_files["tgt"],
                     "--corrs", str(path), "--iterations", "5") in (0, 2)


_VALUES = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "-0", "0.5", "1",
                           "3", "1e400", "abc", "", "1:2:0", "2:1:1",
                           "0:1:0.5", "1,nan", "mae,nope", "holes", "t",
                           "pc-dist", "ply-ascii", "--trials"])
_BENCH_FLAGS = ("--metrics", "--sweep", "--values", "--trials",
                "--iterations", "--seed", "--d-rmse", "--hole-fraction", "--t",
                "--m", "--t-overlap", "--n-points", "--diameter", "--angle",
                "--translation", "--n-corrs", "--inlier-ratio", "--sigma",
                "--bogus")
_REGISTER_FLAGS = ("--metric", "--format", "--iterations", "--seed", "--t",
                   "--m", "--t-overlap", "--corrs", "--gt", "--bogus")


@settings(max_examples=60)
@given(flag=st.sampled_from(_BENCH_FLAGS), value=_VALUES)
def test_bench_flag_values_exit_0_1_or_2(tmp_path_factory, flag, value):
    out_path = tmp_path_factory.mktemp("bench") / "x.csv"
    # The flag under test comes last, so it overrides the tiny defaults.
    base = ["bench", "--metrics", "mae,overlap-count", "--sweep", "t",
            "--values", "6,9", "--out", str(out_path), "--trials", "1",
            "--iterations", "5", "--n-points", "2000", "--n-corrs", "40"]
    code = exit_code(*base, flag, value)
    assert out_path.exists() == (code == 0)


@settings(max_examples=40)
@given(flag=st.sampled_from(_REGISTER_FLAGS), value=_VALUES)
def test_register_flag_values_exit_0_1_or_2(scene_files, flag, value):
    exit_code("register", scene_files["src"], scene_files["tgt"],
              "--iterations", "5", flag, value)
