"""Command-line front end.

Subcommands: `register` (align one cloud pair with one metric), `bench`
(sweep experiment to CSV), `synth` (emit a synthetic scene to files), and
`info` (cloud statistics). All thresholds are given in resolution units
and bound to the target cloud's resolution internally.

Exit codes: 0 success, 1 usage error, 2 data/config error. The CLI is a
thin adapter: everything it does is reachable through the library.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .cloudio import (FORMATS, parse_cloud_file, parse_correspondence_file,
                      parse_transform_file, write_cloud_file,
                      write_correspondence_file, write_transform_file)
from .errors import BadConfig, RansacRegError, TooFewPoints
from .evalbench import (EvalConfig, ExperimentRow, MetricPlan, SWEEP_AXES,
                        rmse, run_experiment)
from .metrics import CLOUD_KINDS, CorrespondenceSet, MetricKind
from .ransac import RansacConfig, run_ransac
from .spatial import build_index
from .synth import (SHAPES, CorrespondenceConfig, SceneConfig,
                    generate_correspondences, generate_scene)

__all__ = ["CSV_HEADER", "entry", "main"]

CSV_HEADER = ",".join(f.name for f in dataclasses.fields(ExperimentRow))


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1; data problems exit 2 (argparse default is 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _metric_list(text: str) -> tuple[MetricKind, ...]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise argparse.ArgumentTypeError("no metrics given")
    kinds = []
    for name in names:
        try:
            kinds.append(MetricKind(name))
        except ValueError:
            known = ", ".join(k.value for k in MetricKind)
            raise argparse.ArgumentTypeError(
                f"unknown metric {name!r} (choose from {known})") from None
    return tuple(kinds)


_MAX_RANGE_VALUES = 10_000  # a range's values, counted before any is built


def _values_spec(text: str) -> tuple[float, ...]:
    """Sweep values: either "a,b,c" or an inclusive range "start:stop:step"."""
    try:
        if ":" in text:
            parts = [float(p) for p in text.split(":")]
            if len(parts) != 3:
                raise ValueError
            start, stop, step = parts
            if step <= 0.0 or stop < start:
                raise ValueError
            count = int(math.floor((stop - start) / step + 1e-9)) + 1
            if count > _MAX_RANGE_VALUES:
                raise ValueError
            return tuple(start + i * step for i in range(count))
        values = tuple(float(p) for p in text.split(",") if p.strip())
        if not values:
            raise ValueError
        return values
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"bad values spec {text!r}; use 'a,b,c' or 'start:stop:step'"
        ) from None


def _add_metric_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, default=MetricPlan.t_pr,
                   help="inlier threshold, resolution units (default: %(default)s)")
    p.add_argument("--m", type=float, default=MetricPlan.m,
                   help="quantile weight (default: %(default)s)")
    p.add_argument("--t-overlap", type=float, default=MetricPlan.t_overlap_pr,
                   help="overlap radius, resolution units (default: %(default)s)")


def _add_scene_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-points", type=int, default=SceneConfig.n_points,
                   help="target cloud size (default: %(default)s)")
    p.add_argument("--shape", choices=[s for s in SHAPES if s != "file"],
                   default=SceneConfig.shape,
                   help="target geometry (default: %(default)s)")
    p.add_argument("--diameter", type=float, default=SceneConfig.diameter,
                   help="random-blob diameter, world units (default: %(default)s)")
    p.add_argument("--angle", type=float, default=0.8,
                   help="ground-truth rotation, radians (default: %(default)s)")
    p.add_argument("--translation", type=float, default=30.0,
                   help="ground-truth translation, world units (default: %(default)s)")


def _add_corr_params(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-corrs", type=int, default=1000,
                   help="correspondence count (default: %(default)s)")
    p.add_argument("--inlier-ratio", type=float, default=0.5,
                   help="fraction of true matches (default: %(default)s)")
    p.add_argument("--sigma", type=float, default=1.0,
                   help="inlier jitter std dev, resolution units "
                        "(default: %(default)s)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ransacreg",
                     description="RANSAC 3D rigid registration toolkit")
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    p_reg = sub.add_parser("register", help="register one cloud pair")
    p_reg.add_argument("source", help="source cloud file (.xyz/.ply)")
    p_reg.add_argument("target", help="target cloud file (.xyz/.ply)")
    p_reg.add_argument("--metric", type=MetricKind, choices=tuple(MetricKind),
                       default=MetricKind.MAE,
                       help="scoring function (default: %(default)s)")
    p_reg.add_argument("--corrs", metavar="FILE",
                       help="correspondence file; omitted = pair by index")
    p_reg.add_argument("--gt", metavar="FILE",
                       help="ground-truth transform file (enables RMSE output)")
    p_reg.add_argument("--format", choices=FORMATS,
                       help="cloud format (default: by file suffix)")
    p_reg.add_argument("--iterations", type=int, default=RansacConfig.iterations,
                       help="hypothesis budget (default: %(default)s)")
    p_reg.add_argument("--seed", type=int, default=0,
                       help="sampling seed (default: %(default)s)")
    _add_metric_params(p_reg)
    p_reg.set_defaults(func=_cmd_register)

    p_bench = sub.add_parser("bench", help="run a sweep experiment to CSV")
    p_bench.add_argument("--metrics", type=_metric_list, required=True,
                         help="comma-separated metric names")
    p_bench.add_argument("--sweep", choices=SWEEP_AXES, required=True,
                         help="swept parameter")
    p_bench.add_argument("--values", type=_values_spec, required=True,
                         help="sweep values: 'a,b,c' or inclusive 'start:stop:step'")
    p_bench.add_argument("--out", required=True, metavar="CSV",
                         help="output report path")
    p_bench.add_argument("--trials", type=int, default=EvalConfig.trials,
                         help="seeded trials per cell (default: %(default)s)")
    p_bench.add_argument("--seed", type=int, default=EvalConfig.base_seed,
                         help="base seed (default: %(default)s)")
    p_bench.add_argument("--iterations", type=int, default=EvalConfig.iterations,
                         help="hypothesis budget per run (default: %(default)s)")
    p_bench.add_argument("--d-rmse", type=float, default=EvalConfig.d_rmse_pr,
                         help="correctness threshold, resolution units "
                              "(default: %(default)s)")
    p_bench.add_argument("--hole-fraction", type=float, default=EvalConfig.hole_fraction,
                         help="cloud fraction removed per hole (default: %(default)s)")
    _add_metric_params(p_bench)
    _add_scene_params(p_bench)
    _add_corr_params(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_synth = sub.add_parser("synth", help="emit a synthetic scene to files")
    p_synth.add_argument("--out-source", required=True, metavar="FILE")
    p_synth.add_argument("--out-target", required=True, metavar="FILE")
    p_synth.add_argument("--out-gt", metavar="FILE",
                         help="write the ground-truth transform here")
    p_synth.add_argument("--out-corrs", metavar="FILE",
                         help="also fabricate and write correspondences")
    p_synth.add_argument("--seed", type=int, default=SceneConfig.seed,
                         help="scene seed (default: %(default)s)")
    _add_scene_params(p_synth)
    _add_corr_params(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_info = sub.add_parser("info", help="print cloud statistics")
    p_info.add_argument("cloud", help="cloud file (.xyz/.ply)")
    p_info.add_argument("--format", choices=FORMATS,
                        help="cloud format (default: by file suffix)")
    p_info.set_defaults(func=_cmd_info)

    return parser


def _cmd_register(args) -> int:
    source = parse_cloud_file(args.source, args.format)
    target = parse_cloud_file(args.target, args.format)
    if args.corrs:
        corrs = parse_correspondence_file(args.corrs)
    else:
        if len(source) != len(target):
            raise BadConfig(
                "without --corrs the clouds must be equal-sized "
                f"(index-paired), got {len(source)} vs {len(target)}")
        corrs = CorrespondenceSet(source.points, target.points)
    spec = MetricPlan(args.metric, args.t, args.m,
                      args.t_overlap).bind(target.resolution)
    config = RansacConfig(metric=spec, seed=args.seed,
                          iterations=args.iterations)
    index = build_index(target) if spec.kind in CLOUD_KINDS else None
    result = run_ransac(config, corrs, source=source, target_index=index)
    for row in result.best_transform.matrix3x4():
        print(" ".join(format(v, ".9g") for v in row))
    print(f"score {spec.kind} {result.best_score.value:.6g}")
    if args.gt:
        gt = parse_transform_file(args.gt)
        pairs = np.stack([source.points, gt.apply(source.points)], axis=1)
        print(f"rmse {rmse(result.best_transform, pairs):.6g}")
    return 0


def _write_csv(path: str, rows) -> None:
    """One line per row: its `ExperimentRow` fields, floats as %.6g."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join(format(v, ".6g") if isinstance(v, float)
                              else str(v) for v in dataclasses.astuple(r)) + "\n")


def _scene_config(args, seed: int = 0) -> SceneConfig:
    return SceneConfig(n_points=args.n_points, shape=args.shape,
                       gt_rotation_angle=args.angle,
                       gt_translation_magnitude=args.translation, seed=seed,
                       diameter=args.diameter)


def _corr_config(args, seed: int = 0) -> CorrespondenceConfig:
    return CorrespondenceConfig(n_correspondences=args.n_corrs,
                                inlier_ratio=args.inlier_ratio,
                                inlier_sigma_pr=args.sigma, seed=seed)


def _cmd_bench(args) -> int:
    plans = tuple(MetricPlan(kind=k, t_pr=args.t, m=args.m,
                             t_overlap_pr=args.t_overlap)
                  for k in args.metrics)
    cfg = EvalConfig(metrics=plans, sweep_axis=args.sweep,
                     sweep_values=args.values, trials=args.trials,
                     d_rmse_pr=args.d_rmse, iterations=args.iterations,
                     hole_fraction=args.hole_fraction, base_seed=args.seed)
    rows = run_experiment(cfg, _scene_config(args), _corr_config(args))
    _write_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    scene = generate_scene(_scene_config(args, args.seed))
    write_cloud_file(args.out_source, scene.source)
    write_cloud_file(args.out_target, scene.target)
    written = [args.out_source, args.out_target]
    if args.out_gt:
        write_transform_file(args.out_gt, scene.gt)
        written.append(args.out_gt)
    if args.out_corrs:
        corrs, _ = generate_correspondences(
            scene, _corr_config(args, args.seed + 1))
        write_correspondence_file(args.out_corrs, corrs)
        written.append(args.out_corrs)
    print(f"scene: {len(scene.target)} points, resolution "
          f"{scene.target.resolution:.6g}")
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_info(args) -> int:
    cloud = parse_cloud_file(args.cloud, args.format)
    pts = cloud.points
    print(f"points {len(cloud)}")
    try:
        print(f"resolution {cloud.resolution:.6g}")
    except TooFewPoints:
        print("resolution undefined (needs >= 2 points)")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    print("min " + " ".join(format(v, ".6g") for v in lo))
    print("max " + " ".join(format(v, ".6g") for v in hi))
    print("centroid " + " ".join(format(v, ".6g") for v in pts.mean(axis=0)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if args.func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (RansacRegError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
