"""The benchmark workloads: fixed inputs, one closed-loop op each, and checks.

Every workload drives ransacreg only through its public entry points
(`run_experiment`, `ransacreg.cli.main`, and the replay API) and derives
all of its inputs from the benchmark seed. An op is timed around the
public call alone; its output is checked afterwards, outside the timed
window.

- sweep-t: one `run_experiment` trial at the threshold-robustness
  operating point (mae + inlier-count, t in 4..15 pr, 10 % inliers). It is
  the study workload; sampling, the SVD solve, the error kernel and scoring
  do almost all of the work, and every (metric, t) cell re-samples the same
  hypothesis stream.
- cloud-holes: one `run_experiment` trial of pc-dist + overlap-count on the
  holes axis. Nearest-neighbour queries dominate, and the data axis rebuilds
  correspondences, the target index and the resolution per sweep value.
- register-cli: one in-process `ransacreg register` call on files written
  during set-up, cycling through the 8 correspondence metrics. File parsing
  and per-run target resolution dominate; nothing is shared across runs.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ransacreg import (CorrespondenceConfig, EvalConfig, MetricKind,
                       MetricPlan, MetricSpec, RansacConfig, SceneConfig,
                       cli, cloud_resolution, estimate_rigid_transform,
                       evaluate_hypothesis, parse_cloud_file, rmse,
                       run_experiment, run_ransac, sample_minimal)
from ransacreg.cloudio import parse_correspondence_file, parse_transform_file
from ransacreg.geom import DEGENERACY_AREA_FACTOR

__all__ = ["NAMES", "OpCheck", "make_workload"]

# A registration is correct when its RMSE is below this many resolutions.
D_RMSE_PR = 2.5

# Fixed order (CORRESPONDENCE_KINDS is a frozenset, whose order is not).
CORR_KINDS = ("inlier-count", "huber", "mae", "mse", "log-cosh", "exp",
              "quantile", "neg-quantile")

# Tolerance for a proper rotation read back from 9-significant-digit text.
ROTATION_TOL = 1e-6


@dataclass(frozen=True)
class OpCheck:
    """Outcome of checking one op's output."""

    registrations: int
    correct: int
    digest_text: str
    error: str | None = None


def op_seed(seed: int, i: int) -> int:
    """Seed of the i-th op of a run; distinct for every op of every seed."""
    return seed * 100_000 + i


# Sizes: "full" is the measured benchmark; "tiny" runs the same code path
# in seconds, for the benchmark's own smoke tests.
_SIZES = {
    "full": dict(n_points=10000, n_corrs=1000, sweep_iterations=1000,
                 cloud_iterations=100, register_iterations=1000,
                 min_ops={"sweep-t": 20, "cloud-holes": 2, "register-cli": 100},
                 trace_ops={"sweep-t": 4, "cloud-holes": 2, "register-cli": 16}),
    "tiny": dict(n_points=2000, n_corrs=100, sweep_iterations=40,
                 cloud_iterations=8, register_iterations=40,
                 min_ops={"sweep-t": 2, "cloud-holes": 2, "register-cli": 8},
                 trace_ops={"sweep-t": 2, "cloud-holes": 2, "register-cli": 8}),
}


class _Sweep:
    """A one-trial `run_experiment` call per op."""

    root_span = "evalbench.run_experiment"

    def __init__(self, name, seed, size, *, metrics, axis, values, iterations,
                 inlier_ratio):
        sz = _SIZES[size]
        self.name = name
        self.seed = seed
        self.min_ops = sz["min_ops"][name]
        self.trace_ops = sz["trace_ops"][name]
        self._metrics = metrics
        self._axis = axis
        self._values = values
        self._iterations = iterations
        self._scene = SceneConfig(n_points=sz["n_points"], shape="random-blob",
                                  gt_rotation_angle=0.8,
                                  gt_translation_magnitude=30.0)
        self._corr = CorrespondenceConfig(n_correspondences=sz["n_corrs"],
                                          inlier_ratio=inlier_ratio,
                                          inlier_sigma_pr=1.0)
        self.registrations_per_op = len(metrics) * len(values)

    def setup(self, workdir: Path) -> None:
        self._plans = tuple(MetricPlan(kind=k) for k in self._metrics)

    def run(self, i: int):
        cfg = EvalConfig(metrics=self._plans, sweep_axis=self._axis,
                         sweep_values=self._values, trials=1,
                         d_rmse_pr=D_RMSE_PR, iterations=self._iterations,
                         hole_fraction=0.01, base_seed=op_seed(self.seed, i))
        return run_experiment(cfg, self._scene, self._corr)

    def check(self, i: int, rows) -> OpCheck:
        """Row contract: metrics x values rows in order, accuracy in [0, 1],
        mean_rmse_pr NaN iff accuracy is 0 and below d_rmse otherwise."""
        lines = [f"op {i}"]
        correct = 0
        expected = [(m, v) for m in self._metrics for v in sorted(self._values)]
        got = [(r.metric, r.sweep_value) for r in rows]
        error = None
        if got != expected:
            error = f"rows {got} != expected {expected}"
        for r in rows:
            # The CSV report's columns without its two timing columns.
            lines.append(",".join([r.metric, r.sweep_axis,
                                   format(r.sweep_value, ".6g"), str(r.trials),
                                   format(r.accuracy, ".6g"),
                                   format(r.mean_rmse_pr, ".6g")]))
            if not 0.0 <= r.accuracy <= 1.0 or r.trials != 1:
                error = error or f"bad accuracy/trials in {r}"
            elif (r.accuracy == 0.0) != math.isnan(r.mean_rmse_pr):
                error = error or f"mean_rmse_pr NaN-ness disagrees with accuracy in {r}"
            elif r.accuracy > 0.0 and not r.mean_rmse_pr < D_RMSE_PR:
                error = error or f"mean_rmse_pr not below d_rmse in {r}"
            correct += round(r.accuracy * r.trials)
        return OpCheck(self.registrations_per_op, correct,
                       "\n".join(lines) + "\n", error)


class _RegisterCli:
    """One in-process `ransacreg register` call per op."""

    root_span = "cli.main"
    registrations_per_op = 1

    def __init__(self, seed, size):
        sz = _SIZES[size]
        self.name = "register-cli"
        self.seed = seed
        self.min_ops = sz["min_ops"][self.name]
        self.trace_ops = sz["trace_ops"][self.name]
        self._n_points = sz["n_points"]
        self._n_corrs = sz["n_corrs"]
        self._iterations = sz["register_iterations"]
        self._pr = None

    def setup(self, workdir: Path) -> None:
        """Write the scene with `ransacreg synth` (its defaults at full size)."""
        self._files = {"source": workdir / "source.xyz",
                       "target": workdir / "target.ply",
                       "gt": workdir / "gt.txt",
                       "corrs": workdir / "corrs.txt"}
        argv = ["synth", "--out-source", str(self._files["source"]),
                "--out-target", str(self._files["target"]),
                "--out-gt", str(self._files["gt"]),
                "--out-corrs", str(self._files["corrs"]),
                "--seed", str(self.seed),
                "--n-points", str(self._n_points),
                "--n-corrs", str(self._n_corrs)]
        code, _, err = _call_cli(argv)
        if code != 0:
            raise RuntimeError(f"ransacreg synth exited {code}: {err}")

    def _argv(self, i: int) -> list[str]:
        f = self._files
        return ["register", str(f["source"]), str(f["target"]),
                "--corrs", str(f["corrs"]), "--gt", str(f["gt"]),
                "--metric", CORR_KINDS[i % len(CORR_KINDS)],
                "--seed", str(op_seed(self.seed, i)),
                "--iterations", str(self._iterations)]

    def run(self, i: int):
        return _call_cli(self._argv(i))

    def _resolution(self) -> float:
        # Grading reference, computed once outside the timed window the
        # same way the CLI does: from the parsed target file.
        if self._pr is None:
            self._pr = parse_cloud_file(self._files["target"]).resolution
        return self._pr

    def check(self, i: int, out) -> OpCheck:
        """Exit code 0, a proper rotation in the 3x4 matrix, score and rmse."""
        code, stdout, stderr = out
        text = f"op {i}\n{stdout}"
        if code != 0:
            return OpCheck(1, 0, text, f"exit code {code}: {stderr.strip()}")
        lines = stdout.splitlines()
        kind = CORR_KINDS[i % len(CORR_KINDS)]
        try:
            if len(lines) != 5:
                raise ValueError(f"expected 5 output lines, got {len(lines)}")
            m = np.array([[float(v) for v in line.split()] for line in lines[:3]])
            if m.shape != (3, 4) or not np.all(np.isfinite(m)):
                raise ValueError("matrix is not a finite 3x4")
            r = m[:, :3]
            if (np.linalg.norm(r.T @ r - np.eye(3)) > ROTATION_TOL
                    or abs(np.linalg.det(r) - 1.0) > ROTATION_TOL):
                raise ValueError("matrix rotation is not proper")
            score = lines[3].split()
            if len(score) != 3 or score[:2] != ["score", kind] \
                    or not math.isfinite(float(score[2])):
                raise ValueError(f"bad score line {lines[3]!r}")
            err_line = lines[4].split()
            if len(err_line) != 2 or err_line[0] != "rmse":
                raise ValueError(f"bad rmse line {lines[4]!r}")
            value = float(err_line[1])
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"rmse {value} is not finite and >= 0")
        except ValueError as exc:
            return OpCheck(1, 0, text, str(exc))
        return OpCheck(1, int(value < D_RMSE_PR * self._resolution()), text)

    def replay_check(self, i: int = 0) -> str | None:
        """Replay op i bit-exactly through the public replay API.

        The external loop over `sample_minimal` + `estimate_rigid_transform`
        + `evaluate_hypothesis` must find the same iteration, pose bits and
        score as `run_ransac`, and print the same bytes as the CLI; returns a
        description of any difference.
        """
        f = self._files
        source = parse_cloud_file(f["source"])
        target = parse_cloud_file(f["target"])
        corrs = parse_correspondence_file(f["corrs"])
        gt = parse_transform_file(f["gt"])
        pr = target.resolution
        spec = MetricSpec(kind=MetricKind(CORR_KINDS[i % len(CORR_KINDS)]),
                          t=7.5 * pr, m=0.9, pr=pr, t_overlap=2.0 * pr)
        rng = np.random.default_rng(op_seed(self.seed, i))
        # sample_minimal's documented default area, computed once.
        min_area = DEGENERACY_AREA_FACTOR * cloud_resolution(corrs.sources) ** 2
        best_value, best, best_i = -math.inf, None, -1
        for it in range(self._iterations):
            idx = sample_minimal(corrs, rng, min_triangle_area=min_area)
            est = estimate_rigid_transform(corrs.sources[idx], corrs.targets[idx],
                                           min_triangle_area=0.0)
            value = evaluate_hypothesis(spec, est, corrs).value
            if value > best_value:  # strict: earliest iteration wins ties
                best_value, best, best_i = value, est, it
        engine = run_ransac(RansacConfig(metric=spec, seed=op_seed(self.seed, i),
                                         iterations=self._iterations), corrs)
        if (engine.best_iteration != best_i
                or engine.best_score.value != best_value
                or not np.array_equal(engine.best_transform.rotation, best.rotation)
                or not np.array_equal(engine.best_transform.translation,
                                      best.translation)):
            return (f"replay of op {i} picked iteration {best_i}, run_ransac "
                    f"picked {engine.best_iteration} (or their bits differ)")
        pairs = np.stack([source.points, gt.apply(source.points)], axis=1)
        lines = [" ".join(format(v, ".9g") for v in row)
                 for row in best.matrix3x4()]
        lines.append(f"score {spec.kind} {best_value:.6g}")
        lines.append(f"rmse {rmse(best, pairs):.6g}")
        replayed = "\n".join(lines) + "\n"
        code, stdout, _ = self.run(i)
        if code != 0 or stdout != replayed:
            return f"replay of op {i} differs:\n{replayed}vs\n{stdout}"
        return None


def _call_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


NAMES = ("sweep-t", "cloud-holes", "register-cli")


def make_workload(name: str, seed: int, size: str = "full"):
    """The workload `name` with inputs derived from `seed`."""
    sz = _SIZES[size]
    if name == "sweep-t":
        return _Sweep(name, seed, size, metrics=("mae", "inlier-count"),
                      axis="t", values=tuple(float(v) for v in range(4, 16)),
                      iterations=sz["sweep_iterations"], inlier_ratio=0.10)
    if name == "cloud-holes":
        return _Sweep(name, seed, size, metrics=("pc-dist", "overlap-count"),
                      axis="holes", values=(0.0, 10.0),
                      iterations=sz["cloud_iterations"], inlier_ratio=0.5)
    if name == "register-cli":
        return _RegisterCli(seed, size)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")

