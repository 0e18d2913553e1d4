"""ransacreg benchmark: one closed-loop workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-t --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics: set-up time (the
median of several fresh processes that import ransacreg and build the
workload's inputs), then a single-client closed loop of ops for --seconds
seconds (and at least the workload's minimum op count), checking every
op's output outside the timed window. With --trace 1 it instead runs the
workload's fixed trace ops twice each, untraced and traced, and reports
the per-layer metrics from the traced copies.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. Full results,
including the environment and the output digest, go to
.perfbench_out/results/ and the spans of a traced run to
.perfbench_out/trace-<workload>.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh set-up processes per run; set-up time is their median.
SETUP_SAMPLES = {"full": 3, "tiny": 1}
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "registrations_per_s": "1/s",
    "register_ms_p50": "ms",
    "register_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


TRACE_UNITS = {
    **{name: unit for name, (unit, _) in tracing.PER_LAYER_METRICS.items()},
    "trace.untraced_registrations_per_s": "1/s",
    "trace.traced_registrations_per_s": "1/s",
    "trace.overhead": "ratio",
    "trace.spans": "count",
    "trace.span_errors": "count",
    "trace.missing_layers": "count",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code path on small inputs")
    p.add_argument("--setup-child", metavar="DIR",
                   help=argparse.SUPPRESS)  # internal: one set-up sample
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _import_workloads():
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports ransacreg from SRC)
    import ransacreg
    lib = Path(ransacreg.__file__).resolve()
    if SRC.resolve() not in lib.parents:
        raise RuntimeError(f"ransacreg imported from {lib}, not from {SRC}")
    return workloads


def _setup_child(args) -> int:
    """One set-up sample: import ransacreg and build the workload's inputs."""
    t0 = time.perf_counter()
    workloads = _import_workloads()
    w = workloads.make_workload(args.workload, args.seed, args.size)
    w.setup(Path(args.setup_child))
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


def _measure_setup(args, workdir: Path) -> float:
    samples = []
    for k in range(SETUP_SAMPLES[args.size]):
        child_dir = workdir / f"setup{k}"
        child_dir.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--size", args.size,
             "--setup-child", str(child_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        shutil.rmtree(child_dir)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def _environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v, "unset") for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


class _Tally:
    """Op outcomes of one run: attempts, failures, accuracy, digest."""

    def __init__(self, w, graded_ops: int):
        self.w = w
        self.graded_ops = graded_ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.registrations = 0
        self.correct = 0
        self.digest = hashlib.sha256()

    def run_op(self, i: int, call, grade: bool = True):
        """Run op i through `call` and check it; return (latency s, check)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = call(i)
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - t0
            self.fail(i, traceback.format_exc())
            return elapsed, None
        elapsed = time.perf_counter() - t0
        check = self.w.check(i, out)
        if check.error is not None:
            self.fail(i, check.error)
        # Accuracy and the digest cover the first graded_ops ops only, the
        # same inputs on every run of a seed, whatever the machine speed.
        if grade and i < self.graded_ops:
            self.registrations += check.registrations
            self.correct += check.correct
            self.digest.update(check.digest_text.encode())
        return elapsed, check

    def fail(self, i: int, message: str) -> None:
        self.failed += 1
        self.errors.append(f"op {i}: {message}")


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(args, w, tally: _Tally, setup_s: float):
    """Closed loop for --seconds and at least w.min_ops ops.

    Returns (end-to-end metrics, latency of each op in seconds).
    """
    latencies = []
    t_start = time.perf_counter()
    i = 0
    while i < w.min_ops or time.perf_counter() - t_start < args.seconds:
        latencies.append(tally.run_op(i, w.run)[0])
        i += 1
    per_reg_ms = [1000.0 * s / w.registrations_per_op for s in latencies]
    return {
        "setup_s": setup_s,
        "registrations_per_s": i * w.registrations_per_op / sum(latencies),
        "register_ms_p50": _percentile(per_reg_ms, 50),
        "register_ms_p90": _percentile(per_reg_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, latencies


def _traced(w, tally: _Tally):
    """Run the trace ops untraced and traced, alternating.

    Returns (per-layer metrics, missing metric names, tracer, traced wall
    time of each op).
    """
    tracer = tracing.Tracer()
    untraced_s = 0.0
    traced_walls = []

    def traced_call(i):
        with tracer.span(w.root_span):
            return w.run(i)

    # Untraced and traced copies of each op alternate, so machine drift
    # lands on both sides of the overhead ratio alike. Tracing must not
    # change what an op outputs.
    for i in range(w.trace_ops):
        elapsed, plain = tally.run_op(i, w.run)
        untraced_s += elapsed
        tracer.op_id = i
        with tracing.installed(tracer):
            elapsed, traced = tally.run_op(i, traced_call, grade=False)
        traced_walls.append(elapsed)
        if plain and traced and plain.digest_text != traced.digest_text:
            tally.fail(i, "traced output differs from untraced output")
    metrics, missing = tracing.layer_metrics(tracer, w.trace_ops)
    regs = w.trace_ops * w.registrations_per_op
    traced_s = sum(traced_walls)
    metrics["trace.untraced_registrations_per_s"] = regs / untraced_s
    metrics["trace.traced_registrations_per_s"] = regs / traced_s
    metrics["trace.overhead"] = 1.0 - untraced_s / traced_s
    metrics["trace.spans"] = len(tracer) / w.trace_ops
    metrics["trace.span_errors"] = float(sum(tracer.error))
    metrics["trace.missing_layers"] = float(len(tracer.missing))
    return metrics, missing, tracer, traced_walls


def _replay(w) -> str:
    """Outcome of the workload's replay check, outside the timed window."""
    if not hasattr(w, "replay_check"):
        return "not applicable"
    try:
        error = w.replay_check()
    except Exception:  # a replay that raises is a failed check
        error = traceback.format_exc()
    return error or "bit-exact"


def _self_time_table(tracer, n_ops: int) -> list[str]:
    totals: dict[str, float] = {}
    for i, s in enumerate(tracing.self_times(tracer)):
        name = tracer.names[tracer.name[i]]
        totals[name] = totals.get(name, 0.0) + s
    grand = sum(totals.values()) or 1.0
    return [f"  {name:<28} {1000.0 * s / n_ops:10.2f} ms/op {100.0 * s / grand:6.1f} %"
            for name, s in sorted(totals.items(), key=lambda kv: -kv[1])]


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ransacreg" / "__init__.py").is_file():
        print(f"perfbench: no ransacreg sources under {SRC}; run it from the "
              "root of a ransacreg checkout", file=sys.stderr)
        return 2
    if args.setup_child:
        return _setup_child(args)

    workloads = _import_workloads()
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 1
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = None if args.trace else _measure_setup(args, workdir)
        w = workloads.make_workload(args.workload, args.seed, args.size)
        w.setup(workdir)
        graded = w.trace_ops if args.trace else w.min_ops
        tally = _Tally(w, graded)
        missing: list[str] = []
        table: list[str] = []
        latencies: list[float] = []
        if args.trace:
            values, missing, tracer, _ = _traced(w, tally)
            units = TRACE_UNITS
            OUT.mkdir(exist_ok=True)
            tracer.write_csv(OUT / f"trace-{w.name}.csv")
            table = _self_time_table(tracer, w.trace_ops)
        else:
            values, latencies = _end_to_end(args, w, tally, setup_s)
            units = END_TO_END_UNITS
        replay = _replay(w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = tally.failed == 0 and replay in ("bit-exact", "not applicable")
    accuracy = tally.correct / tally.registrations if tally.registrations else 0.0
    result = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "environment": _environment(),
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "accuracy": accuracy,
        "graded_registrations": tally.registrations,
        "output_sha256": tally.digest.hexdigest(),
        "op_latencies_s": latencies,
        "replay": replay,
        "errors": tally.errors[:20],
        "missing_layer_metrics": missing,
        "metrics": values,
    }
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    results_path = OUT / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    results_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"trace {args.trace}")
    env = result["environment"]
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, Python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}")
    for name, value in values.items():
        print(f"  {name:<36} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  (register_ms_p50/p90 over {len(latencies)} op samples)")
    print(f"accuracy {accuracy:.6g} over {tally.registrations} graded "
          f"registrations; error_rate {result['error_rate']:.6g} "
          f"({tally.failed}/{tally.attempted} ops failed)")
    print(f"output sha256 {result['output_sha256']}")
    print(f"replay: {replay}")
    for message in tally.errors[:5]:
        print(f"error: {message}")
    if args.trace:
        print("self time by span (per op, share of traced op time):")
        print("\n".join(table))
        for name in missing:
            print(f"missing layer metric: {name}")
    print(f"results: {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
