"""The benchmark's own tests: smoke runs, wrapper hygiene, trace accounting.

Run from the repository root with

    python3 -m pytest perfbench -q

Every run here uses the "tiny" size, which takes the same code path as the
measured benchmark on small inputs.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from ransacreg import KTooLarge, NeighborIndex, build_index  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run_cli(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_run_prints_every_metric_and_passes_checks(name, trace):
    proc = _run_cli(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                    "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["trace.missing_layers"]["value"] == 0


def test_declared_metrics_match_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.TRACE_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    groups = json.loads((HERE / "interaction_map.json").read_text())
    mapped = [name for g in groups for name in g["metrics"]]
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(mapped) == sorted(n for n in layer_names
                                    if not n.startswith("trace."))
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for entry in groups:
        for move in entry["moves"]:
            assert move["metric"] in e2e and move["workload"] in workloads.NAMES
        assert set(entry["no_change_on"]) <= set(workloads.NAMES)


def test_output_is_identical_for_a_seed_and_differs_across_seeds(tmp_path):
    def digest(seed, sub):
        w = workloads.make_workload("register-cli", seed, "tiny")
        (tmp_path / sub).mkdir()
        w.setup(tmp_path / sub)
        return [w.check(i, w.run(i)).digest_text for i in range(3)]

    assert digest(5, "a") == digest(5, "b")
    assert digest(5, "c") != digest(6, "d")


def _probe_owners():
    owners = {}
    for probe in tracing.PROBES:
        owner, attr = tracing._resolve(probe.target)
        owners[probe.target] = (owner, attr, vars(owner)[attr])
    return owners


def _traced_tiny(name: str, workdir: Path):
    w = workloads.make_workload(name, 4, "tiny")
    w.setup(workdir)
    tally = run._Tally(w, w.trace_ops)
    return w, tally, run._traced(w, tally)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_leaves_no_wrapper_behind(name, tmp_path):
    before = _probe_owners()
    _, tally, (metrics, missing, tracer, _) = _traced_tiny(name, tmp_path)
    assert tally.failed == 0 and not missing and not tracer.missing
    for target, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, target


def test_wrappers_are_restored_when_an_op_raises():
    before = _probe_owners()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            raise RuntimeError("op failed")
    for target, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, target


def test_failed_layer_call_flags_its_span():
    tracer = tracing.Tracer()
    index = build_index([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with tracing.installed(tracer):
        with pytest.raises(KTooLarge):
            NeighborIndex.knn(index, [0.0, 0.0, 0.0], 5)  # k > point count
    assert [tracer.names[n] for n in tracer.name] == ["spatial.knn"]
    assert list(tracer.error) == [1]


def test_renamed_layer_is_reported_missing_not_a_crash(tmp_path):
    renamed = tuple(
        dataclasses.replace(p, target=p.target + "_renamed")
        if p.target == "ransacreg.ransac:sample_minimal" else p
        for p in tracing.PROBES)
    w = workloads.make_workload("register-cli", 4, "tiny")
    w.setup(tmp_path)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, renamed):
        with tracer.span(w.root_span):
            code, _, _ = w.run(0)
    assert code == 0
    assert tracer.missing == ["ransacreg.ransac:sample_minimal_renamed"]
    metrics, missing = tracing.layer_metrics(tracer, 1, renamed)
    assert set(missing) == {"ransac.sample_s", "ransac.samples",
                            "ransac.sample_accept_ratio"}
    assert all(metrics[name] == 0.0 for name in missing)
    assert metrics["geom.hypotheses_solved"] == 40


@pytest.mark.parametrize("name", workloads.NAMES)
def test_self_times_sum_to_op_wall_time(name, tmp_path):
    _, _, (metrics, _, tracer, walls) = _traced_tiny(name, tmp_path)
    per_op = defaultdict(float)
    for i, s in enumerate(tracing.self_times(tracer)):
        per_op[tracer.op[i]] += s
    assert sorted(per_op) == list(range(len(walls)))
    allowance = abs(metrics["trace.overhead"])
    for i, wall in enumerate(walls):
        assert 0.0 <= wall - per_op[i] <= allowance * wall + 1e-4
    shares = sum(metrics[f"{m}.self_share"] for m in tracing.MODULES)
    assert shares == pytest.approx(1.0)


def test_sweep_t_reuses_one_stream_per_trial(tmp_path):
    _, _, (metrics, _, _, _) = _traced_tiny("sweep-t", tmp_path)
    assert metrics["evalbench.ransac_calls"] == 24
    assert metrics["evalbench.distinct_streams"] == 1
    assert metrics["evalbench.stream_reuse_ratio"] == pytest.approx(1 / 24)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "sweep-t", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
