"""The benchmark's tracing probes still find the names they wrap.

`perfbench/tracing.py` times the engine by rebinding module attributes by
name, and records a probe whose name is gone as missing instead of
failing. This test makes that loss loud: it loads the tracer from its
path, without importing or writing anything under `perfbench/`, resolves
every probe target and pins the set that no longer resolves.
"""

from __future__ import annotations

import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Names the engine lost before the probes were re-pointed. Re-pointing or
# dropping these probes empties the set; any other name failing to resolve
# means a rename dropped a probe.
KNOWN_MISSING = {
    "ransacreg.evalbench:run_ransac",
    "ransacreg.ransac:cloud_resolution",
    "ransacreg.ransac:_cloud_value",
    "ransacreg.synth:build_index",
}


def test_only_the_known_probe_targets_are_missing():
    tracing = runpy.run_path(str(TRACING), run_name="perfbench_tracing")
    missing = {probe.target for probe in tracing["PROBES"]
               if tracing["_resolve"](probe.target) is None}
    assert missing == KNOWN_MISSING
