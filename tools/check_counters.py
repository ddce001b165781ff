#!/usr/bin/env python
"""CI gate on the counters of the repo benchmark that repeat exactly.

Runs ``bench/run.py --workload W --seed 7 --seconds 1 --trace 1`` for every
workload of ``BENCHMARK.json`` and requires :data:`COUNTERS` to equal the
values committed in ``tools/expected_counters.json``.  Graph sizes, firings,
memory traffic, modeled throughput, cache behaviour and reply bytes depend on
neither the machine nor its load, so any difference is a behaviour change.
Timings are judged on pairs of runs with ``bench/compare.py``, never here.

On a mismatch the measured counters are left in a file of the same form as
the expected one; copying it over ``tools/expected_counters.json`` accepts
the change (docs/operations.md).
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPECTED = REPO_ROOT / "tools" / "expected_counters.json"

COUNTERS = (
    "dataflow.graph_nodes",
    "core.node_firings",
    "core.loop_iterations",
    "core.dram_bytes",
    "core.sram_accesses",
    "core.executor_mismatches",
    "sim.modeled_gbs_geomean",
    "runtime.cache.program_hit_rate",
    "runtime.cache.result_hit_rate",
    "runtime.cache.compiles",
    "runtime.codec.response_bytes",
)

Counters = Dict[str, Dict[str, float]]


def change(old: object, new: object) -> str:
    """`` (signed change, percent of old)`` between two numbers, the change
    alone when ``old`` is 0, and nothing when either side is absent."""
    if not all(isinstance(v, (int, float)) for v in (old, new)):
        return ""
    delta = new - old
    text = f"{delta:+d}" if isinstance(delta, int) else f"{delta:+.6g}"
    return f" ({text}, {delta / old:+.1%})" if old else f" ({text})"


def compare(expected: Counters, measured: Counters) -> List[str]:
    """One line per counter that differs or that only one side has."""
    lines = []
    for workload in sorted(set(expected) | set(measured)):
        wanted, got = expected.get(workload, {}), measured.get(workload, {})
        for name in sorted(set(wanted) | set(got)):
            old, new = wanted.get(name, "absent"), got.get(name, "absent")
            if old != new:
                lines.append(f"{workload}: {name}: expected {old}, "
                             f"measured {new}{change(old, new)}")
    return lines


def measure(workload: str, out: Path) -> Dict[str, float]:
    """One traced one-second run of ``workload``; its counters by name."""
    command = ["bench/run.py", "--workload", workload, "--seed", "7"]
    command += ["--seconds", "1", "--trace", "1", "--out", str(out)]
    subprocess.run(
        [sys.executable, *command],
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        check=True,
    )
    metrics = json.loads(out.read_text())["workloads"][workload]["metrics"]
    return {name: metrics[name] for name in COUNTERS if name in metrics}


def main() -> int:
    """Measure every workload, print the differences, return an exit code."""
    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory() as scratch:
        measured = {
            entry["name"]: measure(entry["name"], Path(scratch) / "result.json")
            for entry in benchmark["workloads"]
        }
    diff = compare(json.loads(EXPECTED.read_text()), measured)
    for line in diff:
        print(f"FAIL {line}")
    verdict = "ok"
    if diff:
        with tempfile.NamedTemporaryFile(
            "w", prefix="measured_counters-", suffix=".json", delete=False
        ) as kept:
            kept.write(json.dumps(measured, indent=1, sort_keys=True) + "\n")
        verdict = f"FAILED, measured counters in {kept.name}"
    print(f"{len(COUNTERS)} counters x {len(measured)} workloads: {verdict}")
    return 1 if diff else 0


if __name__ == "__main__":
    raise SystemExit(main())
