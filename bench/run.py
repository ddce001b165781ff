#!/usr/bin/env python3
"""The repo benchmark: one command, every metric by name, outputs checked.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--quick] [--repeat N] [--out FILE]

Each workload runs in child processes of its own (``python -m bench.child``).
Without ``--trace`` a workload is set up three times — twice only to time the
set-up — and measured once, and the end-to-end metrics are printed; with
``--trace`` the separate traced run prints the per-layer metrics and leaves a
span file beside the result.  Everything is also written to
``bench/out/result.json`` (``--out`` names another file).  ``--repeat N``
makes a set of N runs with seeds ``--seed``, ``--seed + 1``, ... for
``bench/compare.py``.  With ``--workload`` the last line of standard output
is the one-object JSON summary that ``BENCHMARK.json`` users parse.
The exit code is non-zero if any operation failed its oracle, any process
outlived its run, or a declared metric is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# Run as a script, Python puts bench/ first on the path; the harness is the
# package ``bench`` under the repo root instead (bench/trace.py must not
# shadow the standard ``trace`` module).
sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402
from bench.serving import child_environment  # noqa: E402

OUT = ROOT / "bench" / "out"
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0


def load_contract() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_record(seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken; stored in every result."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            sha = done.stdout.strip()
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version,
            "git_sha": sha, "seed": seed}


def run_child(workload: str, seed: int, seconds: float,
              trace: int = 0, setup_only: bool = False) -> Dict[str, Any]:
    """Run one child to completion and return the JSON object it printed."""
    command = [sys.executable, "-m", "bench.child", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace),
               "--started", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    done = subprocess.run(command, cwd=ROOT, env=child_environment(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int, setup_repeats: int) -> Dict[str, Any]:
    """All children of one workload, folded into one result."""
    if trace:
        return run_child(workload, seed, seconds, trace=1)
    setups: List[float] = []
    attempted = failed = 0
    for _ in range(setup_repeats - 1):
        rehearsal = run_child(workload, seed, seconds, setup_only=True)
        setups.append(rehearsal["metrics"]["setup_s"])
        attempted += rehearsal["attempted"]
        failed += rehearsal["failed"]
    result = run_child(workload, seed, seconds)
    setups.append(result["metrics"]["setup_s"])
    result["metrics"]["setup_s"] = stats.median(setups)
    result["samples"]["setups"] = len(setups)
    result["attempted"] += attempted
    result["failed"] += failed
    return result


def declared(contract: Dict[str, Any], trace: int) -> Dict[str, str]:
    """Name -> unit of the metrics this kind of run must emit."""
    return {m["name"]: m["unit"]
            for m in contract["per_layer" if trace else "end_to_end"]}


def summary(result: Dict[str, Any], units: Dict[str, str]) -> Dict[str, Any]:
    """The one-object form: exactly the declared metrics, each with its unit."""
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def print_table(workload: str, result: Dict[str, Any],
                units: Dict[str, str]) -> None:
    samples = result.get("samples", {})
    print(f"== {workload}: {result['attempted']} attempted, "
          f"{result['failed']} failed "
          f"(failed_share {result['failed'] / result['attempted']:.6f}); "
          f"samples {json.dumps(samples, sort_keys=True)}")
    for name, unit in units.items():
        print(f"{workload:12s} {name:36s} {result['metrics'][name]:14.6g} {unit}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload by name (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="the traced run: per-layer metrics and spans")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one-second windows, one set-up")
    parser.add_argument("--repeat", type=int, default=1,
                        help="make a set of this many runs, one seed each")
    parser.add_argument("--out", default=None,
                        help="result file (default: bench/out/result.json)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    setup_repeats = SETUP_REPEATS
    if args.quick:
        seconds, setup_repeats = min(seconds, 1.0), 1

    units = declared(contract, args.trace)
    runs: List[Dict[str, Any]] = []
    failed = 0
    last: Dict[str, Any] = {}
    for seed in range(args.seed, args.seed + args.repeat):
        run: Dict[str, Any] = {"machine": machine_record(seed),
                               "trace": args.trace, "seconds": seconds,
                               "workloads": {}}
        for workload in ([args.workload] if args.workload else names):
            result = run_workload(workload, seed, seconds, args.trace,
                                  setup_repeats)
            last = summary(result, units)
            result["metrics"] = {k: v["value"]
                                 for k, v in last["metrics"].items()}
            run["workloads"][workload] = result
            failed += result["failed"]
            print_table(workload, result, units)
        runs.append(run)
    out = Path(args.out) if args.out else OUT / (
        "trace-result.json" if args.trace else "result.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    document = runs[0] if args.repeat == 1 else {"runs": runs}
    out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    if args.workload:
        print(json.dumps(last))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
