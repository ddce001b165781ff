#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit, or the first of two sets of the
same commit) and ``B`` the candidate; each is a file written by
``bench/run.py --repeat N``.  One row is printed per (workload, metric) with
both medians, both pairs of quartiles, the change of the median in the
direction that counts as worse, and the bound from ``BENCHMARK.json``:

* ``ok`` — B's median is no worse than A's by more than the bound;
* ``REGRESSED`` — it is worse by more than the bound;
* ``unresolved`` — the run-to-run spread of either set (interquartile
  distance over median) exceeds the bound, so the rule above cannot tell,
  unless every run of one set reads better than every run of the other.

Per-layer metrics have no bound and are listed for reading only.  The exit
code is 1 if any end-to-end metric regressed and 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)

from bench import stats  # noqa: E402


def load_runs(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> one value per run`` from a result file."""
    document = json.loads(Path(path).read_text())
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in document.get("runs", [document]):
        for workload, result in run["workloads"].items():
            for metric, value in result["metrics"].items():
                values.setdefault((workload, metric), []).append(value)
    return values


def verdict(a: List[float], b: List[float], better: str,
            bound: Optional[float]) -> Tuple[float, str]:
    """``(worsening, status)``: the change of the median as a share of A's,
    positive when B is worse, and what the bound says about it."""
    sign = 1.0 if better == "lower" else -1.0
    base = stats.median(a)
    worsening = sign * (stats.median(b) - base) / base if base else 0.0
    if bound is None:
        return worsening, ""
    if max(stats.spread(a), stats.spread(b)) > bound:
        if sign * (min(b) - max(a)) > 0:
            return worsening, "REGRESSED" if worsening > bound else "ok"
        if sign * (max(b) - min(a)) < 0:
            return worsening, "ok"
        return worsening, "unresolved"
    return worsening, "REGRESSED" if worsening > bound else "ok"


def compare(a_path: str, b_path: str, contract: Dict[str, Any]) -> int:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    declared = {m["name"]: m for m in
                contract["end_to_end"] + contract["per_layer"]}
    print(f"{'workload':12s} {'metric':34s} {'A median':>12s} {'A q1..q3':>25s} "
          f"{'B median':>12s} {'B q1..q3':>25s} {'worse by':>9s} {'bound':>6s}")
    regressed = unresolved = 0
    order = {name: position for position, name in enumerate(declared)}
    shared = [key for key in set(a_runs) & set(b_runs) if key[1] in declared]
    for key in sorted(shared, key=lambda k: (k[0], order[k[1]])):
        workload, metric = key
        a, b = a_runs[key], b_runs[key]
        bound = declared[metric].get("bound")
        worsening, status = verdict(a, b, declared[metric]["better"], bound)
        regressed += status == "REGRESSED"
        unresolved += status == "unresolved"
        a_q1, a_med, a_q3 = stats.quartiles(a)
        b_q1, b_med, b_q3 = stats.quartiles(b)
        print(f"{workload:12s} {metric:34s} {a_med:12.5g} "
              f"{f'{a_q1:.5g}..{a_q3:.5g}':>25s} {b_med:12.5g} "
              f"{f'{b_q1:.5g}..{b_q3:.5g}':>25s} {worsening:+9.1%} "
              f"{'' if bound is None else f'{bound:.0%}':>6s} {status}")
    print(f"{regressed} regressed, {unresolved} unresolved "
          f"({len(next(iter(a_runs.values())))} runs in A, "
          f"{len(next(iter(b_runs.values())))} in B)")
    return 1 if regressed else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(args[0], args[1], contract)


if __name__ == "__main__":
    sys.exit(main())
