"""One workload in one process: set up, measure, check, print one JSON line.

``bench/run.py`` starts this module with ``python -m bench.child``; it is the
"child process" whose start-to-first-operation time is ``setup_s`` and whose
resident set (with any server and workers under it) is ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

from bench import runner
from bench.serving import peak_rss_mb, pin_to_one_cpu
from bench.workloads import WORKLOADS


def timed_run(workload, seconds: float) -> Dict[str, Any]:
    """The untraced run: end-to-end metrics of one window."""
    # Memory is read after a fixed amount of work, not at the end of a fixed
    # time: a faster machine would otherwise report more of any growth.
    rss: List[float] = []

    def read_memory(rounds_done: int) -> None:
        if rounds_done == workload.memory_rounds:
            rss.append(peak_rss_mb(workload.pids()))

    records = runner.run_window(workload, seconds, after_round=read_memory)
    if not rss:
        rss.append(peak_rss_mb(workload.pids()))
    runner.judge(workload, records)
    result = runner.end_to_end(records)
    result["metrics"]["peak_rss_mb"] = rss[0]
    result.update(runner.tally(workload, records))
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, report setup_s, tear down")
    parser.add_argument("--started", type=float, default=None,
                        help="time.time() just before this process was started")
    args = parser.parse_args(argv)
    started = args.started if args.started is not None else time.time()
    pin_to_one_cpu()

    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.setup()
        setup_s = time.time() - started
        if args.setup_only:
            result: Dict[str, Any] = {
                "metrics": {}, "attempted": workload.setup_attempted,
                "failed": workload.setup_failed}
        elif args.trace:
            from bench import layers
            result = layers.traced_run(workload, args.seconds)
        else:
            result = timed_run(workload, args.seconds)
        result["metrics"]["setup_s"] = setup_s
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
