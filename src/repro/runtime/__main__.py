"""Command-line trace replay: ``python -m repro.runtime``.

Replays a synthetic repeated-app request trace through a
:class:`~repro.runtime.pool.WorkerPool` of ``--workers`` cache-owning
workers (per-worker program caches, batches routed to the worker holding
their program, optional process parallelism), then prints the serving
report: wall-clock requests/sec, cache hit rates, and the per-worker table.

Example::

    python -m repro.runtime --trace-size 100 --workers 4
    python -m repro.runtime --apps strlen,search --no-result-cache
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.eval.tables import format_rows
from repro.runtime.faults import load_fault_plan
from repro.runtime.logs import configure_logging
from repro.runtime.pool import POOL_MODES, WorkerPool
from repro.runtime.trace import DEFAULT_TRACE_APPS, TraceConfig, synthetic_trace


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the trace-replay CLI."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Replay a synthetic request trace through the serving engine.")
    parser.add_argument("--trace-size", type=int, default=100,
                        help="number of requests in the trace (default 100)")
    parser.add_argument("--workers", type=int, default=4,
                        help="cache-owning pool workers (default 4)")
    parser.add_argument("--apps", type=str, default=",".join(DEFAULT_TRACE_APPS),
                        help="comma-separated app names to cycle through")
    parser.add_argument("--n-threads", type=int, default=4,
                        help="threads per generated instance (default 4)")
    parser.add_argument("--distinct-shapes", type=int, default=2,
                        help="distinct (n_threads, seed) shapes per app")
    parser.add_argument("--seed", type=int, default=0,
                        help="trace RNG seed (default 0)")
    parser.add_argument("--max-batch", type=int, default=16,
                        help="maximum requests coalesced per batch")
    parser.add_argument("--cache-capacity", type=int, default=64,
                        help="program-cache entries (0 disables)")
    parser.add_argument("--disk-cache", type=str, default=None,
                        help="directory for the on-disk program-cache tier")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the memoized-response tier")
    parser.add_argument("--pool-mode", type=str, default="inline",
                        choices=POOL_MODES,
                        help="pool execution mode (default inline)")
    parser.add_argument("--fault-plan", type=str, default=None,
                        help="DEV ONLY: inject faults into pool workers — "
                             "inline JSON or @path to a file, e.g. "
                             "'[{\"kind\": \"kill\", \"worker\": 0, "
                             "\"after_batches\": 1}]'; the pool must mask "
                             "them")
    parser.add_argument("--log-level", type=str, default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="structured-log threshold for repro.* loggers "
                             "(default warning: restarts and breaker trips "
                             "are visible, chatter is not)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit one JSON object per log line instead of "
                             "human-readable text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the trace-replay CLI; returns a process exit code."""
    args = build_parser().parse_args(argv)
    configure_logging(level=args.log_level, json_lines=args.log_json)
    config = TraceConfig(
        size=args.trace_size,
        apps=[name.strip() for name in args.apps.split(",") if name.strip()],
        distinct_shapes=args.distinct_shapes,
        n_threads=args.n_threads,
        seed=args.seed,
    )
    try:
        requests = synthetic_trace(config)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    pool = WorkerPool(
        workers=args.workers,
        mode=args.pool_mode,
        cache_capacity=args.cache_capacity,
        result_cache_capacity=0 if args.no_result_cache else 512,
        max_batch_size=args.max_batch,
        disk_cache_dir=args.disk_cache,
        fault_plan=load_fault_plan(args.fault_plan),
    )
    with pool:
        started = time.perf_counter()
        report = pool.process(requests)
        elapsed = time.perf_counter() - started
    responses = report.responses
    served = sum(1 for r in responses if r.error is None)
    wrong = sum(1 for r in responses if r.correct is False)
    program = report.aggregate_program_stats()
    result = report.aggregate_result_stats()
    print(f"trace           : {len(requests)} requests, "
          f"pool={args.workers}x{args.pool_mode}")
    print(f"served          : {served} ok, {len(responses) - served} errors, "
          f"{wrong} incorrect results")
    if pool.worker_restarts or args.fault_plan:
        print(f"faults          : {pool.worker_restarts} worker restarts, "
              f"{pool.replayed_batches} batches replayed")
    print(f"wall time       : {elapsed:.3f} s  "
          f"({len(requests) / max(elapsed, 1e-9):.1f} requests/s)")
    print(f"program cache   : {program.hits} hits / {program.lookups} lookups "
          f"(pool-wide hit rate {100 * program.hit_rate:.1f}%)")
    print(f"result cache    : {result.hits} hits / {result.lookups} lookups "
          f"(hit rate {100 * result.hit_rate:.1f}%)")
    rows = [{
        "worker": s.index,
        "batches": s.batches,
        "requests": s.requests,
        "prog_hit_%": round(100 * s.program_cache.hit_rate, 1),
        "resident": len(s.resident_keys),
        "busy_s": round(s.busy_s, 3),
        "rate_rps": round(s.service_rate_rps, 1),
    } for s in report.workers]
    print(format_rows(rows))
    # Nonzero when anything failed, so fault-injected smoke runs in CI can
    # assert recovery ("all responses ok") from the exit code alone.
    return 0 if served == len(responses) else 1


if __name__ == "__main__":
    raise SystemExit(main())
