"""The timed window: run a workload's operations, then judge and summarise.

Only ``Workload.call`` is timed; generating the request, keeping the reply
and checking it against the oracle all happen outside the measured interval.

Every statistic is taken over the *quiet* part of the window.  The virtual
machines this runs on switch, for seconds to a minute at a time, between two
speed states about 1.4x apart (bench/README.md has the trace), so a median
over everything reports the neighbours' load more than the program's speed.
The window is therefore cut into slices of consecutive operations of about a
tenth of a second; a slice's *slowness* is the time its operations took over
the time operations of their groups usually take in this run; and a slice is
quiet when its slowness is within a tenth of the second-best slice's.
"""

from __future__ import annotations

import http.client
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ReproError

from bench import stats
from bench.trace import Tracer
from bench.workloads import Op, Workload

#: Consecutive operations are grouped into slices of at least this long.
SLICE_SECONDS = 0.1
#: What a failed call may raise; anything else is a bug in the harness.
CALL_ERRORS = (ReproError, OSError, http.client.HTTPException, ValueError)


@dataclass
class Record:
    """One operation as the caller saw it."""

    op: Op
    seconds: float
    #: What ``Workload.digest`` kept of the reply; ``None`` if the call raised.
    kept: Any
    #: Requests of this operation that failed; filled in by :func:`judge`.
    failed: int = 0


def run_window(workload: Workload, seconds: float,
               tracer: Optional[Tracer] = None,
               after_round: Optional[Callable[[int], None]] = None
               ) -> List[Record]:
    """Run whole rounds until ``seconds`` have gone; returns every record.

    With a ``tracer`` every operation is additionally recorded as an ``op``
    span, which is all the tracing a whole operation gets from outside.
    ``after_round`` is told how many rounds are done after each one.
    """
    records: List[Record] = []
    clock = time.perf_counter
    end = clock() + seconds
    for done, round_ops in enumerate(workload.rounds(), start=1):
        for op in round_ops:
            started = clock()
            try:
                raw = workload.call(op)
            except CALL_ERRORS:
                raw = None
            ended = clock()
            if tracer is not None:
                tracer.add("op", started, ended, op=len(records))
            kept = None if raw is None else workload.digest(op, raw)
            records.append(Record(op, ended - started, kept))
        if after_round is not None:
            after_round(done)
        if clock() >= end:
            return records
    return records


def judge(workload: Workload, records: List[Record]) -> None:
    """Fill in each record's failures from the oracle (after the window)."""
    for record in records:
        if record.kept is None:
            record.failed = len(record.op.keys)
        else:
            record.failed = workload.failures(record.op, record.kept)


def slices(records: Sequence[Record]) -> List[List[Record]]:
    """Consecutive records grouped into slices of ``SLICE_SECONDS`` or more."""
    cut: List[List[Record]] = [[]]
    spent = 0.0
    for record in records:
        cut[-1].append(record)
        spent += record.seconds
        if spent >= SLICE_SECONDS:
            cut.append([])
            spent = 0.0
    if not cut[-1]:
        cut.pop()
    return cut


def quiet_slices(cut: Sequence[Sequence[Record]]) -> List[int]:
    """Indices of the slices that ran while the host was undisturbed.

    If the quiet slices miss a group altogether (few operations, a mostly
    disturbed window) the band is widened until every group is seen.
    """
    usual = stats.group_medians(
        (r.op.group, r.seconds) for rows in cut for r in rows)
    rates = {
        index: sum(usual[r.op.group] for r in rows) / sum(r.seconds for r in rows)
        for index, rows in enumerate(cut)}
    for band in (stats.QUIET_BAND, 2 * stats.QUIET_BAND, 4 * stats.QUIET_BAND):
        kept = stats.quiet(rates, band)
        if {r.op.group for i in kept for r in cut[i]} == set(usual):
            return kept
    return sorted(rates)


def balanced_rate(records: Sequence[Record]) -> float:
    """Correct requests per second of operation time, each group weighted as
    in the workload's rounds (where every group comes equally often) however
    many of its operations the records happen to hold."""
    seconds: Dict[str, List[float]] = {}
    requests: Dict[str, int] = {}
    attempted = failed = 0
    for record in records:
        seconds.setdefault(record.op.group, []).append(record.seconds)
        requests[record.op.group] = len(record.op.keys)
        attempted += len(record.op.keys)
        failed += record.failed
    per_round = sum(sum(v) / len(v) for v in seconds.values())
    return sum(requests.values()) / per_round * (1.0 - failed / attempted)


def door_percentile(records: Sequence[Record], q: float) -> float:
    """Mean over doors of each door's ``q``-quantile latency, in seconds.

    The two front doors' latencies do not overlap, so a percentile of the
    pooled samples would sit in the gap between them and jump from run to
    run; each door's own percentile is steady, and their mean moves when
    either door does.  In-process workloads have one door.
    """
    doors: Dict[str, List[float]] = {}
    for record in records:
        doors.setdefault(record.op.door, []).append(record.seconds)
    return sum(stats.percentile(v, q) for v in doors.values()) / len(doors)


def end_to_end(records: List[Record]) -> Dict[str, Any]:
    """The end-to-end metrics of one judged window (``setup_s`` and memory
    are added by the caller), with sample counts and per-group rows."""
    cut = slices(records)
    kept = quiet_slices(cut)
    quiet = [record for index in kept for record in cut[index]]
    groups = stats.group_medians((r.op.group, r.seconds) for r in quiet)
    doors = dict(Counter(record.op.door for record in quiet))
    return {
        "metrics": {
            "ops_per_s": balanced_rate(quiet),
            "app_geomean_ms": 1e3 * stats.geomean(groups.values()),
            "app_worst_ms": 1e3 * max(groups.values()),
            "latency_p50_ms": 1e3 * door_percentile(quiet, 0.50),
            "latency_p95_ms": 1e3 * door_percentile(quiet, 0.95),
        },
        "samples": {
            "operations": len(records),
            "quiet_operations": len(quiet),
            "slices": len(cut),
            "quiet_slices": len(kept),
            "groups": len(groups),
            "per_door": doors,
            "beyond_p95_per_door":
                stats.samples_beyond(min(doors.values()), 0.95),
        },
        "groups_ms": {g: 1e3 * v for g, v in sorted(groups.items())},
        "slowest_group": max(groups, key=groups.get),
    }


def tally(workload: Workload, records: List[Record]) -> Dict[str, int]:
    """Requests attempted and failed, set-up checks included."""
    return {
        "attempted": workload.setup_attempted
        + sum(len(r.op.keys) for r in records),
        "failed": workload.setup_failed + sum(r.failed for r in records),
    }
