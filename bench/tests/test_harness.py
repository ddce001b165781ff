"""Tests of the benchmark harness itself (not part of tier-1).

Run with ``python -m pytest bench/tests/test_harness.py``.  They cover the
arithmetic the metrics rest on, span self-times, the determinism of the
workload generators, and one ``--quick`` smoke run checked against
``BENCHMARK.json``.
"""

import json
import math
import statistics
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from bench import runner, stats  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, Op  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- arithmetic ---------------------------------------------------------------


def test_percentile_is_nearest_rank_and_a_measured_value():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 0.5) == 3.0
    assert stats.percentile(values, 0.95) == 5.0
    assert stats.percentile(values, 0.2) == 1.0
    assert stats.percentile(values, 0.21) == 2.0
    hundred = list(range(1, 101))
    assert stats.percentile(hundred, 0.95) == 95
    assert stats.samples_beyond(100, 0.95) == 5
    assert stats.samples_beyond(5, 0.95) == 0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile(values, 0.0)


def test_geomean_and_quartiles():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.geomean([2.0, 2.0, 2.0]) == pytest.approx(2.0)
    values = [10.0, 12.0, 11.0, 13.0, 9.0, 10.5, 11.5, 12.5, 9.5, 14.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([7.0]) == 0.0


def test_quiet_keeps_units_near_the_second_best_rate():
    # Two speed states 1.4x apart: the slow units go, the fast ones stay.
    rates = {0: 100.0, 1: 71.0, 2: 99.0, 3: 70.0, 4: 97.0, 5: 92.0, 6: 72.0}
    assert stats.quiet(rates) == [0, 2, 4, 5]
    # One freak fast unit does not set the reference.
    assert stats.quiet({0: 150.0, 1: 100.0, 2: 98.0, 3: 95.0}) == [0, 1, 2, 3]
    # Too few units to judge: keep all.
    assert stats.quiet({0: 100.0, 1: 50.0}) == [0, 1]


def _record(group, door, seconds, failed=0, keys=1):
    record = runner.Record(Op(group, door, tuple(range(keys))), seconds, kept=())
    record.failed = failed
    return record


def test_slices_cut_consecutive_operations_by_time():
    records = [_record("a", "inproc", 0.04) for _ in range(7)]
    cut = runner.slices(records)
    assert [len(rows) for rows in cut] == [3, 3, 1]
    long = [_record("a", "inproc", 0.5), _record("a", "inproc", 0.5)]
    assert runner.slices(long) == [[long[0]], [long[1]]]


def test_balanced_rate_weights_groups_as_the_rounds_do():
    # Twice as many cheap operations kept as dear ones: the rate is still
    # that of a round holding one of each.
    records = [_record("cheap", "inproc", 0.1), _record("cheap", "inproc", 0.3),
               _record("dear", "inproc", 0.8)]
    assert runner.balanced_rate(records) == pytest.approx(2 / (0.2 + 0.8))
    # Requests, not calls, are counted; failed requests do not count.
    calls = [_record("ndjson", "ndjson", 0.5, keys=8),
             _record("http", "http", 0.5, keys=8, failed=4)]
    assert runner.balanced_rate(calls) == pytest.approx(16 / 1.0 * 0.75)


def test_end_to_end_uses_quiet_slices_groups_and_doors():
    records = []
    for index in range(6):
        slow = 1.5 if index in (1, 4) else 1.0   # two disturbed stretches
        for _ in range(10):
            records.append(_record("x/ndjson", "ndjson", 0.020 * slow))
            records.append(_record("x/http", "http", 0.090 * slow))
    result = runner.end_to_end(records)
    assert result["samples"]["slices"] == 60
    assert result["samples"]["quiet_slices"] == 40
    assert result["samples"]["quiet_operations"] == 80
    metrics = result["metrics"]
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.110)
    assert metrics["app_geomean_ms"] == pytest.approx(math.sqrt(20.0 * 90.0))
    assert metrics["app_worst_ms"] == pytest.approx(90.0)
    # Per door, then averaged: not the pooled median, which would sit in the
    # gap between the two doors.
    assert metrics["latency_p50_ms"] == pytest.approx(55.0)
    assert metrics["latency_p95_ms"] == pytest.approx(55.0)
    assert result["slowest_group"] == "x/http"


def test_quiet_selection_widens_until_every_group_is_seen():
    # The only operations of group "rare" ran while the host was disturbed.
    records = [_record("common", "inproc", 0.1) for _ in range(10)]
    records += [_record("rare", "inproc", 0.125), _record("rare", "inproc", 0.125)]
    cut = runner.slices(records)
    kept = runner.quiet_slices(cut)
    assert {r.op.group for i in kept for r in cut[i]} == {"common", "rare"}


# -- spans ----------------------------------------------------------------------


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_is_duration_minus_child_cover():
    tracer = Tracer(clock=FakeClock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    with tracer.span("parent", op=1):
        with tracer.span("first", op=1):
            pass
        with tracer.span("second", op=1):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert {s.op for s in tracer.spans} == {1}
    assert tracer.self_times() == [10.0 - 2.0 - 2.0, 2.0, 2.0]


def test_overlapping_and_overhanging_children_are_counted_once():
    tracer = Tracer()
    parent = tracer.add("parent", 0.0, 10.0, op=0)
    tracer.add("a", 1.0, 5.0, op=0, parent=parent)
    tracer.add("b", 3.0, 7.0, op=0, parent=parent)     # overlaps a
    tracer.add("c", 9.0, 12.0, op=0, parent=parent)    # overhangs the parent
    tracer.add("other", 2.0, 3.0, op=1)                # not a child at all
    self_times = tracer.self_times()
    assert self_times[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert self_times[1:] == [4.0, 4.0, 3.0, 1.0]


def test_trace_file_round_trips(tmp_path):
    tracer = Tracer(clock=FakeClock(0.0, 2.0))
    with tracer.span("only", op=3):
        pass
    tracer.write(tmp_path / "out" / "trace.json")
    rows = json.loads((tmp_path / "out" / "trace.json").read_text())["spans"]
    assert rows == [{"name": "only", "start": 0.0, "end": 2.0, "parent": None,
                     "op": 3, "self": 2.0}]


# -- workload generators ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_in_the_seed(name):
    def first_rounds(seed):
        workload = WORKLOADS[name](seed)
        return (list(islice(workload.rounds(), 3)),
                list(islice(workload.ladder_calls(), 12)))

    assert first_rounds(11) == first_rounds(11)
    assert first_rounds(11) != first_rounds(12)
    rounds, _ = first_rounds(11)
    # Every round visits every group of the workload equally often.
    groups = [sorted(op.group for op in ops) for ops in rounds]
    assert groups[0] == groups[1] == groups[2]


def test_fresh_seeds_never_repeat_and_warm_keys_do():
    mixed = WORKLOADS["serve-mixed"](3)
    ops = [op for ops in islice(mixed.rounds(), 50) for op in ops]
    warm = set(mixed.warm_keys)
    fresh = [key for op in ops for key in op.keys if key not in warm]
    assert len(fresh) == len(set(fresh)) == 2 * len(ops)
    assert all(len(op.keys) == 8 for op in ops)
    assert {key.n_threads for key in fresh} == {32}
    assert {op.door for op in ops} == {"ndjson", "http"}


# -- the whole thing -------------------------------------------------------------------


def _run(*args):
    done = subprocess.run([sys.executable, "bench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_quick_run_emits_exactly_the_declared_metrics():
    _run("--quick")
    document = json.loads((ROOT / "bench" / "out" / "result.json").read_text())
    declared = {m["name"] for m in CONTRACT["end_to_end"]}
    assert set(document["workloads"]) == {w["name"]
                                          for w in CONTRACT["workloads"]}
    for name, result in document["workloads"].items():
        assert set(result["metrics"]) == declared, name
        assert result["failed"] == 0 and result["attempted"] > 0
        assert all(value > 0 for value in result["metrics"].values()), name
    assert {"nproc", "platform", "python", "numpy", "git_sha",
            "seed"} <= set(document["machine"])


def test_quick_traced_run_emits_exactly_the_declared_layers():
    out = _run("--quick", "--trace", "--workload", "exec-narrow")
    summary = json.loads(out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0
    declared = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared
    assert summary["metrics"]["core.executor_mismatches"]["value"] == 0
    spans = json.loads(
        (ROOT / "bench" / "out" / "trace-exec-narrow.json").read_text())["spans"]
    assert {"op", "lang.lex", "core.run", "ladder.http"} <= {
        s["name"] for s in spans}
