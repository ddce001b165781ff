"""Telemetry plane: registry math, merging, tracing, exposition, slow ring."""

import io
import json
import logging
import re
import threading

import pytest

from repro.runtime.client import MAX_BACKOFF_S, RuntimeClient
from repro.runtime.engine import Engine, Request
from repro.runtime.faults import load_fault_plan
from repro.runtime.gateway.admission import AdmissionController, PoolService
from repro.runtime.logs import JsonFormatter, configure_logging, event, get_logger
from repro.runtime.pool import WorkerPool
from repro.runtime.telemetry import (
    Histogram,
    MetricsRegistry,
    SlowRing,
    default_buckets,
    family_total,
    merge_snapshots,
    new_trace_id,
    quantile_from_buckets,
    render_prometheus,
)
from repro.runtime.trace import TraceConfig, synthetic_trace


def _payloads(size=10, seed=21):
    trace = TraceConfig(
        size=size,
        apps=["hash-table", "search"],
        distinct_shapes=2,
        n_threads=2,
        seed=seed,
    )
    return [request.to_dict() for request in synthetic_trace(trace)]


class TestHistogramMath:
    def test_observations_land_in_correct_buckets(self):
        histogram = Histogram("h", "test", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        child = histogram.snapshot_values()[()]
        assert child["buckets"] == [1, 1, 1, 1]  # one overflow entry
        assert child["count"] == 4
        assert child["sum"] == pytest.approx(105.0)

    def test_boundary_value_falls_in_lower_bucket(self):
        histogram = Histogram("h", "test", buckets=[1.0, 2.0])
        histogram.observe(1.0)  # bisect_left: exactly-on-bound is <= bound
        assert histogram.snapshot_values()[()]["buckets"] == [1, 0, 0]

    def test_quantile_interpolates_within_bucket(self):
        # counts: one sample per bucket of [1, 2, 4]; the median rank lands
        # halfway through the (1, 2] bucket.
        assert quantile_from_buckets([1.0, 2.0, 4.0], [1, 1, 1, 0], 0.5) == (
            pytest.approx(1.5)
        )

    def test_quantile_empty_histogram_is_zero(self):
        assert quantile_from_buckets([1.0, 2.0], [0, 0, 0], 0.99) == 0.0
        assert quantile_from_buckets(Histogram("h", "t").bounds, [], 0.5) == 0.0

    def test_quantile_overflow_reports_last_bound(self):
        assert quantile_from_buckets([1.0, 2.0], [0, 0, 5], 0.9) == 2.0

    def test_default_buckets_are_log_spaced_and_sorted(self):
        bounds = default_buckets()
        assert bounds == sorted(bounds)
        assert all(b2 == pytest.approx(2 * b1)
                   for b1, b2 in zip(bounds, bounds[1:]))

    def test_histogram_quantiles_track_observations(self):
        histogram = Histogram("h", "test")
        for _ in range(95):
            histogram.observe(0.001)
        for _ in range(5):
            histogram.observe(1.0)
        counts = histogram.snapshot_values()[()]["buckets"]
        assert quantile_from_buckets(histogram.bounds, counts, 0.5) < 0.01
        assert quantile_from_buckets(histogram.bounds, counts, 0.99) > 0.5


class TestRegistryAndMerge:
    def test_factories_are_idempotent_and_kind_checked(self):
        registry = MetricsRegistry()
        counter = registry.counter("a_total", "help")
        assert registry.counter("a_total", "help") is counter
        with pytest.raises(ValueError):
            registry.gauge("a_total", "help")

    def test_merge_under_concurrent_increments(self):
        registries = [MetricsRegistry() for _ in range(2)]
        per_thread, threads_per_registry = 1000, 4

        def hammer(registry):
            counter = registry.counter("ops_total", "help", ("kind",))
            histogram = registry.histogram("lat_seconds", "help")
            for i in range(per_thread):
                counter.inc(kind="a" if i % 2 else "b")
                histogram.observe(0.001 * (i % 7))

        threads = [
            threading.Thread(target=hammer, args=(registry,))
            for registry in registries
            for _ in range(threads_per_registry)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = merge_snapshots([r.snapshot() for r in registries])
        total = 2 * threads_per_registry * per_thread
        counts = merged["ops_total"]["values"]
        assert counts[("a",)] + counts[("b",)] == total
        histogram = merged["lat_seconds"]["values"][()]
        assert histogram["count"] == total
        assert sum(histogram["buckets"]) == total

    def test_merge_rejects_kind_conflicts(self):
        first = MetricsRegistry()
        first.counter("x", "help").inc()
        second = MetricsRegistry()
        second.gauge("x", "help").set(1)
        with pytest.raises(ValueError):
            merge_snapshots([first.snapshot(), second.snapshot()])

    def test_collectors_run_at_snapshot_time(self):
        registry = MetricsRegistry()
        registry.add_collector(lambda r: r.gauge("live", "help").set(42))
        assert registry.snapshot()["live"]["values"][()] == 42.0

    def test_family_total_sums_the_matching_children(self):
        registry = MetricsRegistry()
        counter = registry.counter("calls_total", "help", ("door", "status"))
        counter.inc(3, door="a", status="ok")
        counter.inc(2, door="b", status="ok")
        counter.inc(1, door="b", status="shed")
        snapshot = registry.snapshot()
        assert family_total(snapshot, "calls_total") == 6
        assert family_total(snapshot, "calls_total", status="ok") == 5
        assert family_total(snapshot, "calls_total", door="b", status="shed") == 1
        assert family_total(snapshot, "absent_total") == 0.0


class TestTracePropagation:
    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_traced_and_untraced_responses_byte_identical(self, mode):
        size = 8 if mode == "process" else 12
        plain = _payloads(size=size)
        traced = [dict(p, trace=True) for p in plain]
        with WorkerPool(workers=2, mode=mode) as pool_a:
            baseline = PoolService(pool_a).serve_payloads(plain).results
        with WorkerPool(workers=2, mode=mode) as pool_b:
            service = PoolService(pool_b)
            traced_results = service.serve_payloads(traced).results
            # Cache replay after traced traffic must not leak spans.
            replayed = service.serve_payloads(plain).results
        assert all("trace" in r for r in traced_results)
        assert all("trace" not in r for r in replayed)
        stripped = [
            {k: v for k, v in r.items() if k != "trace"}
            for r in traced_results
        ]
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )

    def test_stack_serves_the_bytes_of_a_bare_engine(self):
        """Front door, pool, workers and their counts change no response.

        No field legitimately differs: request and batch ids, cache-hit
        flags and modeled numbers all match the bare engine's.
        """
        plain = _payloads(size=12)
        bare = Engine().process([Request.from_dict(p) for p in plain])
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool)
            served = service.serve_payloads(plain).results
            scrape = service.metrics_text()
        # The stack really did measure itself.
        assert "\nengine_requests_total 12\n" in scrape
        assert json.dumps(served, sort_keys=True) == json.dumps(
            [response.to_dict() for response in bare], sort_keys=True
        )

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_client_minted_trace_id_round_trips(self, mode):
        payloads = _payloads(size=4)
        trace_id = new_trace_id()
        payloads[0] = dict(payloads[0], trace=True, trace_id=trace_id)
        with WorkerPool(workers=2, mode=mode) as pool:
            results = PoolService(pool).serve_payloads(payloads).results
        span = results[0]["trace"]
        assert span["trace_id"] == trace_id
        assert span["endpoint"] == "ndjson"
        assert span["worker"] in (0, 1)
        for key in ("compile_s", "execute_s", "queue_wait_s", "flush_s",
                    "total_s", "result_cache_hit"):
            assert key in span

    def test_frontdoor_mints_ids_when_absent(self):
        payloads = [dict(p, trace=True) for p in _payloads(size=4)]
        with WorkerPool(workers=2, mode="inline") as pool:
            results = PoolService(pool).serve_payloads(payloads).results
        ids = [r["trace"]["trace_id"] for r in results]
        assert all(ids) and len(set(ids)) == len(ids)

    def test_replay_marks_result_cache_hit(self):
        payloads = [dict(_payloads(size=1)[0], trace=True)]
        with WorkerPool(workers=1, mode="inline") as pool:
            service = PoolService(pool)
            first = service.serve_payloads(payloads).results[0]
            second = service.serve_payloads(payloads).results[0]
        assert first["trace"]["result_cache_hit"] is False
        assert second["trace"]["result_cache_hit"] is True


_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.e+-]+(e[+-][0-9]+)?$"
)


class TestExposition:
    def test_render_format_is_parseable(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "Requests.", ("code",)).inc(3, code="200")
        registry.histogram("lat_seconds", "Latency.",
                           buckets=[0.1, 1.0]).observe(0.5)
        text = render_prometheus([registry.snapshot()])
        lines = text.strip().splitlines()
        assert "# HELP req_total Requests." in lines
        assert "# TYPE req_total counter" in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'req_total{code="200"} 3' in lines
        for line in lines:
            if not line.startswith("#"):
                assert _SAMPLE_LINE.match(line), line

    def test_histogram_buckets_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", "H.", buckets=[1.0, 2.0])
        for value in (0.5, 0.6, 1.5, 9.0):
            histogram.observe(value)
        text = render_prometheus([registry.snapshot()])
        assert 'h_seconds_bucket{le="1.0"} 2' in text
        assert 'h_seconds_bucket{le="2.0"} 3' in text
        assert 'h_seconds_bucket{le="+Inf"} 4' in text
        assert "h_seconds_count 4" in text

    def test_service_exposes_stable_family_names(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool)
            service.serve_payloads(_payloads(size=8))
            text = service.metrics_text()
        for family in (
            "engine_requests_total",
            "engine_batches_total",
            "engine_cache_lookups_total",
            "pool_flushes_total",
            "pool_flush_seconds_bucket",
            "pool_worker_restarts_total",
            "frontdoor_requests_total",
            "frontdoor_request_seconds_bucket",
        ):
            assert family in text, family
        assert 'frontdoor_requests_total{endpoint="ndjson",status="ok"} 8' in text

    def test_worker_metrics_merge_across_process_pool(self):
        with WorkerPool(workers=2, mode="process") as pool:
            service = PoolService(pool)
            service.serve_payloads(_payloads(size=8))
            text = service.metrics_text()
        match = re.search(r"^engine_batches_total (\d+)$", text, re.MULTILINE)
        assert match and int(match.group(1)) >= 1


def _scraped(text):
    """Sample value by series (``name{labels}``) of an exposition."""
    samples = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return samples


def _scraped_total(samples, name, *label_pairs):
    """Sum of family ``name``'s series whose labels include every pair."""
    return sum(
        value for series, value in samples.items()
        if series.split("{", 1)[0] == name
        and all(pair in series for pair in label_pairs)
    )


class TestOneSource:
    """``stats`` and ``/metrics`` read one registry snapshot per process."""

    def test_stats_and_exposition_agree_on_every_count(self):
        plan = load_fault_plan('[{"kind": "kill", "worker": 0, "after_batches": 1}]')
        fresh = _payloads(size=6, seed=5)
        with WorkerPool(workers=2, mode="inline", fault_plan=plan) as pool:
            service = PoolService(pool, AdmissionController(max_inflight=8))
            service.serve_payloads(fresh)  # misses, and worker 0 dies
            service.serve_payloads(fresh)  # hits
            assert service.serve_payloads(_payloads(size=9)).shed
            stats = service.stats_payload()
            samples = _scraped(service.metrics_text())
        faults, admission = stats["pool"]["faults"], stats["admission"]
        assert faults["worker_restarts"] == 1 and faults["replayed_batches"] >= 1
        assert faults["worker_restarts"] == samples["pool_worker_restarts_total"]
        assert faults["replayed_batches"] == samples["pool_replayed_batches_total"]
        assert stats["shed"] == admission["rejected"] == 9
        assert stats["shed"] == samples["admission_shed_total"] == _scraped_total(
            samples, "frontdoor_requests_total", 'status="shed"')
        assert stats["served"] == admission["admitted"] == 12
        assert admission["admitted"] == samples["admission_admitted_total"]
        for tier in ("program", "result"):
            row = stats["pool"][tier + "_cache"]
            for outcome, field in (("hit", "hits"), ("miss", "misses")):
                scraped = _scraped_total(
                    samples, "engine_cache_lookups_total",
                    f'tier="{tier}"', f'outcome="{outcome}"')
                assert row[field] == scraped, (tier, outcome)
        assert stats["pool"]["result_cache"]["hits"] > 0
        # The stats quantile is the exposition's histogram, not a sample list.
        bounds, counts, below = [], [], 0.0
        for series, cumulative in samples.items():
            if series.startswith("frontdoor_queue_wait_seconds_bucket"):
                le = series.split('le="', 1)[1].rstrip('"}')
                if le != "+Inf":
                    bounds.append(float(le))
                counts.append(cumulative - below)
                below = cumulative
        assert stats["queue_wait_p99_s"] == round(
            quantile_from_buckets(bounds, counts, 0.99), 6)


class TestSlowRing:
    def test_keeps_k_slowest_not_k_most_recent(self):
        ring = SlowRing(capacity=3)
        for duration in (1.0, 5.0, 3.0, 2.0, 4.0):
            ring.record(duration, {"d": duration})
        entries = ring.entries()
        assert [e["duration_s"] for e in entries] == [5.0, 4.0, 3.0]
        assert ring.recorded == 5

    def test_fast_request_never_displaces_slow_one(self):
        ring = SlowRing(capacity=2)
        ring.record(2.0, {})
        ring.record(3.0, {})
        ring.record(0.1, {})  # faster than everything retained: dropped
        assert [e["duration_s"] for e in ring.entries()] == [3.0, 2.0]

    def test_payload_shape(self):
        ring = SlowRing(capacity=4)
        ring.record(0.25, {"endpoint": "ndjson"})
        payload = ring.payload()
        assert payload["ok"] and payload["op"] == "slow"
        assert payload["capacity"] == 4 and payload["recorded"] == 1
        assert payload["slowest"][0]["endpoint"] == "ndjson"

    def test_service_records_slow_entries(self):
        with WorkerPool(workers=2, mode="inline") as pool:
            service = PoolService(pool)
            service.serve_payloads(_payloads(size=4))
            payload = service.slow_payload()
        assert payload["capacity"] == 32
        assert payload["recorded"] >= 1
        assert payload["slowest"][0]["requests"] == 4


class TestStructuredLogs:
    @staticmethod
    def _reset_repro_logging():
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)
        root.propagate = True
        root.setLevel(logging.NOTSET)

    def test_json_formatter_renders_event_fields(self):
        stream = io.StringIO()
        configure_logging(level="info", json_lines=True, stream=stream)
        try:
            event(get_logger("repro.test"), logging.INFO, "something happened",
                  worker=3, cause="eof")
        finally:
            self._reset_repro_logging()
        record = json.loads(stream.getvalue())
        assert record["msg"] == "something happened"
        assert record["level"] == "INFO"
        assert record["worker"] == 3 and record["cause"] == "eof"

    def test_json_formatter_is_one_parseable_line(self):
        formatter = JsonFormatter()
        record = logging.LogRecord(
            "repro.x", logging.WARNING, __file__, 1, "msg", (), None
        )
        rendered = formatter.format(record)
        assert "\n" not in rendered
        assert json.loads(rendered)["logger"] == "repro.x"

    def test_worker_restart_logged_with_cause_and_replays(self):
        plan = load_fault_plan(
            '[{"kind": "kill", "worker": 0, "after_batches": 1}]'
        )
        payloads = _payloads(size=6)
        captured = []
        handler = logging.Handler()
        handler.emit = captured.append
        logger = logging.getLogger("repro.runtime.pool")
        logger.addHandler(handler)
        try:
            with WorkerPool(workers=2, mode="inline", fault_plan=plan) as pool:
                service = PoolService(pool)
                service.serve_payloads(payloads)
                service.serve_payloads(payloads)
        finally:
            logger.removeHandler(handler)
        restarts = [r for r in captured if r.getMessage() == "worker restarted"]
        assert restarts, "expected a structured restart record"
        fields = restarts[0].repro_fields
        assert fields["worker"] == 0
        assert fields["cause"] == "injected"
        assert "replayed_batches_total" in fields


class TestClientCounters:
    def _client(self, monkeypatch, replies, sleeps):
        monkeypatch.setattr(RuntimeClient, "_connect", lambda self: None)
        client = RuntimeClient(port=1, max_retries_429=2, sleep=sleeps.append)
        monkeypatch.setattr(client, "roundtrip", lambda payload: replies.pop(0))
        return client

    def test_429_backoff_counters(self, monkeypatch):
        sleeps = []
        replies = [
            {"ok": False, "code": 429, "retry_after_s": 0.3},
            {"ok": True},
        ]
        client = self._client(monkeypatch, replies, sleeps)
        assert client._roundtrip_with_backoff({"op": "x"})["ok"]
        assert sleeps == [0.3]  # the server's hint, above the client's floor

    def test_exhausted_retries_still_counted(self, monkeypatch):
        sleeps = []
        shed = {"ok": False, "code": 429, "retry_after_s": 0.3}
        client = self._client(monkeypatch, [dict(shed) for _ in range(3)], sleeps)
        assert client._roundtrip_with_backoff({"op": "x"})["code"] == 429
        # Bounded: one sleep per retry, each at least the server's hint.
        assert len(sleeps) == 2 and min(sleeps) >= 0.3

    def test_a_long_hint_is_capped_at_max_backoff(self, monkeypatch):
        sleeps = []
        replies = [
            {"ok": False, "code": 429, "retry_after_s": 30.0},
            {"ok": True},
        ]
        client = self._client(monkeypatch, replies, sleeps)
        assert client._roundtrip_with_backoff({"op": "x"})["ok"]
        assert sleeps == [MAX_BACKOFF_S]
