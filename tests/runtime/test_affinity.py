"""Pool routing: a batch goes to the worker whose cache holds its program."""

import pytest

from repro.runtime import pool as pool_module
from repro.runtime.engine import Request
from repro.runtime.faults import FaultPlan
from repro.runtime.pool import WorkerPool
from repro.runtime.telemetry import render_prometheus
from repro.runtime.trace import TraceConfig, synthetic_trace

from runtime_helpers import pool_stats

MIXED_TRACE = TraceConfig(
    size=500,
    apps=["hash-table", "search", "huff-enc", "murmur3", "strlen", "ip2int",
          "isipv4"],
    distinct_shapes=2,
    n_threads=2,
    seed=42,
)


def traced(app, seed=0):
    """A small request whose response names the worker that served it."""
    return Request(app=app, n_threads=1, seed=seed, trace=True)


def served_by(report):
    return [r.trace["worker"] for r in report.responses]


def compiles(p):
    """Program-cache misses per worker."""
    return [row["program_cache"]["misses"] for row in pool_stats(p)["workers"]]


def pool(workers, **kwargs):
    """An inline pool whose every request reaches a worker."""
    return WorkerPool(workers=workers, mode="inline", result_cache_capacity=0,
                      **kwargs)


class TestRouting:
    def test_a_resident_key_goes_to_its_holder(self):
        with pool(3) as p:
            assert served_by(p.process([traced("search"),
                                        traced("murmur3")])) == [0, 1]
            # A cold key would start the cursor at worker 0.
            assert served_by(p.process([traced("murmur3", 1)])) == [1]
            assert compiles(p)[1] == 1

    def test_of_two_holders_the_least_loaded_wins(self):
        with pool(3, max_batch_size=1) as p:
            p.process([traced("search")])
            key, = p.resident_keys[0]
            p.resident_keys[2].append(key)
            report = p.process([traced("search", seed) for seed in (1, 2, 3)])
        # Holders 0 and 2 only; equal load goes to the lower index.
        assert served_by(report) == [0, 2, 0]

    def test_cold_keys_go_round_robin_from_worker_zero_every_flush(self):
        with pool(3) as p:
            first = p.process([traced(app) for app in
                               ("search", "murmur3", "strlen", "hash-table")])
            second = p.process([traced("ip2int"), traced("isipv4")])
        assert served_by(first) == [0, 1, 2, 0]
        assert served_by(second) == [0, 1]

    @pytest.mark.parametrize("flush, split", [(10, (8, 2)), (20, (10, 10))])
    def test_a_full_holder_spills_to_the_next_worker(self, flush, split):
        with pool(2, max_batch_size=1) as p:
            report = p.process([traced("search", seed) for seed in range(flush)])
        # Worker 0 is full at 8 batches, or at its even share of a bigger
        # flush; the spill makes worker 1 a holder, and the least-loaded
        # holder takes the rest.
        assert served_by(report) == [0] * split[0] + [1] * split[1]
        assert compiles(p) == [1, 1]

    def test_a_key_evicted_within_the_flush_still_routes_to_its_worker(
            self, monkeypatch):
        # Inline workers build their caches in this process, so they see it.
        monkeypatch.setattr(pool_module, "WORKER_CACHE_CAPACITY", 2)
        with pool(2, max_batch_size=1) as p:
            report = p.process([traced(app) for app in
                                ("search", "murmur3", "strlen", "hash-table",
                                 "ip2int")] + [traced("search", 1)])
        # Worker 0 evicted "search" for "ip2int" but is still its holder in
        # this flush, so the second "search" batch recompiles there.
        assert served_by(report) == [0, 1, 0, 1, 0, 0]
        assert compiles(p)[0] == 4

    def test_a_killed_workers_batch_is_replayed_onto_the_respawned_index(self):
        plan = FaultPlan.from_spec([{"kind": "kill", "worker": 1}])
        with pool(3, fault_plan=plan) as p:
            report = p.process([traced(app) for app in
                                ("search", "murmur3", "strlen")])
        assert (p.restarts.value(), p.replays.value()) == (1, 1)
        assert all(r.ok for r in report.responses)
        # The retry starts from the first routing's residency, not cold.
        assert served_by(report) == [0, 1, 2]

    def test_dispatch_imbalance_is_max_over_mean_routed_requests(self):
        with pool(2) as p:
            p.process([traced("search", seed) for seed in range(3)]
                      + [traced("murmur3")])
            text = render_prometheus(p.metrics_snapshots())
        # Three requests on worker 0, one on worker 1: 3 / 2.
        assert "pool_dispatch_imbalance 1.5" in text.splitlines()


class TestEndToEndHitRate:
    def test_mixed_trace_spreads_evenly_and_compiles_each_spill_once(
            self, monkeypatch):
        """500-request mixed-app trace: 35 batches, at most 9 per worker."""
        # No result tier, or only the 14 distinct requests would reach a
        # worker; a capacity of 2 leaves no room for a misrouted program.
        monkeypatch.setattr(pool_module, "WORKER_CACHE_CAPACITY", 2)
        with pool(4) as p:
            report = p.process(synthetic_trace(MIXED_TRACE))
        assert len(report.responses) == MIXED_TRACE.size
        assert all(r.ok for r in report.responses)
        assert [row["batches"] for row in pool_stats(p)["workers"]] == [9, 9, 9, 8]
        # Seven programs, three of them spilled onto worker 3.
        assert compiles(p) == [2, 2, 2, 4]
