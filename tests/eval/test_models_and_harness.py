"""Tests for the resource model, performance models, baselines, and harness."""

from repro.apps import REGISTRY
from repro.baselines.aurochs import AurochsModel
from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import GPUModel
from repro.compiler import CompileOptions
from repro.core.machine import DEFAULT_MACHINE
from repro.dataflow.resources import estimate_resources
from repro.eval import (
    aurochs_comparison,
    fig12_optimization_impact,
    fig13_hierarchy_removal,
    fig14_load_balancing,
    format_rows,
    table3_applications,
    table4_resources,
    table5_performance,
    table5_summary,
)
from repro.sim.perf_model import VRDAPerformanceModel, WorkloadProfile


class TestResourceEstimator:
    def test_breakdown_fits_machine_and_scales(self):
        spec = REGISTRY.get("murmur3")
        program = spec.compile()
        breakdown = estimate_resources(program, app_name="murmur3", max_outer=14)
        assert breakdown.outer_parallelism >= 1
        assert breakdown.total.fits(DEFAULT_MACHINE)
        assert breakdown.lanes >= DEFAULT_MACHINE.lanes
        row = breakdown.as_row()
        assert row["total_cu"] >= row["inner_cu"]

    def test_disabling_optimizations_does_not_reduce_resources(self):
        spec = REGISTRY.get("hash-table")
        optimized = estimate_resources(spec.compile(), max_outer=16)
        unoptimized = estimate_resources(
            spec.compile(CompileOptions.none()), max_outer=16)
        assert unoptimized.total.cu >= optimized.total.cu

    def test_max_outer_cap_respected(self):
        spec = REGISTRY.get("isipv4")
        capped = estimate_resources(spec.compile(), max_outer=3)
        assert capped.outer_parallelism <= 3

    def test_estimate_is_made_once_per_program_and_arguments(self):
        spec = REGISTRY.get("murmur3")
        program = spec.compile()
        first = estimate_resources(program, app_name="murmur3")
        assert estimate_resources(program, app_name="murmur3") is first
        capped = estimate_resources(program, app_name="murmur3", max_outer=3)
        assert capped is not first and capped.outer_parallelism <= 3
        fresh = estimate_resources(spec.compile(), app_name="murmur3")
        assert fresh is not first and fresh.as_row() == first.as_row()


class TestPerformanceModels:
    def _profile(self, random_accesses=0.0, bulk_bytes=64.0, iters=16.0):
        return WorkloadProfile(
            threads=8, app_bytes_per_thread=64.0,
            dram_bulk_bytes_per_thread=bulk_bytes,
            dram_random_accesses_per_thread=random_accesses,
            iterations_per_thread=iters)

    def test_dram_bound_scales_with_traffic(self):
        model = VRDAPerformanceModel()
        spec = REGISTRY.get("murmur3")
        resources = estimate_resources(spec.compile(), max_outer=14)
        light = model.throughput("a", self._profile(bulk_bytes=64), resources)
        heavy = model.throughput("b", self._profile(bulk_bytes=256), resources)
        assert light.dram_bound_gbs > heavy.dram_bound_gbs

    def test_random_access_pays_activation_cost(self):
        model = VRDAPerformanceModel()
        spec = REGISTRY.get("hash-table")
        resources = estimate_resources(spec.compile(), max_outer=16)
        streaming = model.throughput("s", self._profile(), resources)
        random = model.throughput("r", self._profile(random_accesses=4.0), resources)
        assert random.dram_bound_gbs < streaming.dram_bound_gbs

    def test_ideal_speedups_at_least_one(self):
        model = VRDAPerformanceModel()
        spec = REGISTRY.get("isipv4")
        resources = estimate_resources(spec.compile(), max_outer=27)
        ideal = model.ideal_speedups("isipv4", self._profile(), resources)
        assert ideal["SND"] >= ideal["D"] >= 1.0 - 1e-9
        assert ideal["SND"] >= ideal["SN"] >= 1.0 - 1e-9

    def test_gpu_model_mechanisms(self):
        gpu = GPUModel()
        assert gpu.throughput_gbs(REGISTRY.get("kD-tree")) < 10
        assert gpu.throughput_gbs(REGISTRY.get("murmur3")) <= 900.0
        assert gpu.throughput_gbs(REGISTRY.get("isipv4")) < 900.0

    def test_cpu_model_bandwidth_ceiling(self):
        cpu = CPUModel()
        for name in ("isipv4", "murmur3", "hash-table"):
            assert 0 < cpu.throughput_gbs(REGISTRY.get(name)) <= 205.0

    def test_aurochs_model_exceeds_paper_threshold(self):
        assert AurochsModel().speedup_of_revet() > 11.0


class TestHarness:
    def test_table3_rows(self):
        rows = table3_applications()
        assert len(rows) == 8
        assert all(row["lines"] > 10 for row in rows)

    def test_table4_single_app(self):
        rows = table4_resources(apps=["murmur3"])
        assert rows[0]["total_cu"] <= DEFAULT_MACHINE.num_cus
        assert 0 <= rows[0]["hbm2_total_%"] <= 100

    def test_table5_single_app_and_summary(self):
        rows = table5_performance(apps=["isipv4", "kD-tree"])
        assert all(row["revet_gbs"] > 0 for row in rows)
        summary = table5_summary(rows)
        assert summary["area_adjusted_gpu_speedup"] > summary["gpu_speedup_geomean"]

    def test_fig12_subset(self):
        rows = fig12_optimization_impact(apps=["hash-table"])
        assert rows[0]["no_pack_cu_x"] >= 1.0

    def test_fig13_and_fig14_shapes(self):
        f13 = fig13_hierarchy_removal()
        assert f13[-1]["perf_removed"] > f13[-1]["perf_shared"]
        f14 = fig14_load_balancing(sizes=[10_000, 100_000])
        assert all(r["slow_region_%"] < r["equal_share_%"] for r in f14)

    def test_aurochs_comparison_dict(self):
        result = aurochs_comparison()
        assert result["revet_speedup_x"] > result["timeout_overhead_x"]

    def test_format_rows(self):
        text = format_rows([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        assert "a" in text and "22" in text
        assert format_rows([]) == "(no rows)"
