"""Correctness tests: every Table III application vs its reference oracle."""

import pytest

from repro.apps import REGISTRY, TABLE3_APPS, AppSpec, check_app, run_app
from repro.compiler import CompileOptions


@pytest.mark.parametrize("name", TABLE3_APPS + ["strlen"])
def test_app_registered_and_described(name):
    spec = REGISTRY.get(name)
    assert spec.source.strip()
    assert spec.key_features
    assert spec.bytes_per_thread > 0


@pytest.mark.parametrize("name", TABLE3_APPS + ["strlen"])
def test_app_matches_reference(name):
    spec = REGISTRY.get(name)
    assert check_app(spec, n_threads=8, seed=1), f"{name} output mismatch"


@pytest.mark.parametrize("name", ["isipv4", "hash-table", "kD-tree"])
def test_app_matches_reference_unoptimized(name):
    spec = REGISTRY.get(name)
    assert check_app(spec, n_threads=6, seed=2, options=CompileOptions.none())


@pytest.mark.parametrize("name", TABLE3_APPS)
def test_app_second_seed(name):
    spec = REGISTRY.get(name)
    assert check_app(spec, n_threads=5, seed=7)


@pytest.mark.parametrize("name", TABLE3_APPS + ["strlen"])
def test_instance_is_deterministic_per_seed(name):
    # The engine's result cache keys a generated request on its
    # (app, n_threads, seed), so one seed must always make one problem.
    spec = REGISTRY.get(name)
    first, second = spec.make_instance(3, seed=4), spec.make_instance(3, seed=4)
    assert first.memory.snapshot() == second.memory.snapshot()
    assert (first.args, first.context) == (second.args, second.context)
    assert spec.reference(first) == spec.reference(second)


def test_an_app_spec_needs_a_generator_and_a_reference():
    fields = dict(
        name="blank", description="", source="", key_features=[],
        bytes_per_thread=1, avg_iterations_per_thread=1.0,
        paper_revet_gbs=0.0, paper_gpu_gbs=0.0, paper_cpu_gbs=0.0,
    )
    with pytest.raises(TypeError, match="generate"):
        AppSpec(**fields)
    with pytest.raises(TypeError, match="reference"):
        AppSpec(**fields, generate=lambda n_threads, seed: None)


def test_profiles_expose_dram_traffic():
    spec = REGISTRY.get("murmur3")
    instance = spec.generate(4, 3)
    executor = run_app(spec, instance, profile=True)
    stats = instance.memory.stats
    assert stats.dram_read_bytes >= 4 * 64  # each thread reads a 64 B blob
    assert executor.profile.loop_iterations  # the while loop was profiled
