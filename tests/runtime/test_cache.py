"""ProgramCache: content addressing, LRU eviction and stats."""


import pytest

from repro.compiler import CompileOptions
from repro.dataflow.lowering import CompiledProgram
from repro.runtime.cache import LRUCache, ProgramCache, program_key

SQUARE = """
DRAM<int> data;
DRAM<int> out;

void main(int n) {
  foreach (n) { int i =>
    int v = data[i];
    out[i] = v * v;
  };
}
"""

CUBE = SQUARE.replace("v * v", "v * v * v")
DOUBLE = SQUARE.replace("v * v", "v + v")


class TestCompileOptionsKey:
    def test_frozen_and_hashable(self):
        options = CompileOptions()
        with pytest.raises(Exception):
            options.canonicalize = False
        assert hash(CompileOptions()) == hash(CompileOptions())
        assert CompileOptions() == CompileOptions()
        assert CompileOptions() != CompileOptions.none()

    def test_cache_key_is_canonical(self):
        assert CompileOptions().cache_key() == CompileOptions().cache_key()
        assert (CompileOptions().disabled("subword_packing").cache_key()
                != CompileOptions().cache_key())
        # Every knob appears in the key, so no two configurations collide.
        key = CompileOptions.none().cache_key()
        assert key.count("=") == len(CompileOptions().cache_key().split(","))

    def test_disabled_still_validates_names(self):
        with pytest.raises(ValueError):
            CompileOptions().disabled("not_a_pass")

    def test_program_key_separates_source_function_options(self):
        base = program_key(SQUARE)
        assert program_key(SQUARE) == base
        assert program_key(CUBE) != base
        assert program_key(SQUARE, options=CompileOptions.none()) != base


class TestLRUCache:
    def test_hit_miss_and_eviction_order(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes 'a': 'b' is now oldest
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1
        assert cache.stats.hits == 3
        assert cache.stats.misses == 2

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert cache.stats.hit_rate == 0.0


class TestProgramCache:
    def test_hit_and_miss(self):
        cache = ProgramCache(capacity=4)
        program, hit = cache.get_or_compile(SQUARE)
        assert isinstance(program, CompiledProgram)
        assert not hit
        again, hit = cache.get_or_compile(SQUARE)
        assert hit
        assert again is program
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_options_partition_the_cache(self):
        cache = ProgramCache(capacity=4)
        cache.get_or_compile(SQUARE)
        _, hit = cache.get_or_compile(SQUARE, options=CompileOptions.none())
        assert not hit
        assert len(cache) == 2

    def test_lru_eviction_recompiles(self):
        cache = ProgramCache(capacity=2)
        cache.get_or_compile(SQUARE)
        cache.get_or_compile(CUBE)
        cache.get_or_compile(DOUBLE)  # evicts SQUARE
        assert cache.stats.evictions == 1
        _, hit = cache.get_or_compile(SQUARE)
        assert not hit

    def test_cached_program_executes(self):
        from repro.core.memory import MemorySystem

        cache = ProgramCache(capacity=1)
        cache.get_or_compile(SQUARE)
        program, hit = cache.get_or_compile(SQUARE)
        assert hit
        memory = MemorySystem()
        memory.dram_alloc("data", data=[1, 2, 3, 4])
        memory.dram_alloc("out", size=4)
        program.run(memory, n=4)
        assert memory.segment_data("out") == [1, 4, 9, 16]

    def test_amortized_hits_accounting(self):
        cache = ProgramCache(capacity=2)
        cache.get_or_compile(SQUARE)
        cache.record_amortized_hits(3)
        assert cache.stats.hits == 3
        assert cache.stats.hit_rate == pytest.approx(0.75)

    def test_disabled_cache_reports_zero_hit_rate(self):
        cache = ProgramCache(capacity=0)
        cache.get_or_compile(SQUARE)
        cache.record_amortized_hits(5)  # batch amortization must not count
        _, hit = cache.get_or_compile(SQUARE)
        assert not hit
        assert cache.stats.hits == 0
        assert cache.stats.hit_rate == 0.0
