"""ProgramCache: content addressing, LRU eviction and what each call reports."""


import pytest

from repro.compiler import CompileOptions
from repro.dataflow.lowering import CompiledProgram
from repro.runtime.cache import LRUCache, ProgramCache, program_key
from repro.runtime.engine import Engine, Request

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
        assert cache.put("c", 3) == 1  # one eviction
        assert "b" not in cache
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(capacity=0)
        assert cache.put("a", 1) == 0
        assert cache.get("a") is None
        assert len(cache) == 0


class TestProgramCache:
    def test_hit_and_miss(self):
        cache = ProgramCache(capacity=4)
        program, hit, evicted = cache.get_or_compile(SQUARE)
        assert isinstance(program, CompiledProgram)
        assert (hit, evicted) == (False, 0)
        again, hit, evicted = cache.get_or_compile(SQUARE)
        assert (hit, evicted) == (True, 0)
        assert again is program

    def test_options_partition_the_cache(self):
        cache = ProgramCache(capacity=4)
        cache.get_or_compile(SQUARE)
        _, hit, _ = cache.get_or_compile(SQUARE, options=CompileOptions.none())
        assert not hit
        assert len(cache) == 2

    def test_lru_eviction_recompiles(self):
        cache = ProgramCache(capacity=2)
        cache.get_or_compile(SQUARE)
        cache.get_or_compile(CUBE)
        _, _, evicted = cache.get_or_compile(DOUBLE)  # evicts SQUARE
        assert evicted == 1
        _, hit, _ = cache.get_or_compile(SQUARE)
        assert not hit

    def test_cached_program_executes(self):
        from repro.core.memory import MemorySystem

        cache = ProgramCache(capacity=1)
        cache.get_or_compile(SQUARE)
        program, hit, _ = cache.get_or_compile(SQUARE)
        assert hit
        memory = MemorySystem()
        memory.dram_alloc("data", data=[1, 2, 3, 4])
        memory.dram_alloc("out", size=4)
        program.run(memory, n=4)
        assert memory.segment_data("out") == [1, 4, 9, 16]

    def test_amortized_hits_accounting(self):
        """One compile serves a batch of four: the engine counts three hits."""
        engine = Engine(program_cache=ProgramCache(capacity=2))
        engine.process([Request(app="hash-table", n_threads=1, seed=s)
                        for s in range(4)])
        stats = engine.program_cache_stats
        assert (stats.hits, stats.misses) == (3, 1)

    def test_disabled_cache_reports_zero_hit_rate(self):
        engine = Engine(program_cache=ProgramCache(capacity=0))
        for _ in range(2):  # batch amortization must not count either
            engine.process([Request(app="hash-table", n_threads=1, seed=s)
                            for s in range(3)])
        stats = engine.program_cache_stats
        assert (stats.hits, stats.misses) == (0, 2)
        _, hit, _ = ProgramCache(capacity=0).get_or_compile(SQUARE)
        assert not hit
