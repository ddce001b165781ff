"""Tests for the machine model (Table II) and the memory system."""

import pytest

from repro.core.machine import (
    DEFAULT_MACHINE,
    ContextLimits,
    LinkKind,
    MachineConfig,
    ResourceKind,
    ResourceUsage,
    V100_AREA_MM2,
)
from repro.core.memory import MemorySystem
from repro.errors import MachineError


class TestMachineConfig:
    def test_table2_defaults(self):
        m = DEFAULT_MACHINE
        assert m.num_cus == 200 and m.num_mus == 200 and m.num_ags == 80
        assert m.lanes == 16 and m.stages == 6
        assert m.mu_capacity_bytes == 256 * 1024 and m.mu_banks == 16
        assert m.network_vector_channels == 3 and m.network_scalar_channels == 6
        assert m.dram_bandwidth_gbs == pytest.approx(900.0)
        assert m.clock_ghz == pytest.approx(1.6)

    def test_area_ratio_vs_v100(self):
        assert V100_AREA_MM2 / DEFAULT_MACHINE.area_mm2 == pytest.approx(4.3, rel=0.05)

    def test_derived_quantities(self):
        m = DEFAULT_MACHINE
        assert m.vector_bytes == 64
        assert m.peak_vector_words_per_cycle == 16
        assert m.peak_scalar_words_per_cycle == 1
        assert m.mu_words == 64 * 1024
        assert m.dram_bytes_per_cycle == pytest.approx(900.0 / 1.6)

    def test_resource_total(self):
        assert DEFAULT_MACHINE.resource_total(ResourceKind.CU) == 200
        assert DEFAULT_MACHINE.resource_total(ResourceKind.AG) == 80

    def test_validate_rejects_bad_configs(self):
        with pytest.raises(MachineError):
            MachineConfig(num_cus=0).validate()
        with pytest.raises(MachineError):
            MachineConfig(clock_ghz=0).validate()
        DEFAULT_MACHINE.validate()

    def test_context_limits_from_machine(self):
        limits = ContextLimits.from_machine(DEFAULT_MACHINE)
        assert limits.max_ops == 6
        assert limits.max_vector_inputs == 4
        assert limits.max_regs_per_lane == 36

    def test_link_kind_values(self):
        assert LinkKind.VECTOR.value == "vector"
        assert LinkKind.SCALAR.value == "scalar"


class TestResourceUsage:
    def test_add_and_scale(self):
        a = ResourceUsage(cu=2, mu=1, ag=0)
        b = ResourceUsage(cu=1, mu=1, ag=1)
        assert (a + b).as_dict() == {"CU": 3, "MU": 2, "AG": 1}
        assert a.scaled(3).as_dict() == {"CU": 6, "MU": 3, "AG": 0}

    def test_fits_and_utilization(self):
        usage = ResourceUsage(cu=100, mu=50, ag=80)
        assert usage.fits(DEFAULT_MACHINE)
        util = usage.utilization(DEFAULT_MACHINE)
        assert util["CU"] == pytest.approx(0.5)
        assert usage.critical_resource(DEFAULT_MACHINE) == "AG"
        assert not ResourceUsage(cu=300).fits(DEFAULT_MACHINE)


class TestMemorySystem:
    def test_dram_segments_and_rw(self):
        mem = MemorySystem()
        seg = mem.dram_alloc("a", data=[1, 2, 3])
        other = mem.dram_alloc("b", size=4)
        assert other.base >= seg.base + seg.size
        assert mem.dram_read(seg.base + 1) == 2
        mem.dram_write(other.base, 9)
        assert mem.segment_data("b")[0] == 9
        assert mem.stats.dram_reads == 1 and mem.stats.dram_writes == 1

    def test_duplicate_segment_rejected(self):
        mem = MemorySystem()
        mem.dram_alloc("a", size=1)
        with pytest.raises(MachineError):
            mem.dram_alloc("a", size=1)

    def test_unknown_segment_rejected(self):
        with pytest.raises(MachineError):
            MemorySystem().segment("nope")

    def test_byte_segments_count_bytes_not_words(self):
        mem = MemorySystem()
        seg = mem.load_bytes("text", b"hello")
        mem.dram_read(seg.base)
        assert mem.stats.dram_read_bytes == 1
        assert mem.read_bytes("text") == b"hello"

    def test_sram_sites_alloc_free(self):
        mem = MemorySystem()
        p0 = mem.sram_alloc("site", buffer_words=8, max_buffers=2)
        p1 = mem.sram_alloc("site")
        assert {p0, p1} == {0, 1}
        with pytest.raises(MachineError):
            mem.sram_alloc("site")
        mem.sram_free("site", p0)
        assert mem.sram_alloc("site") == p0
        with pytest.raises(MachineError):
            mem.sram_free("site", 99)

    def test_sram_read_write(self):
        mem = MemorySystem()
        mem.sram_write("s", 12, 99)
        assert mem.sram_read("s", 12) == 99
        assert mem.sram_read("s", 13) == 0

    def test_bulk_transfers_count_dram_traffic(self):
        mem = MemorySystem()
        src = mem.dram_alloc("src", data=list(range(16)))
        dst = mem.dram_alloc("dst", size=16)
        mem.bulk_load("tile", src.base, 0, 16)
        mem.bulk_store("tile", dst.base, 0, 16)
        assert mem.segment_data("dst") == list(range(16))
        assert mem.stats.dram_read_bytes == 64
        assert mem.stats.dram_write_bytes == 64
        assert mem.stats.bulk_loads == 1 and mem.stats.bulk_stores == 1

    def test_site_high_water_tracking(self):
        mem = MemorySystem()
        site = mem.site("s", buffer_words=4, max_buffers=8)
        a = mem.sram_alloc("s")
        mem.sram_alloc("s")
        mem.sram_free("s", a)
        assert site.high_water == 2
        assert site.words_in_use == 8

    def test_stats_reset(self):
        mem = MemorySystem()
        mem.dram_alloc("a", data=[1])
        mem.dram_read(0)
        mem.stats.reset()
        assert mem.stats.dram_reads == 0


# -- batched accessors against their scalar loops -------------------------------


def _mixed_memory():
    """Char, int, zero-size and wide segments side by side.

    Returns the memory and addresses that cover every segment, the word a
    zero-size segment owns, the gap past the last segment, and negatives.
    """
    mem = MemorySystem()
    ints = mem.dram_alloc("ints", data=[10, 11, 12, 13])
    text = mem.load_bytes("text", b"hello!")
    empty = mem.dram_alloc("empty", size=0)
    wide = mem.dram_alloc("wide", data=[7, 8], element_bytes=8)
    tail = mem.dram_alloc("tail", size=3)
    addrs = [ints.base, ints.base + 3, text.base, text.base + 5, empty.base,
             wide.base, wide.base + 1, tail.base + 2, tail.base + 3,
             tail.base + 40, -1, -17, text.base + 2, ints.base + 1]
    for site in ("s", "tile"):
        mem.site(site, buffer_words=8, max_buffers=4)
    return mem, addrs


def _observed(mem):
    return {
        "dram": dict(mem._dram),
        "stats": dict(vars(mem.stats)),
        "sites": {name: (dict(site.storage), set(site.live), site.high_water)
                  for name, site in mem.sites().items()},
    }


def _outcome(call):
    """The value a call returns, or the exception it raises (by type and text)."""
    try:
        return ("ok", call())
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return (type(error).__name__, str(error))


def _each(call, *columns):
    for row in zip(*columns):
        call(*row)


def _scalar_loops(mem):
    """The same signatures as the ``*_many`` helpers, one access at a time."""
    return {
        "dram_read_many": lambda addrs: [mem.dram_read(a) for a in addrs],
        "dram_write_many": lambda addrs, values: _each(
            mem.dram_write, addrs, values),
        "sram_alloc_many": lambda site, words, buffers, count: [
            mem.sram_alloc(site, words, buffers) for _ in range(count)],
        "sram_free_many": lambda site, ptrs: _each(
            lambda p: mem.sram_free(site, p), ptrs),
        "sram_read_many": lambda site, addrs: [
            mem.sram_read(site, a) for a in addrs],
        "sram_write_many": lambda site, addrs, values: _each(
            lambda a, v: mem.sram_write(site, a, v), addrs, values),
        "bulk_load_many": lambda site, dram, sram, size: _each(
            lambda d, s: mem.bulk_load(site, d, s, size), dram, sram),
        "bulk_store_many": lambda site, dram, sram, size: _each(
            lambda d, s: mem.bulk_store(site, d, s, size), dram, sram),
        "bulk_store_counted_many": lambda site, dram, sram, sizes: _each(
            lambda d, s, n: mem.bulk_store(site, d, s, n), dram, sram, sizes),
    }


def _script(addrs):
    """Calls that touch every helper, every kind of address, then fail
    mid-batch in every way a batch can."""
    values = list(range(100, 100 + len(addrs)))
    return [
        ("dram_read_many", (addrs,)),
        ("dram_write_many", (addrs, values)),
        ("dram_read_many", (list(reversed(addrs)),)),
        ("dram_read_many", ([],)),
        ("sram_alloc_many", ("s", 8, 4, 3)),
        ("sram_write_many", ("s", [0, 9, 17], [5, 6, 7])),
        ("sram_read_many", ("s", [17, 0, 3, 9])),
        ("bulk_load_many", ("tile", addrs[:6], [0, 8, 16, 24, 32, 40], 4)),
        ("bulk_store_many", ("tile", [addrs[7], addrs[2]], [8, 0], 3)),
        ("bulk_store_counted_many", ("tile", [addrs[5], addrs[9], -3],
                                     [16, 24, 0], [2, 0, 1])),
        ("sram_free_many", ("s", [1, 0])),
        # Mid-batch failures: the accesses before the bad one took effect.
        ("dram_read_many", ([addrs[0], addrs[2], None, addrs[5]],)),
        ("dram_write_many", ([addrs[2], "nope", addrs[5]], [1, 2, 3])),
        ("dram_write_many", ([addrs[5], addrs[2], addrs[0]], [1, "nope", 3])),
        ("sram_read_many", ("s", [0, None, 9])),
        ("sram_write_many", ("s", [1, 2, 3], [4, None, 6])),
        ("sram_free_many", ("s", [2, 2, 0])),
        ("sram_alloc_many", ("s", 8, 4, 6)),
        ("bulk_load_many", ("tile", [addrs[2], None, addrs[5]], [0, 8, 16], 2)),
        ("bulk_store_many", ("tile", [addrs[5], addrs[2]], [0, None], 2)),
    ]


class TestBatchedAccessors:
    def test_every_many_helper_equals_its_scalar_loop(self):
        batched_mem, addrs = _mixed_memory()
        scalar_mem, _ = _mixed_memory()
        scalar = _scalar_loops(scalar_mem)
        assert set(scalar) == {name for name in dir(MemorySystem)
                               if name.endswith("_many")}
        for name, args in _script(addrs):
            batched = _outcome(lambda: getattr(batched_mem, name)(*args))
            looped = _outcome(lambda: scalar[name](*args))
            assert batched == looped, (name, args)
            assert _observed(batched_mem) == _observed(scalar_mem), (name, args)
        # The script did take the failing branches.
        assert _outcome(lambda: batched_mem.dram_read_many([None]))[0] == "TypeError"

    def test_widths_by_segment_gap_and_sign(self):
        mem, addrs = _mixed_memory()
        per_address = []
        for addr in addrs:
            before = mem.stats.dram_read_bytes
            mem.dram_read(addr)
            per_address.append(mem.stats.dram_read_bytes - before)
        #      ints  ints text text empty wide wide tail gap gap neg neg text ints
        assert per_address == [4, 4, 1, 1, 4, 8, 8, 4, 4, 4, 4, 4, 1, 4]
        mem.stats.reset()
        mem.dram_read_many(addrs)
        assert mem.stats.dram_read_bytes == sum(per_address)

    def test_uniform_memory_counts_without_looking_addresses_up(self):
        mem = MemorySystem()
        seg = mem.dram_alloc("a", data=[1, 2, 3])
        assert mem._uniform_width
        mem.dram_read_many([seg.base, seg.base + 2, 99, -5])
        assert mem.stats.dram_read_bytes == 16
        mem.load_bytes("text", b"x")
        assert not mem._uniform_width
