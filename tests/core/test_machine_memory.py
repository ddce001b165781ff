"""Tests for the machine model (Table II) and the memory system."""

import numpy as np
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

    def test_data_longer_than_size_rejected(self):
        mem = MemorySystem()
        mem.dram_alloc("a", size=3, data=[1, 2])
        with pytest.raises(MachineError, match="'b' of 2 words given 3"):
            mem.dram_alloc("b", size=2, data=[7, 8, 9])
        after = mem.dram_alloc("c", data=[5])
        assert mem.segment_data("a") == [1, 2, 0]
        assert after.base == 3 and mem.segment_data("c") == [5]

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

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**70])
    def test_a_value_outside_int64_is_refused(self, value):
        """A word is an int64: no write spills a wider value any more."""
        mem = MemorySystem()
        with pytest.raises(MachineError, match="'a' given a value that is not an"):
            mem.dram_alloc("a", data=[1, value])
        with pytest.raises(MachineError, match="'t' given a value that is not an"):
            mem.load_bytes("t", [104, value])  # a payload that is not bytes
        with pytest.raises(MachineError, match="unknown DRAM segment 'a'"):
            mem.segment("a")
        seg = mem.dram_alloc("b", data=[5, 6])
        for write in (lambda: mem.dram_write(seg.base, value),
                      lambda: mem.sram_write("s", 0, value),
                      lambda: mem.dram_write_many([seg.base + 1, seg.base], [7, value])):
            with pytest.raises(MachineError, match=f"^{value} is not an int64 word$"):
                write()
        assert mem.segment_data("b") == [5, 7]
        assert mem.site("s").read(0) == 0
        assert not mem._dram.spill and not mem.site("s").spill

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


def _outcome(call):
    """The value a call returns (an array as a list), or the exception it
    raises (by type and text)."""
    try:
        value = call()
    except Exception as error:  # noqa: BLE001 - compared, not handled
        return (type(error).__name__, str(error))
    return ("ok", value.tolist() if isinstance(value, np.ndarray) else value)


def _as_arrays(args):
    """``args`` with every list an array: ``int64`` when each item is an int
    that fits, ``object`` otherwise."""
    out = []
    for arg in args:
        if isinstance(arg, list):
            fits = all(type(v) is int and -(2**63) <= v < 2**63 for v in arg)
            arg = np.array(arg, dtype=np.int64 if fits else object)
        out.append(arg)
    return tuple(out)


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


def _script(mem, addrs):
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


def _in_range_script(mem, addrs):
    """Batches inside the word arrays, duplicate addresses and overlapping
    tiles included, then empty ones."""
    ints, text, wide, tail = (
        mem.segment(name).base for name in ("ints", "text", "wide", "tail"))
    return [
        ("sram_alloc_many", ("s", 8, 4, 4)),
        ("sram_alloc_many", ("tile", 8, 4, 4)),
        ("dram_read_many", ([ints, text + 5, wide + 1, ints + 3],)),
        ("dram_read_many", ([tail + 2, ints],)),  # the last word
        ("sram_read_many", ("s", [31, 0])),
        ("bulk_load_many", ("tile", [tail], [29], 3)),
        ("dram_write_many", ([ints + 1, text, ints + 1, wide], [7, 8, 9, 10])),
        ("sram_write_many", ("s", [3, 30, 3], [1, 2, 3])),
        ("sram_read_many", ("s", [3, 30, 0])),
        ("bulk_load_many", ("tile", [text, text + 2, ints], [0, 8, 8], 4)),
        ("bulk_store_many", ("tile", [ints, ints + 1], [8, 0], 2)),
        ("bulk_store_counted_many", ("tile", [text, wide, ints], [0, 8, 16], [3, 0, 2])),
        ("dram_read_many", ([],)),
        ("dram_write_many", ([], [])),
        ("sram_read_many", ("s", [])),
        ("sram_write_many", ("new", [], [])),
        ("bulk_load_many", ("tile", [], [], 4)),
        ("bulk_store_counted_many", ("other", [], [], [])),
    ]


def _spill_script(mem, addrs):
    """After the in-range batches: addresses one word past the end, values
    beyond int64 (refused with the accesses before them done), then gap and
    negative addresses — words the arrays cannot hold — written and read
    back."""
    ints, text, tail = (mem.segment(name).base for name in ("ints", "text", "tail"))
    return _in_range_script(mem, addrs) + [
        # One word past the end: read as 0, through the scalar loop.
        ("dram_read_many", ([ints, tail + 3],)),
        ("sram_read_many", ("s", [0, 32])),
        ("bulk_load_many", ("tile", [tail + 1], [24], 3)),
        ("bulk_store_many", ("tile", [tail], [30], 3)),
        ("dram_write_many", ([ints + 1, ints + 2], [3, 2**70])),
        ("dram_read_many", ([ints + 2, ints + 1],)),
        ("bulk_load_many", ("tile", [ints], [24], 4)),
        ("bulk_store_many", ("tile", [text], [24], 4)),
        ("dram_write_many", ([ints + 2, text + 2], [5, 6])),
        ("dram_read_many", ([ints + 2, text, text + 2],)),
        ("sram_write_many", ("s", [3, 4], [9, -(2**63) - 1])),
        ("sram_read_many", ("s", [4, 3])),
        ("dram_write_many", ([tail + 40, -1], [1, 2])),
        ("dram_read_many", ([tail + 40, -1, -17, ints],)),
        ("sram_write_many", ("s", [-1, 999], [1, 2])),
        ("sram_read_many", ("s", [-1, 999, 5])),
        ("bulk_load_many", ("tile", [tail + 40, -1], [0, 8], 2)),
    ]


def _run_against_scalar_loops(script, arrays):
    batched_mem, addrs = _mixed_memory()
    scalar_mem, _ = _mixed_memory()
    scalar = _scalar_loops(scalar_mem)
    for name, args in script(batched_mem, addrs):
        if arrays:
            args = _as_arrays(args)
        batched = _outcome(lambda: getattr(batched_mem, name)(*args))
        looped = _outcome(lambda: scalar[name](*args))
        assert batched == looped, (name, args)
        assert batched_mem.snapshot() == scalar_mem.snapshot(), (name, args)
        assert all(type(v) is int for v in vars(batched_mem.stats).values())
    return batched_mem


class TestBatchedAccessors:
    @pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
    def test_every_many_helper_equals_its_scalar_loop(self, arrays):
        assert set(_scalar_loops(MemorySystem())) == {
            name for name in dir(MemorySystem) if name.endswith("_many")}
        batched_mem = _run_against_scalar_loops(_script, arrays)
        # The script did take the failing branches.
        assert _outcome(lambda: batched_mem.dram_read_many([None]))[0] == "TypeError"

    @pytest.mark.parametrize("script", [_in_range_script, _spill_script])
    @pytest.mark.parametrize("arrays", [False, True], ids=["lists", "arrays"])
    def test_whole_array_paths_equal_the_scalar_loop(self, script, arrays):
        mem = _run_against_scalar_loops(script, arrays)
        spilled = bool(mem._dram.spill) and bool(mem.site("s").spill)
        assert spilled == (script is _spill_script)

    def test_in_range_arrays_skip_the_scalar_loop(self):
        mem, _ = _mixed_memory()
        reference, _ = _mixed_memory()

        def refuse(*args):
            raise AssertionError("took the scalar loop")

        for name in ("dram_read", "dram_write", "sram_read", "sram_write",
                     "bulk_load", "bulk_store"):
            setattr(mem, name, refuse)
        scalar = _scalar_loops(reference)
        for name, args in _in_range_script(mem, None):
            assert (_outcome(lambda: getattr(mem, name)(*_as_arrays(args)))
                    == _outcome(lambda: scalar[name](*args))), name
        ints = np.array([mem.segment("ints").base + 3, 0], dtype=np.int64)
        assert mem.dram_read_many(ints).tolist() == [13, 0]
        mem.dram_write_many(ints, np.array([4, 5], dtype=np.int64))
        assert mem.sram_read_many("s", ints[::-1]).tolist() == [0, 3]
        mem.sram_write_many("s", ints[::-1], np.array([1, 2], dtype=np.int64))
        assert (mem.segment_data("ints")[3], mem.site("s").read(3)) == (4, 2)
        assert not mem._dram.spill and not mem.site("s").spill

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
