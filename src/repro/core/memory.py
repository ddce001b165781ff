"""Functional memory system: DRAM segments and per-site SRAM pools.

The executor and the cycle-level performance model share this component.
DRAM is a flat word-addressed space carved into named segments (the Revet
language's ``DRAM<T>`` symbols); SRAM is organized as *allocation sites*,
each corresponding to one fused allocator in the compiled program
(Section V-B(a)): a site hands out fixed-size buffers identified by small
integer pointers, and reads/writes address ``ptr * buffer_size + offset``
within the site's address space.

All traffic is counted so the performance model can derive DRAM bandwidth
utilization (Table IV's HBM2 columns) and the DRAM-bound throughput limits
used for Table V.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Sequence

from repro.errors import MachineError


@dataclass
class MemoryStats:
    """Traffic counters accumulated during execution."""

    dram_reads: int = 0
    dram_writes: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    #: Demand (non-bulk) word accesses; these pay per-access DRAM burst and
    #: activation costs in the performance model.
    dram_random_reads: int = 0
    dram_random_writes: int = 0
    bulk_loads: int = 0
    bulk_stores: int = 0
    sram_reads: int = 0
    sram_writes: int = 0
    allocations: int = 0
    frees: int = 0

    @property
    def dram_total_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)


@dataclass(frozen=True)
class DRAMSegment:
    """A named region of the flat DRAM address space (word-addressed).

    Immutable: :class:`MemorySystem` indexes bases and element widths at
    allocation for its byte accounting.
    """

    name: str
    base: int
    size: int
    element_bytes: int = 4


class AllocationSite:
    """A fused on-chip allocator: a pool of fixed-size SRAM buffers."""

    def __init__(self, name: str, buffer_words: int, max_buffers: int):
        if buffer_words <= 0 or max_buffers <= 0:
            raise MachineError("allocation site needs positive buffer size/count")
        self.name = name
        self.buffer_words = buffer_words
        self.max_buffers = max_buffers
        # FIFO free list, equivalent to popping from list(range(max_buffers))
        # with freed pointers appended at the tail — but without materializing
        # max_buffers entries up front: never-allocated pointers are a counter,
        # freed pointers a deque.  Allocation order is identical.
        self._next_fresh = 0
        self._returned: Deque[int] = deque()
        self.live: set = set()
        self.high_water = 0
        self.storage: Dict[int, int] = {}

    def alloc(self) -> int:
        if self._next_fresh < self.max_buffers:
            ptr = self._next_fresh
            self._next_fresh += 1
        elif self._returned:
            ptr = self._returned.popleft()
        else:
            raise MachineError(
                f"allocation site '{self.name}' exhausted "
                f"({self.max_buffers} buffers of {self.buffer_words} words)"
            )
        self.live.add(ptr)
        self.high_water = max(self.high_water, len(self.live))
        return ptr

    def free(self, ptr: int) -> None:
        if ptr not in self.live:
            raise MachineError(f"double free of pointer {ptr} at site '{self.name}'")
        self.live.discard(ptr)
        self._returned.append(ptr)

    def read(self, addr: int) -> int:
        return self.storage.get(addr, 0)

    def write(self, addr: int, value: int) -> None:
        self.storage[addr] = value

    @property
    def words_in_use(self) -> int:
        return self.high_water * self.buffer_words


class MemorySystem:
    """Shared DRAM + SRAM state for functional execution."""

    def __init__(self, dram_element_bytes: int = 4):
        self._dram: Dict[int, int] = {}
        self._segments: Dict[str, DRAMSegment] = {}
        self._next_base = 0
        #: Segment bases in allocation (= ascending) order with each
        #: segment's element width, for byte accounting; segment ``i`` owns
        #: every address from its base up to the next base.
        self._bases: List[int] = []
        self._widths: List[int] = []
        self._uniform_width = True
        self._sites: Dict[str, AllocationSite] = {}
        self._default_element_bytes = dram_element_bytes
        self.stats = MemoryStats()

    # -- DRAM segments -----------------------------------------------------

    def dram_alloc(
        self,
        name: str,
        size: Optional[int] = None,
        data: Optional[Sequence[int]] = None,
        element_bytes: Optional[int] = None,
    ) -> DRAMSegment:
        """Create a named DRAM segment, optionally initialized with data."""
        if name in self._segments:
            raise MachineError(f"DRAM segment '{name}' already exists")
        if data is not None:
            size = len(data) if size is None else size
        if size is None or size < 0:
            raise MachineError("DRAM segment needs a non-negative size")
        seg = DRAMSegment(
            name=name,
            base=self._next_base,
            size=size,
            element_bytes=element_bytes or self._default_element_bytes,
        )
        self._segments[name] = seg
        self._bases.append(seg.base)
        self._widths.append(seg.element_bytes)
        if seg.element_bytes != self._default_element_bytes:
            self._uniform_width = False
        self._next_base += max(size, 1)
        if data is not None:
            for i, v in enumerate(data):
                self._dram[seg.base + i] = int(v)
        return seg

    def segment(self, name: str) -> DRAMSegment:
        if name not in self._segments:
            raise MachineError(f"unknown DRAM segment '{name}'")
        return self._segments[name]

    def segment_data(self, name: str) -> List[int]:
        """Read back a whole segment (for test assertions)."""
        seg = self.segment(name)
        return [self._dram.get(seg.base + i, 0) for i in range(seg.size)]

    def _dram_bytes(self, addrs: Sequence[int]) -> int:
        """Bytes moved by one element access at each of ``addrs`` (ints).

        While every segment has the default width (all int-only programs)
        this is a multiplication; otherwise each address is looked up by
        bisection.  Addresses outside every segment count the default width.
        """
        default = self._default_element_bytes
        if self._uniform_width:
            return default * len(addrs)
        bases, widths, end = self._bases, self._widths, self._next_base
        total = 0
        for addr in addrs:
            if 0 <= addr < end:
                total += widths[bisect_right(bases, addr) - 1]
            else:
                total += default
        return total

    def dram_read(self, addr: int) -> int:
        self.stats.dram_reads += 1
        self.stats.dram_random_reads += 1
        self.stats.dram_read_bytes += self._dram_bytes((int(addr),))
        return self._dram.get(int(addr), 0)

    def dram_write(self, addr: int, value: int) -> None:
        self.stats.dram_writes += 1
        self.stats.dram_random_writes += 1
        self.stats.dram_write_bytes += self._dram_bytes((int(addr),))
        self._dram[int(addr)] = int(value)

    # -- SRAM allocation sites ----------------------------------------------

    def site(self, name: str, buffer_words: int = 64, max_buffers: int = 1024) -> AllocationSite:
        """Get or create an allocation site."""
        if name not in self._sites:
            self._sites[name] = AllocationSite(name, buffer_words, max_buffers)
        return self._sites[name]

    def sites(self) -> Dict[str, AllocationSite]:
        return dict(self._sites)

    def sram_alloc(self, site_name: str, buffer_words: int = 64, max_buffers: int = 1024) -> int:
        self.stats.allocations += 1
        return self.site(site_name, buffer_words, max_buffers).alloc()

    def sram_free(self, site_name: str, ptr: int) -> None:
        self.stats.frees += 1
        self.site(site_name).free(int(ptr))

    def sram_read(self, site_name: str, addr: int) -> int:
        self.stats.sram_reads += 1
        return self.site(site_name).read(int(addr))

    def sram_write(self, site_name: str, addr: int, value: int) -> None:
        self.stats.sram_writes += 1
        self.site(site_name).write(int(addr), int(value))

    # -- batched accessors (columnar executor) -------------------------------
    #
    # Each *_many helper is observably identical to calling its scalar
    # counterpart once per element, including the order of stats updates
    # relative to any mid-batch error: counters incremented per access stay
    # incremented when a later access raises, exactly as in a scalar loop.

    def dram_read_many(self, addrs: Sequence[int]) -> List[int]:
        """Batched :meth:`dram_read`: same per-access traffic accounting."""
        begun = 0
        located: List[int] = []
        try:
            for addr in addrs:
                begun += 1
                located.append(int(addr))
        finally:
            # A scalar loop counts an access before it converts the address
            # and the bytes after, so a bad address costs a read but no bytes.
            self.stats.dram_reads += begun
            self.stats.dram_random_reads += begun
            self.stats.dram_read_bytes += self._dram_bytes(located)
        dram = self._dram
        return [dram.get(addr, 0) for addr in located]

    def dram_write_many(self, addrs: Sequence[int], values: Sequence[int]) -> None:
        """Batched :meth:`dram_write`: same per-access traffic accounting."""
        dram = self._dram
        begun = 0
        located: List[int] = []
        try:
            for addr, value in zip(addrs, values):
                begun += 1
                addr = int(addr)
                located.append(addr)
                dram[addr] = int(value)
        finally:
            self.stats.dram_writes += begun
            self.stats.dram_random_writes += begun
            self.stats.dram_write_bytes += self._dram_bytes(located)

    def sram_alloc_many(
        self, site_name: str, buffer_words: int, max_buffers: int, count: int
    ) -> List[int]:
        """Allocate ``count`` buffers (batched :meth:`sram_alloc`)."""
        site = self.site(site_name, buffer_words, max_buffers)
        stats = self.stats
        out: List[int] = []
        for _ in range(count):
            stats.allocations += 1
            out.append(site.alloc())
        return out

    def sram_free_many(self, site_name: str, ptrs: Sequence[int]) -> None:
        """Free many buffers (batched :meth:`sram_free`)."""
        site = self.site(site_name)
        stats = self.stats
        for ptr in ptrs:
            stats.frees += 1
            site.free(int(ptr))

    def sram_read_many(self, site_name: str, addrs: Sequence[int]) -> List[int]:
        """Batched :meth:`sram_read`."""
        storage = self.site(site_name).storage
        begun = 0
        out: List[int] = []
        try:
            for addr in addrs:
                begun += 1
                out.append(storage.get(int(addr), 0))
        finally:
            self.stats.sram_reads += begun
        return out

    def sram_write_many(
        self, site_name: str, addrs: Sequence[int], values: Sequence[int]
    ) -> None:
        """Batched :meth:`sram_write`."""
        storage = self.site(site_name).storage
        begun = 0
        try:
            for addr, value in zip(addrs, values):
                begun += 1
                storage[int(addr)] = int(value)
        finally:
            self.stats.sram_writes += begun

    def bulk_load_many(
        self,
        site_name: str,
        dram_bases: Sequence[int],
        sram_bases: Sequence[int],
        size: int,
    ) -> None:
        """Batched :meth:`bulk_load` (one tile transfer per base pair)."""
        for d, s in zip(dram_bases, sram_bases):
            self.bulk_load(site_name, d, s, size)

    def bulk_store_many(
        self,
        site_name: str,
        dram_bases: Sequence[int],
        sram_bases: Sequence[int],
        size: int,
    ) -> None:
        """Batched :meth:`bulk_store` (one tile transfer per base pair)."""
        for d, s in zip(dram_bases, sram_bases):
            self.bulk_store(site_name, d, s, size)

    def bulk_store_counted_many(
        self,
        site_name: str,
        dram_bases: Sequence[int],
        sram_bases: Sequence[int],
        sizes: Sequence[int],
    ) -> None:
        """Batched :meth:`bulk_store` with a per-transfer element count."""
        for d, s, n in zip(dram_bases, sram_bases, sizes):
            self.bulk_store(site_name, d, s, n)

    # -- bulk transfers ------------------------------------------------------

    def bulk_load(self, site_name: str, dram_base: int, sram_base: int, size: int) -> None:
        """DRAM -> SRAM tile transfer (an AG-driven burst)."""
        self.stats.bulk_loads += 1
        site = self.site(site_name)
        elem = self._dram_bytes((int(dram_base),))
        self.stats.dram_reads += size
        self.stats.dram_read_bytes += size * elem
        for i in range(size):
            site.write(int(sram_base) + i, self._dram.get(int(dram_base) + i, 0))

    def bulk_store(self, site_name: str, dram_base: int, sram_base: int, size: int) -> None:
        """SRAM -> DRAM tile transfer."""
        self.stats.bulk_stores += 1
        site = self.site(site_name)
        elem = self._dram_bytes((int(dram_base),))
        self.stats.dram_writes += size
        self.stats.dram_write_bytes += size * elem
        for i in range(size):
            self._dram[int(dram_base) + i] = site.read(int(sram_base) + i)

    # -- convenience ---------------------------------------------------------

    def load_bytes(self, name: str, payload: bytes) -> DRAMSegment:
        """Store a byte string as a char segment (one byte per word)."""
        return self.dram_alloc(name, data=list(payload), element_bytes=1)

    def read_bytes(self, name: str, start: int = 0, length: Optional[int] = None) -> bytes:
        seg = self.segment(name)
        length = seg.size - start if length is None else length
        return bytes(
            self._dram.get(seg.base + start + i, 0) & 0xFF for i in range(length)
        )
