"""Functional memory system: DRAM segments and per-site SRAM pools.

The executor and the cycle-level performance model share this component.
DRAM is a flat word-addressed space carved into named segments (the Revet
language's ``DRAM<T>`` symbols); SRAM is organized as *allocation sites*,
each corresponding to one fused allocator in the compiled program
(Section V-B(a)): a site hands out fixed-size buffers identified by small
integer pointers, and reads/writes address ``ptr * buffer_size + offset``
within the site's address space.

A word is an ``int64`` (a Revet value, see :mod:`repro.core.opcodes`);
writing any other value raises :class:`MachineError`.  Both hold their
words in one ``int64`` array — DRAM over every allocated address, a site
over the buffers it has handed out — plus a *spill* dict for the words at
addresses outside it.  A word never written reads 0, wherever it is.

All traffic is counted so the performance model can derive DRAM bandwidth
utilization (Table IV's HBM2 columns) and the DRAM-bound throughput limits
used for Table V.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.opcodes import INT64_MAX, INT64_MIN
from repro.errors import MachineError

#: Below this many elements Python's ``min``/``max``/``sum`` over
#: ``tolist()`` beat numpy's reductions, whose fixed cost rules 8 rows.
_SHORT = 32


def _span(values: np.ndarray) -> Tuple[int, int]:
    """Exact ``(min, max)`` of a non-empty ``int64`` array, as Python ints."""
    if len(values) < _SHORT:
        items = values.tolist()
        return min(items), max(items)
    return int(values.min()), int(values.max())


def _total(values: np.ndarray) -> int:
    if len(values) < _SHORT:
        return sum(values.tolist())
    return int(values.sum())


def _is_int64(values: Any) -> bool:
    return isinstance(values, np.ndarray) and values.dtype == np.int64


def _items(values: Sequence[Any]) -> Sequence[Any]:
    """``values`` as Python objects, for a scalar loop."""
    return values.tolist() if isinstance(values, np.ndarray) else values


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


class _Words:
    """``words`` (``int64``) plus ``spill`` (by address), whose entries
    override it."""

    def __init__(self) -> None:
        self.words = np.zeros(0, np.int64)
        self.spill: Dict[int, int] = {}

    def read(self, addr: int) -> int:
        if self.spill and addr in self.spill:
            return self.spill[addr]
        return int(self.words[addr]) if 0 <= addr < len(self.words) else 0

    def write(self, addr: int, value: int) -> None:
        if not INT64_MIN <= value <= INT64_MAX:
            raise MachineError(f"{value} is not an int64 word")
        if 0 <= addr < len(self.words):
            self.words[addr] = value
            if self.spill:
                self.spill.pop(addr, None)
        else:
            self.spill[addr] = value

    def holds(self, addrs: Any, width: int = 1) -> bool:
        """True when nothing is spilled and ``addrs`` is an ``int64`` array
        whose every ``[addr, addr + width)`` lies in ``words``."""
        if self.spill or not _is_int64(addrs):
            return False
        if not len(addrs):
            return True
        lo, hi = _span(addrs)
        return 0 <= lo and hi <= len(self.words) - width

    def span_list(self, start: int, stop: int) -> List[int]:
        """The words at ``[start, stop)``, as scalar reads return them."""
        if 0 <= start and stop <= len(self.words) and not self.spill:
            return self.words[start:stop].tolist()
        return [self.read(addr) for addr in range(start, stop)]

    def state(self) -> Dict[int, int]:
        """Every word that does not read 0, by address."""
        nonzero = np.flatnonzero(self.words)
        state = dict(zip(nonzero.tolist(), self.words[nonzero].tolist()))
        state.update(self.spill)
        return {addr: value for addr, value in state.items() if value}


class AllocationSite(_Words):
    """A fused on-chip allocator: a pool of fixed-size SRAM buffers."""

    def __init__(self, name: str, buffer_words: int, max_buffers: int):
        if buffer_words <= 0 or max_buffers <= 0:
            raise MachineError("allocation site needs positive buffer size/count")
        super().__init__()
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

    def alloc(self) -> int:
        if self._next_fresh < self.max_buffers:
            ptr = self._next_fresh
            self._next_fresh += 1
            need = self._next_fresh * self.buffer_words - len(self.words)
            if need > 0:  # double, so that a run of fresh pointers copies O(n)
                room = self.max_buffers * self.buffer_words - len(self.words)
                grow = max(need, min(len(self.words), room))
                self.words = np.concatenate((self.words, np.zeros(grow, np.int64)))
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

    @property
    def words_in_use(self) -> int:
        return self.high_water * self.buffer_words


class MemorySystem:
    """Shared DRAM + SRAM state for functional execution."""

    def __init__(self, dram_element_bytes: int = 4):
        #: Words over ``[0, _next_base)``, a zero-size segment's one included.
        self._dram = _Words()
        self._segments: Dict[str, DRAMSegment] = {}
        self._next_base = 0
        #: Each DRAM word's element width, for byte accounting.
        self._word_bytes = np.zeros(0, np.uint8)
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
            try:
                data = np.asarray(data, dtype=np.int64)
            except (OverflowError, TypeError, ValueError):
                raise MachineError(
                    f"DRAM segment '{name}' given a value that is not an int64 word"
                ) from None
            size = len(data) if size is None else size
            if len(data) > size:
                raise MachineError(
                    f"DRAM segment '{name}' of {size} words given {len(data)}"
                )
        if size is None or size < 0:
            raise MachineError("DRAM segment needs a non-negative size")
        seg = DRAMSegment(
            name=name,
            base=self._next_base,
            size=size,
            element_bytes=element_bytes or self._default_element_bytes,
        )
        self._segments[name] = seg
        if seg.element_bytes != self._default_element_bytes:
            self._uniform_width = False
        self._next_base += max(size, 1)
        dram, words = self._dram, np.zeros(max(size, 1), np.int64)
        dram.words = np.concatenate((dram.words, words))
        widths = np.full(len(words), seg.element_bytes, np.uint8)
        self._word_bytes = np.concatenate((self._word_bytes, widths))
        if data is not None:
            dram.words[seg.base : seg.base + len(data)] = data
        return seg

    def segment(self, name: str) -> DRAMSegment:
        if name not in self._segments:
            raise MachineError(f"unknown DRAM segment '{name}'")
        return self._segments[name]

    def segment_data(self, name: str) -> List[int]:
        """Read back a whole segment (for test assertions)."""
        seg = self.segment(name)
        return self._dram.span_list(seg.base, seg.base + seg.size)

    def _dram_bytes(self, addrs: Sequence[int]) -> int:
        """Bytes moved by one element access at each of ``addrs`` (ints, or
        an ``int64`` array inside DRAM).

        While every segment has the default width (all int-only programs)
        this is a multiplication; otherwise each address counts its
        segment's width, or the default outside every segment.
        """
        default = self._default_element_bytes
        if self._uniform_width:
            return default * len(addrs)
        if _is_int64(addrs):
            return _total(self._word_bytes[addrs])
        end = self._next_base
        return sum(
            int(self._word_bytes[a]) if 0 <= a < end else default for a in addrs
        )

    def dram_read(self, addr: int) -> int:
        self.stats.dram_reads += 1
        self.stats.dram_random_reads += 1
        self.stats.dram_read_bytes += self._dram_bytes((int(addr),))
        return self._dram.read(int(addr))

    def dram_write(self, addr: int, value: int) -> None:
        self.stats.dram_writes += 1
        self.stats.dram_random_writes += 1
        self.stats.dram_write_bytes += self._dram_bytes((int(addr),))
        self._dram.write(int(addr), int(value))

    # -- SRAM allocation sites ----------------------------------------------

    def site(
        self, name: str, buffer_words: int = 64, max_buffers: int = 1024
    ) -> AllocationSite:
        """Get or create an allocation site."""
        if name not in self._sites:
            self._sites[name] = AllocationSite(name, buffer_words, max_buffers)
        return self._sites[name]

    def snapshot(self) -> Dict[str, Any]:
        """Everything observable: the DRAM words that do not read 0, the
        stats, and per site (its words likewise, live pointers, high water)."""
        sites = {
            name: (site.state(), set(site.live), site.high_water)
            for name, site in self._sites.items()
        }
        stats = dict(vars(self.stats))
        return {"dram": self._dram.state(), "stats": stats, "sites": sites}

    def sram_alloc(
        self, site_name: str, buffer_words: int = 64, max_buffers: int = 1024
    ) -> int:
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
    # counterpart once per element, and a read returns an int64 array.  When
    # its addresses (and values) are int64 arrays inside the word arrays and
    # nothing is spilled, it is one gather, scatter (the last write to an
    # address wins) or tile copy, with the stats counted in bulk.  Otherwise
    # it *is* the scalar loop, so a mid-batch error leaves the loop's effects.

    def dram_read_many(self, addrs: Sequence[int]) -> np.ndarray:
        """Batched :meth:`dram_read`."""
        if not self._dram.holds(addrs):
            return np.array([self.dram_read(a) for a in _items(addrs)], np.int64)
        self.stats.dram_reads += len(addrs)
        self.stats.dram_random_reads += len(addrs)
        self.stats.dram_read_bytes += self._dram_bytes(addrs)
        return self._dram.words[addrs]

    def dram_write_many(self, addrs: Sequence[int], values: Sequence[int]) -> None:
        """Batched :meth:`dram_write`."""
        ok = _is_int64(values) and len(values) == len(addrs)
        if not (ok and self._dram.holds(addrs)):
            for addr, value in zip(_items(addrs), _items(values)):
                self.dram_write(addr, value)
            return
        self.stats.dram_writes += len(addrs)
        self.stats.dram_random_writes += len(addrs)
        self.stats.dram_write_bytes += self._dram_bytes(addrs)
        self._dram.words[addrs] = values

    def sram_alloc_many(
        self, site_name: str, buffer_words: int, max_buffers: int, count: int
    ) -> np.ndarray:
        """Allocate ``count`` buffers (batched :meth:`sram_alloc`)."""
        site = self.site(site_name, buffer_words, max_buffers)
        stats = self.stats
        out: List[int] = []
        for _ in range(count):
            stats.allocations += 1
            out.append(site.alloc())
        return np.array(out, np.int64)

    def sram_free_many(self, site_name: str, ptrs: Sequence[int]) -> None:
        """Free many buffers (batched :meth:`sram_free`)."""
        site = self.site(site_name)
        stats = self.stats
        for ptr in _items(ptrs):
            stats.frees += 1
            site.free(int(ptr))

    def sram_read_many(self, site_name: str, addrs: Sequence[int]) -> np.ndarray:
        """Batched :meth:`sram_read`."""
        # A scalar loop creates a missing site at its first access.
        site = self.site(site_name) if len(addrs) else None
        if site is None or not site.holds(addrs):
            return np.array(
                [self.sram_read(site_name, a) for a in _items(addrs)], np.int64
            )
        self.stats.sram_reads += len(addrs)
        return site.words[addrs]

    def sram_write_many(
        self, site_name: str, addrs: Sequence[int], values: Sequence[int]
    ) -> None:
        """Batched :meth:`sram_write`."""
        site = None
        if _is_int64(values) and len(values) == len(addrs) and len(addrs):
            site = self.site(site_name)
        if site is None or not site.holds(addrs):
            for addr, value in zip(_items(addrs), _items(values)):
                self.sram_write(site_name, addr, value)
            return
        self.stats.sram_writes += len(addrs)
        site.words[addrs] = values

    def bulk_load_many(
        self,
        site_name: str,
        dram_bases: Sequence[int],
        sram_bases: Sequence[int],
        size: int,
    ) -> None:
        """Batched :meth:`bulk_load` (one tile transfer per base pair)."""
        if not self._tile_copy(site_name, dram_bases, sram_bases, size, load=True):
            for d, s in zip(_items(dram_bases), _items(sram_bases)):
                self.bulk_load(site_name, d, s, size)

    def bulk_store_many(
        self,
        site_name: str,
        dram_bases: Sequence[int],
        sram_bases: Sequence[int],
        size: int,
    ) -> None:
        """Batched :meth:`bulk_store` (one tile transfer per base pair)."""
        if not self._tile_copy(site_name, dram_bases, sram_bases, size, load=False):
            for d, s in zip(_items(dram_bases), _items(sram_bases)):
                self.bulk_store(site_name, d, s, size)

    def bulk_store_counted_many(
        self,
        site_name: str,
        dram_bases: Sequence[int],
        sram_bases: Sequence[int],
        sizes: Sequence[int],
    ) -> None:
        """Batched :meth:`bulk_store` with a per-transfer element count."""
        if not (
            _is_int64(sizes)
            and len(sizes) == len(dram_bases)
            and self._tile_copy(site_name, dram_bases, sram_bases, sizes, load=False)
        ):
            for d, s, n in zip(_items(dram_bases), _items(sram_bases), _items(sizes)):
                self.bulk_store(site_name, d, s, n)

    def _tile_copy(self, site_name, dram_bases, sram_bases, sizes, load) -> bool:
        """Move ``k`` tiles of ``sizes`` words (one count, or an array of
        one per tile) as one ``(k, width)`` gather and scatter, counted in
        bulk; ``False``, moving nothing, when they need the scalar loop."""
        k, counted = len(dram_bases), isinstance(sizes, np.ndarray)
        if not (k and len(sram_bases) == k):
            return False
        width = _span(sizes)[1] if counted else sizes
        site, reach = self.site(site_name), max(width, 1)
        dram = self._dram
        if not (
            dram.holds(dram_bases, width=reach) and site.holds(sram_bases, width=reach)
        ):
            return False
        offsets = np.arange(max(width, 0))
        dram_idx = dram_bases[:, None] + offsets
        sram_idx = sram_bases[:, None] + offsets
        if counted:
            keep = offsets < sizes[:, None]
            dram_idx, sram_idx = dram_idx[keep], sram_idx[keep]
            # Every word's width is in _word_bytes, uniform or not.
            words, nbytes = _total(sizes), _total(sizes * self._word_bytes[dram_bases])
        else:
            words, nbytes = sizes * k, sizes * self._dram_bytes(dram_bases)
        stats = self.stats
        if load:
            stats.bulk_loads += k
            stats.dram_reads += words
            stats.dram_read_bytes += nbytes
            site.words[sram_idx] = dram.words[dram_idx]
        else:
            stats.bulk_stores += k
            stats.dram_writes += words
            stats.dram_write_bytes += nbytes
            dram.words[dram_idx] = site.words[sram_idx]
        return True

    # -- bulk transfers ------------------------------------------------------

    def bulk_load(
        self, site_name: str, dram_base: int, sram_base: int, size: int
    ) -> None:
        """DRAM -> SRAM tile transfer (an AG-driven burst)."""
        self.stats.bulk_loads += 1
        site = self.site(site_name)
        elem = self._dram_bytes((int(dram_base),))
        self.stats.dram_reads += size
        self.stats.dram_read_bytes += size * elem
        start = int(dram_base)
        for i, value in enumerate(self._dram.span_list(start, start + size)):
            site.write(int(sram_base) + i, value)

    def bulk_store(
        self, site_name: str, dram_base: int, sram_base: int, size: int
    ) -> None:
        """SRAM -> DRAM tile transfer."""
        self.stats.bulk_stores += 1
        site = self.site(site_name)
        elem = self._dram_bytes((int(dram_base),))
        self.stats.dram_writes += size
        self.stats.dram_write_bytes += size * elem
        if size > 0:  # a loop of no words never converts ``sram_base``
            start = int(sram_base)
            for i, value in enumerate(site.span_list(start, start + size)):
                self._dram.write(int(dram_base) + i, value)

    # -- convenience ---------------------------------------------------------

    def load_bytes(self, name: str, payload: bytes) -> DRAMSegment:
        """Store a byte string as a char segment (one byte per word)."""
        return self.dram_alloc(name, data=list(payload), element_bytes=1)

    def read_bytes(
        self, name: str, start: int = 0, length: Optional[int] = None
    ) -> bytes:
        seg = self.segment(name)
        length = seg.size - start if length is None else length
        base = seg.base + start
        return bytes(v & 0xFF for v in self._dram.span_list(base, base + length))
