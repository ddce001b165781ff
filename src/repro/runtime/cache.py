"""Content-addressed caches for the serving engine.

Every entry point in the seed repo recompiled its program from source on
every run.  :class:`ProgramCache` removes that cost for a serving workload:
compiled programs are keyed on ``sha256(source) + function +
CompileOptions.cache_key()`` so two textually identical programs compiled
with the same knobs share one :class:`~repro.dataflow.lowering.CompiledProgram`.

The one tier is an in-memory LRU (:class:`LRUCache`) bounded by entry
count; it is generic and also backs the engine's memoized-response tier
(see :mod:`repro.runtime.engine`).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.compiler import CompileOptions, compile_source
from repro.dataflow.lowering import CompiledProgram


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recomputation (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form (the wire/benchmark representation)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }

    def snapshot(self) -> "CacheStats":
        """An independent copy, safe to ship across a process boundary."""
        return replace(self)

    @classmethod
    def merged(cls, stats: Iterable["CacheStats"]) -> "CacheStats":
        """Aggregate counters across cache tiers (e.g. one per pool worker)."""
        total = cls()
        for entry in stats:
            total.hits += entry.hits
            total.misses += entry.misses
            total.evictions += entry.evictions
        return total


class LRUCache:
    """A bounded mapping with least-recently-used eviction and stats.

    ``capacity <= 0`` disables storage entirely (every lookup misses), which
    is how the benchmarks model a cold serving tier.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self.stats = CacheStats()
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None`` on miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return self._entries[key]
        self.stats.misses += 1
        return None

    def put(self, key: Any, value: Any) -> None:
        """Insert/refresh an entry, evicting the least-recent past capacity."""
        if self.capacity <= 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def keys(self):
        """Current keys, LRU order (least recently used first)."""
        return list(self._entries.keys())


def source_fingerprint(source: str) -> str:
    """Stable content hash of one Revet source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def program_key(source: str, function: str = "main",
                options: Optional[CompileOptions] = None) -> str:
    """Content address of one (source, entry function, options) compilation."""
    options = options or CompileOptions()
    tag = f"{function}|{options.cache_key()}"
    return hashlib.sha256(
        (source_fingerprint(source) + "|" + tag).encode("utf-8")
    ).hexdigest()


class ProgramCache:
    """Memoizes the full Figure-8 compile pipeline behind a content address.

    ``get_or_compile`` is the only entry point the engine needs: it returns
    the compiled program plus whether the request was served from cache.
    """

    def __init__(self, capacity: int = 64):
        self._memory = LRUCache(capacity)

    @property
    def stats(self) -> CacheStats:
        """Counters for the cache (hits, misses, evictions)."""
        return self._memory.stats

    def __len__(self) -> int:
        return len(self._memory)

    def resident_keys(self) -> List[str]:
        """Resident content keys, LRU order (oldest first).

        This is the residency report a pool worker sends back to the
        dispatcher, which routes the next round of batches to warm caches.
        """
        return self._memory.keys()

    @staticmethod
    def key(source: str, function: str = "main",
            options: Optional[CompileOptions] = None) -> str:
        """Content address for one compilation (see :func:`program_key`)."""
        return program_key(source, function, options)

    def get_or_compile(self, source: str, function: str = "main",
                       options: Optional[CompileOptions] = None
                       ) -> Tuple[CompiledProgram, bool]:
        """Return ``(program, cache_hit)`` for one compilation request."""
        key = self.key(source, function, options)
        program = self._memory.get(key)
        if program is not None:
            return program, True
        program = compile_source(source, function=function, options=options)
        self._memory.put(key, program)
        return program, False

    def record_amortized_hits(self, count: int) -> None:
        """Count requests served by a compilation shared within one batch.

        The engine compiles once per batch; every additional request in the
        batch skipped the pipeline just as a cache hit would, so hit-rate
        accounting treats it as one.  A disabled cache (capacity <= 0)
        records nothing: its stats must read 0% so cold-tier measurements
        stay honest.
        """
        if count > 0 and self._memory.capacity > 0:
            self._memory.stats.hits += count
