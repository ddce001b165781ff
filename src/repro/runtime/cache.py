"""Content-addressed caches for the serving engine.

Every entry point in the seed repo recompiled its program from source on
every run.  :class:`ProgramCache` removes that cost for a serving workload:
compiled programs are keyed on ``sha256(source) + function +
CompileOptions.cache_key()`` so two textually identical programs compiled
with the same knobs share one :class:`~repro.dataflow.lowering.CompiledProgram`.

Two tiers:

* an in-memory LRU (:class:`LRUCache`) bounded by entry count, and
* an optional on-disk pickle tier that survives process restarts.  Disk
  writes are best-effort: a program that fails to pickle simply stays
  memory-only.

:class:`LRUCache` is generic and also backs the engine's memoized-response
tier (see :mod:`repro.runtime.engine`).
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.compiler import CompileOptions, compile_source
from repro.dataflow.lowering import CompiledProgram


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache tier."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recomputation (0.0 when idle).

        Disk hits count as hits: the caller skipped the compile pipeline.
        """
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, float]:
        """JSON-serializable form (the wire/benchmark representation)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
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
            total.disk_hits += entry.disk_hits
            total.disk_writes += entry.disk_writes
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

    def clear(self) -> None:
        """Drop every entry (stats are preserved)."""
        self._entries.clear()

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

    def __init__(self, capacity: int = 64,
                 disk_dir: "Optional[str | Path]" = None):
        self._memory = LRUCache(capacity)
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    @property
    def stats(self) -> CacheStats:
        """Counters for the memory tier (disk hits/writes included)."""
        return self._memory.stats

    def __len__(self) -> int:
        return len(self._memory)

    def resident_keys(self) -> List[str]:
        """Memory-tier content keys, LRU order (oldest first).

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
        program = self._load_disk(key)
        if program is not None:
            self._memory.stats.hits += 1
            self._memory.stats.misses -= 1  # the lookup was ultimately served
            self._memory.stats.disk_hits += 1
            self._memory.put(key, program)
            return program, True
        program = compile_source(source, function=function, options=options)
        self._memory.put(key, program)
        self._store_disk(key, program)
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

    def clear(self, disk: bool = False) -> None:
        """Empty the memory tier; ``disk=True`` also unlinks pickle entries."""
        self._memory.clear()
        if disk and self.disk_dir is not None:
            for path in self.disk_dir.glob("*.pkl"):
                path.unlink()
            for path in self.disk_dir.glob("*.pkl.tmp-*"):
                path.unlink()

    # -- disk tier ----------------------------------------------------------

    def _disk_path(self, key: str) -> Optional[Path]:
        return self.disk_dir / f"{key}.pkl" if self.disk_dir is not None else None

    def _load_disk(self, key: str) -> Optional[CompiledProgram]:
        path = self._disk_path(key)
        if path is None or not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                return pickle.load(handle)
        except Exception:
            # Corrupt entry (truncated write, bad bytes, stale format): a
            # miss, never an error.  Unlink it so the recompiled program can
            # be stored cleanly instead of hitting the same garbage forever.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def _store_disk(self, key: str, program: CompiledProgram) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        # Crash-safe write: pickle into a same-directory temp file, then
        # atomically rename over the final path.  A worker killed mid-write
        # can leave a stray temp file but never a truncated entry.
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        try:
            with tmp.open("wb") as handle:
                pickle.dump(program, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            self._memory.stats.disk_writes += 1
        except Exception:
            # Unpicklable program: memory tier still serves it.
            try:
                tmp.unlink()
            except OSError:
                pass
