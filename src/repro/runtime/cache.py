"""Content-addressed caches for the serving engine.

Every entry point in the seed repo recompiled its program from source on
every run.  :class:`ProgramCache` removes that cost for a serving workload:
compiled programs are keyed on ``sha256(source) + function +
CompileOptions.cache_key()`` so two textually identical programs compiled
with the same knobs share one :class:`~repro.dataflow.lowering.CompiledProgram`.

The one tier is an in-memory LRU (:class:`LRUCache`) bounded by entry
count; it is generic and also backs the engine's memoized-response tier
(see :mod:`repro.runtime.engine`).  The caches count nothing: ``get``,
``put`` and ``get_or_compile`` return what happened, and the engine counts
it into its metrics registry.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.compiler import CompileOptions, compile_source
from repro.dataflow.lowering import CompiledProgram


class CacheStats(NamedTuple):
    """Hit/miss/eviction counts of one cache tier, as an engine read them."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``capacity <= 0`` disables storage entirely (every lookup misses), which
    is how the benchmarks model a cold serving tier.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._entries: "OrderedDict[Any, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    def get(self, key: Any) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None`` on miss."""
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        return None

    def put(self, key: Any, value: Any) -> int:
        """Insert/refresh an entry, evicting the least-recent past capacity.

        Returns how many entries were evicted.
        """
        if self.capacity <= 0:
            return 0
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            evicted += 1
        return evicted

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
    the compiled program, whether it was served from cache, and how many
    programs its insertion evicted.
    """

    def __init__(self, capacity: int = 64):
        self.capacity = capacity  # <= 0 stores nothing
        self._memory = LRUCache(capacity)

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
                       ) -> Tuple[CompiledProgram, bool, int]:
        """Return ``(program, cache_hit, evicted)`` for one compilation."""
        key = self.key(source, function, options)
        program = self._memory.get(key)
        if program is not None:
            return program, True, 0
        program = compile_source(source, function=function, options=options)
        return program, False, self._memory.put(key, program)
