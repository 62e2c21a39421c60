"""Set-associative cache model.

Caches are modelled at cache-line granularity with LRU replacement.
Lines remember whether they hold page table data: the coherence
directory needs that distinction (its nPT/gPT bits) and so do HATRIC's
invalidation paths.

A line's state is one flag word, not an object: each set maps a line
address to ``LINE_DIRTY | LINE_PAGE_TABLE`` bits, the hardware's
per-line dirty bit plus the page-table mark.  They are the low bits of
a snapshot's packed line word (``address << 2 | flags``), so capture
and restore read and write the words as they are.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

from repro.translation.address import CACHE_LINE_SIZE

#: Flag bits of a resident line's word.
LINE_DIRTY = 1
LINE_PAGE_TABLE = 2


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for a cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    fills: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    def hit_rate(self) -> float:
        """Return the hit rate over all accesses (0.0 when never used)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class Cache:
    """A set-associative, write-back, LRU cache.

    Only presence and replacement are modelled -- the simulator is
    functional, so no data values are stored.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        latency: int,
        line_size: int = CACHE_LINE_SIZE,
    ) -> None:
        if size_bytes <= 0 or associativity <= 0:
            raise ValueError("cache size and associativity must be positive")
        if size_bytes % (associativity * line_size) != 0:
            raise ValueError(
                "cache size must be a multiple of associativity * line size"
            )
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.latency = latency
        self.line_size = line_size
        self.num_sets = size_bytes // (associativity * line_size)
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    # address helpers
    # ------------------------------------------------------------------
    def line_address(self, address: int) -> int:
        """Return the line-aligned address containing ``address``."""
        return address & ~(self.line_size - 1)

    def _set_index(self, line_address: int) -> int:
        return (line_address // self.line_size) % self.num_sets

    # ------------------------------------------------------------------
    # access / fill / invalidate
    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> bool:
        """Probe the cache; return True on hit (and update LRU/dirty)."""
        line_addr = self.line_address(address)
        cache_set = self._sets[self._set_index(line_addr)]
        self.stats.accesses += 1
        flags = cache_set.get(line_addr)
        if flags is None:
            self.stats.misses += 1
            return False
        cache_set.move_to_end(line_addr)
        if is_write:
            # storing to a present key keeps its LRU position
            cache_set[line_addr] = flags | LINE_DIRTY
        self.stats.hits += 1
        return True

    def fill(
        self,
        address: int,
        is_write: bool = False,
        is_page_table: bool = False,
    ) -> Optional[tuple[int, int]]:
        """Bring a line into the cache.

        Returns the victim as ``(address, flags)``, or None when nothing
        was evicted.
        """
        line_addr = self.line_address(address)
        cache_set = self._sets[self._set_index(line_addr)]
        self.stats.fills += 1
        flags = (LINE_DIRTY if is_write else 0) | (
            LINE_PAGE_TABLE if is_page_table else 0
        )
        if line_addr in cache_set:
            cache_set[line_addr] |= flags
            cache_set.move_to_end(line_addr)
            return None
        victim = None
        if len(cache_set) >= self.associativity:
            victim = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim[1] & LINE_DIRTY:
                self.stats.writebacks += 1
        cache_set[line_addr] = flags
        return victim

    def contains(self, address: int) -> bool:
        """Return True if the line holding ``address`` is resident."""
        line_addr = self.line_address(address)
        return line_addr in self._sets[self._set_index(line_addr)]

    def invalidate(self, address: int) -> bool:
        """Drop the line holding ``address``; return True if it was present."""
        line_addr = self.line_address(address)
        cache_set = self._sets[self._set_index(line_addr)]
        if line_addr in cache_set:
            del cache_set[line_addr]
            self.stats.invalidations += 1
            return True
        return False

    def flush(self) -> int:
        """Drop every resident line; return how many were dropped."""
        dropped = sum(len(s) for s in self._sets)
        for cache_set in self._sets:
            cache_set.clear()
        self.stats.invalidations += dropped
        return dropped

    def resident_lines(self) -> list[int]:
        """Return the addresses of all resident lines."""
        lines: list[int] = []
        for cache_set in self._sets:
            lines.extend(cache_set.keys())
        return lines

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)
