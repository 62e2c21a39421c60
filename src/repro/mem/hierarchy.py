"""Per-CPU cache hierarchy: private L1/L2 in front of a shared LLC.

The hierarchy charges cycle costs for each reference and keeps the
per-level caches filled.  It reports fills and evictions of lines to an
optional listener so the chip can keep the coherence directory in sync.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol

from repro.mem.cache import LINE_PAGE_TABLE, Cache
from repro.mem.memory import TwoTierMemory
from repro.translation.address import PAGE_SHIFT


class CoherenceListener(Protocol):
    """Callbacks the owning chip uses to mirror cache state in the directory."""

    def on_private_fill(self, cpu_id: int, line: int, is_page_table: bool) -> None:
        """A line entered a CPU's private cache."""

    def on_private_eviction(self, cpu_id: int, line: int, is_page_table: bool) -> None:
        """A line left a CPU's private caches entirely."""


@dataclass(slots=True)
class AccessResult:
    """Outcome of one memory reference through the hierarchy.

    Attributes:
        cycles: latency charged to the requesting CPU.
        level: where the reference was satisfied
            (``"l1"``, ``"l2"``, ``"llc"``, ``"fast-mem"`` or ``"slow-mem"``).
    """

    cycles: int
    level: str


class CacheHierarchy:
    """One CPU's private L1/L2 caches plus the shared LLC and memory."""

    def __init__(
        self,
        cpu_id: int,
        l1: Cache,
        l2: Cache,
        llc: Cache,
        memory: TwoTierMemory,
        listener: Optional[CoherenceListener] = None,
    ) -> None:
        self.cpu_id = cpu_id
        self.l1 = l1
        self.l2 = l2
        self.llc = llc
        self.memory = memory
        self.listener = listener

    # ------------------------------------------------------------------
    # main access path
    # ------------------------------------------------------------------
    def access(
        self, spa: int, is_write: bool = False, is_page_table: bool = False
    ) -> AccessResult:
        """Reference system physical address ``spa`` through the hierarchy."""
        cycles = self.l1.latency
        if self.l1.access(spa, is_write):
            return AccessResult(cycles=cycles, level="l1")

        cycles += self.l2.latency
        if self.l2.access(spa, is_write):
            self._fill_private(self.l1, spa, is_write, is_page_table)
            return AccessResult(cycles=cycles, level="l2")

        cycles += self.llc.latency
        if self.llc.access(spa, is_write):
            self._fill_private_levels(spa, is_write, is_page_table)
            return AccessResult(cycles=cycles, level="llc")

        spp = spa >> PAGE_SHIFT
        tier = self.memory.tier_of(spp)
        tier.accesses += 1
        cycles += tier.access_latency
        self.llc.fill(spa, is_write, is_page_table)
        self._fill_private_levels(spa, is_write, is_page_table)
        level = "fast-mem" if tier is self.memory.fast else "slow-mem"
        return AccessResult(cycles=cycles, level=level)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def invalidate_line(self, line: int) -> bool:
        """Invalidate ``line`` from the private caches; True if present."""
        in_l1 = self.l1.invalidate(line)
        in_l2 = self.l2.invalidate(line)
        return in_l1 or in_l2

    def holds_line(self, line: int) -> bool:
        """Return True if the private caches hold ``line``."""
        return self.l1.contains(line) or self.l2.contains(line)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _fill_private_levels(
        self, spa: int, is_write: bool, is_page_table: bool
    ) -> None:
        line = self.l1.line_address(spa)
        newly_resident = not self.holds_line(line)
        self._fill_private(self.l2, spa, is_write, is_page_table)
        self._fill_private(self.l1, spa, is_write, is_page_table)
        if newly_resident and self.listener is not None:
            self.listener.on_private_fill(self.cpu_id, line, is_page_table)

    def _fill_private(
        self, cache: Cache, spa: int, is_write: bool, is_page_table: bool
    ) -> None:
        victim = cache.fill(spa, is_write, is_page_table)
        if victim is None:
            return
        address, flags = victim
        # The victim left this level; it only left the private caches
        # entirely if the other private level does not hold it either.
        other = self.l2 if cache is self.l1 else self.l1
        if not other.contains(address) and self.listener is not None:
            self.listener.on_private_eviction(
                self.cpu_id, address, bool(flags & LINE_PAGE_TABLE)
            )
