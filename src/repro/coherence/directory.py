"""Dual-grain coherence directory with page-table awareness.

The directory tracks, per cache line, which CPUs may hold the line in
their private caches *or* -- for lines holding page table entries -- in
their translation structures (TLB, MMU cache, nTLB).  It implements the
design decisions of Section 4.2 of the paper:

* **nPT / gPT bits** per entry mark lines belonging to the nested or
  guest page table; writes to such lines must also invalidate
  translation structures.
* **Coarse granularity**: tracking is per 64-byte line (8 PTEs), so a
  write to one PTE invalidates cached translations from all 8.
* **Pseudo-specificity**: a single sharer list covers both the private
  caches and the translation structures of a CPU, so invalidations are
  delivered to both even when only one holds the data (spurious messages
  are counted, not charged correctness-wise).
* **Lazy sharer updates**: evictions of page-table lines from private
  caches or translation structures do *not* remove the CPU from the
  sharer list; the CPU is demoted only when it later receives a spurious
  invalidation.  The eager alternative is available for the Figure 12
  ablation (``EGR-dir-update``).
* **Back-invalidations**: the directory has finite capacity; evicting an
  entry forces the corresponding line out of all sharers' caches and
  translation structures.  An infinite directory (``No-back-inv``) is
  available for the same ablation.
* **Fine-grained tracking** (``FG-tracking`` ablation): sharer lists are
  kept per structure kind, eliminating spurious messages at the cost of
  a larger, more energy-hungry directory.

An entry stores its sharer list as the paper's directory entry does: a
CPU bit-vector (bit ``c`` set when CPU ``c`` may hold the line), next to
the nPT/gPT bits.  The vector is a plain ``int``, unbounded like the
snapshot's sharer mask, so a machine holds no container per entry.
Sharer sets handed to callers (:meth:`CoherenceDirectory.sharers_of`,
:class:`WriteOutcome`, :class:`BackInvalidation`) are frozensets built
from it; none of their consumers depends on their iteration order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from typing import Optional


class SharerKind(Enum):
    """Which structure on a CPU holds (part of) a line."""

    CACHE = "cache"
    TLB = "tlb"
    MMU_CACHE = "mmu"
    NTLB = "ntlb"


def mask_cpus(mask: int) -> frozenset[int]:
    """The CPUs whose bits are set in a sharer bit-vector."""
    return frozenset(
        cpu for cpu in range(mask.bit_length()) if mask >> cpu & 1
    )


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one cache line."""

    line: int
    #: CPU bit-vector of the line's sharers.
    sharers: int = 0
    owner: Optional[int] = None
    is_nested_pt: bool = False
    is_guest_pt: bool = False
    #: A CPU bit-vector per structure kind when fine-grained tracking is
    #: enabled, else None.
    fine_sharers: Optional[dict[SharerKind, int]] = None

    @property
    def is_page_table(self) -> bool:
        """True when the line holds page table entries of either dimension."""
        return self.is_nested_pt or self.is_guest_pt


@dataclass
class DirectoryStats:
    """Counters for directory activity."""

    lookups: int = 0
    allocations: int = 0
    evictions: int = 0
    back_invalidations: int = 0
    invalidations_sent: int = 0
    spurious_invalidations: int = 0
    sharer_demotions: int = 0
    pt_writes_observed: int = 0


@dataclass
class WriteOutcome:
    """Result of notifying the directory about a write to a line.

    Attributes:
        invalidate_cpus: CPUs (other than the writer) that must receive an
            invalidation for the line.
        is_nested_pt: the line's nPT bit (write concerns the nested page
            table, so translation structures must also be invalidated).
        is_guest_pt: the line's gPT bit.
    """

    invalidate_cpus: frozenset[int]
    is_nested_pt: bool
    is_guest_pt: bool


@dataclass
class BackInvalidation:
    """A directory eviction forcing a line out of its sharers."""

    line: int
    cpus: frozenset[int]
    is_page_table: bool


class CoherenceDirectory:
    """Directory tracking private-cache and translation-structure sharers."""

    def __init__(
        self,
        num_cpus: int,
        capacity: Optional[int] = 65536,
        lazy_pt_sharer_updates: bool = True,
        fine_grained: bool = False,
    ) -> None:
        if num_cpus <= 0:
            raise ValueError("directory needs at least one CPU")
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive or None (infinite)")
        self.num_cpus = num_cpus
        self.capacity = capacity
        self.lazy_pt_sharer_updates = lazy_pt_sharer_updates
        self.fine_grained = fine_grained
        self._entries: OrderedDict[int, DirectoryEntry] = OrderedDict()
        self.stats = DirectoryStats()

    # ------------------------------------------------------------------
    # entry management
    # ------------------------------------------------------------------
    def lookup(self, line: int) -> Optional[DirectoryEntry]:
        """Return the directory entry for ``line``, if tracked."""
        self.stats.lookups += 1
        entry = self._entries.get(line)
        if entry is not None:
            self._entries.move_to_end(line)
        return entry

    def _get_or_allocate(self, line: int) -> tuple[DirectoryEntry, list[BackInvalidation]]:
        # Every fill/write consults the directory, so it counts as a lookup
        # for the energy model even when the entry must first be allocated.
        self.stats.lookups += 1
        entry = self._entries.get(line)
        back_invs: list[BackInvalidation] = []
        if entry is not None:
            self._entries.move_to_end(line)
            return entry, back_invs
        if self.capacity is not None and len(self._entries) >= self.capacity:
            _, victim = self._entries.popitem(last=False)
            self.stats.evictions += 1
            if victim.sharers:
                self.stats.back_invalidations += 1
                back_invs.append(
                    BackInvalidation(
                        line=victim.line,
                        cpus=mask_cpus(victim.sharers),
                        is_page_table=victim.is_page_table,
                    )
                )
        entry = DirectoryEntry(
            line=line, fine_sharers={} if self.fine_grained else None
        )
        self._entries[line] = entry
        self.stats.allocations += 1
        return entry, back_invs

    # ------------------------------------------------------------------
    # fills and evictions
    # ------------------------------------------------------------------
    def record_fill(
        self,
        line: int,
        cpu: int,
        kind: SharerKind = SharerKind.CACHE,
        is_nested_pt: bool = False,
        is_guest_pt: bool = False,
    ) -> list[BackInvalidation]:
        """Record that ``cpu`` now caches ``line`` in the given structure.

        Returns back-invalidations caused by any directory entry evicted
        to make room.
        """
        self._check_cpu(cpu)
        entry, back_invs = self._get_or_allocate(line)
        bit = 1 << cpu
        entry.sharers |= bit
        entry.is_nested_pt = entry.is_nested_pt or is_nested_pt
        entry.is_guest_pt = entry.is_guest_pt or is_guest_pt
        if self.fine_grained:
            fine = entry.fine_sharers
            fine[kind] = fine.get(kind, 0) | bit
        return back_invs

    def record_eviction(
        self, line: int, cpu: int, kind: SharerKind = SharerKind.CACHE
    ) -> None:
        """Record that ``cpu`` dropped ``line`` from the given structure.

        For page-table lines under lazy updates the sharer list is left
        untouched (Section 4.2, "Cache and translation structure
        evictions"); the CPU is demoted later, when it receives a
        spurious invalidation.
        """
        self._check_cpu(cpu)
        entry = self._entries.get(line)
        if entry is None:
            return
        bit = 1 << cpu
        fine = entry.fine_sharers
        if self.fine_grained and kind in fine:
            # a kind whose CPUs all left keeps its (empty) vector
            fine[kind] &= ~bit
        if entry.is_page_table and self.lazy_pt_sharer_updates:
            return
        if self.fine_grained:
            still_shared = any(mask & bit for mask in fine.values())
            if still_shared:
                return
        entry.sharers &= ~bit
        if not entry.sharers:
            self._entries.pop(line, None)

    def demote_sharer(self, line: int, cpu: int) -> None:
        """Remove ``cpu`` from a line's sharer list after a spurious message."""
        entry = self._entries.get(line)
        if entry is None:
            return
        keep = ~(1 << cpu)
        entry.sharers &= keep
        fine = entry.fine_sharers
        if fine:
            for kind in fine:
                fine[kind] &= keep
        self.stats.sharer_demotions += 1
        if not entry.sharers:
            self._entries.pop(line, None)

    # ------------------------------------------------------------------
    # writes (the interesting path for translation coherence)
    # ------------------------------------------------------------------
    def record_write(self, line: int, writer: int) -> WriteOutcome:
        """Notify the directory that ``writer`` modifies ``line``.

        Returns which other CPUs must be sent invalidations and whether
        the line is marked as page-table data.  The writer becomes the
        exclusive owner.
        """
        self._check_cpu(writer)
        entry, _ = self._get_or_allocate(line)
        if entry.is_page_table:
            self.stats.pt_writes_observed += 1
        if self.fine_grained and entry.fine_sharers:
            targets = 0
            for mask in entry.fine_sharers.values():
                targets |= mask
        else:
            targets = entry.sharers
        bit = 1 << writer
        targets &= ~bit
        self.stats.invalidations_sent += targets.bit_count()
        outcome = WriteOutcome(
            invalidate_cpus=mask_cpus(targets),
            is_nested_pt=entry.is_nested_pt,
            is_guest_pt=entry.is_guest_pt,
        )
        entry.sharers = bit
        entry.owner = writer
        if self.fine_grained:
            entry.fine_sharers = {SharerKind.CACHE: bit}
        return outcome

    def note_spurious_invalidation(self, line: int, cpu: int) -> None:
        """Count a spurious invalidation and lazily demote the sharer."""
        self.stats.spurious_invalidations += 1
        self.demote_sharer(line, cpu)

    def mark_page_table_line(
        self, line: int, nested: bool = False, guest: bool = False
    ) -> list[BackInvalidation]:
        """Set the nPT/gPT bits of a line's entry (walker-initiated).

        The page table walker sends this message when it fills a
        translation from a line whose accessed bit shows it has never
        been walked before (Section 4.2, "Directory entry changes").
        """
        entry, back_invs = self._get_or_allocate(line)
        entry.is_nested_pt = entry.is_nested_pt or nested
        entry.is_guest_pt = entry.is_guest_pt or guest
        return back_invs

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def sharers_of(self, line: int) -> frozenset[int]:
        """Return the current sharer set of ``line`` (empty if untracked)."""
        entry = self._entries.get(line)
        if entry is None:
            return frozenset()
        return mask_cpus(entry.sharers)

    def __len__(self) -> int:
        return len(self._entries)

    def _check_cpu(self, cpu: int) -> None:
        if not 0 <= cpu < self.num_cpus:
            raise ValueError(f"cpu {cpu} out of range 0..{self.num_cpus - 1}")
