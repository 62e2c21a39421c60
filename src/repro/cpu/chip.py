"""Chip-level assembly: cores, shared LLC, coherence directory, memory.

The chip wires the per-core cache hierarchies and page table walkers to
the shared coherence directory, and offers the primitives translation
coherence protocols build on:

* :meth:`Chip.page_table_write` -- propagate a hypervisor store to a page
  table line through the cache coherence protocol (returning the sharer
  set so HATRIC can piggyback translation invalidations on it);
* back-invalidation handling when directory entries are evicted;
* lazy sharer demotion when spurious invalidations are observed.
"""

from __future__ import annotations

from typing import Optional

from repro.coherence.directory import (
    BackInvalidation,
    CoherenceDirectory,
    SharerKind,
    WriteOutcome,
)
from repro.core.cotag import CoTagScheme
from repro.cpu.core import CpuCore
from repro.mem.cache import Cache
from repro.mem.memory import TwoTierMemory
from repro.sim.config import (
    PLACEMENT_FAST_ONLY,
    SystemConfig,
)
from repro.sim.stats import MachineStats


class Chip:
    """The simulated multi-core chip."""

    def __init__(
        self,
        config: SystemConfig,
        stats: MachineStats,
        cotag_scheme: Optional[CoTagScheme] = None,
        track_translation_sharers: bool = True,
    ) -> None:
        self.config = config
        self.stats = stats
        self.cotag_scheme = cotag_scheme
        self.track_translation_sharers = track_translation_sharers

        mem_cfg = config.memory
        fast_frames = mem_cfg.fast_frames
        if config.placement == PLACEMENT_FAST_ONLY:
            # "Infinite" die-stacked DRAM: make the fast tier large enough
            # to hold everything so no paging is ever needed.
            fast_frames = mem_cfg.fast_frames + mem_cfg.slow_frames
        self.memory = TwoTierMemory(
            fast_frames=fast_frames,
            slow_frames=mem_cfg.slow_frames,
            fast_latency=mem_cfg.fast_latency,
            slow_latency=mem_cfg.slow_latency,
        )

        cache_cfg = config.cache
        self.llc = Cache(
            "llc",
            cache_cfg.llc_size,
            cache_cfg.llc_associativity,
            cache_cfg.llc_latency,
        )
        dir_cfg = config.directory
        self.directory = CoherenceDirectory(
            num_cpus=config.num_cpus,
            capacity=dir_cfg.capacity,
            lazy_pt_sharer_updates=dir_cfg.lazy_pt_sharer_updates,
            fine_grained=dir_cfg.fine_grained,
        )

        self.cores: list[CpuCore] = []
        for cpu_id in range(config.num_cpus):
            listener = _CacheListener(self, cpu_id)
            core = CpuCore(
                cpu_id=cpu_id,
                config=config,
                llc=self.llc,
                memory=self.memory,
                cotag_scheme=cotag_scheme,
                coherence_listener=listener,
                fill_listener=listener.on_translation_fill,
            )
            self.cores.append(core)

    def close(self) -> None:
        """Cut every core's link back to the chip (see ``Simulator.close``).

        Directory bookkeeping and back-invalidations run through these
        links, so only a finished machine may be closed.
        """
        for core in self.cores:
            core.hierarchy.listener._chip = None

    # ------------------------------------------------------------------
    # directory bookkeeping (driven by core activity)
    # ------------------------------------------------------------------
    def on_translation_fill(
        self, cpu_id: int, kind: SharerKind, line: int, nested: bool,
        guest: bool,
    ) -> None:
        """A CPU's walker cached a translation from a page-table line."""
        if kind is SharerKind.CACHE:
            # The walker found the accessed bit clear: mark the line's
            # page-table bits in the directory.
            back_invs = self.directory.mark_page_table_line(
                line, nested=nested, guest=guest
            )
        elif self.track_translation_sharers:
            back_invs = self.directory.record_fill(
                line, cpu_id, kind=kind, is_nested_pt=nested, is_guest_pt=guest
            )
        else:
            # Without hardware translation coherence the directory does
            # not know about translation structure contents; it still
            # learns the nPT/gPT bits so software can be compared fairly.
            back_invs = self.directory.mark_page_table_line(
                line, nested=nested, guest=guest
            )
        self._apply_back_invalidations(back_invs)

    def on_cache_fill(self, cpu_id: int, line: int, is_page_table: bool) -> None:
        """A line entered a CPU's private caches."""
        back_invs = self.directory.record_fill(
            line, cpu_id, kind=SharerKind.CACHE
        )
        self._apply_back_invalidations(back_invs)

    def on_cache_eviction(self, cpu_id: int, line: int, is_page_table: bool) -> None:
        """A line left a CPU's private caches.

        Under eager directory updates (the ``EGR-dir-update`` ablation of
        Figure 12) an eviction of a page-table line also probes the CPU's
        translation structures: the sharer may only be dropped when no
        cached translation from that line remains, which costs extra
        structure lookups.
        """
        if (
            is_page_table
            and not self.directory.lazy_pt_sharer_updates
            and self.track_translation_sharers
        ):
            self.stats.count("coherence.eager_structure_lookups", 4)
            core = self.cores[cpu_id]
            still_cached = any(
                entry.pt_line == line
                for structure in core.translation_structures()
                for entry in structure.entries()
            )
            if still_cached:
                return
        self.directory.record_eviction(line, cpu_id, kind=SharerKind.CACHE)

    def _apply_back_invalidations(
        self, back_invs: list[BackInvalidation]
    ) -> None:
        for back_inv in back_invs:
            self.stats.count("directory.back_invalidations")
            for cpu in back_inv.cpus:
                core = self.cores[cpu]
                core.invalidate_private_line(back_inv.line)
                if back_inv.is_page_table:
                    core.invalidate_by_pt_line(back_inv.line)

    # ------------------------------------------------------------------
    # the path protocols build on
    # ------------------------------------------------------------------
    def page_table_write(self, line: int, writer_cpu: int) -> WriteOutcome:
        """Propagate a store to a page-table line through cache coherence.

        Returns the directory's view of which other CPUs share the line
        and whether it is marked as nested / guest page table data.  The
        caller (a translation coherence protocol) decides what to do with
        the sharer set.
        """
        self.stats.count("directory.pt_writes")
        outcome = self.directory.record_write(line, writer_cpu)
        return outcome

    def invalidate_private_caches(self, line: int, cpus) -> int:
        """Invalidate ``line`` from the private caches of ``cpus``.

        Returns how many CPUs actually held the line (the rest received
        spurious messages, which are reported to the directory for lazy
        sharer demotion).
        """
        held = 0
        for cpu in cpus:
            if self.cores[cpu].invalidate_private_line(line):
                held += 1
        return held

    def note_spurious(self, line: int, cpu: int) -> None:
        """Report a spurious invalidation so the sharer list can be trimmed."""
        self.directory.note_spurious_invalidation(line, cpu)
        self.stats.count("coherence.spurious_invalidations")

    # ------------------------------------------------------------------
    # statistics management
    # ------------------------------------------------------------------
    def reset_statistics(self) -> None:
        """Zero all hardware counters without touching simulated state.

        Used at the end of the warmup phase: cache, TLB and directory
        *contents* are preserved, only the statistics are discarded.
        """
        from repro.coherence.directory import DirectoryStats
        from repro.mem.cache import CacheStats
        from repro.translation.structures import TranslationStructureStats
        from repro.translation.walker import WalkStats

        for core in self.cores:
            core.l1.stats = CacheStats()
            core.l2.stats = CacheStats()
            core.walker.stats = WalkStats()
            for structure in core.translation_structures():
                structure.stats = TranslationStructureStats()
        self.llc.stats = CacheStats()
        self.directory.stats = DirectoryStats()
        self.memory.fast.accesses = 0
        self.memory.slow.accesses = 0

    # ------------------------------------------------------------------
    # introspection helpers
    # ------------------------------------------------------------------
    def core(self, cpu_id: int) -> CpuCore:
        """Return the core with the given id."""
        return self.cores[cpu_id]

    def all_translation_structures(self):
        """Yield every translation structure on the chip."""
        for core in self.cores:
            yield from core.translation_structures()

    def total_resident_translations(self) -> int:
        """Total cached translation entries across all cores."""
        return sum(core.resident_translation_entries() for core in self.cores)


class _CacheListener:
    """Adapter wiring a core's cache and walker callbacks to the chip.

    Its ``_chip`` is the core's one link back to the chip, which
    :meth:`Chip.close` cuts.
    """

    def __init__(self, chip: Chip, cpu_id: int) -> None:
        self._chip: Optional[Chip] = chip
        self._cpu_id = cpu_id

    def on_private_fill(self, cpu_id: int, line: int, is_page_table: bool) -> None:
        self._chip.on_cache_fill(self._cpu_id, line, is_page_table)

    def on_private_eviction(
        self, cpu_id: int, line: int, is_page_table: bool
    ) -> None:
        self._chip.on_cache_eviction(self._cpu_id, line, is_page_table)

    def on_translation_fill(
        self, kind: SharerKind, line: int, nested: bool, guest: bool
    ) -> None:
        self._chip.on_translation_fill(self._cpu_id, kind, line, nested, guest)
