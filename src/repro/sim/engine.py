"""Execution engines: the reference loop and the fast path.

The simulator supports two interchangeable execution engines:

* the **reference engine** walks every reference through the layered
  component APIs (:meth:`repro.cpu.core.CpuCore.translate`, the cache
  hierarchy, the hypervisor access hooks).  It is the specification:
  small, obvious, and the thing the fast engine is measured against;

* the **fast engine** executes the same simulation through a batch
  executor that retires steady-state references in bulk.  When a
  reference hits the L1 TLB and its data line is resident in the L1
  cache -- the overwhelmingly common case the paper calls steady state
  -- nothing architecturally interesting happens, so the fast path
  retires it inline with precomputed hit costs and accumulates
  statistics as per-chunk array sums instead of per-reference attribute
  updates.  The moment any slow-path condition holds (TLB miss, data
  miss, pending defragmentation remap, a fault) the executor falls back
  to the exact reference code path for that reference.

  Right after a round-robin round in which every chunk was fully
  steady, the executor also tries *bulk retirement*: it mirrors the hot
  lookup state -- L1 TLB entries and L1 data tags -- into flat
  power-of-2 numpy tables, scans each stream's upcoming references
  with a vectorized steady-prefix scan, and retires whole rounds of
  steady references with array sums and batched LRU updates.  The first
  slow-path condition ends the window and the executor drops back to
  its exact rounds, so every architecturally interesting reference
  still runs the reference semantics, and runs that never have an
  all-steady round build nothing for the bulk path.

The fast engine additionally installs flattened implementations of the
hottest component paths on the machine it runs -- the cache hierarchy
access path and co-tag/line-indexed translation structure invalidation.
These are pure implementation swaps: they mutate the *same* state
objects in the *same* order and count the *same* statistics, so results
are **bit-identical** to the reference engine.  That property is load
bearing (``CACHE_SCHEMA_VERSION`` is not bumped by engine selection)
and is enforced by ``tests/test_fastpath.py``, the golden snapshots,
and the ``REPRO_VALIDATE_FASTPATH=1`` run-both-and-diff mode.

Engine selection: ``Simulator(config, engine=...)`` explicitly,
``REPRO_SIM_ENGINE`` globally, default :data:`ENGINE_FAST`.  Validation
mode (``validate=True``) always uses the reference engine, since the
per-reference cross-checks are what that mode is for.
"""

from __future__ import annotations

import gc
import os
from itertools import chain
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.coherence.directory import DirectoryEntry, SharerKind
from repro.cpu.chip import _CacheListener
from repro.mem.cache import CacheLine
from repro.mem.hierarchy import AccessResult, CacheHierarchy
from repro.sim.config import PLACEMENT_PAGED
from repro.translation.address import (
    CACHE_LINE_SIZE,
    LEVEL_INDEX_BITS,
    PAGE_SHIFT,
    PAGE_SIZE,
)
from repro.translation.page_table import GuestPageTable, NestedPageTable
from repro.translation.structures import (
    MMUCache,
    NestedTLB,
    TLB,
    TranslationEntry,
)
from repro.translation.walker import PageTableWalker, WalkResult
from repro.virt.paging import ClockPolicy, FifoPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.sim.simulator import SimulationResult, Simulator
    from repro.workloads.base import WorkloadTrace

#: Engine names.  ``ENGINE_DEFAULT`` is what ``engine=None`` resolves to
#: (overridable per process with ``REPRO_SIM_ENGINE``).
ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
ENGINES = (ENGINE_REFERENCE, ENGINE_FAST)
ENGINE_DEFAULT = ENGINE_FAST

#: Environment variable selecting the engine for simulators that were
#: not given one explicitly (``reference`` or ``fast``).
ENGINE_ENV_VAR = "REPRO_SIM_ENGINE"

#: When set, :func:`repro.api.session.execute_request` runs every
#: non-reference trace request through the reference engine as well and
#: raises :class:`FastPathMismatchError` unless the results are
#: bit-identical.
#: Valid values: ``1``/``true`` (on), ``0``/``false``/unset (off);
#: anything else is a loud error, not a silent boolean guess.
VALIDATE_ENV_VAR = "REPRO_VALIDATE_FASTPATH"

_VALIDATE_ON = ("1", "true")
_VALIDATE_OFF = ("", "0", "false")


#: radix-level index width, hoisted for the walker's inline prefix math.
_LEVEL_BITS = LEVEL_INDEX_BITS


class FastPathMismatchError(AssertionError):
    """Fast and reference engines disagreed on a supposedly equal run."""


def check_engine(engine: str, source: str = "") -> None:
    """Raise a ValueError unless ``engine`` names an engine.

    The one unknown-engine error of the package: every surface that
    accepts an engine name (``Simulator``, ``RunRequest``,
    ``FleetRequest``, ``REPRO_SIM_ENGINE``) reports it through here.
    """
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise ValueError(
            f"unknown simulation engine {engine!r}{source}; known: {known}"
        )


def resolve_engine(engine: Optional[str], validate: bool = False) -> str:
    """Resolve an engine request to a concrete engine name.

    ``None`` (or ``""``) consults ``REPRO_SIM_ENGINE`` and falls back to
    :data:`ENGINE_DEFAULT`.  Validation mode always resolves to the
    reference engine.
    """
    source = ""
    if not engine:
        engine = os.environ.get(ENGINE_ENV_VAR) or ENGINE_DEFAULT
        source = f" (from {ENGINE_ENV_VAR})"
    check_engine(engine, source)
    if validate:
        return ENGINE_REFERENCE
    return engine


def validate_fastpath_requested() -> bool:
    """True when ``REPRO_VALIDATE_FASTPATH`` asks for run-both-and-diff.

    The flag is parsed strictly: a value that is neither clearly on nor
    clearly off (say, ``REPRO_VALIDATE_FASTPATH=ture``) raises instead
    of silently disabling the validation the caller asked for.
    """
    value = os.environ.get(VALIDATE_ENV_VAR, "")
    if value in _VALIDATE_OFF:
        return False
    if value in _VALIDATE_ON:
        return True
    on = ", ".join(_VALIDATE_ON)
    off = ", ".join(repr(v) for v in _VALIDATE_OFF if v)
    raise ValueError(
        f"invalid {VALIDATE_ENV_VAR} value {value!r}; "
        f"valid values: {on} (on) or {off} or unset (off)"
    )


# ----------------------------------------------------------------------
# flattened component implementations (installed on fast-engine machines)
# ----------------------------------------------------------------------
class FastCacheHierarchy(CacheHierarchy):
    """Flattened :class:`CacheHierarchy` with identical semantics.

    ``access_cycles`` (installed per instance by
    :func:`install_fast_paths`, built by :func:`_make_access_cycles`)
    performs the same probes, fills, statistics updates and directory
    notifications as the reference :meth:`CacheHierarchy.access` but in
    one closure with every stable object hoisted into cells.  Directory
    bookkeeping for the common case (known line, no capacity pressure,
    coarse-grained lazy directory) is inlined; every uncommon case falls
    back to the reference chip methods so back-invalidations,
    fine-grained tracking and eager sharer updates behave identically.
    """

    #: set by :func:`install_fast_paths`.
    _fast_chip: Any = None
    _fast_inline_dir: bool = False

    def access(
        self, spa: int, is_write: bool = False, is_page_table: bool = False
    ) -> AccessResult:
        """Reference-compatible wrapper returning an :class:`AccessResult`."""
        return AccessResult(
            cycles=self.access_cycles(spa, is_write, is_page_table), level="fast"
        )

    def _notify_eviction(self, line: int, is_page_table: bool) -> None:
        """Mirror a line leaving the private caches in the directory."""
        if self._fast_inline_dir:
            directory = self._fast_chip.directory
            entry = directory._entries.get(line)
            if entry is None:
                return
            if entry.is_nested_pt or entry.is_guest_pt:
                # lazy page-table sharer updates: leave the sharer list.
                return
            entry.sharers.discard(self.cpu_id)
            if not entry.sharers:
                del directory._entries[line]
            return
        self.listener.on_private_eviction(self.cpu_id, line, is_page_table)


def _make_access_cycles(hierarchy: FastCacheHierarchy):
    """Build the hierarchy's flattened access function.

    Exact reference semantics (:meth:`CacheHierarchy.access` plus
    :meth:`Cache.access`/:meth:`Cache.fill` plus the chip's directory
    listener) with all stable objects -- caches, set lists, latencies,
    geometry, the directory -- bound as closure cells.  Statistics
    objects are fetched per call: warmup reset replaces them.
    """
    l1, l2, llc = hierarchy.l1, hierarchy.l2, hierarchy.llc
    s1_list, s2_list, s3_list = l1._sets, l2._sets, llc._sets
    n1, n2, n3 = l1.num_sets, l2.num_sets, llc.num_sets
    a1, a2, a3 = l1.associativity, l2.associativity, llc.associativity
    lat1 = l1.latency
    lat12 = lat1 + l2.latency
    lat123 = lat12 + llc.latency
    line_size = l1.line_size
    line_mask = ~(line_size - 1)
    tier_of = hierarchy.memory.tier_of
    listener = hierarchy.listener
    notify_eviction = hierarchy._notify_eviction
    cpu_id = hierarchy.cpu_id
    inline_dir = hierarchy._fast_inline_dir and listener is not None
    directory = hierarchy._fast_chip.directory if inline_dir else None

    def fill_private(cache, cset, other_list, other_sets, line, is_write,
                     is_page_table, associativity):
        """Insert ``line`` into a private level that just missed it."""
        stats = cache.stats
        stats.fills += 1
        if len(cset) >= associativity:
            _, victim = cset.popitem(last=False)
            stats.evictions += 1
            if victim.dirty:
                stats.writebacks += 1
            victim_address = victim.address
            victim_page_table = victim.is_page_table
            # recycle the victim object (identity is unobservable)
            victim.address = line
            victim.dirty = is_write
            victim.is_page_table = is_page_table
            cset[line] = victim
            if (
                victim_address
                not in other_list[(victim_address // line_size) % other_sets]
                and listener is not None
            ):
                notify_eviction(victim_address, victim_page_table)
        else:
            cset[line] = CacheLine(
                address=line, dirty=is_write, is_page_table=is_page_table
            )

    def access_cycles(
        spa: int, is_write: bool = False, is_page_table: bool = False
    ) -> int:
        """Access ``spa``; return cycles (flattened reference semantics)."""
        line = spa & line_mask
        set_number = line // line_size
        s1 = s1_list[set_number % n1]
        st = l1.stats
        st.accesses += 1
        cl = s1.get(line)
        if cl is not None:
            st.hits += 1
            s1.move_to_end(line)
            if is_write:
                cl.dirty = True
            return lat1
        st.misses += 1
        s2 = s2_list[set_number % n2]
        st = l2.stats
        st.accesses += 1
        cl = s2.get(line)
        if cl is not None:
            st.hits += 1
            s2.move_to_end(line)
            if is_write:
                cl.dirty = True
            fill_private(l1, s1, s2_list, n2, line, is_write, is_page_table, a1)
            return lat12
        st.misses += 1
        cycles = lat123
        s3 = s3_list[set_number % n3]
        st = llc.stats
        st.accesses += 1
        cl = s3.get(line)
        if cl is not None:
            st.hits += 1
            s3.move_to_end(line)
            if is_write:
                cl.dirty = True
        else:
            st.misses += 1
            tier = tier_of(spa >> PAGE_SHIFT)
            tier.accesses += 1
            cycles += tier.access_latency
            st.fills += 1
            if len(s3) >= a3:
                _, victim = s3.popitem(last=False)
                st.evictions += 1
                if victim.dirty:
                    st.writebacks += 1
                # recycle the victim object (identity is unobservable)
                victim.address = line
                victim.dirty = is_write
                victim.is_page_table = is_page_table
                s3[line] = victim
            else:
                s3[line] = CacheLine(
                    address=line, dirty=is_write, is_page_table=is_page_table
                )
        # The line just missed both private levels, so it is newly
        # resident: fill L2 then L1, then report the private fill
        # (reference ``_fill_private_levels`` order).
        fill_private(l2, s2, s1_list, n1, line, is_write, is_page_table, a2)
        fill_private(l1, s1, s2_list, n2, line, is_write, is_page_table, a1)
        # newly-resident private line -> directory (reference
        # ``listener.on_private_fill``), common case inlined.
        if listener is not None:
            if inline_dir:
                entries = directory._entries
                entry = entries.get(line)
                if entry is not None:
                    directory.stats.lookups += 1
                    entries.move_to_end(line)
                    entry.sharers.add(cpu_id)
                    return cycles
                capacity = directory.capacity
                if capacity is None or len(entries) < capacity:
                    directory.stats.lookups += 1
                    directory.stats.allocations += 1
                    entries[line] = DirectoryEntry(line=line, sharers={cpu_id})
                    return cycles
            # capacity pressure / fine-grained directory: reference
            # path (handles back-invalidations).
            listener.on_private_fill(cpu_id, line, is_page_table)
        return cycles

    return access_cycles


class _IndexedInvalidationMixin:
    """Co-tag / page-table-line indexes over a translation structure.

    The reference :meth:`TranslationStructure.invalidate_matching_cotag`
    scans every resident entry (the hardware CAM search costs a counter
    tick, the Python scan costs real time on every remap).  The fast
    engine maintains reverse indexes so invalidations touch only the
    matching keys, leaving entry order, statistics and results
    unchanged.
    """

    def _fast_init_index(self) -> None:
        self._by_cotag: dict[int, set] = {}
        self._by_line: dict[int, set] = {}
        for key, entry in self._entries.items():
            self._index_add(key, entry)

    def _index_add(self, key, entry) -> None:
        if entry.cotag is not None:
            self._by_cotag.setdefault(entry.cotag, set()).add(key)
        if entry.pt_line is not None:
            self._by_line.setdefault(entry.pt_line, set()).add(key)

    def _index_discard(self, key, entry) -> None:
        if entry.cotag is not None:
            keys = self._by_cotag.get(entry.cotag)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_cotag[entry.cotag]
        if entry.pt_line is not None:
            keys = self._by_line.get(entry.pt_line)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_line[entry.pt_line]

    # -- overrides maintaining the indexes ------------------------------
    def insert(self, key, value, cotag=None, pt_line=None):
        self.stats.insertions += 1
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            if entry.cotag != cotag or entry.pt_line != pt_line:
                self._index_discard(key, entry)
                entry.cotag = cotag
                entry.pt_line = pt_line
                self._index_add(key, entry)
            entry.value = value
            entries.move_to_end(key)
            return None
        evicted = None
        if len(entries) >= self.capacity:
            evicted_key, evicted = entries.popitem(last=False)
            self.stats.evictions += 1
            self._index_discard(evicted_key, evicted)
        entry = TranslationEntry(key=key, value=value, cotag=cotag, pt_line=pt_line)
        entries[key] = entry
        self._index_add(key, entry)
        return evicted

    def invalidate_key(self, key) -> bool:
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._index_discard(key, entry)
        del self._entries[key]
        self.stats.invalidations += 1
        return True

    def invalidate_matching_cotag(self, cotag: int) -> int:
        self.stats.cotag_searches += 1
        keys = self._by_cotag.pop(cotag, None)
        if not keys:
            return 0
        entries = self._entries
        for key in keys:
            entry = entries.pop(key)
            if entry.pt_line is not None:
                line_keys = self._by_line.get(entry.pt_line)
                if line_keys is not None:
                    line_keys.discard(key)
                    if not line_keys:
                        del self._by_line[entry.pt_line]
        self.stats.invalidations += len(keys)
        return len(keys)

    def invalidate_matching_line(self, pt_line: int) -> int:
        keys = self._by_line.pop(pt_line, None)
        if not keys:
            return 0
        entries = self._entries
        for key in keys:
            entry = entries.pop(key)
            if entry.cotag is not None:
                cotag_keys = self._by_cotag.get(entry.cotag)
                if cotag_keys is not None:
                    cotag_keys.discard(key)
                    if not cotag_keys:
                        del self._by_cotag[entry.cotag]
        self.stats.invalidations += len(keys)
        return len(keys)

    def flush(self) -> int:
        dropped = len(self._entries)
        self._entries.clear()
        self._by_cotag.clear()
        self._by_line.clear()
        self.stats.flushes += 1
        self.stats.flushed_entries += dropped
        return dropped


class FastTLB(_IndexedInvalidationMixin, TLB):
    """Indexed-invalidation TLB (fast engine)."""


class FastNestedTLB(_IndexedInvalidationMixin, NestedTLB):
    """Indexed-invalidation nested TLB (fast engine)."""


class FastMMUCache(_IndexedInvalidationMixin, MMUCache):
    """Indexed-invalidation MMU cache (fast engine)."""


_FAST_STRUCTURE_CLASSES = {
    TLB: FastTLB,
    NestedTLB: FastNestedTLB,
    MMUCache: FastMMUCache,
}


class _MemoizedTableMixin:
    """Walk-path / leaf-lookup memoization for a radix page table.

    ``walk_path`` and ``lookup`` are pure functions of the table
    *structure* (the entry objects they return are shared, so bit
    mutation like accessed/dirty flags needs no invalidation, and
    ``remap`` changes an entry in place without touching structure).
    Only ``map`` and ``unmap`` change structure:

    * ``unmap`` removes one leaf -- drop that page's memo entries;
    * ``map`` adds one leaf and possibly intermediate tables that
      lengthen previously-*short* (faulting) walk paths -- drop that
      page's entries plus every memoized short path.
    """

    def _fast_init_memo(self) -> None:
        self._walk_memo: dict[int, list] = {}
        self._leaf_memo: dict[int, Any] = {}
        self._short_keys: set[int] = set()

    def map(self, vpn: int, pfn: int):
        self._leaf_memo.pop(vpn, None)
        self._walk_memo.pop(vpn, None)
        if self._short_keys:
            walk_memo = self._walk_memo
            for key in self._short_keys:
                walk_memo.pop(key, None)
            self._short_keys.clear()
        return super().map(vpn, pfn)

    def unmap(self, vpn: int):
        self._leaf_memo.pop(vpn, None)
        self._walk_memo.pop(vpn, None)
        return super().unmap(vpn)

    def lookup(self, vpn: int):
        memo = self._leaf_memo
        entry = memo.get(vpn, _MISSING)
        if entry is _MISSING:
            entry = super().lookup(vpn)
            memo[vpn] = entry
        return entry

    def walk_path(self, vpn: int) -> list:
        memo = self._walk_memo
        path = memo.get(vpn)
        if path is None:
            path = super().walk_path(vpn)
            memo[vpn] = path
            if len(path) < 4:
                self._short_keys.add(vpn)
        return path


_MISSING = object()


class FastGuestPageTable(_MemoizedTableMixin, GuestPageTable):
    """Memoizing guest page table (fast engine)."""


class FastNestedPageTable(_MemoizedTableMixin, NestedPageTable):
    """Memoizing nested page table (fast engine)."""


class FastPageTableWalker(PageTableWalker):
    """Flattened two-dimensional walker (identical semantics).

    The reference walker routes every page-table reference through
    :meth:`CacheHierarchy.access` and allocates one result object per
    nested translation; at up to 24 page-table references per walk that
    is the single hottest non-data path in the simulator.  This variant
    calls the flattened :meth:`FastCacheHierarchy.access_cycles`
    directly and passes nested translations as tuples, keeping every
    statistic, fill, co-tag and listener notification identical.
    """

    #: set by :func:`install_fast_paths`.
    _fast_dir: Any = None
    _fast_track: bool = True
    _fast_cpu: int = 0

    def walk(self, ctx, gvp: int, is_write: bool = False) -> WalkResult:
        stats = self.stats
        stats.walks += 1
        result = WalkResult()

        # -- consult the MMU cache (reference _consult_mmu_cache) ------
        mmu = self.mmu_cache
        mmu_entries = mmu._entries
        mmu_stats = mmu.stats
        vm_id = ctx.vm_id
        start_level = 4
        table_spp = None
        for level in (1, 2, 3):
            key = (vm_id, level, gvp >> (level * _LEVEL_BITS))
            mmu_stats.lookups += 1
            entry = mmu_entries.get(key)
            if entry is None:
                mmu_stats.misses += 1
                continue
            mmu_entries.move_to_end(key)
            mmu_stats.hits += 1
            stats.mmu_cache_hits += 1
            start_level = level
            table_spp = entry.value
            break
        result.cycles += 1
        if table_spp is None:
            spp, ncycles, nrefs, leaf, fault = self._translate_gpp_fast(
                ctx, ctx.guest_root_gpp
            )
            result.cycles += ncycles
            result.memory_references += nrefs
            if fault:
                return self._fault(result, "nested")
            table_spp = spp

        guest_path = ctx.guest_page_table.walk_path(gvp)
        if len(guest_path) < 4:
            return self._fault(result, "guest")
        hierarchy = self.hierarchy
        access_cycles = hierarchy.access_cycles
        l1 = hierarchy.l1
        line_size = l1.line_size
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_latency = l1.latency
        line_mask = ~(line_size - 1)
        offset_mask = PAGE_SIZE - 1
        for level in range(start_level, 0, -1):
            guest_entry = guest_path[4 - level]
            entry_spa = (table_spp << PAGE_SHIFT) | (
                guest_entry.address & offset_mask
            )
            # page-table read; L1 hits inlined (reads never set dirty)
            line = entry_spa & line_mask
            line_set = l1_sets[(line // line_size) % l1_num_sets]
            if line in line_set:
                l1_stats = l1.stats
                l1_stats.accesses += 1
                l1_stats.hits += 1
                line_set.move_to_end(line)
                result.cycles += l1_latency
            else:
                result.cycles += access_cycles(entry_spa, False, True)
            result.memory_references += 1
            if not guest_entry.accessed:
                guest_entry.accessed = True
                self._notify_pt_fill(SharerKind.CACHE, line, False, True)
            next_gpp = guest_entry.pfn

            spp, ncycles, nrefs, leaf, fault = self._translate_gpp_fast(
                ctx, next_gpp
            )
            result.cycles += ncycles
            result.memory_references += nrefs
            if fault:
                return self._fault(result, "nested")

            if level > 1:
                table_spp = spp
                # reference _fill_mmu_cache
                cotag = None
                pt_line = None
                if leaf is not None:
                    pt_line = leaf.address & line_mask
                    if self.cotag_scheme is not None:
                        cotag = self.cotag_scheme.cotag_of(leaf.address)
                key = (vm_id, level - 1, gvp >> ((level - 1) * _LEVEL_BITS))
                mmu.insert(key, spp, cotag=cotag, pt_line=pt_line)
                if pt_line is not None:
                    self._notify_pt_fill(SharerKind.MMU_CACHE, pt_line, True, False)
            else:
                result.gpp = next_gpp
                result.spp = spp
                if is_write:
                    if leaf is not None:
                        leaf.dirty = True
                    guest_entry.dirty = True
                # reference _fill_tlbs
                cotag = None
                pt_line = None
                if leaf is not None:
                    result.nested_leaf_address = leaf.address
                    pt_line = leaf.address & line_mask
                    if self.cotag_scheme is not None:
                        cotag = self.cotag_scheme.cotag_of(leaf.address)
                result.cotag = cotag
                key = (vm_id, gvp)
                self.tlb_l1.insert(key, spp, cotag=cotag, pt_line=pt_line)
                self.tlb_l2.insert(key, spp, cotag=cotag, pt_line=pt_line)
                if pt_line is not None:
                    self._notify_pt_fill(SharerKind.TLB, pt_line, True, False)

        stats.cycles += result.cycles
        stats.memory_references += result.memory_references
        return result

    def _translate_gpp_fast(self, ctx, gpp: int):
        """GPP -> SPP via nTLB or nested walk; returns a plain tuple.

        Tuple layout: ``(spp, cycles, references, leaf, fault)`` --
        the reference ``_NestedTranslation`` without the allocation.
        """
        ntlb = self.ntlb
        ntlb_stats = ntlb.stats
        ntlb_stats.lookups += 1
        key = (ctx.vm_id, gpp)
        hit = ntlb._entries.get(key)
        if hit is not None:
            ntlb._entries.move_to_end(key)
            ntlb_stats.hits += 1
            self.stats.ntlb_hits += 1
            return hit.value, 1, 0, ctx.nested_page_table.lookup(gpp), False
        ntlb_stats.misses += 1

        self.stats.nested_walks += 1
        path = ctx.nested_page_table.walk_path(gpp)
        cycles = 0
        references = 0
        hierarchy = self.hierarchy
        access_cycles = hierarchy.access_cycles
        l1 = hierarchy.l1
        line_size = l1.line_size
        l1_sets = l1._sets
        l1_num_sets = l1.num_sets
        l1_latency = l1.latency
        line_mask = ~(line_size - 1)
        for entry in path:
            address = entry.address
            line = address & line_mask
            line_set = l1_sets[(line // line_size) % l1_num_sets]
            if line in line_set:
                l1_stats = l1.stats
                l1_stats.accesses += 1
                l1_stats.hits += 1
                line_set.move_to_end(line)
                cycles += l1_latency
            else:
                cycles += access_cycles(address, False, True)
            references += 1
            if not entry.accessed:
                entry.accessed = True
                self._notify_pt_fill(SharerKind.CACHE, line, True, False)
        if len(path) < 4:
            return 0, cycles, references, None, True
        leaf = path[-1]
        cotag = (
            self.cotag_scheme.cotag_of(leaf.address)
            if self.cotag_scheme is not None
            else None
        )
        pt_line = leaf.address & line_mask
        ntlb.insert(key, leaf.pfn, cotag=cotag, pt_line=pt_line)
        self._notify_pt_fill(SharerKind.NTLB, pt_line, True, False)
        return leaf.pfn, cycles, references, leaf, False

    def _notify_pt_fill(
        self, kind, line: int, nested: bool, guest: bool
    ) -> None:
        """Inline of the chip's walker fill listener (common case).

        Replicates ``Chip._make_fill_listener``: CACHE-kind messages mark
        the line's nPT/gPT directory bits; translation-structure fills
        additionally record the CPU as a sharer when the protocol tracks
        translation sharers.  Capacity pressure and fine-grained
        directories fall back to the reference listener (which handles
        back-invalidations).
        """
        directory = self._fast_dir
        if directory is not None:
            entries = directory._entries
            entry = entries.get(line)
            if entry is None:
                capacity = directory.capacity
                if capacity is None or len(entries) < capacity:
                    directory.stats.lookups += 1
                    directory.stats.allocations += 1
                    entry = DirectoryEntry(line=line)
                    entries[line] = entry
                else:
                    entry = None
            else:
                directory.stats.lookups += 1
                entries.move_to_end(line)
            if entry is not None:
                if (
                    kind is not SharerKind.CACHE
                    and self._fast_track
                ):
                    entry.sharers.add(self._fast_cpu)
                if nested and not entry.is_nested_pt:
                    entry.is_nested_pt = True
                if guest and not entry.is_guest_pt:
                    entry.is_guest_pt = True
                return
        if self.fill_listener is not None:
            self.fill_listener(kind, line, nested, guest)


def install_fast_paths(chip) -> bool:
    """Swap a chip's hot components for their fast implementations.

    The swap is pure implementation: each component keeps its state and
    statistics objects, only the method implementations change.  Only
    simulator-built machines (whose hierarchies use the chip's own
    listener) are eligible; returns False when any core could not be
    swapped, in which case the caller should stay on the reference
    engine.
    """
    directory = chip.directory
    inline_dir = not directory.fine_grained and directory.lazy_pt_sharer_updates
    # eligibility is checked read-only for every core BEFORE any class
    # swap, so an ineligible machine is left fully untouched (a partial
    # swap would make the reference-engine fallback run fast-path code)
    for core in chip.cores:
        hierarchy = core.hierarchy
        if not (
            hierarchy.l1.line_size
            == hierarchy.l2.line_size
            == hierarchy.llc.line_size
            == CACHE_LINE_SIZE
        ):
            return False  # pragma: no cover - simulator caches share a line size
        if hierarchy.listener is not None and not isinstance(
            hierarchy.listener, _CacheListener
        ):
            return False  # pragma: no cover - foreign listener, stay on reference
    for core in chip.cores:
        hierarchy = core.hierarchy
        hierarchy.__class__ = FastCacheHierarchy
        hierarchy._fast_chip = chip
        hierarchy._fast_inline_dir = inline_dir
        hierarchy.access_cycles = _make_access_cycles(hierarchy)
        if type(core.walker) is PageTableWalker:
            walker = core.walker
            walker.__class__ = FastPageTableWalker
            walker._fast_dir = None if directory.fine_grained else directory
            walker._fast_track = chip.track_translation_sharers
            walker._fast_cpu = core.cpu_id
        for structure in core.translation_structures():
            fast_cls = _FAST_STRUCTURE_CLASSES.get(type(structure))
            if fast_cls is not None:
                structure.__class__ = fast_cls
                structure._fast_init_index()
    return True


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class ReferenceExecutor:
    """Drives the reference per-reference loop (the specification)."""

    def __init__(self, simulator: "Simulator", trace, contexts) -> None:
        self.simulator = simulator
        self.trace = trace
        self.contexts = contexts

    def execute_span(self, starts, ends, on_round=None) -> int:
        """Execute streams between per-stream ``starts`` and ``ends``."""
        return self.simulator._execute_span(
            self.trace, self.contexts, starts, ends, on_round
        )


class FastPathExecutor:
    """Batch executor retiring steady-state references in bulk.

    Keeps the reference engine's exact round-robin interleaving (chunks
    of ``_INTERLEAVE_CHUNK`` references per vCPU) and falls back to
    :meth:`Simulator._execute_reference` for any reference that is not
    fully steady-state.

    Right after an exact round in which every chunk was fully steady
    (and only when no per-round hook observes the span), the executor
    tries to retire a whole *window* of rounds at once.  It (1) builds
    per-core direct-mapped mirror tables (flat int64 arrays with
    power-of-2 index masks) of the L1 TLB and the L1 data tags from the
    authoritative structures, (2) runs :func:`_steady_prefix` over each
    active stream's upcoming addresses, and (3) bulk-retires ``R`` full
    rounds, where ``R`` is the largest round count every active stream
    covers steadily.  Bulk retirement applies exactly the effects the
    exact rounds would have applied reference by reference: statistic
    sums, LRU ``move_to_end`` replayed per distinct key in
    last-occurrence order, dirty bits for written lines, idempotent
    clock-policy touched bits, and per-VM attribution.  That is sound
    because an all-steady window cannot change TLB or cache membership,
    only recency metadata and counters.  Mirror collisions only ever
    produce false *negatives* (a steady reference classified slow),
    never false positives, so they cost speed, not correctness.
    """

    #: Initial per-stream scan horizon in references.  Doubles each time
    #: a window is cut short by the horizon rather than by a slow
    #: reference; the cap bounds the per-window arrays.
    _SCAN_START = 2048
    _SCAN_MAX = 1 << 12

    def __init__(self, simulator: "Simulator", trace, contexts) -> None:
        from repro.sim.simulator import _INTERLEAVE_CHUNK

        self.simulator = simulator
        self.trace = trace
        self.contexts = contexts
        self._chunk = _INTERLEAVE_CHUNK
        # One bulk conversion instead of two numpy-scalar conversions
        # per reference in the inner loop.
        self._gvas = [stream.tolist() for stream in trace.streams]
        self._writes = [flags.tolist() for flags in trace.writes]
        # Stream-to-pCPU placement (identity for legacy traces) and the
        # per-VM attribution map, mirroring Simulator._execute_span
        # exactly.
        self._pcpus = trace.pcpu_of_vcpu or list(range(trace.num_vcpus))
        self._vm_of_stream = (
            trace.vm_of_vcpu if simulator.stats.vms else None
        )
        # Memoize the page tables the traced contexts walk.
        installed: set[int] = set()
        for ctx in contexts:
            for table, fast_cls in (
                (ctx.guest_page_table, FastGuestPageTable),
                (ctx.nested_page_table, FastNestedPageTable),
            ):
                if id(table) in installed:
                    continue
                installed.add(id(table))
                if type(table) in (GuestPageTable, NestedPageTable):
                    table.__class__ = fast_cls
                    table._fast_init_memo()
        config = simulator.config
        self._paged = config.placement == PLACEMENT_PAGED
        self._defrag = config.paging.defrag_interval > 0
        policy = simulator.hypervisor.policy
        if isinstance(policy, ClockPolicy):
            self._policy_kind = "clock"
        elif isinstance(policy, FifoPolicy):
            self._policy_kind = "fifo"
        else:  # pragma: no cover - no third policy exists today
            self._policy_kind = "other"
        #: bulk-retirement eligibility: None until the first all-steady
        #: round decides it (see :meth:`_bulk_eligible`).
        self._bulk: Optional[bool] = None
        self._horizon = self._SCAN_START
        #: consecutive scans that found no steady round, and steady
        #: rounds left to pass up before the next scan: mirror collisions
        #: can hide resident entries on every scan of a steady phase.
        self._misses = 0
        self._skip = 0

    def execute_span(self, starts, ends, on_round=None) -> int:
        """Execute streams between per-stream ``starts`` and ``ends``.

        Cyclic garbage collection is suspended for the duration: the hot
        path allocates no reference cycles (cache lines, translation
        entries and directory entries are acyclic), so generational GC
        sweeps are pure overhead at this allocation rate.

        ``on_round`` mirrors the reference engine's hook: it fires after
        every full round-robin round with the references executed so far
        in this span, which is a state both engines reach bit-exactly.
        A hooked span runs exact rounds only, since the hook observes
        every round.
        """
        positions = list(starts)
        executed = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while True:
                ran, steady = self._exact_round(positions, ends)
                if not ran:
                    break
                executed += ran
                if on_round is not None:
                    on_round(executed)
                elif steady and self._bulk_eligible():
                    executed += self._bulk_window(positions, ends)
        finally:
            if gc_was_enabled:
                gc.enable()
        return executed

    def _exact_round(self, positions, ends) -> tuple[int, bool]:
        """One round-robin round on the exact path.

        Returns the references run and whether every chunk of the round
        retired entirely on the steady path.
        """
        chunk = self._chunk
        ran = 0
        steady = True
        for vcpu in range(self.trace.num_vcpus):
            pos = positions[vcpu]
            end = min(pos + chunk, ends[vcpu])
            if pos >= end:
                continue
            if self._run_chunk(vcpu, pos, end) != end - pos:
                steady = False
            ran += end - pos
            positions[vcpu] = end
        return ran, steady

    def _run_chunk(self, vcpu: int, pos: int, end: int) -> int:
        """Retire one vCPU's chunk ``[pos, end)``.

        Returns how many of its references were fully steady (an L1 TLB
        hit and an L1 data hit), which gates bulk retirement.
        """
        sim = self.simulator
        ctx = self.contexts[vcpu]
        gvas = self._gvas[vcpu]
        writes = self._writes[vcpu]
        cpu = self._pcpus[vcpu]
        core = sim.chip.cores[cpu]
        stats = sim.stats
        cpu_stats = stats.cpus[cpu]
        vm_stats = None
        if self._vm_of_stream is not None:
            # chunk boundary: hand the pCPU to this stream's guest
            # (reference-engine attribution order)
            stats.vm_of_cpu[cpu] = self._vm_of_stream[vcpu]
            vm_stats = stats.vms[self._vm_of_stream[vcpu]]
        costs = sim.config.costs
        l1_tlb_latency = costs.l1_tlb_latency
        l2_tlb_latency = costs.l2_tlb_latency

        tlb1 = core.tlb_l1
        tlb1_entries = tlb1._entries
        tlb1_move = tlb1_entries.move_to_end
        tlb2_entries = core.tlb_l2._entries
        l1 = core.l1
        l1_sets = l1._sets
        l1_latency = l1.latency
        l1_line_size = l1.line_size
        l1_num_sets = l1.num_sets
        access_cycles = core.hierarchy.access_cycles
        slow_reference = self._slow_reference
        vm_id = ctx.vm_id

        hypervisor = sim.hypervisor
        paged = self._paged
        defrag = self._defrag
        on_data_access = hypervisor.on_data_access
        resident_get = hypervisor._resident_by_spp.get
        policy_kind = self._policy_kind
        clock_pages = (
            hypervisor.policy._pages if policy_kind == "clock" else None
        )
        policy_on_access = hypervisor.policy.on_access

        warm_cost = l1_tlb_latency + l1_latency
        line_mask = ~(l1_line_size - 1)
        offset_mask = PAGE_SIZE - 1

        # per-chunk accumulators, flushed once at the end
        tlb1_lookups = tlb1_hits = tlb1_misses = 0
        tlb2_lookups = tlb2_hits = 0
        l1_accesses = l1_hits = 0
        warm_refs = 0
        extra_cycles = 0
        instructions = 0
        # steady-state chain: last reference was fully warm on this page
        prev_gvp = -1
        prev_spp = 0

        for gva, is_write in zip(gvas[pos:end], writes[pos:end]):
            gvp = gva >> PAGE_SHIFT
            if gvp == prev_gvp:
                # Same page as the previous fully-warm reference: its
                # TLB entry is already most-recently-used, so the
                # reference lookup is pure statistics.
                tlb1_lookups += 1
                tlb1_hits += 1
                spp = prev_spp
                base_cycles = l1_tlb_latency
            else:
                prev_gvp = -1
                key = (vm_id, gvp)
                entry = tlb1_entries.get(key)
                if entry is not None:
                    tlb1_move(key)
                    tlb1_lookups += 1
                    tlb1_hits += 1
                    spp = entry.value
                    base_cycles = l1_tlb_latency
                else:
                    entry = tlb2_entries.get(key)
                    if entry is None:
                        # TLB miss: full reference path (walk / faults).
                        slow_reference(cpu, ctx, gva, is_write)
                        continue
                    tlb2_entries.move_to_end(key)
                    tlb1_lookups += 1
                    tlb1_misses += 1
                    tlb2_lookups += 1
                    tlb2_hits += 1
                    tlb1.insert(
                        key, entry.value, cotag=entry.cotag, pt_line=entry.pt_line
                    )
                    spp = entry.value
                    base_cycles = l1_tlb_latency + l2_tlb_latency
            instructions += 1
            if paged:
                if defrag:
                    if on_data_access(spp, cpu):
                        stats.count("paging.defrag_access_stalls")
                    prev_gvp = -1
                elif policy_kind == "clock":
                    resident_key = resident_get(spp)
                    if resident_key is not None and resident_key in clock_pages:
                        clock_pages[resident_key] = True
                elif policy_kind == "other":  # pragma: no cover
                    resident_key = resident_get(spp)
                    if resident_key is not None:
                        policy_on_access(resident_key)
                # fifo: on_access is a no-op, nothing to record
            spa = (spp << PAGE_SHIFT) | (gva & offset_mask)
            line = spa & line_mask
            line_set = l1_sets[(line // l1_line_size) % l1_num_sets]
            cache_line = line_set.get(line)
            if cache_line is not None:
                line_set.move_to_end(line)
                if is_write:
                    cache_line.dirty = True
                l1_accesses += 1
                l1_hits += 1
                if base_cycles == l1_tlb_latency:
                    warm_refs += 1
                    if not defrag:
                        prev_gvp = gvp
                        prev_spp = spp
                else:
                    extra_cycles += base_cycles + l1_latency
                continue
            # L1 data miss: the flattened hierarchy handles the rest
            # (it may back-invalidate translations, so break the chain).
            prev_gvp = -1
            extra_cycles += base_cycles + access_cycles(spa, is_write)

        if instructions:
            cpu_stats.instructions += instructions
            cpu_stats.busy_cycles += warm_refs * warm_cost + extra_cycles
            if vm_stats is not None:
                vm_stats.instructions += instructions
                vm_stats.busy_cycles += warm_refs * warm_cost + extra_cycles
            tlb1_stats = tlb1.stats
            tlb1_stats.lookups += tlb1_lookups
            tlb1_stats.hits += tlb1_hits
            tlb1_stats.misses += tlb1_misses
            tlb2_stats = core.tlb_l2.stats
            tlb2_stats.lookups += tlb2_lookups
            tlb2_stats.hits += tlb2_hits
            l1_stats = l1.stats
            l1_stats.accesses += l1_accesses
            l1_stats.hits += l1_hits
        return warm_refs

    def _slow_reference(self, cpu: int, ctx, gva: int, is_write: bool) -> None:
        """One non-steady-state reference (reference ``_execute_reference``).

        Inline replica of :meth:`Simulator._execute_reference` for the
        fast engine (which never runs in validation mode): the TLB
        probes, fault-retry loop, hypervisor hooks and data access are
        the same operations against the same state, minus the per-layer
        call frames and result objects.
        """
        from repro.sim.simulator import _MAX_FAULT_RETRIES

        sim = self.simulator
        stats = sim.stats
        cpu_stats = stats.cpus[cpu]
        # cycle charges below go through stats.charge_cpu, which owns the
        # per-VM attribution (vm_of_cpu) shared with the reference engine
        charge_cpu = stats.charge_cpu
        core = sim.chip.cores[cpu]
        costs = sim.config.costs
        l1_tlb_latency = costs.l1_tlb_latency
        l2_tlb_latency = costs.l2_tlb_latency
        tlb1 = core.tlb_l1
        tlb2 = core.tlb_l2
        walker_walk = core.walker.walk
        cpu_stats.instructions += 1
        if stats.vms:
            stats.vms[stats.vm_of_cpu[cpu]].instructions += 1
        gvp = gva >> PAGE_SHIFT
        key = (ctx.vm_id, gvp)
        spp = 0

        for _ in range(_MAX_FAULT_RETRIES):
            # inline core.translate
            stats1 = tlb1.stats
            stats1.lookups += 1
            entry = tlb1._entries.get(key)
            cycles = l1_tlb_latency
            fault = None
            if entry is not None:
                stats1.hits += 1
                tlb1._entries.move_to_end(key)
                spp = entry.value
            else:
                stats1.misses += 1
                cycles += l2_tlb_latency
                stats2 = tlb2.stats
                stats2.lookups += 1
                entry = tlb2._entries.get(key)
                if entry is not None:
                    stats2.hits += 1
                    tlb2._entries.move_to_end(key)
                    tlb1.insert(
                        key, entry.value, cotag=entry.cotag, pt_line=entry.pt_line
                    )
                    spp = entry.value
                else:
                    stats2.misses += 1
                    walk = walker_walk(ctx, gvp, is_write=is_write)
                    cycles += walk.cycles
                    spp = walk.spp
                    fault = walk.fault
            charge_cpu(cpu, cycles)
            if fault is None:
                break
            if fault == "guest":
                ctx.ensure_guest_mapping(gvp)
                charge_cpu(cpu, costs.page_fault_overhead // 2)
                stats.count("guest.minor_faults")
            elif fault == "nested":
                gpp = ctx.gpp_of(gvp)
                if gpp is None:
                    ctx.ensure_guest_mapping(gvp)
                    gpp = ctx.gpp_of(gvp)
                # evaluate BEFORE charging: the handler charges eviction
                # and coherence cycles to the same counters internally
                fault_cycles = sim.hypervisor.handle_nested_fault(ctx, gpp, cpu)
                charge_cpu(cpu, fault_cycles)
        else:
            raise RuntimeError(
                f"reference to gva {gva:#x} did not resolve after "
                f"{_MAX_FAULT_RETRIES} fault retries"
            )

        # The slow path runs once per non-steady reference, so the
        # hypervisor hook is called directly (exactly as the reference
        # engine does) rather than inlined like the warm loop.
        if sim.hypervisor.on_data_access(spp, cpu):
            stats.count("paging.defrag_access_stalls")
        spa = (spp << PAGE_SHIFT) | (gva & (PAGE_SIZE - 1))
        charge_cpu(cpu, core.hierarchy.access_cycles(spa, is_write))


    # ------------------------------------------------------------------
    # bulk retirement
    # ------------------------------------------------------------------
    def _bulk_eligible(self) -> bool:
        """Whether bulk windows are sound for this simulator + trace.

        Decided (and the mirror shapes computed) at the first all-steady
        round, so a run that never has one builds nothing for the bulk
        path.  Ineligible shapes are rare and still correct: they stay
        on exact rounds.
        """
        if self._bulk is not None:
            return self._bulk
        self._bulk = False
        if self._defrag or self._policy_kind == "other":
            # defrag interposes on_data_access on every steady
            # reference; "other" policies have per-access callbacks.
            return False
        # TLB mirror tags pack (gvp << _VM_BITS) | vm_code into an int64,
        # where vm_code is a dense per-executor index over the traced VM
        # ids.
        vm_ids = sorted({ctx.vm_id for ctx in self.contexts})
        if len(vm_ids) >= 1 << _VM_BITS:  # pragma: no cover - fleets are small
            return False
        for stream in self.trace.streams:
            if stream.shape[0] and int(stream.max()) >= 1 << 55:
                return False  # pragma: no cover - addresses are < 2^55
        self._vm_code = {vm_id: code for code, vm_id in enumerate(vm_ids)}
        self._vm_of_code = vm_ids
        chip = self.simulator.chip
        tlb_capacity = max(core.tlb_l1.capacity for core in chip.cores)
        l1_lines = max(
            core.l1.num_sets * core.l1.associativity for core in chip.cores
        )
        # 4x the TLB and 2x the L1 capacity keep direct-mapped collisions
        # (and therefore spurious exact rounds) rare.
        self._tmask = (1 << max(4 * tlb_capacity - 1, 1).bit_length()) - 1
        self._lmask = (1 << max(2 * l1_lines - 1, 1).bit_length()) - 1
        self._warm_cost = (
            self.simulator.config.costs.l1_tlb_latency
            + chip.cores[0].l1.latency
        )
        self._bulk = True
        return True

    def _bulk_window(self, positions, ends) -> int:
        """Scan ahead and bulk-retire the rounds all streams cover steadily.

        Returns the references retired: 0 when some active stream has a
        slow reference (or only a partial chunk) before its next full
        chunk ends.  After the ``k``-th such miss in a row the next
        ``2**(k - 1) - 1`` calls (at most 63) pass without scanning.
        """
        if self._skip:
            self._skip -= 1
            return 0
        active = [
            s for s in range(self.trace.num_vcpus) if positions[s] < ends[s]
        ]
        if not active:
            return 0
        rounds, window = self._scan_window(positions, ends, active)
        if rounds == 0:
            self._horizon = self._SCAN_START
            self._skip = (1 << min(self._misses, 6)) - 1
            self._misses += 1
            return 0
        self._misses = 0
        if rounds * self._chunk == self._horizon:
            self._horizon = min(2 * self._horizon, self._SCAN_MAX)
        return self._retire_rounds(active, positions, window, rounds)

    def _build_mirrors(self, cpus):
        """Direct-mapped numpy mirrors of each core's L1 TLB and L1 tags.

        Mirrors hold full tags, so a probe hit proves the key is present
        in the authoritative structure; a slot lost to a collision is
        merely invisible (false negative).  The arrays are rebuilt per
        scan -- cheap, since the structures hold at most a few hundred
        entries -- which frees the executor from hooking every
        invalidation path in the machine.
        """
        mirrors = {}
        chip = self.simulator.chip
        tmask = self._tmask
        lmask = self._lmask
        vm_code_of = self._vm_code.get
        for cpu in cpus:
            core = chip.cores[cpu]
            tlb_tag = np.full(tmask + 1, -1, dtype=np.int64)
            tlb_spp = np.zeros(tmask + 1, dtype=np.int64)
            for (vm_id, gvp), entry in core.tlb_l1._entries.items():
                vm_code = vm_code_of(vm_id)
                if vm_code is None:
                    # An untraced VM's entry can never match a scanned
                    # tag; leaving it out only costs a false negative.
                    continue
                slot = (gvp ^ (vm_code * _VM_SALT)) & tmask
                tlb_tag[slot] = (gvp << _VM_BITS) | vm_code
                tlb_spp[slot] = entry.value
            # Colliding lines overwrite each other; whichever survives is
            # resident, so the mirror stays a subset of the cache.
            lines = np.fromiter(
                chain.from_iterable(core.l1._sets), dtype=np.int64
            )
            l1_tag = np.full(lmask + 1, -1, dtype=np.int64)
            l1_tag[(lines >> _LINE_SHIFT) & lmask] = lines
            mirrors[cpu] = (tlb_tag, tlb_spp, l1_tag)
        return mirrors

    def _scan_window(self, positions, ends, active):
        """Find how many whole rounds every active stream covers steadily.

        Returns ``(rounds, window)``, where ``window`` maps each active
        stream to its ``(gva, spp, line)`` arrays from its position on,
        each covering at least ``rounds`` chunks.  Every stream only
        scans as far as all streams before it covered.
        """
        chunk = self._chunk
        pcpus = self._pcpus
        streams = self.trace.streams
        mirrors = self._build_mirrors({pcpus[s] for s in active})
        cover = self._horizon
        window = {}
        for s in active:
            pos = positions[s]
            look = min(ends[s] - pos, cover)
            gva = np.asarray(streams[s][pos:pos + look], dtype=np.int64)
            spp = np.empty(look, dtype=np.int64)
            line = np.empty(look, dtype=np.int64)
            prefix = _steady_prefix(
                gva, self._vm_code[self.contexts[s].vm_id],
                *mirrors[pcpus[s]], self._tmask, self._lmask, spp, line,
            )
            cover = prefix - prefix % chunk
            if cover == 0:
                return 0, {}
            window[s] = (gva, spp, line)
        return cover // chunk, window

    def _retire_rounds(self, active, positions, window, rounds) -> int:
        """Bulk-retire the first ``rounds`` rounds of a scanned window."""
        sim = self.simulator
        stats = sim.stats
        chip = sim.chip
        chunk = self._chunk
        per_stream = rounds * chunk
        warm_cost = self._warm_cost
        vm_of_stream = self._vm_of_stream
        vm_code = self._vm_code
        vm_of_code = self._vm_of_code
        writes = self.trace.writes

        by_core: dict[int, list[int]] = {}
        for s in active:
            by_core.setdefault(self._pcpus[s], []).append(s)

        for cpu, streams in by_core.items():
            core = chip.cores[cpu]
            total = per_stream * len(streams)
            cpu_stats = stats.cpus[cpu]
            cpu_stats.instructions += total
            cpu_stats.busy_cycles += total * warm_cost
            tlb1 = core.tlb_l1
            tlb1_stats = tlb1.stats
            tlb1_stats.lookups += total
            tlb1_stats.hits += total
            l1 = core.l1
            l1_stats = l1.stats
            l1_stats.accesses += total
            l1_stats.hits += total
            if vm_of_stream is not None:
                for s in streams:
                    vm_stats = stats.vms[vm_of_stream[s]]
                    vm_stats.instructions += per_stream
                    vm_stats.busy_cycles += per_stream * warm_cost
                # the round's last chunk on this core hands it the pCPU
                stats.vm_of_cpu[cpu] = vm_of_stream[streams[-1]]
            # Interleave the streams' chunks exactly as the round-robin
            # loop would have: (round, stream-in-vcpu-order, chunk).
            tags = _interleave(
                [
                    ((window[s][0][:per_stream] >> PAGE_SHIFT) << _VM_BITS)
                    | vm_code[self.contexts[s].vm_id]
                    for s in streams
                ],
                rounds,
            )
            lines = _interleave(
                [window[s][2][:per_stream] for s in streams], rounds
            )
            written = _interleave(
                [
                    np.asarray(
                        writes[s][positions[s]:positions[s] + per_stream],
                        dtype=bool,
                    )
                    for s in streams
                ],
                rounds,
            )
            tlb1_move = tlb1._entries.move_to_end
            for packed in _last_occurrence_order(tags).tolist():
                tlb1_move((vm_of_code[packed & _VM_MASK], packed >> _VM_BITS))
            l1_sets = l1._sets
            num_sets = l1.num_sets
            for line in _last_occurrence_order(lines).tolist():
                l1_sets[(line >> _LINE_SHIFT) % num_sets].move_to_end(line)
            if written.any():
                for line in np.unique(lines[written]).tolist():
                    l1_sets[(line >> _LINE_SHIFT) % num_sets][line].dirty = True

        if self._paged and self._policy_kind == "clock":
            # Touched bits are idempotent, so distinct pages suffice.
            resident_get = sim.hypervisor._resident_by_spp.get
            clock_pages = sim.hypervisor.policy._pages
            for s in active:
                for spp in np.unique(window[s][1][:per_stream]).tolist():
                    resident_key = resident_get(spp)
                    if resident_key is not None and resident_key in clock_pages:
                        clock_pages[resident_key] = True

        for s in active:
            positions[s] += per_stream
        return per_stream * len(active)


#: log2 of the cache line size: the shift from line address to set/slot.
_LINE_SHIFT = CACHE_LINE_SIZE.bit_length() - 1
#: bits of a packed TLB mirror tag holding the dense VM code.
_VM_BITS = 6
_VM_MASK = (1 << _VM_BITS) - 1
#: odd multiplier spreading VM codes over TLB mirror slots, so guests
#: that use the same virtual pages do not collide slot for slot.
_VM_SALT = 0x9E3779B1
#: page-offset bits that select a cache line within a page.
_PAGE_LINE_MASK = (PAGE_SIZE - 1) & ~(CACHE_LINE_SIZE - 1)
#: Block size of the steady-prefix scan: big enough to amortize numpy
#: dispatch, small enough that a scan stopped early by a slow reference
#: does not compute far past it.
_SCAN_BLOCK = 4096


def _steady_prefix(gva, vm_code, tlb_tag, tlb_spp, l1_tag, tmask, lmask,
                   spp_out, line_out) -> int:
    """Length of the fully-steady prefix of one stream's addresses.

    Reference ``i`` is steady when its packed ``(gvp, vm_code)`` tag sits
    in its TLB mirror slot and the data line its mirrored SPP maps to
    sits in its L1 mirror slot.  ``spp_out``/``line_out``
    receive the SPP and line address of every prefix reference; entries
    at or beyond the returned length are unspecified.
    """
    n = gva.shape[0]
    for start in range(0, n, _SCAN_BLOCK):
        block = gva[start:start + _SCAN_BLOCK]
        stop = start + block.shape[0]
        gvp = block >> PAGE_SHIFT
        slot = (gvp ^ (vm_code * _VM_SALT)) & tmask
        spp = tlb_spp[slot]
        line = (spp << PAGE_SHIFT) | (block & _PAGE_LINE_MASK)
        steady = (tlb_tag[slot] == ((gvp << _VM_BITS) | vm_code)) & (
            l1_tag[(line >> _LINE_SHIFT) & lmask] == line
        )
        spp_out[start:stop] = spp
        line_out[start:stop] = line
        if not steady.all():
            return start + int(np.argmin(steady))
    return n


def _interleave(columns: list, rounds: int) -> np.ndarray:
    """Merge per-stream columns of ``rounds`` chunks in round-robin order."""
    if len(columns) == 1:
        return columns[0]
    return np.stack(
        [column.reshape(rounds, -1) for column in columns], axis=1
    ).reshape(-1)


def _last_occurrence_order(values: np.ndarray) -> np.ndarray:
    """Distinct values of ``values`` ordered by ascending last occurrence.

    Replaying ``move_to_end`` once per distinct key in this order yields
    the exact OrderedDict order that per-reference ``move_to_end`` calls
    would have produced -- provided membership did not change, which is
    the invariant of an all-steady window.
    """
    reversed_values = values[::-1]
    distinct, first_in_reversed = np.unique(
        reversed_values, return_index=True
    )
    last = values.shape[0] - 1 - first_in_reversed
    return distinct[np.argsort(last, kind="stable")]


def make_executor(simulator: "Simulator", trace, contexts):
    """Build the executor matching the simulator's resolved engine."""
    if simulator.engine == ENGINE_FAST:
        return FastPathExecutor(simulator, trace, contexts)
    return ReferenceExecutor(simulator, trace, contexts)


# ----------------------------------------------------------------------
# equivalence checking
# ----------------------------------------------------------------------
def result_fingerprint(result: "SimulationResult") -> dict[str, Any]:
    """Canonical, comparable snapshot of everything a run measured."""
    stats = result.stats
    return {
        "workload": result.workload,
        "warmup_references": result.warmup_references,
        "cpus": [
            (c.busy_cycles, c.coherence_cycles, c.instructions)
            for c in stats.cpus
        ],
        "events": dict(stats.events),
        "background_cycles": stats.background_cycles,
        "energy_dynamic": result.energy.dynamic,
        "energy_static": result.energy.static,
        "energy_components": dict(result.energy.components),
        "per_app_cycles": dict(result.per_app_cycles),
        "vm_names": list(result.vm_names),
        "vms": [
            (v.busy_cycles, v.coherence_cycles, v.instructions, dict(v.events))
            for v in stats.vms
        ],
        "intervals": [sample.to_dict() for sample in result.intervals],
    }


def machine_digest(simulator: "Simulator") -> dict[str, Any]:
    """Deep post-run snapshot of the simulated machine's state.

    Captures every hardware statistic *and* the contents of every
    stateful structure (TLBs, caches, directory, memory tiers, the
    hypervisor's residency maps), so two engines that drift anywhere are
    caught even when the headline numbers happen to agree.
    """
    chip = simulator.chip
    digest: dict[str, Any] = {"cores": []}
    for core in chip.cores:
        core_digest: dict[str, Any] = {}
        for structure in core.translation_structures():
            core_digest[structure.name] = {
                "stats": vars(structure.stats).copy(),
                "entries": [
                    (entry.key, entry.value, entry.cotag, entry.pt_line)
                    for entry in structure.entries()
                ],
            }
        for cache in (core.l1, core.l2):
            core_digest[cache.name] = {
                "stats": vars(cache.stats).copy(),
                "lines": [
                    (line.address, line.dirty, line.is_page_table)
                    for cache_set in cache._sets
                    for line in cache_set.values()
                ],
            }
        core_digest["walker"] = vars(core.walker.stats).copy()
        digest["cores"].append(core_digest)
    digest["llc"] = {
        "stats": vars(chip.llc.stats).copy(),
        "lines": [
            (line.address, line.dirty, line.is_page_table)
            for cache_set in chip.llc._sets
            for line in cache_set.values()
        ],
    }
    digest["directory"] = {
        "stats": vars(chip.directory.stats).copy(),
        "entries": [
            (
                entry.line,
                tuple(sorted(entry.sharers)),
                entry.owner,
                entry.is_nested_pt,
                entry.is_guest_pt,
            )
            for entry in chip.directory._entries.values()
        ],
    }
    digest["memory"] = {
        "fast_accesses": chip.memory.fast.accesses,
        "slow_accesses": chip.memory.slow.accesses,
    }
    hypervisor = simulator.hypervisor
    digest["hypervisor"] = {
        "resident": dict(hypervisor.resident),
        "backing": dict(hypervisor.backing),
        "vm_resident": {
            vm_id: sorted(pages)
            for vm_id, pages in hypervisor._vm_pages.items()
            if pages
        },
    }
    return digest


def diff_fingerprints(
    reference: dict[str, Any], fast: dict[str, Any], prefix: str = ""
) -> list[str]:
    """Human-readable differences between two fingerprints (or digests)."""
    differences: list[str] = []
    for key in sorted(set(reference) | set(fast)):
        ref_value = reference.get(key)
        fast_value = fast.get(key)
        if ref_value == fast_value:
            continue
        path = f"{prefix}{key}"
        if isinstance(ref_value, dict) and isinstance(fast_value, dict):
            differences.extend(
                diff_fingerprints(ref_value, fast_value, prefix=f"{path}.")
            )
        else:
            differences.append(
                f"{path}: reference={ref_value!r} fast={fast_value!r}"
            )
    return differences
