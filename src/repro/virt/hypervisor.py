"""Hypervisor model: nested page table management and two-tier paging.

The hypervisor owns system physical memory.  It backs guest page table
pages eagerly (pinned), backs data pages on nested page faults, and --
in the ``paged`` placement mode -- migrates data pages between off-chip
and die-stacked DRAM the way the paper's modified KVM does (Section 3.1):

* an access to a page that is not resident in die-stacked DRAM takes a
  nested page fault and the page is migrated in on demand;
* when die-stacked DRAM fills up, a victim chosen by the paging policy is
  copied out to off-chip DRAM and its nested page table entry is torn
  down -- *this* is the remap that requires translation coherence,
  because other CPUs may still cache translations pointing at the old
  die-stacked frame;
* an optional migration daemon performs evictions in the background so
  their initiator-side cost stays off the critical path;
* optional prefetching migrates adjacent previously-evicted pages along
  with the demanded one.
"""

from __future__ import annotations

from typing import Optional

from repro.core.protocol import RemapEvent, TranslationCoherenceProtocol
from repro.cpu.chip import Chip
from repro.mem.memory import MemoryTier, OutOfMemoryError
from repro.sim.config import (
    PLACEMENT_FAST_ONLY,
    PLACEMENT_PAGED,
    PLACEMENT_SLOW_ONLY,
    SystemConfig,
)
from repro.sim.stats import MachineStats
from repro.virt.paging import make_policy
from repro.virt.vm import GuestProcess, VirtualMachine

PageKey = tuple[int, int]


class Hypervisor:
    """Base hypervisor model (KVM and Xen specialise the cost profile)."""

    name = "generic"

    def __init__(
        self,
        chip: Chip,
        config: SystemConfig,
        protocol: TranslationCoherenceProtocol,
        stats: MachineStats,
    ) -> None:
        self.chip = chip
        self.config = config
        self.protocol = protocol
        self.stats = stats
        self.costs = config.costs
        self.memory = chip.memory
        self.policy = make_policy(config.paging.policy)
        self._vms: dict[int, VirtualMachine] = {}
        #: data pages resident in die-stacked DRAM: (vm_id, gpp) -> fast SPP
        self.resident: dict[PageKey, int] = {}
        #: reverse map used on the hot access path: fast SPP -> (vm_id, gpp)
        self._resident_by_spp: dict[int, PageKey] = {}
        #: evicted data pages parked in off-chip DRAM: (vm_id, gpp) -> slow SPP
        self.backing: dict[PageKey, int] = {}
        #: accesses observed since the last defragmentation remap.
        self._accesses_since_defrag = 0
        #: per-VM caps on resident die-stacked data pages (static memory
        #: partitioning between consolidated guests); absent = the VM
        #: competes in the shared global pool.
        self._vm_fast_caps: dict[int, int] = {}
        #: per-VM insertion-ordered resident keys: cap enforcement reads
        #: a VM's residency as the map's length and its oldest resident
        #: page as the first key, both O(1).
        self._vm_pages: dict[int, dict[PageKey, None]] = {}

    # ------------------------------------------------------------------
    # VM lifecycle
    # ------------------------------------------------------------------
    def create_vm(self, vcpu_pcpus: list[int]) -> VirtualMachine:
        """Create a VM whose vCPUs are pinned to the given physical CPUs."""
        vm_id = len(self._vms) + 1
        vm = VirtualMachine(
            vm_id=vm_id,
            hypervisor=self,
            vcpu_pcpus=vcpu_pcpus,
            first_asid=vm_id * 1000 + 1,
        )
        self._vms[vm_id] = vm
        return vm

    def vm(self, vm_id: int) -> VirtualMachine:
        """Return a VM by id."""
        return self._vms[vm_id]

    def close(self) -> None:
        """Cut every VM's and guest process's links back up the machine.

        See :meth:`VirtualMachine.close`; only a finished machine may be
        closed.
        """
        for vm in self._vms.values():
            vm.close()

    def set_vm_fast_cap(self, vm_id: int, frames: int) -> None:
        """Cap a VM's resident die-stacked data pages at ``frames``.

        Once the VM reaches its cap, faulting in another of its pages
        first evicts the VM's own oldest resident page, so one guest's
        churn cannot displace a partitioned neighbour's hot set.
        """
        if frames <= 0:
            raise ValueError("a VM's fast-tier cap must be positive")
        self._vm_fast_caps[vm_id] = frames

    def _count_vm(self, vm: VirtualMachine, event: str, n: int = 1) -> None:
        """Mirror a global event counter against one guest VM.

        A no-op when the VM carries no stats index (single-VM machines
        and VMs created outside a tracked multi-VM run).
        """
        if vm.stats_index is not None:
            self.stats.count_vm(vm.stats_index, event, n)

    # ------------------------------------------------------------------
    # frame allocation helpers
    # ------------------------------------------------------------------
    def _page_table_tier(self) -> MemoryTier:
        """Tier used for page table pages (pinned, never migrated)."""
        if self.config.placement == PLACEMENT_SLOW_ONLY:
            return self.memory.slow
        return self.memory.fast

    def allocate_nested_table_frame(self) -> int:
        """Allocate a system frame for a nested page table page."""
        tier = self._page_table_tier()
        try:
            return tier.allocate()
        except OutOfMemoryError:
            return self.memory.slow.allocate()

    def back_guest_frame(
        self, vm: VirtualMachine, gpp: int, is_page_table: bool = False
    ) -> None:
        """Back a guest frame with system memory immediately (pinned)."""
        tier = self._page_table_tier()
        try:
            spp = tier.allocate()
        except OutOfMemoryError:
            spp = self.memory.slow.allocate()
        vm.nested_page_table.map(gpp, spp)

    # ------------------------------------------------------------------
    # nested fault handling and paging
    # ------------------------------------------------------------------
    def handle_nested_fault(
        self, process: GuestProcess, gpp: int, cpu: int
    ) -> int:
        """Handle a nested page fault for a data page; return cycles charged."""
        self.stats.count("paging.nested_faults")
        self._count_vm(process.vm, "paging.nested_faults")
        placement = self.config.placement
        if placement == PLACEMENT_SLOW_ONLY:
            return self._map_simple(process.vm, gpp, self.memory.slow)
        if placement == PLACEMENT_FAST_ONLY:
            return self._map_simple(process.vm, gpp, self.memory.fast)
        return self._handle_paged_fault(process, gpp, cpu)

    def _map_simple(self, vm: VirtualMachine, gpp: int, tier: MemoryTier) -> int:
        spp = tier.allocate()
        vm.nested_page_table.map(gpp, spp)
        self.stats.count("paging.first_touch")
        self._count_vm(vm, "paging.first_touch")
        return self.costs.page_fault_overhead

    def _handle_paged_fault(
        self, process: GuestProcess, gpp: int, cpu: int
    ) -> int:
        vm = process.vm
        cycles, _ = self._fault_in(vm, gpp, cpu, charge_fault_overhead=True)

        prefetch = self.config.paging.prefetch_pages
        for offset in range(1, prefetch + 1):
            neighbour = gpp + offset
            key = (vm.vm_id, neighbour)
            if key in self.resident or key not in self.backing:
                continue
            extra, _ = self._fault_in(
                vm, neighbour, cpu, charge_fault_overhead=False
            )
            cycles += extra
            self.stats.count("paging.prefetches")
            self._count_vm(vm, "paging.prefetches")

        if self.config.paging.migration_daemon:
            self._run_migration_daemon(cpu)
        return cycles

    def _fault_in(
        self,
        vm: VirtualMachine,
        gpp: int,
        cpu: int,
        charge_fault_overhead: bool,
    ) -> tuple[int, int]:
        """Bring one data page into die-stacked DRAM; return (cycles, spp)."""
        key = (vm.vm_id, gpp)
        cycles = self.costs.page_fault_overhead if charge_fault_overhead else 0

        cap = self._vm_fast_caps.get(vm.vm_id)
        if cap is not None:
            while len(self._vm_pages.get(vm.vm_id, ())) >= cap:
                evicted = self._evict_one(
                    cpu, background=False, victim=self._own_victim(vm.vm_id)
                )
                if evicted == 0:  # pragma: no cover - cap implies residents
                    break
                cycles += evicted
        while self.memory.fast.free_frames < 1:
            evicted = self._evict_one(cpu, background=False)
            if evicted == 0:
                raise OutOfMemoryError(
                    "die-stacked DRAM exhausted and nothing can be evicted"
                )
            cycles += evicted

        fast_spp = self.memory.fast.allocate()
        if key in self.backing:
            slow_spp = self.backing.pop(key)
            self.memory.slow.free(slow_spp)
            cycles += self.costs.page_copy
            self.stats.count("paging.demand_migrations")
            self._count_vm(vm, "paging.demand_migrations")
        else:
            # First touch: zero-fill, roughly half a page copy's traffic.
            cycles += self.costs.page_copy // 2
            self.stats.count("paging.first_touch")
            self._count_vm(vm, "paging.first_touch")

        vm.nested_page_table.map(gpp, fast_spp)
        self.resident[key] = fast_spp
        self._resident_by_spp[fast_spp] = key
        self._vm_pages.setdefault(vm.vm_id, {})[key] = None
        self.policy.on_page_resident(key)
        return cycles, fast_spp

    def _own_victim(self, vm_id: int) -> Optional[PageKey]:
        """The capped VM's own eviction victim: its oldest resident page.

        The per-VM key map is insertion-ordered (pages re-enter it on
        every fault-in), so its first key is the VM's oldest resident
        page -- FIFO within the partition, deterministic.
        """
        pages = self._vm_pages.get(vm_id)
        if not pages:
            return None
        return next(iter(pages))

    def _evict_one(
        self,
        initiator_cpu: int,
        background: bool,
        victim: Optional[PageKey] = None,
    ) -> int:
        """Evict one page from die-stacked DRAM; return initiator cycles.

        ``victim`` overrides the paging policy's global choice (used by
        per-VM cap enforcement to evict the capped guest's own page).
        """
        key = victim if victim is not None else self.policy.select_victim()
        if key is None:
            return 0
        vm_id, gpp = key
        vm = self._vms[vm_id]
        fast_spp = self.resident.pop(key)
        self._resident_by_spp.pop(fast_spp, None)
        vm_pages = self._vm_pages.get(vm_id)
        if vm_pages is not None:
            vm_pages.pop(key, None)
        leaf = vm.nested_page_table.lookup(gpp)
        pte_address = leaf.address
        old_spp = leaf.pfn

        slow_spp = self.memory.slow.allocate()
        vm.nested_page_table.unmap(gpp)
        self.backing[key] = slow_spp
        self.memory.fast.free(fast_spp)
        self.policy.on_page_evicted(key)

        cycles = self.costs.page_copy
        if background:
            self.stats.charge_background(cycles)
        else:
            self.stats.charge_cpu(initiator_cpu, cycles)
        self.stats.count("paging.evictions")
        self._count_vm(vm, "paging.evictions")
        self._count_vm(vm, "coherence.remaps")

        event = RemapEvent(
            initiator_cpu=initiator_cpu,
            target_cpus=vm.target_cpus,
            gpp=gpp,
            old_spp=old_spp,
            new_spp=None,
            pte_address=pte_address,
            vm_id=vm_id,
            background=background,
        )
        self.protocol.on_nested_remap(event)
        return cycles

    def _run_migration_daemon(self, cpu: int) -> None:
        """Keep a pool of free die-stacked frames, evicting in the background."""
        target = self.config.paging.daemon_free_target
        if self.memory.fast.free_frames >= target:
            return
        self.stats.charge_background(self.costs.daemon_wakeup)
        self.stats.count("paging.daemon_wakeups")
        while self.memory.fast.free_frames < target:
            if self._evict_one(cpu, background=True) == 0:
                break

    # ------------------------------------------------------------------
    # access-time hooks
    # ------------------------------------------------------------------
    def on_data_access(self, spp: int, cpu: int) -> int:
        """Observe a data access; return any cycles charged to the CPU.

        Keeps the paging policy's recency state up to date and, when the
        defragmentation knob is enabled, periodically remaps a resident
        page within die-stacked DRAM the way a real hypervisor compacts
        memory to create superpages -- a translation-coherence event that
        occurs even for workloads that never page to off-chip DRAM.
        """
        if self.config.placement != PLACEMENT_PAGED:
            return 0
        key = self._resident_by_spp.get(spp)
        if key is not None:
            self.policy.on_access(key)
        interval = self.config.paging.defrag_interval
        if interval <= 0:
            return 0
        self._accesses_since_defrag += 1
        if self._accesses_since_defrag < interval:
            return 0
        self._accesses_since_defrag = 0
        return self._defragment_one(cpu)

    def _defragment_one(self, cpu: int) -> int:
        """Remap one resident page to a different die-stacked frame."""
        if not self.resident or self.memory.fast.free_frames < 1:
            return 0
        key = next(iter(self.resident))
        vm_id, gpp = key
        vm = self._vms[vm_id]
        old_spp = self.resident[key]
        new_spp = self.memory.fast.allocate()
        leaf = vm.nested_page_table.remap(gpp, new_spp)
        self.memory.fast.free(old_spp)
        self._resident_by_spp.pop(old_spp, None)
        self.resident[key] = new_spp
        self._resident_by_spp[new_spp] = key
        cycles = self.costs.page_copy
        self.stats.charge_cpu(cpu, cycles)
        self.stats.count("paging.defrag_remaps")
        self._count_vm(vm, "paging.defrag_remaps")
        self._count_vm(vm, "coherence.remaps")
        event = RemapEvent(
            initiator_cpu=cpu,
            target_cpus=vm.target_cpus,
            gpp=gpp,
            old_spp=old_spp,
            new_spp=new_spp,
            pte_address=leaf.address,
            vm_id=vm_id,
            background=False,
        )
        self.protocol.on_nested_remap(event)
        return cycles

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        """Data pages currently resident in die-stacked DRAM."""
        return len(self.resident)

    @property
    def evicted_pages(self) -> int:
        """Data pages currently parked in off-chip DRAM."""
        return len(self.backing)

    def resident_pages_of(self, vm_id: int) -> int:
        """Data pages one VM currently keeps in die-stacked DRAM."""
        return len(self._vm_pages.get(vm_id, ()))

    @classmethod
    def adjust_costs(cls, costs):
        """Return the cost model adjusted for this hypervisor's software stack."""
        return costs
