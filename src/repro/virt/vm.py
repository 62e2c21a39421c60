"""Virtual machines, vCPUs and guest processes.

A :class:`VirtualMachine` owns the nested page table (one per VM, managed
by the hypervisor) and a guest physical address space.  Inside it live
one or more :class:`GuestProcess` instances, each with its own guest page
table -- the distinction matters for the paper's multiprogrammed
experiments (Figure 10): the hypervisor only knows which physical CPUs a
*VM* has run on, not which ones a given *process* used, so software
translation coherence over-invalidates across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.translation.page_table import GuestPageTable, NestedPageTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.virt.hypervisor import Hypervisor


@dataclass
class VCpu:
    """One virtual CPU, pinned to a physical CPU for the whole run."""

    vcpu_id: int
    pcpu: int


class GuestProcess:
    """One process (address space) inside a guest VM.

    The process doubles as the walker's address-space context: its
    ``vm_id`` attribute is a globally unique address space identifier
    (ASID), so translations of different processes never alias in the
    TLBs even though they share the VM's nested page table.
    """

    def __init__(self, asid: int, vm: "VirtualMachine") -> None:
        self.asid = asid
        self.vm = vm
        self.guest_page_table = GuestPageTable(vm.allocate_guest_table_frame)
        self.guest_root_gpp = self.guest_page_table.root.page_number

    # The walker's AddressSpaceContext protocol -------------------------
    @property
    def vm_id(self) -> int:
        """Address space tag used by translation structure lookups."""
        return self.asid

    @property
    def nested_page_table(self) -> NestedPageTable:
        """The owning VM's nested page table."""
        return self.vm.nested_page_table

    # Guest OS behaviour -------------------------------------------------
    def ensure_guest_mapping(self, gvp: int) -> int:
        """Map ``gvp`` on first touch (guest OS demand allocation).

        Returns the guest physical page backing the virtual page.
        """
        entry = self.guest_page_table.lookup(gvp)
        if entry is not None:
            return entry.pfn
        gpp = self.vm.allocate_guest_data_frame()
        self.guest_page_table.map(gvp, gpp)
        return gpp

    def gpp_of(self, gvp: int) -> Optional[int]:
        """Return the GPP currently mapped for ``gvp``, if any."""
        entry = self.guest_page_table.lookup(gvp)
        return entry.pfn if entry is not None else None


class VirtualMachine:
    """A guest VM: nested page table, guest physical memory, vCPUs."""

    def __init__(
        self,
        vm_id: int,
        hypervisor: "Hypervisor",
        vcpu_pcpus: list[int],
        first_asid: int = 1,
    ) -> None:
        self.vm_id = vm_id
        self.hypervisor = hypervisor
        #: index of this VM in the machine's per-VM statistics
        #: (:attr:`repro.sim.stats.MachineStats.vms`); None when the run
        #: does not track per-VM counters.
        self.stats_index: Optional[int] = None
        self.vcpus = [VCpu(i, pcpu) for i, pcpu in enumerate(vcpu_pcpus)]
        self.nested_page_table = NestedPageTable(
            hypervisor.allocate_nested_table_frame
        )
        self._next_gpp = 1
        self._next_asid = first_asid
        self.processes: list[GuestProcess] = []

    # ------------------------------------------------------------------
    # guest physical memory management
    # ------------------------------------------------------------------
    def allocate_guest_table_frame(self) -> int:
        """Allocate a guest frame for a guest page table page.

        Page table pages are immediately backed with system memory (the
        hypervisor pins them), so page walks never take nested faults on
        the guest page table itself.
        """
        gpp = self._next_gpp
        self._next_gpp += 1
        self.hypervisor.back_guest_frame(self, gpp, is_page_table=True)
        return gpp

    def allocate_guest_data_frame(self) -> int:
        """Allocate a guest frame for data; backed lazily on first access."""
        gpp = self._next_gpp
        self._next_gpp += 1
        return gpp

    # ------------------------------------------------------------------
    # processes and CPUs
    # ------------------------------------------------------------------
    def create_process(self) -> GuestProcess:
        """Create a new guest process with its own guest page table."""
        process = GuestProcess(self._next_asid, self)
        self._next_asid += 1
        self.processes.append(process)
        return process

    def close(self) -> None:
        """Cut this VM's and its processes' links back up the machine.

        A process reaches its VM and the VM its hypervisor, directly and
        through their page-table frame allocators; without those links a
        finished machine is acyclic (see ``Simulator.close``).  A closed
        VM can neither fault nor allocate.
        """
        for process in self.processes:
            process.vm = None
            process.guest_page_table._allocate_table_page = None
        self.hypervisor = None
        self.nested_page_table._allocate_table_page = None

    @property
    def num_vcpus(self) -> int:
        """Number of virtual CPUs configured for this VM."""
        return len(self.vcpus)

    @property
    def target_cpus(self) -> list[int]:
        """Physical CPUs that may hold this VM's translations.

        The hypervisor tracks VM-to-physical-CPU affinity only at VM
        granularity, so this is the conservative set software translation
        coherence must interrupt.
        """
        return sorted({vcpu.pcpu for vcpu in self.vcpus})

    def pcpu_of(self, vcpu_id: int) -> int:
        """Return the physical CPU a vCPU is pinned to."""
        return self.vcpus[vcpu_id].pcpu
