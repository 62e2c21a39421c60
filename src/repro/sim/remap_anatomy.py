"""Single-remap cost microbenchmark (Figure 3 and Section 3.2/3.3).

Triggers exactly one nested page table remap after every CPU has cached
the victim page's translation and reports what the configured
translation coherence mechanism does about it: IPIs, VM exits, entries
invalidated versus flushed, and the cycles landing on the initiator and
the targets.

This lives in :mod:`repro.sim` (not in the experiments layer) so the
:mod:`repro.api` session engine can execute remap-anatomy requests the
same way it executes trace-driven simulation requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cotag import CoTagScheme
from repro.core.protocol import RemapEvent, make_protocol
from repro.cpu.chip import Chip
from repro.sim.config import SystemConfig
from repro.sim.stats import MachineStats
from repro.virt.kvm import KvmHypervisor


@dataclass
class AnatomyRow:
    """Cost breakdown of one remap under one mechanism."""

    protocol: str
    initiator_cycles: int
    total_target_cycles: int
    max_target_cycles: int
    ipis: int
    vm_exits: int
    entries_invalidated: int
    entries_flushed: int


def single_remap_cost(config: SystemConfig) -> AnatomyRow:
    """Measure one fully-shared page remap on ``config``'s machine."""
    num_cpus = config.num_cpus
    protocol = make_protocol(config.protocol)
    stats = MachineStats(num_cpus)
    cotag_scheme = (
        CoTagScheme(config.translation.cotag_bytes) if protocol.uses_cotags else None
    )
    chip = Chip(
        config,
        stats,
        cotag_scheme=cotag_scheme,
        track_translation_sharers=protocol.tracks_translation_sharers,
    )
    protocol.bind(chip, stats, config.costs)
    hypervisor = KvmHypervisor(chip, config, protocol, stats)
    try:
        return _measure_remap(hypervisor)
    finally:
        # acyclic once closed, so reference counting frees the machine
        hypervisor.close()
        chip.close()


def _measure_remap(hypervisor: KvmHypervisor) -> AnatomyRow:
    """Share one page across every CPU, remap it, and report the cost."""
    config, chip = hypervisor.config, hypervisor.chip
    protocol, stats = hypervisor.protocol, hypervisor.stats
    num_cpus = config.num_cpus
    vm = hypervisor.create_vm(vcpu_pcpus=list(range(num_cpus)))
    process = vm.create_process()

    # Every CPU touches the same page so all of them cache its translation.
    gvp = 0x40000
    gpp = process.ensure_guest_mapping(gvp)
    hypervisor.handle_nested_fault(process, gpp, cpu=0)
    for cpu in range(num_cpus):
        outcome = chip.core(cpu).translate(process, gvp)
        assert outcome.fault is None

    resident_before = chip.total_resident_translations()
    leaf = process.nested_page_table.lookup(gpp)
    event = RemapEvent(
        initiator_cpu=0,
        target_cpus=vm.target_cpus,
        gpp=gpp,
        old_spp=leaf.pfn,
        new_spp=None,
        pte_address=leaf.address,
        vm_id=vm.vm_id,
    )
    cost = protocol.on_nested_remap(event)
    resident_after = chip.total_resident_translations()

    events = stats.events
    return AnatomyRow(
        protocol=config.protocol,
        initiator_cycles=cost.initiator_cycles,
        total_target_cycles=sum(cost.target_cycles.values()),
        max_target_cycles=max(cost.target_cycles.values(), default=0),
        ipis=events.get("coherence.ipis", 0),
        vm_exits=events.get("coherence.vm_exits", 0),
        entries_invalidated=resident_before - resident_after,
        entries_flushed=events.get("coherence.flushed_entries", 0)
        + events.get("unitd.flushed_entries", 0),
    )
