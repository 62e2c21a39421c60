"""Deterministic machine snapshots: serialize, restore, continue.

A snapshot is a complete, versioned, JSON-compatible description of a
mid-run simulated machine: every cache line and translation entry (in
LRU order), the coherence directory, both radix page table dimensions,
the hypervisor's paging state, the memory allocators, the statistics
accumulated since the warmup reset, and the telemetry anchors of the
interval collector.  The defining property, enforced by
``tests/test_snapshot.py`` across a fuzz matrix of shapes, protocols
and engines, is:

    *restore-then-continue is bit-identical to a straight-through run*
    -- same result fingerprint, same post-run machine digest -- on both
    the reference and fast engines (and across them, since the engines
    are themselves bit-identical).

Snapshots are captured only at **round-aligned** executor positions
(every stream at ``warmup_start + k * chunk``), because those are
exactly the states that a longer run over the same trace prefix also
passes through; that is what lets :class:`repro.api.session.Session`
answer a ``refs_total`` sweep by restoring the longest cached
checkpoint and simulating only the tail.

Reuse is guarded twice: the snapshot carries its own schema version
(:data:`SNAPSHOT_SCHEMA_VERSION`), and it records a digest of the exact
trace prefix it executed, which :meth:`RestoredRun.resume` re-verifies
against the new trace.  A checkpoint can therefore never resurrect onto
a machine, a schema, or a reference stream it was not captured from --
in particular, raw workload generators are *not* prefix-stable in
``refs_total`` (see ``src/repro/workloads/README.md``), and the digest
guard is what turns that from a correctness hazard into a cache miss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.coherence.directory import DirectoryEntry, DirectoryStats, SharerKind
from repro.mem.cache import Cache, CacheLine, CacheStats
from repro.sim.config import config_from_dict, config_to_dict
from repro.sim.simulator import Simulator, SimulationResult
from repro.sim.stats import CpuStats, EventCounter, IntervalSample, VmStats
from repro.translation.page_table import (
    PAGE_TABLE_LEVELS,
    PageTableEntry,
    RadixPageTable,
    _Node,
)
from repro.translation.structures import (
    TranslationEntry,
    TranslationStructureStats,
)
from repro.translation.walker import WalkStats
from repro.virt.paging import ClockPolicy, FifoPolicy
from repro.workloads.base import WorkloadTrace

#: Version of the snapshot payload layout.  Bumped whenever the
#: serialized machine state changes shape *or* whenever simulator
#: behaviour changes in a way that makes old mid-run state unreusable.
#: Stamped into every snapshot; :func:`validate_snapshot` refuses any
#: other value, so stale on-disk checkpoints can never resurrect.
SNAPSHOT_SCHEMA_VERSION = 1


class SnapshotError(ValueError):
    """A snapshot payload is unusable for the attempted restore."""


class SnapshotSchemaError(SnapshotError):
    """A snapshot was produced by an incompatible schema version."""


# ----------------------------------------------------------------------
# trace prefix identity
# ----------------------------------------------------------------------
def trace_prefix_digest(trace: WorkloadTrace, positions: list[int]) -> str:
    """Content hash of the exact per-stream prefixes at ``positions``.

    Two traces agree on this digest iff they would feed the executor the
    same references (addresses *and* write flags) up to the checkpoint,
    which is the precondition for restore-then-continue to reproduce a
    straight-through run.
    """
    if len(positions) != trace.num_vcpus:
        raise SnapshotError(
            f"positions name {len(positions)} streams, trace has "
            f"{trace.num_vcpus}"
        )
    digest = hashlib.sha256()
    for stream, writes, position in zip(trace.streams, trace.writes, positions):
        if not 0 <= position <= len(stream):
            raise SnapshotError(
                f"position {position} outside stream of {len(stream)} refs"
            )
        digest.update(b"s%d:" % position)
        digest.update(
            np.ascontiguousarray(stream[:position], dtype=np.int64).tobytes()
        )
        digest.update(
            np.ascontiguousarray(writes[:position], dtype=np.bool_).tobytes()
        )
    return digest.hexdigest()


# ----------------------------------------------------------------------
# low-level encoders / decoders
# ----------------------------------------------------------------------
def _encode_key(key: Any) -> Any:
    return list(key) if isinstance(key, tuple) else key


def _decode_key(key: Any) -> Any:
    return tuple(key) if isinstance(key, list) else key


def _encode_structure(structure) -> dict[str, Any]:
    return {
        "name": structure.name,
        "stats": vars(structure.stats).copy(),
        "entries": [
            [_encode_key(entry.key), entry.value, entry.cotag, entry.pt_line]
            for entry in structure._entries.values()
        ],
    }


def _load_structure(structure, data: dict[str, Any]) -> None:
    entries = structure._entries
    entries.clear()
    for key, value, cotag, pt_line in data["entries"]:
        decoded = _decode_key(key)
        entries[decoded] = TranslationEntry(
            key=decoded, value=value, cotag=cotag, pt_line=pt_line
        )
    structure.stats = TranslationStructureStats(**data["stats"])
    if hasattr(structure, "_fast_init_index"):
        # fast-engine structure: rebuild the co-tag / pt-line indexes
        structure._fast_init_index()


def _encode_cache(cache: Cache) -> dict[str, Any]:
    return {
        "stats": vars(cache.stats).copy(),
        "sets": [
            [
                [line.address, line.dirty, line.is_page_table]
                for line in cache_set.values()
            ]
            for cache_set in cache._sets
        ],
    }


def _load_cache(cache: Cache, data: dict[str, Any]) -> None:
    if len(data["sets"]) != cache.num_sets:
        raise SnapshotError(
            f"cache {cache.name} has {cache.num_sets} sets, snapshot has "
            f"{len(data['sets'])}"
        )
    for cache_set, lines in zip(cache._sets, data["sets"]):
        cache_set.clear()
        for address, dirty, is_page_table in lines:
            cache_set[address] = CacheLine(
                address=address, dirty=dirty, is_page_table=is_page_table
            )
    cache.stats = CacheStats(**data["stats"])


def _encode_directory(directory) -> dict[str, Any]:
    return {
        "stats": vars(directory.stats).copy(),
        "entries": [
            [
                entry.line,
                sorted(entry.sharers),
                entry.owner,
                entry.is_nested_pt,
                entry.is_guest_pt,
                [
                    [kind.value, sorted(cpus)]
                    for kind, cpus in entry.fine_sharers.items()
                ],
            ]
            for entry in directory._entries.values()
        ],
    }


def _load_directory(directory, data: dict[str, Any]) -> None:
    entries = directory._entries
    entries.clear()
    for line, sharers, owner, is_nested, is_guest, fine in data["entries"]:
        entry = DirectoryEntry(
            line=line,
            sharers=set(sharers),
            owner=owner,
            is_nested_pt=is_nested,
            is_guest_pt=is_guest,
        )
        entry.fine_sharers = {
            SharerKind(kind): set(cpus) for kind, cpus in fine
        }
        entries[line] = entry
    directory.stats = DirectoryStats(**data["stats"])


def _encode_node(node: _Node) -> dict[str, Any]:
    return {
        "page": node.page_number,
        "entries": [
            [index, entry.vpn, entry.pfn, entry.accessed, entry.dirty]
            for index, entry in node.entries.items()
        ],
        "children": [
            [index, _encode_node(child)]
            for index, child in node.children.items()
        ],
    }


def _decode_node(data: dict[str, Any], level: int, counts: dict[str, int]) -> _Node:
    counts["nodes"] += 1
    node = _Node(level=level, page_number=data["page"])
    for index, vpn, pfn, accessed, dirty in data["entries"]:
        node.entries[index] = PageTableEntry(
            vpn=vpn,
            pfn=pfn,
            address=node.entry_address(index),
            level=level,
            accessed=accessed,
            dirty=dirty,
        )
        if level == 1:
            counts["leaves"] += 1
    for index, child in data["children"]:
        node.children[index] = _decode_node(child, level - 1, counts)
    return node


def _load_table(table: RadixPageTable, data: dict[str, Any]) -> None:
    counts = {"nodes": 0, "leaves": 0}
    table.root = _decode_node(data, PAGE_TABLE_LEVELS, counts)
    table.table_pages = counts["nodes"]
    table._mapped_pages = counts["leaves"]


def _encode_machine_stats(stats) -> dict[str, Any]:
    return {
        "num_cpus": stats.num_cpus,
        "cpus": [vars(cpu).copy() for cpu in stats.cpus],
        "events": dict(stats.events),
        "background_cycles": stats.background_cycles,
        "vms": [vm.to_dict() for vm in stats.vms],
        "vm_of_cpu": list(stats.vm_of_cpu),
    }


def _load_machine_stats(stats, data: dict[str, Any]) -> None:
    if data["num_cpus"] != stats.num_cpus:
        raise SnapshotError(
            f"snapshot has {data['num_cpus']} CPUs, machine has "
            f"{stats.num_cpus}"
        )
    stats.cpus = [CpuStats(**cpu) for cpu in data["cpus"]]
    stats.events = EventCounter(data["events"])
    stats.background_cycles = data["background_cycles"]
    stats.vms = [VmStats.from_dict(vm) for vm in data["vms"]]
    stats.vm_of_cpu = list(data["vm_of_cpu"])


def _encode_policy(policy) -> dict[str, Any]:
    if isinstance(policy, FifoPolicy):
        return {"kind": "fifo", "queue": [list(key) for key in policy._queue]}
    if isinstance(policy, ClockPolicy):
        return {
            "kind": "lru",
            "pages": [
                [list(key), referenced]
                for key, referenced in policy._pages.items()
            ],
        }
    raise SnapshotError(  # pragma: no cover - no third policy exists today
        f"cannot snapshot paging policy {type(policy).__name__}"
    )


def _load_policy(policy, data: dict[str, Any]) -> None:
    if isinstance(policy, FifoPolicy):
        if data["kind"] != "fifo":
            raise SnapshotError("paging policy kind mismatch")
        policy._queue.clear()
        for key in data["queue"]:
            policy._queue[tuple(key)] = None
        return
    if isinstance(policy, ClockPolicy):
        if data["kind"] != "lru":
            raise SnapshotError("paging policy kind mismatch")
        policy._pages.clear()
        for key, referenced in data["pages"]:
            policy._pages[tuple(key)] = referenced
        return
    raise SnapshotError(  # pragma: no cover - no third policy exists today
        f"cannot restore paging policy {type(policy).__name__}"
    )


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def _global_processes(simulator: Simulator, trace: WorkloadTrace) -> list:
    """The run's guest processes in global creation order.

    Process indices in ``trace.process_of_vcpu`` refer to this order;
    within each VM, ``vm.processes`` preserves it, and across VMs the
    per-process owning VM is recoverable from the trace.
    """
    hypervisor = simulator.hypervisor
    vms = list(hypervisor._vms.values())
    if trace.vm_of_vcpu is None:
        return list(vms[0].processes)
    vm_of_process: dict[int, int] = {}
    for stream, process in enumerate(trace.process_of_vcpu):
        vm_of_process.setdefault(process, trace.vm_of_vcpu[stream])
    cursors = [0] * len(vms)
    processes = []
    for process in range(trace.num_processes):
        vm_index = vm_of_process[process]
        processes.append(vms[vm_index].processes[cursors[vm_index]])
        cursors[vm_index] += 1
    return processes


def capture_snapshot(
    simulator: Simulator,
    trace: WorkloadTrace,
    *,
    positions: list[int],
    warmup_starts: list[int],
    warmup_executed: int,
    executed_refs: int,
    intervals: list[IntervalSample],
    interval_refs: Optional[int] = None,
    anchor: Optional[dict] = None,
    anchor_refs: int = 0,
) -> dict[str, Any]:
    """Serialize the complete mid-run machine state to a plain dict.

    The payload is JSON-compatible (``json.dumps`` round-trips it) and
    carries everything :func:`restore_run` needs to rebuild a simulator
    whose continuation is bit-identical to this run's remainder.
    """
    chip = simulator.chip
    hypervisor = simulator.hypervisor
    memory = chip.memory

    cores = []
    for core in chip.cores:
        cores.append(
            {
                "structures": [
                    _encode_structure(structure)
                    for structure in core.translation_structures()
                ],
                "l1": _encode_cache(core.l1),
                "l2": _encode_cache(core.l2),
                "walker_stats": vars(core.walker.stats).copy(),
            }
        )

    vms = []
    processes = []
    for vm in hypervisor._vms.values():
        vms.append(
            {
                "vm_id": vm.vm_id,
                "pcpus": [vcpu.pcpu for vcpu in vm.vcpus],
                "stats_index": vm.stats_index,
                "next_gpp": vm._next_gpp,
                "next_asid": vm._next_asid,
                "nested": _encode_node(vm.nested_page_table.root),
            }
        )
    for process in _global_processes(simulator, trace):
        processes.append(
            {
                "vm_id": process.vm.vm_id,
                "asid": process.asid,
                "guest": _encode_node(process.guest_page_table.root),
            }
        )

    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "engine": simulator.engine,
        "config": config_to_dict(simulator.requested_config),
        "workload": trace.name,
        "trace": {
            "num_vcpus": trace.num_vcpus,
            "lengths": [len(stream) for stream in trace.streams],
            "process_of_vcpu": list(trace.process_of_vcpu),
            "num_processes": trace.num_processes,
            "positions": list(positions),
            "prefix_digest": trace_prefix_digest(trace, positions),
        },
        "warmup": {
            "starts": list(warmup_starts),
            "executed": warmup_executed,
        },
        "executed_refs": executed_refs,
        "telemetry": {
            "interval_refs": interval_refs,
            "anchor_refs": anchor_refs,
            "anchor": anchor,
        },
        "intervals": [sample.to_dict() for sample in intervals],
        "stats": _encode_machine_stats(simulator.stats),
        "chip": {
            "cores": cores,
            "llc": _encode_cache(chip.llc),
            "directory": _encode_directory(chip.directory),
        },
        "memory": {
            "fast": {
                "next": memory.fast.allocator._next,
                "free": list(memory.fast.allocator._free),
                "accesses": memory.fast.accesses,
            },
            "slow": {
                "next": memory.slow.allocator._next,
                "free": list(memory.slow.allocator._free),
                "accesses": memory.slow.accesses,
            },
        },
        "hypervisor": {
            "resident": [
                [vm_id, gpp, spp]
                for (vm_id, gpp), spp in hypervisor.resident.items()
            ],
            "backing": [
                [vm_id, gpp, spp]
                for (vm_id, gpp), spp in hypervisor.backing.items()
            ],
            "vm_pages": [
                [vm_id, [list(key) for key in pages]]
                for vm_id, pages in hypervisor._vm_pages.items()
            ],
            "vm_fast_caps": [
                [vm_id, cap]
                for vm_id, cap in hypervisor._vm_fast_caps.items()
            ],
            "accesses_since_defrag": hypervisor._accesses_since_defrag,
            "policy": _encode_policy(hypervisor.policy),
        },
        "vms": vms,
        "processes": processes,
    }


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------
def validate_snapshot(data: dict[str, Any]) -> None:
    """Reject payloads this code cannot restore (wrong/missing schema)."""
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotSchemaError(
            f"snapshot has schema {schema!r}, current code expects "
            f"{SNAPSHOT_SCHEMA_VERSION}"
        )


@dataclass
class RestoredRun:
    """A simulator rebuilt from a snapshot, ready to continue.

    Produced by :func:`restore_run`; :meth:`resume` re-verifies the
    trace prefix digest and then drives the remaining references
    through :meth:`repro.sim.simulator.Simulator.resume`.
    """

    simulator: Simulator
    contexts: list
    positions: list[int]
    warmup_starts: list[int]
    warmup_executed: int
    executed_refs: int
    intervals: list[IntervalSample]
    interval_refs: Optional[int]
    anchor: Optional[dict]
    anchor_refs: int
    workload: str
    prefix_digest: str = ""

    def resume(
        self,
        trace: WorkloadTrace,
        *,
        checkpoint_refs: Optional[int] = None,
        on_checkpoint=None,
        verify_prefix: bool = True,
    ) -> SimulationResult:
        """Continue on ``trace``; bit-identical to the original run.

        Raises :class:`SnapshotError` unless ``trace`` agrees with the
        snapshot's executed prefix (same per-stream references and write
        flags up to the restored positions).  ``verify_prefix=False``
        skips re-hashing the prefix -- only for callers that just
        digested the *same* trace at the *same* positions themselves
        (the session's candidate scan).
        """
        for position, stream in zip(self.positions, trace.streams):
            if position > len(stream):
                raise SnapshotError(
                    f"trace stream of {len(stream)} refs is shorter than "
                    f"the restored position {position}"
                )
        if verify_prefix:
            digest = trace_prefix_digest(trace, self.positions)
            if digest != self.prefix_digest:
                raise SnapshotError(
                    "trace prefix does not match the snapshot's executed "
                    "prefix; the checkpoint belongs to a different "
                    "reference stream"
                )
        # Partial intervals resume from the snapshot's own anchor; the
        # driver would otherwise re-anchor at the restore point and
        # split an interval where the straight-through run would not.
        anchor = self.anchor
        if self.interval_refs is not None and anchor is None:
            anchor = self.simulator.telemetry_aggregate()
        return self.simulator.resume(
            trace,
            self.contexts,
            list(self.positions),
            warmup_starts=list(self.warmup_starts),
            warmup_executed=self.warmup_executed,
            executed_refs=self.executed_refs,
            intervals=list(self.intervals),
            anchor=anchor,
            anchor_refs=self.anchor_refs,
            interval_refs=self.interval_refs,
            checkpoint_refs=checkpoint_refs,
            on_checkpoint=on_checkpoint,
        )


def restore_run(data: dict[str, Any], engine: Optional[str] = None) -> RestoredRun:
    """Rebuild a simulator (and its guests) from a snapshot payload.

    ``engine`` selects the execution engine of the restored simulator
    exactly like the :class:`~repro.sim.simulator.Simulator`
    constructor; snapshots are engine-agnostic, so a fast-engine
    snapshot restores onto the reference engine (and vice versa) with
    bit-identical continuations.
    """
    validate_snapshot(data)
    config = config_from_dict(data["config"])
    simulator = Simulator(config, engine=engine)
    hypervisor = simulator.hypervisor
    memory = simulator.chip.memory

    # 1. Recreate VMs and guest processes through the normal lifecycle
    #    (their transient frame/page-table allocations are overwritten
    #    wholesale below, so only object wiring matters here).
    vms = []
    for vm_data in data["vms"]:
        vm = hypervisor.create_vm(vcpu_pcpus=list(vm_data["pcpus"]))
        if vm.vm_id != vm_data["vm_id"]:
            raise SnapshotError(
                f"restored VM id {vm.vm_id} != snapshot id "
                f"{vm_data['vm_id']}"
            )
        vm.stats_index = vm_data["stats_index"]
        vms.append(vm)
    by_id = {vm.vm_id: vm for vm in vms}
    processes = []
    for process_data in data["processes"]:
        vm = by_id.get(process_data["vm_id"])
        if vm is None:
            raise SnapshotError(
                f"process references unknown VM {process_data['vm_id']}"
            )
        processes.append(vm.create_process())

    # 2. Load page tables and allocation cursors.
    for vm, vm_data in zip(vms, data["vms"]):
        _load_table(vm.nested_page_table, vm_data["nested"])
        vm._next_gpp = vm_data["next_gpp"]
        vm._next_asid = vm_data["next_asid"]
    for process, process_data in zip(processes, data["processes"]):
        process.asid = process_data["asid"]
        _load_table(process.guest_page_table, process_data["guest"])
        process.guest_root_gpp = process.guest_page_table.root.page_number

    # 3. Physical memory allocators (after every transient allocation).
    for tier, tier_data in (
        (memory.fast, data["memory"]["fast"]),
        (memory.slow, data["memory"]["slow"]),
    ):
        tier.allocator._next = tier_data["next"]
        tier.allocator._free = list(tier_data["free"])
        tier.accesses = tier_data["accesses"]

    # 4. Hypervisor paging state.
    hyp_data = data["hypervisor"]
    hypervisor.resident.clear()
    hypervisor._resident_by_spp.clear()
    for vm_id, gpp, spp in hyp_data["resident"]:
        hypervisor.resident[(vm_id, gpp)] = spp
        hypervisor._resident_by_spp[spp] = (vm_id, gpp)
    hypervisor.backing.clear()
    for vm_id, gpp, spp in hyp_data["backing"]:
        hypervisor.backing[(vm_id, gpp)] = spp
    hypervisor._vm_pages.clear()
    for vm_id, pages in hyp_data["vm_pages"]:
        hypervisor._vm_pages[vm_id] = {
            tuple(key): None for key in pages
        }
    hypervisor._vm_fast_caps = {
        vm_id: cap for vm_id, cap in hyp_data["vm_fast_caps"]
    }
    hypervisor._accesses_since_defrag = hyp_data["accesses_since_defrag"]
    _load_policy(hypervisor.policy, hyp_data["policy"])

    # 5. Statistics (in place: chip, hypervisor and protocol share the
    #    object).
    _load_machine_stats(simulator.stats, data["stats"])

    # 6. Chip state: translation structures, caches, directory.  The
    #    fast engine's closures hoist the set *containers*, so contents
    #    are reloaded in place.
    chip_data = data["chip"]
    if len(chip_data["cores"]) != len(simulator.chip.cores):
        raise SnapshotError(
            f"snapshot has {len(chip_data['cores'])} cores, machine has "
            f"{len(simulator.chip.cores)}"
        )
    for core, core_data in zip(simulator.chip.cores, chip_data["cores"]):
        structures = core.translation_structures()
        if len(core_data["structures"]) != len(structures):
            raise SnapshotError("translation structure count mismatch")
        for structure, structure_data in zip(structures, core_data["structures"]):
            if structure.name != structure_data["name"]:
                raise SnapshotError(
                    f"structure order mismatch: {structure.name} vs "
                    f"{structure_data['name']}"
                )
            _load_structure(structure, structure_data)
        _load_cache(core.l1, core_data["l1"])
        _load_cache(core.l2, core_data["l2"])
        core.walker.stats = WalkStats(**core_data["walker_stats"])
    _load_cache(simulator.chip.llc, chip_data["llc"])
    _load_directory(simulator.chip.directory, chip_data["directory"])

    trace_data = data["trace"]
    contexts = [
        processes[p] for p in trace_data["process_of_vcpu"]
    ]
    telemetry = data["telemetry"]
    return RestoredRun(
        simulator=simulator,
        contexts=contexts,
        positions=list(trace_data["positions"]),
        warmup_starts=list(data["warmup"]["starts"]),
        warmup_executed=data["warmup"]["executed"],
        executed_refs=data["executed_refs"],
        intervals=[
            IntervalSample.from_dict(sample) for sample in data["intervals"]
        ],
        interval_refs=telemetry["interval_refs"],
        anchor=telemetry["anchor"],
        anchor_refs=telemetry["anchor_refs"],
        workload=data["workload"],
        prefix_digest=trace_data["prefix_digest"],
    )


__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "RestoredRun",
    "SnapshotError",
    "SnapshotSchemaError",
    "capture_snapshot",
    "restore_run",
    "trace_prefix_digest",
    "validate_snapshot",
]
