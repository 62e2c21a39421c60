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

Layout (schema 2).  Every structure that holds one item per cached
entry is stored as a few flat integer columns in LRU order, so the
number of JSON lists and dicts does not grow with occupancy and JSON
encoding and decoding pay per integer, not per nested list:

* a translation structure: ``keys`` (each lookup key's integers in
  turn: two per TLB and nTLB key, three per MMU-cache key),
  ``values``, ``cotags`` and ``pt_lines`` (-1 for none);
* a cache (L1, L2, LLC): per-set ``counts`` and one ``lines`` column of
  ``address << 2 | is_page_table << 1 | dirty``;
* the directory: ``lines`` (``line << 2 | nested << 1 | guest``),
  ``owners`` (-1 for none), a ``sharers`` bitmask per entry, and the
  sparse fine-grained rows ``fine_entries`` (entry index),
  ``fine_kinds`` and ``fine_sharers``.  Masks are plain JSON ints:
  ``num_cpus`` has no upper bound, so a mask can outgrow int64;
* the hypervisor: ``resident`` and ``backing`` as ``vm_ids``/``gpps``/
  ``spps``, ``vm_pages`` as per-VM ``counts`` over one ``gpps``
  column, and the paging policy's queue as ``vm_ids``/``gpps`` (plus
  ``referenced`` for the CLOCK policy).

The machine holds these words itself: a cache set maps each line
address to its flag word (:data:`repro.mem.cache.LINE_DIRTY`,
:data:`~repro.mem.cache.LINE_PAGE_TABLE`) and a directory entry keeps
its sharers as a CPU bit-vector, so capture reads the words and
restore writes them back.  Decoding refills the machine's existing
containers in place (the fast engine holds references to them).  It
refuses columns of unequal length and counts that do not tile their
column with :class:`SnapshotError`, because ``zip`` would silently
truncate them and restore a different machine.  It also refuses
per-CPU statistics short of ``num_cpus``, non-integer counters and
allocator state, VM columns naming an unknown VM, negative line words,
sharer masks naming a CPU the machine lacks and fine-grained sharer
rows for a directory that tracks none, which would
restore and then crash the run or change its result; every resumed
sweep point pays for these checks, so they use whole-column builtins.

Page tables keep the nested per-node codec (:func:`_encode_node`,
:func:`_load_table`).  The fleet's migration payload
(:mod:`repro.fleet.transport`) ships guest page tables with the same
codec, and its byte count feeds the pinned fleet fingerprints; page
tables are also only about 8% of a checkpoint's bytes.

Snapshots are captured only at **round-aligned** executor positions
(every stream at ``warmup_start + k * chunk``), because those are
exactly the states that a longer run over the same trace prefix also
passes through; that is what lets :class:`repro.api.session.Session`
answer a ``refs_total`` sweep by restoring the longest cached
checkpoint and simulating only the tail.

Reuse is guarded twice: the snapshot carries its own schema version
(:data:`SNAPSHOT_SCHEMA_VERSION`), and it records a digest of the exact
trace prefix it executed, which :func:`restore_run` re-verifies against
the new trace.  A checkpoint can therefore never resurrect onto
a machine, a schema, or a reference stream it was not captured from --
in particular, raw workload generators are *not* prefix-stable in
``refs_total`` (see ``src/repro/workloads/README.md``), and the digest
guard is what turns that from a correctness hazard into a cache miss.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Any, Optional

import numpy as np

from repro.coherence.directory import DirectoryEntry, DirectoryStats, SharerKind
from repro.mem.cache import LINE_DIRTY, LINE_PAGE_TABLE, Cache, CacheStats
from repro.sim.config import config_from_dict, config_to_dict
from repro.sim.simulator import Run, Simulator
from repro.sim.stats import CpuStats, EventCounter, IntervalSample, VmStats
from repro.translation.page_table import (
    PAGE_TABLE_LEVELS,
    PageTableEntry,
    RadixPageTable,
    _Node,
)
from repro.translation.structures import (
    MMUCache,
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
#: Version 2 stores per-entry state as flat integer columns.
SNAPSHOT_SCHEMA_VERSION = 2


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
# columns
# ----------------------------------------------------------------------
#: Stands for ``None`` in integer columns (co-tags, page-table lines and
#: directory owners are never negative).
_NONE = -1

#: Fine-grained sharer kinds by their column code.
_SHARER_KINDS = tuple(SharerKind)
_KIND_CODES = {kind: code for code, kind in enumerate(_SHARER_KINDS)}


def _columns(data: dict[str, Any], *names: str) -> list[Any]:
    """The named columns of ``data``, refused unless equally long.

    ``zip`` would silently truncate to the shortest column and restore
    a different machine.
    """
    columns = [data[name] for name in names]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise SnapshotError(
            f"snapshot columns {', '.join(names)} differ in length"
        )
    return columns


def _check_counts(counts: list[int], total: int, what: str) -> None:
    """Refuse per-group counts that do not tile a column of ``total``."""
    if sum(counts) != total or (counts and min(counts) < 0):
        raise SnapshotError(
            f"{what} counts do not tile its {total}-entry column"
        )


def _check_ints(values: list, what: str) -> None:
    """Refuse ``values`` unless each is an ``int``.

    A string or float restores without complaint and then crashes the
    run, or silently changes its result, once the machine reads it.
    """
    if not set(map(type, values)) <= {int}:
        raise SnapshotError(f"snapshot {what} holds a non-integer")


def _check_words(words: list[int], what: str) -> None:
    """Refuse a negative packed line word: no line address is negative."""
    if words and min(words) < 0:
        raise SnapshotError(f"snapshot {what} holds a negative line word")


def _check_vm_ids(vm_ids: list[int], known: set[int], what: str) -> None:
    """Refuse a VM column naming a VM the snapshot does not restore."""
    if not known.issuperset(vm_ids):
        raise SnapshotError(f"snapshot {what} names an unknown VM")


def _check_masks(masks: list[int], num_cpus: int, what: str) -> None:
    """Refuse a sharer mask naming a CPU outside ``0..num_cpus - 1``."""
    _check_ints(masks, what)
    if masks and (min(masks) < 0 or max(masks) >> num_cpus):
        raise SnapshotError(
            f"snapshot {what} names a CPU outside 0..{num_cpus - 1}"
        )


def _key_width(structure) -> int:
    """Integers per lookup key (see each structure's ``key_for``)."""
    return 3 if isinstance(structure, MMUCache) else 2


def _encode_structure(structure) -> dict[str, Any]:
    entries = structure._entries.values()
    return {
        "name": structure.name,
        "stats": vars(structure.stats).copy(),
        "keys": [part for entry in entries for part in entry.key],
        "values": [entry.value for entry in entries],
        "cotags": [
            _NONE if entry.cotag is None else entry.cotag for entry in entries
        ],
        "pt_lines": [
            _NONE if entry.pt_line is None else entry.pt_line
            for entry in entries
        ],
    }


def _load_structure(structure, data: dict[str, Any]) -> None:
    values, cotags, pt_lines = _columns(data, "values", "cotags", "pt_lines")
    flat_keys = data["keys"]
    width = _key_width(structure)
    if len(flat_keys) != width * len(values):
        raise SnapshotError(
            f"{structure.name} has {len(flat_keys)} key parts for "
            f"{len(values)} entries"
        )
    # each run of ``width`` consecutive integers is one key tuple
    keys = zip(*[iter(flat_keys)] * width)
    entries = structure._entries
    entries.clear()
    for key, value, cotag, pt_line in zip(keys, values, cotags, pt_lines):
        entries[key] = TranslationEntry(
            key,
            value,
            None if cotag < 0 else cotag,
            None if pt_line < 0 else pt_line,
        )
    structure.stats = TranslationStructureStats(**data["stats"])
    if hasattr(structure, "_fast_init_index"):
        # fast-engine structure: rebuild the co-tag / pt-line indexes
        structure._fast_init_index()


def _encode_cache(cache: Cache) -> dict[str, Any]:
    sets = cache._sets
    return {
        "stats": vars(cache.stats).copy(),
        "counts": [len(cache_set) for cache_set in sets],
        "lines": [
            address << 2 | flags
            for cache_set in sets
            for address, flags in cache_set.items()
        ],
    }


def _load_cache(cache: Cache, data: dict[str, Any]) -> None:
    counts = data["counts"]
    words = data["lines"]
    if len(counts) != cache.num_sets:
        raise SnapshotError(
            f"cache {cache.name} has {cache.num_sets} sets, snapshot has "
            f"{len(counts)}"
        )
    _check_counts(counts, len(words), f"cache {cache.name} set")
    _check_words(words, f"cache {cache.name}")
    flag_bits = LINE_DIRTY | LINE_PAGE_TABLE
    remaining = iter(words)
    for cache_set, count in zip(cache._sets, counts):
        cache_set.clear()
        for word in islice(remaining, count):
            cache_set[word >> 2] = word & flag_bits
    cache.stats = CacheStats(**data["stats"])


def _encode_directory(directory) -> dict[str, Any]:
    entries = list(directory._entries.values())
    fine = [
        (index, _KIND_CODES[kind], mask)
        for index, entry in enumerate(entries)
        if entry.fine_sharers
        for kind, mask in entry.fine_sharers.items()
    ]
    return {
        "stats": vars(directory.stats).copy(),
        "lines": [
            entry.line << 2 | entry.is_nested_pt << 1 | entry.is_guest_pt
            for entry in entries
        ],
        "owners": [
            _NONE if entry.owner is None else entry.owner
            for entry in entries
        ],
        "sharers": [entry.sharers for entry in entries],
        "fine_entries": [index for index, _, _ in fine],
        "fine_kinds": [kind for _, kind, _ in fine],
        "fine_sharers": [mask for _, _, mask in fine],
    }


def _load_directory(directory, data: dict[str, Any]) -> None:
    words, owners, masks = _columns(data, "lines", "owners", "sharers")
    fine_entries, fine_kinds, fine_masks = _columns(
        data, "fine_entries", "fine_kinds", "fine_sharers"
    )
    _check_words(words, "directory")
    _check_masks(masks, directory.num_cpus, "directory sharers")
    _check_masks(fine_masks, directory.num_cpus, "directory fine sharers")
    fine_grained = directory.fine_grained
    entries = directory._entries
    entries.clear()
    for word, owner, mask in zip(words, owners, masks):
        line = word >> 2
        entries[line] = DirectoryEntry(
            line,
            mask,
            None if owner < 0 else owner,
            word & 2 == 2,
            word & 1 == 1,
            {} if fine_grained else None,
        )
    if len(entries) != len(words):
        raise SnapshotError("snapshot directory repeats a line")
    if fine_entries:
        if not fine_grained:
            raise SnapshotError(
                "snapshot has fine-grained sharer rows for a directory "
                "without fine-grained tracking"
            )
        loaded = list(entries.values())
        kinds = len(_SHARER_KINDS)
        for index, kind, mask in zip(fine_entries, fine_kinds, fine_masks):
            if not (0 <= index < len(loaded) and 0 <= kind < kinds):
                raise SnapshotError(
                    f"fine-grained sharer row ({index}, {kind}) names no "
                    f"directory entry or sharer kind"
                )
            loaded[index].fine_sharers[_SHARER_KINDS[kind]] = mask
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
    num_cpus = stats.num_cpus
    if (data["num_cpus"], len(data["cpus"]), len(data["vm_of_cpu"])) != (
        num_cpus, num_cpus, num_cpus
    ):
        raise SnapshotError(
            f"snapshot statistics do not describe the machine's "
            f"{num_cpus} CPUs"
        )
    stats.cpus = [CpuStats(**cpu) for cpu in data["cpus"]]
    stats.events = EventCounter(data["events"])
    stats.background_cycles = data["background_cycles"]
    stats.vms = [VmStats.from_dict(vm) for vm in data["vms"]]
    stats.vm_of_cpu = list(data["vm_of_cpu"])


def _key_columns(keys) -> dict[str, list[int]]:
    """``(vm_id, gpp)`` page keys as a VM column and a page column."""
    return {
        "vm_ids": [vm_id for vm_id, _ in keys],
        "gpps": [gpp for _, gpp in keys],
    }


def _encode_page_map(pages: dict) -> dict[str, list[int]]:
    """A ``(vm_id, gpp) -> spp`` map as three columns, in map order."""
    return {**_key_columns(pages), "spps": list(pages.values())}


def _load_page_map(pages: dict, data: dict[str, Any]) -> None:
    vm_ids, gpps, spps = _columns(data, "vm_ids", "gpps", "spps")
    pages.clear()
    pages.update(zip(zip(vm_ids, gpps), spps))


def _encode_vm_pages(vm_pages: dict) -> dict[str, list[int]]:
    # every key of a VM's map is ``(vm_id, gpp)`` of that VM
    # (``Hypervisor._fault_in`` is its only writer), so pages are
    # stored by their gpp alone
    return {
        "vm_ids": list(vm_pages),
        "counts": [len(pages) for pages in vm_pages.values()],
        "gpps": [gpp for pages in vm_pages.values() for _, gpp in pages],
    }


def _load_vm_pages(vm_pages: dict, data: dict[str, Any]) -> None:
    vm_ids, counts = _columns(data, "vm_ids", "counts")
    gpps = data["gpps"]
    _check_counts(counts, len(gpps), "per-VM page")
    vm_pages.clear()
    start = 0
    for vm_id, count in zip(vm_ids, counts):
        end = start + count
        vm_pages[vm_id] = dict.fromkeys(
            [(vm_id, gpp) for gpp in gpps[start:end]]
        )
        start = end


def _encode_policy(policy) -> dict[str, Any]:
    if isinstance(policy, FifoPolicy):
        return {"kind": "fifo", **_key_columns(policy._queue)}
    if isinstance(policy, ClockPolicy):
        return {
            "kind": "lru",
            **_key_columns(policy._pages),
            "referenced": [int(bit) for bit in policy._pages.values()],
        }
    raise SnapshotError(  # pragma: no cover - no third policy exists today
        f"cannot snapshot paging policy {type(policy).__name__}"
    )


def _load_policy(policy, data: dict[str, Any]) -> None:
    if isinstance(policy, FifoPolicy):
        if data["kind"] != "fifo":
            raise SnapshotError("paging policy kind mismatch")
        vm_ids, gpps = _columns(data, "vm_ids", "gpps")
        policy._queue.clear()
        policy._queue.update(dict.fromkeys(zip(vm_ids, gpps)))
        return
    if isinstance(policy, ClockPolicy):
        if data["kind"] != "lru":
            raise SnapshotError("paging policy kind mismatch")
        vm_ids, gpps, referenced = _columns(
            data, "vm_ids", "gpps", "referenced"
        )
        policy._pages.clear()
        policy._pages.update(
            zip(zip(vm_ids, gpps), [bit == 1 for bit in referenced])
        )
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


def capture_snapshot(run: Run, positions: list[int]) -> dict[str, Any]:
    """Serialize a run's complete mid-run machine state to a plain dict.

    ``positions`` are the round-aligned per-stream positions the machine
    state belongs to.  The payload is JSON-compatible (``json.dumps``
    round-trips it) and carries everything :func:`restore_run` needs to
    rebuild a run whose continuation is bit-identical to this run's
    remainder.
    """
    simulator = run.simulator
    trace = run.trace
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
            "starts": list(run.warmup_starts),
            "executed": run.warmup_executed,
        },
        "executed_refs": run.executed_refs,
        "telemetry": {
            "interval_refs": run.interval_refs,
            "anchor_refs": run.anchor_refs,
            "anchor": run.anchor,
        },
        "intervals": [sample.to_dict() for sample in run.intervals],
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
            "resident": _encode_page_map(hypervisor.resident),
            "backing": _encode_page_map(hypervisor.backing),
            "vm_pages": _encode_vm_pages(hypervisor._vm_pages),
            "vm_fast_caps": {
                "vm_ids": list(hypervisor._vm_fast_caps),
                "caps": list(hypervisor._vm_fast_caps.values()),
            },
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


def restore_run(
    data: dict[str, Any], trace: WorkloadTrace, engine: Optional[str] = None
) -> Run:
    """Rebuild a run from a snapshot, ready for :meth:`Simulator.resume`.

    Raises :class:`SnapshotError` before building any machine unless the
    snapshot can continue on ``trace``: a current schema, positions at
    or past the warmup starts, and the same per-stream references and
    write flags up to the positions (the prefix digest, which also
    rejects positions beyond the ends of ``trace``'s streams).

    ``engine`` selects the execution engine of the restored simulator
    exactly like the :class:`~repro.sim.simulator.Simulator`
    constructor; snapshots are engine-agnostic, so a fast-engine
    snapshot restores onto the reference engine (and vice versa) with
    bit-identical continuations.
    """
    validate_snapshot(data)
    trace_data = data["trace"]
    positions = list(trace_data["positions"])
    starts = list(data["warmup"]["starts"])
    if len(starts) != len(positions) or any(
        position < start for position, start in zip(positions, starts)
    ):
        raise SnapshotError(
            f"snapshot positions {positions} are not at or past its "
            f"warmup starts {starts}"
        )
    if trace_prefix_digest(trace, positions) != trace_data["prefix_digest"]:
        raise SnapshotError(
            "trace prefix does not match the snapshot's executed prefix; "
            "the checkpoint belongs to a different reference stream"
        )
    config = config_from_dict(data["config"])
    simulator = Simulator(config, engine=engine)
    try:
        return _load_run(simulator, data, trace, positions, starts)
    except BaseException:
        # a half-restored machine is nobody's: free it now, not at the
        # next full collection (the caller may scan further candidates)
        simulator.close()
        raise


def _load_run(
    simulator: Simulator,
    data: dict[str, Any],
    trace: WorkloadTrace,
    positions: list[int],
    starts: list[int],
) -> Run:
    """Load a snapshot's state into ``simulator``'s fresh machine."""
    trace_data = data["trace"]
    hypervisor = simulator.hypervisor
    memory = simulator.chip.memory

    # 1. Recreate VMs and guest processes through the normal lifecycle
    #    (their transient frame/page-table allocations are overwritten
    #    wholesale below, so only object wiring matters here).
    vms = []
    num_cpus = len(simulator.chip.cores)
    for vm_data in data["vms"]:
        pcpus = list(vm_data["pcpus"])
        if not all(0 <= pcpu < num_cpus for pcpu in pcpus):
            raise SnapshotError(
                f"snapshot pins vCPUs to {pcpus}, machine has {num_cpus} CPUs"
            )
        vm = hypervisor.create_vm(vcpu_pcpus=pcpus)
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
    process_of_vcpu = trace_data["process_of_vcpu"]
    if len(process_of_vcpu) != trace.num_vcpus or not all(
        0 <= process < len(processes) for process in process_of_vcpu
    ):
        raise SnapshotError(
            f"snapshot maps {trace.num_vcpus} streams to processes "
            f"{process_of_vcpu}, but has {len(processes)}"
        )

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
        _check_ints([tier_data["next"], tier_data["accesses"]], "allocator")
        _check_ints(tier_data["free"], "free list")
        tier.allocator._next = tier_data["next"]
        tier.allocator._free = list(tier_data["free"])
        tier.accesses = tier_data["accesses"]

    # 4. Hypervisor paging state.
    hyp_data = data["hypervisor"]
    known_vms = set(by_id)
    for what in ("resident", "backing", "vm_pages", "policy"):
        _check_vm_ids(hyp_data[what]["vm_ids"], known_vms, what)
    _load_page_map(hypervisor.resident, hyp_data["resident"])
    hypervisor._resident_by_spp.clear()
    hypervisor._resident_by_spp.update(
        zip(hypervisor.resident.values(), hypervisor.resident)
    )
    _load_page_map(hypervisor.backing, hyp_data["backing"])
    _load_vm_pages(hypervisor._vm_pages, hyp_data["vm_pages"])
    hypervisor._vm_fast_caps.clear()
    hypervisor._vm_fast_caps.update(
        zip(*_columns(hyp_data["vm_fast_caps"], "vm_ids", "caps"))
    )
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

    _check_ints([data["warmup"]["executed"], data["executed_refs"]], "counter")
    telemetry = data["telemetry"]
    run = Run(
        simulator,
        trace,
        [processes[process] for process in process_of_vcpu],
        interval_refs=telemetry["interval_refs"],
    )
    run.warmup_starts = starts
    run.warmup_executed = data["warmup"]["executed"]
    run.positions = positions
    run.executed_refs = data["executed_refs"]
    run.intervals = [
        IntervalSample.from_dict(sample) for sample in data["intervals"]
    ]
    run.anchor = telemetry["anchor"]
    run.anchor_refs = telemetry["anchor_refs"]
    return run


__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "SnapshotError",
    "SnapshotSchemaError",
    "capture_snapshot",
    "restore_run",
    "trace_prefix_digest",
    "validate_snapshot",
]
