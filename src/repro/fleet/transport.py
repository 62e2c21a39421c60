"""VM-scoped migration transport: capture on source, restore on target.

A fleet migration moves one guest between two simulated hosts.  The
transport payload is the VM's *architectural* state -- its guest page
tables (the structures live migration actually ships), per-process
ASIDs, and the VM's allocation cursors.  Host-local state (nested
mappings, residency, cache contents) deliberately stays behind: the
destination demand-faults the guest's pages back in, which is exactly
the post-migration cold-start the paper's dirty-logging storm then
amplifies into translation-coherence traffic.

Payloads reuse the machine snapshot's node codec and schema stamp, so
the fleet layer inherits PR 5's versioning guarantees: a payload from a
different snapshot schema can never restore.

Correctness notes (enforced by ``tests/test_fleet.py``):

* Every host creates *all* of the fleet's VMs at machine build time, in
  the same deterministic order, so VM ids, ASIDs and initial page-table
  frame numbers line up across hosts and a payload restores onto the
  VM object with the same identity.
* Guest page tables are monotone (mappings are never re-pointed), and
  the transplanted tree is always a superset of the target host's copy
  for that VM; stale TLB and cache state from a previous residency
  therefore remains *correct*, it is merely warm.
* Page-table frames are pinned (never paged), so after a transplant the
  target must eagerly back any guest-PT frame its nested table has not
  seen; the walker would otherwise nested-fault a PT page through the
  data-page path and fault in the wrong frame.
"""

from __future__ import annotations

import json
from typing import Any

from repro.sim.simulator import Simulator
from repro.sim.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    _encode_node,
    _load_table,
)


def _collect_table_pages(node, pages: list[int]) -> None:
    """Guest-physical page numbers of every node in a page-table tree."""
    pages.append(node.page_number)
    for child in node.children.values():
        _collect_table_pages(child, pages)


def capture_vm_state(simulator: Simulator, vm_index: int) -> dict[str, Any]:
    """Serialize one VM's migratable state from ``simulator``.

    The payload is JSON-compatible and engine-agnostic: both engines'
    machines produce byte-identical payloads at the same fleet position,
    which is what lets the fleet fingerprint include transport bytes.
    """
    vms = list(simulator.hypervisor._vms.values())
    if not 0 <= vm_index < len(vms):
        raise SnapshotError(f"host has no VM index {vm_index}")
    vm = vms[vm_index]
    return {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "vm_id": vm.vm_id,
        "next_gpp": vm._next_gpp,
        "next_asid": vm._next_asid,
        "processes": [
            {
                "asid": process.asid,
                "guest": _encode_node(process.guest_page_table.root),
            }
            for process in vm.processes
        ],
    }


def restore_vm_state(
    simulator: Simulator, vm_index: int, payload: dict[str, Any]
) -> None:
    """Transplant a captured VM payload into ``simulator``'s copy.

    Overwrites the target VM's guest page tables in place (object
    identity is preserved -- executor contexts and walkers keep their
    references) and eagerly backs every transplanted page-table frame
    the host has not mapped yet.
    """
    if payload.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        raise SnapshotError(
            f"migration payload has schema {payload.get('schema')!r}, "
            f"expected {SNAPSHOT_SCHEMA_VERSION}"
        )
    hypervisor = simulator.hypervisor
    vms = list(hypervisor._vms.values())
    if not 0 <= vm_index < len(vms):
        raise SnapshotError(f"host has no VM index {vm_index}")
    vm = vms[vm_index]
    if vm.vm_id != payload["vm_id"]:
        raise SnapshotError(
            f"payload is for VM id {payload['vm_id']}, host VM index "
            f"{vm_index} has id {vm.vm_id}"
        )
    if len(payload["processes"]) != len(vm.processes):
        raise SnapshotError(
            f"payload has {len(payload['processes'])} processes, host VM "
            f"has {len(vm.processes)}"
        )

    vm._next_gpp = payload["next_gpp"]
    vm._next_asid = payload["next_asid"]
    table_pages: list[int] = []
    for process, process_data in zip(vm.processes, payload["processes"]):
        process.asid = process_data["asid"]
        table = process.guest_page_table
        _load_table(table, process_data["guest"])
        process.guest_root_gpp = table.root.page_number
        _collect_table_pages(table.root, table_pages)

    # Pin any transplanted page-table frame this host has never backed;
    # frames from a previous residency are already (and still) mapped.
    for gpp in table_pages:
        if vm.nested_page_table.lookup(gpp) is None:
            hypervisor.back_guest_frame(vm, gpp, is_page_table=True)


def payload_bytes(payload: dict[str, Any]) -> int:
    """Size of a payload on the wire (compact JSON encoding)."""
    return len(json.dumps(payload, separators=(",", ":")).encode("utf-8"))


__all__ = ["capture_vm_state", "payload_bytes", "restore_vm_state"]
