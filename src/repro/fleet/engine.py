"""The fleet driver: round-aligned epochs, live migration, both engines.

Execution model
---------------
Every host is a complete simulated machine that creates **all** of the
fleet's VMs (in the same deterministic order, so VM identities line up
across hosts -- see :mod:`repro.fleet.transport`), but a VM only ever
*executes* on the host it is currently placed on; everywhere else its
streams receive empty spans, which both engines skip identically.

The global trace carries each VM's whole life, in execution order:

    [epoch 0 base] [storm pair if it migrates after epoch 0]
    [epoch 1 base] [storm pair ...] ... [last epoch base]

where a storm pair is one :func:`~repro.workloads.storm.storm_segment`
drain executed on the *source* host followed by one cold re-touch sweep
executed on the *destination* -- the dirty-logging write storm the
paper's ``syn:live-migration`` scenario models, here tied to actual
moves.  All segment lengths are multiples of the executors' 32-ref
interleave chunk, so every capture/restore happens at a round-aligned
machine state on both engines.

The migration schedule is fixed by :func:`~repro.fleet.spec.
migration_plan` before anything runs, so every protocol simulates the
byte-identical reference streams; protocol differences show up only as
cycles, events and energy -- exactly what the differential invariants
require.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.fleet.metrics import FleetResult, build_fleet_result
from repro.obs.trace import active_tracer
from repro.fleet.spec import FleetRequest, FleetSpec, migration_plan
from repro.fleet.transport import (
    capture_vm_state,
    payload_bytes,
    restore_vm_state,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FastPathMismatchError,
    diff_fingerprints,
    gc_paused,
    machine_digest,
    validate_fastpath_requested,
)
from repro.sim.simulator import Run, Simulator
from repro.workloads import make_workload
from repro.workloads.base import WorkloadTrace
from repro.workloads.storm import storm_segment, stream_page_span


@dataclass
class FleetLayout:
    """Per-VM boundary tables into the global fleet trace.

    Attributes:
        streams_of_vm: global stream indices belonging to each VM.
        base_end: ``base_end[vm][epoch]`` is every VM stream's position
            after its epoch-``epoch`` base segment.
        storm_ends: ``storm_ends[vm][k]`` is the ``(source_end,
            destination_end)`` position pair of the VM's ``k``-th
            migration storm.
    """

    streams_of_vm: list[list[int]]
    base_end: list[list[int]]
    storm_ends: list[list[tuple[int, int]]]


def build_fleet_trace(spec: FleetSpec) -> tuple[WorkloadTrace, FleetLayout]:
    """Compose the fleet's global trace and its boundary tables.

    Pure function of the spec: workload seeds are mixed per VM from the
    fleet seed, storm segments are parametric, and the migration plan
    fixes which epochs get storm pairs.
    """
    guests = spec.guest_configs()
    plan = migration_plan(spec)
    migration_epochs: list[list[int]] = [[] for _ in guests]
    for epoch, wave in enumerate(plan):
        for vm, _, _ in wave:
            migration_epochs[vm].append(epoch)

    refs_base = spec.epochs * spec.epoch_refs
    streams: list[np.ndarray] = []
    writes: list[np.ndarray] = []
    process_of_vcpu: list[int] = []
    vm_of_vcpu: list[int] = []
    vm_names: list[str] = []
    streams_of_vm: list[list[int]] = []
    base_end: list[list[int]] = []
    storm_ends: list[list[tuple[int, int]]] = []
    process_base = 0

    for vm_index, guest in enumerate(guests):
        vm_seed = int(
            np.random.default_rng(
                (spec.seed % 2**32, 601, vm_index)
            ).integers(0, 2**63 - 1)
        )
        base = make_workload(guest.workload).generate(
            num_vcpus=guest.vcpus,
            seed=vm_seed,
            refs_total=guest.vcpus * refs_base,
        )
        if base.num_vcpus != guest.vcpus:
            raise ValueError(
                f"workload {guest.workload!r} produced {base.num_vcpus} "
                f"streams for a {guest.vcpus}-vCPU guest"
            )
        base_streams = [
            np.resize(stream, refs_base).astype(np.int64)
            for stream in base.streams
        ]
        base_writes = [
            np.resize(flags, refs_base).astype(bool) for flags in base.writes
        ]
        base_page, footprint = stream_page_span(base_streams)
        migrates_at = set(migration_epochs[vm_index])

        lane_segments: list[list[np.ndarray]] = [[] for _ in range(guest.vcpus)]
        lane_writes: list[list[np.ndarray]] = [[] for _ in range(guest.vcpus)]
        bounds_base: list[int] = []
        bounds_storm: list[tuple[int, int]] = []
        position = 0
        sweep = 0
        for epoch in range(spec.epochs):
            lo = epoch * spec.epoch_refs
            hi = lo + spec.epoch_refs
            for lane in range(guest.vcpus):
                lane_segments[lane].append(base_streams[lane][lo:hi])
                lane_writes[lane].append(base_writes[lane][lo:hi])
            position += spec.epoch_refs
            bounds_base.append(position)
            if epoch in migrates_at:
                for _ in range(2):  # source drain, then destination touch
                    for lane in range(guest.vcpus):
                        addresses, flags = storm_segment(
                            base_page,
                            footprint,
                            spec.storm_refs,
                            sweep,
                            lane,
                        )
                        lane_segments[lane].append(addresses)
                        lane_writes[lane].append(flags)
                    position += spec.storm_refs
                    sweep += 1
                bounds_storm.append(
                    (position - spec.storm_refs, position)
                )

        first_stream = len(streams)
        for lane in range(guest.vcpus):
            streams.append(np.concatenate(lane_segments[lane]))
            writes.append(np.concatenate(lane_writes[lane]))
            process_of_vcpu.append(
                process_base + base.process_of_vcpu[lane]
            )
            vm_of_vcpu.append(vm_index)
        process_base += base.num_processes
        vm_names.append(f"vm{vm_index}:{guest.workload}")
        streams_of_vm.append(
            list(range(first_stream, first_stream + guest.vcpus))
        )
        base_end.append(bounds_base)
        storm_ends.append(bounds_storm)

    trace = WorkloadTrace(
        name=spec.name,
        streams=streams,
        writes=writes,
        process_of_vcpu=process_of_vcpu,
        num_processes=process_base,
        vm_of_vcpu=vm_of_vcpu,
        # Global round-robin pinning: host-local placement maps would
        # pile every guest's vCPU 0 onto pCPU 0; striding by global
        # stream index spreads single-vCPU guests across the chip.
        pcpu_of_vcpu=[
            index % spec.num_cpus for index in range(len(streams))
        ],
        vm_names=vm_names,
        topology=None,
    )
    return trace, FleetLayout(
        streams_of_vm=streams_of_vm,
        base_end=base_end,
        storm_ends=storm_ends,
    )


def _simulate_fleet(
    spec: FleetSpec, protocol: str, engine: str
) -> tuple[FleetResult, list[dict]]:
    """Run one fleet on one engine; return the result and raw digests."""
    trace, layout = build_fleet_trace(spec)
    plan = migration_plan(spec)
    config = SystemConfig(
        num_cpus=spec.num_cpus, protocol=protocol, seed=spec.seed
    )
    hosts = [
        Simulator(config, engine=engine) for _ in range(spec.num_hosts)
    ]
    try:
        runs = [Run(host, trace) for host in hosts]
        for run in runs:
            run.start_interval()
        placement = spec.initial_placement()
        moves_done = [0] * spec.num_vms
        transport = {"captures": 0, "restores": 0, "bytes": 0}
        tracer = active_tracer()

        for epoch in range(spec.epochs):
            epoch_start = tracer.now() if tracer else 0.0
            # 1. Every host advances its resident VMs through the epoch's
            #    base segment (hosts in index order; absent streams noop).
            for host_index, run in enumerate(runs):
                spans = {
                    stream: layout.base_end[vm][epoch]
                    for vm in range(spec.num_vms)
                    if placement[vm] == host_index
                    for stream in layout.streams_of_vm[vm]
                }
                if spans:
                    run.advance(spans)

            # 2. The epoch's migration wave, move by move: drain storm on
            #    the source, snapshot transport, cold-touch storm on the
            #    destination.
            if epoch < spec.epochs - 1:
                for vm, src, dst in plan[epoch]:
                    if placement[vm] != src:  # pragma: no cover - plan bug guard
                        raise RuntimeError(
                            f"plan moves vm{vm} from host{src} but it lives "
                            f"on host{placement[vm]}"
                        )
                    src_end, dst_end = layout.storm_ends[vm][moves_done[vm]]
                    moves_done[vm] += 1
                    vm_streams = layout.streams_of_vm[vm]
                    runs[src].advance(
                        {stream: src_end for stream in vm_streams}
                    )
                    payload = capture_vm_state(hosts[src], vm)
                    transport["captures"] += 1
                    transport["bytes"] += payload_bytes(payload)
                    restore_vm_state(hosts[dst], vm, payload)
                    transport["restores"] += 1
                    if tracer:
                        tracer.instant(
                            "fleet.migrate", "fleet",
                            epoch=epoch, vm=vm, src=src, dst=dst,
                            bytes=payload_bytes(payload),
                        )
                    for stream in vm_streams:
                        # the destination's positions for this VM are stale
                        # (it last saw them whenever the VM last left); the
                        # guest resumes exactly where the source stopped.
                        runs[dst].positions[stream] = runs[src].positions[stream]
                    runs[dst].advance(
                        {stream: dst_end for stream in vm_streams}
                    )
                    placement[vm] = dst

            # 3. Close every host's telemetry interval: sample `epoch` of
            #    each host covers the epoch's base work plus whatever side
            #    of the wave's storms that host paid for.
            for run in runs:
                run.sample_interval()
            if tracer:
                tracer.complete(
                    "fleet.epoch", "fleet", epoch_start,
                    epoch=epoch, protocol=protocol, engine=engine,
                    migrations=len(plan[epoch]) if epoch < spec.epochs - 1 else 0,
                )

        results = [run.result() for run in runs]
        digests = [machine_digest(host) for host in hosts]
    finally:
        # after the digests: they read the machines' whole state
        for host in hosts:
            host.close()
    return (
        build_fleet_result(spec, protocol, results, digests, transport, plan),
        digests,
    )


@gc_paused()
def execute_fleet(request: FleetRequest) -> FleetResult:
    """Execute one fleet request from scratch (no caching).

    Module-level so a :class:`concurrent.futures.ProcessPoolExecutor`
    can pickle it into worker processes (mirroring
    :func:`repro.api.session.execute_request`, including its cyclic-GC
    pause over the whole request and the closing of every host once
    its digest is taken).  The fleet runs on the fast engine; under
    ``REPRO_VALIDATE_FASTPATH=1`` its result is checked against a
    reference-engine run before it is returned (see
    :func:`_check_against_reference`).
    """
    result, digests = _simulate_fleet(
        request.spec, request.protocol, ENGINE_FAST
    )
    return _check_against_reference(request, result, digests)


def _check_against_reference(
    request: FleetRequest, result: FleetResult, digests: list[dict]
) -> FleetResult:
    """Return ``result`` once the reference engine agrees with it.

    A no-op unless ``REPRO_VALIDATE_FASTPATH=1`` is set.  Then the
    fleet runs again on the reference engine, and any fingerprint
    difference from the fast engine's ``result`` raises
    :class:`~repro.sim.engine.FastPathMismatchError` naming the host
    summary, transport and machine-digest fields that differ.
    """
    if not validate_fastpath_requested():
        return result
    reference, reference_digests = _simulate_fleet(
        request.spec, request.protocol, ENGINE_REFERENCE
    )
    if reference.fingerprint == result.fingerprint:
        return result
    differences: list[str] = []
    for index, (expected, actual) in enumerate(
        zip(reference.hosts, result.hosts)
    ):
        differences += diff_fingerprints(expected, actual, f"host{index}.")
    differences += diff_fingerprints(
        reference.transport, result.transport, "transport."
    )
    for index, (expected, actual) in enumerate(
        zip(reference_digests, digests)
    ):
        differences += diff_fingerprints(expected, actual, f"host{index}.")
    details = (
        "\n  ".join(differences[:20])
        or "per-CPU, per-VM or energy-split drift"
    )
    raise FastPathMismatchError(
        f"{ENGINE_FAST} engine diverged from the reference engine on fleet "
        f"{request.spec.name!r} under {request.protocol}:\n  {details}"
    )


__all__ = ["FleetLayout", "build_fleet_trace", "execute_fleet"]
