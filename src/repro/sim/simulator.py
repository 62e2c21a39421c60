"""Trace-driven simulator: ties the chip, hypervisor and protocol together.

The simulator executes per-vCPU reference streams in round-robin chunks
(approximating concurrent execution), charging cycles per CPU.  Each
reference is translated through the TLBs / MMU cache / nTLB / page
walker, triggers guest and nested page faults on first touch, flows
through the hypervisor's paging machinery (which is what generates
nested page table remaps and hence translation coherence), and finally
accesses the data through the cache hierarchy.

Runs report a :class:`SimulationResult` carrying cycle counts, event
counters and the energy breakdown; the experiment modules combine
results from multiple runs into the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.cotag import CoTagScheme
from repro.core.protocol import TranslationCoherenceProtocol, make_protocol
from repro.cpu.chip import Chip
from repro.energy.model import EnergyBreakdown, EnergyModel, EnergyParameters
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    install_fast_paths,
    make_executor,
    resolve_engine,
)
from repro.obs.log import get_logger
from repro.obs.trace import active_tracer
from repro.sim.config import SystemConfig
from repro.sim.stats import IntervalSample, MachineStats
from repro.translation.address import PAGE_SHIFT, PAGE_SIZE
from repro.virt.kvm import KvmHypervisor
from repro.virt.vm import GuestProcess
from repro.virt.xen import XenHypervisor
from repro.workloads.base import (
    MultiprogrammedWorkload,
    Workload,
    WorkloadTrace,
)

logger = get_logger(__name__)

#: references processed per vCPU before moving to the next one.
_INTERLEAVE_CHUNK = 32
#: maximum fault-retry attempts for one reference.
_MAX_FAULT_RETRIES = 4

WorkloadLike = Union[Workload, MultiprogrammedWorkload, WorkloadTrace]


class TranslationCorrectnessError(AssertionError):
    """Raised in validation mode when a stale translation is observed."""


def resolve_trace(
    workload: WorkloadLike,
    num_cpus: int,
    seed: int,
    refs_total: Optional[int] = None,
) -> WorkloadTrace:
    """Materialize a workload into per-vCPU streams for a machine shape.

    Already-generated traces pass through unchanged; multiprogrammed
    workloads get one vCPU per application (capped at ``num_cpus``),
    multithreaded workloads one stream per CPU.  Fully deterministic
    given the arguments.
    """
    if isinstance(workload, WorkloadTrace):
        return workload
    if isinstance(workload, MultiprogrammedWorkload):
        return workload.generate(
            num_vcpus=min(num_cpus, len(workload.specs)),
            seed=seed,
            refs_total=refs_total,
        )
    return workload.generate(
        num_vcpus=num_cpus, seed=seed, refs_total=refs_total
    )


def warmup_starts(
    trace: WorkloadTrace,
    warmup_fraction: float,
    warmup_refs: Optional[int] = None,
) -> list[int]:
    """Per-stream main-phase start positions a run's warmup implies.

    The single source of truth shared by :meth:`Simulator.run` and the
    checkpoint layer: snapshot reuse compares this vector bit-for-bit,
    so the two sides must never compute it independently.
    """
    if warmup_refs is not None:
        if warmup_refs < 0:
            raise ValueError("warmup_refs must be >= 0 when given")
        return [min(warmup_refs, len(s)) for s in trace.streams]
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError("warmup_fraction must be in [0, 1)")
    return [int(len(s) * warmup_fraction) for s in trace.streams]


@dataclass
class SimulationResult:
    """Everything measured during one simulation run."""

    config: SystemConfig
    workload: str
    stats: MachineStats
    energy: EnergyBreakdown
    warmup_references: int = 0
    per_app_cycles: dict[str, int] = field(default_factory=dict)
    #: per-VM display names for consolidated runs (aligned with
    #: ``stats.vms``); empty for legacy single-VM runs.
    vm_names: list[str] = field(default_factory=list)
    #: time-resolved telemetry: per-interval statistics deltas, emitted
    #: only when the run asked for them (``interval_refs``); empty
    #: otherwise, keeping legacy results byte-identical.
    intervals: list[IntervalSample] = field(default_factory=list)

    @property
    def runtime_cycles(self) -> int:
        """Wall-clock runtime in cycles (busiest CPU)."""
        return self.stats.runtime_cycles

    @property
    def total_cycles(self) -> int:
        """Sum of cycles across CPUs."""
        return self.stats.total_cycles

    @property
    def coherence_cycles(self) -> int:
        """Cycles attributed to translation coherence."""
        return self.stats.coherence_cycles

    @property
    def energy_total(self) -> float:
        """Total energy in model units."""
        return self.energy.total

    @property
    def events(self) -> dict[str, int]:
        """Event counters as a plain dictionary."""
        return dict(self.stats.events)

    def normalized_runtime(self, baseline: "SimulationResult") -> float:
        """Runtime normalized to another run (the paper's main metric)."""
        if baseline.runtime_cycles == 0:
            raise ValueError("baseline runtime is zero")
        return self.runtime_cycles / baseline.runtime_cycles

    def normalized_energy(self, baseline: "SimulationResult") -> float:
        """Energy normalized to another run."""
        if baseline.energy_total == 0:
            raise ValueError("baseline energy is zero")
        return self.energy_total / baseline.energy_total

    def per_vm_energy(self) -> list[float]:
        """Total energy attributed to each VM by its busy-cycle share.

        The energy model has no per-VM instrumentation, so the split is
        proportional; the shares sum to :attr:`energy_total` (modulo
        floating point) by construction.
        """
        vms = self.stats.vms
        if not vms:
            return []
        total_busy = sum(vm.busy_cycles for vm in vms)
        if total_busy == 0:
            return [self.energy_total / len(vms)] * len(vms)
        return [
            self.energy_total * vm.busy_cycles / total_busy for vm in vms
        ]

    def per_vm_summary(self) -> list[dict]:
        """JSON-friendly per-VM breakdown of a consolidated run."""
        energies = self.per_vm_energy()
        summaries = []
        for index, vm in enumerate(self.stats.vms):
            name = (
                self.vm_names[index]
                if index < len(self.vm_names)
                else f"vm{index}"
            )
            summaries.append(
                {
                    "vm": name,
                    "instructions": vm.instructions,
                    "busy_cycles": vm.busy_cycles,
                    "coherence_cycles": vm.coherence_cycles,
                    "energy": energies[index],
                    "events": dict(vm.events),
                }
            )
        return summaries


class Simulator:
    """Builds one simulated machine and runs workloads on it.

    Args:
        config: the machine to simulate.
        validate: cross-check every translation against the page tables
            (always runs on the reference engine).
        energy_parameters: overrides for the energy model.
        engine: execution engine, ``"reference"`` or ``"fast"`` (see
            :mod:`repro.sim.engine`).  ``None`` consults the
            ``REPRO_SIM_ENGINE`` environment variable and defaults to
            the fast engine; both engines produce bit-identical results.
    """

    def __init__(
        self,
        config: SystemConfig,
        validate: bool = False,
        energy_parameters: Optional[EnergyParameters] = None,
        engine: Optional[str] = None,
    ) -> None:
        self.protocol: TranslationCoherenceProtocol = make_protocol(config.protocol)
        hypervisor_cls = XenHypervisor if config.hypervisor == "xen" else KvmHypervisor
        #: the configuration as requested, *before* the hypervisor's cost
        #: adjustment.  Snapshots store this one: re-adjusting already
        #: adjusted costs (Xen's scaling is not idempotent) would change
        #: the machine on restore.
        self.requested_config = config
        config = config.replace(costs=hypervisor_cls.adjust_costs(config.costs))
        self.config = config
        self.validate = validate

        cotag_scheme = (
            CoTagScheme(config.translation.cotag_bytes)
            if self.protocol.uses_cotags
            else None
        )
        self.stats = MachineStats(config.num_cpus)
        self.chip = Chip(
            config,
            self.stats,
            cotag_scheme=cotag_scheme,
            track_translation_sharers=self.protocol.tracks_translation_sharers,
        )
        self.protocol.bind(self.chip, self.stats, config.costs)
        self.hypervisor = hypervisor_cls(
            self.chip, config, self.protocol, self.stats
        )
        self.energy_model = EnergyModel(
            params=energy_parameters,
            cotag_bytes=(
                config.translation.cotag_bytes if self.protocol.uses_cotags else 0
            ),
            fine_grained_directory=config.directory.fine_grained,
        )
        self.engine = resolve_engine(engine, validate=validate)
        if self.engine == ENGINE_FAST and not install_fast_paths(
            self.chip
        ):  # pragma: no cover - exotic geometry
            logger.warning(
                "engine %s unavailable for this geometry; falling back to %s",
                self.engine,
                ENGINE_REFERENCE,
            )
            self.engine = ENGINE_REFERENCE

    # ------------------------------------------------------------------
    # running workloads
    # ------------------------------------------------------------------
    def run(
        self,
        workload: WorkloadLike,
        warmup_fraction: float = 0.2,
        refs_total: Optional[int] = None,
        *,
        warmup_refs: Optional[int] = None,
        interval_refs: Optional[int] = None,
        on_interval=None,
        checkpoint_refs: Optional[int] = None,
        on_checkpoint=None,
    ) -> SimulationResult:
        """Run a workload to completion and return its measurements.

        The first ``warmup_fraction`` of each stream is executed with
        statistics discarded afterwards, so cold-start effects (initial
        population of die-stacked DRAM) do not dominate the short
        synthetic traces the way they never would in the paper's
        50-billion-reference traces.

        Keyword-only extensions (all default-off, leaving legacy runs
        bit-identical):

        * ``warmup_refs`` -- absolute per-stream warmup length
          overriding ``warmup_fraction``.  Checkpoint reuse across
          ``refs_total`` sweeps needs the warmup boundary to be
          independent of the trace length, which a fraction is not.
        * ``interval_refs`` -- emit an :class:`~repro.sim.stats.
          IntervalSample` roughly every that many retired references
          (at executor round boundaries), collected on
          :attr:`SimulationResult.intervals`.
        * ``on_interval`` -- callback invoked with each freshly-emitted
          :class:`~repro.sim.stats.IntervalSample` the moment it is
          appended (including the final partial interval), for live
          progress streaming.  Observation only: the collected
          ``intervals`` list is identical with or without it.
        * ``checkpoint_refs`` / ``on_checkpoint`` -- capture
          :mod:`repro.sim.snapshot` machine snapshots at round-aligned
          positions (periodically every ``checkpoint_refs`` references
          when given, and always at the last reusable round) and hand
          each snapshot dict to ``on_checkpoint``.
        """
        tracer = active_tracer()
        run_start = tracer.now() if tracer else 0.0
        trace = self._resolve_trace(workload, refs_total)
        self._validate_trace_shape(trace)
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

        contexts = self._create_guests(trace)
        executor = make_executor(self, trace, contexts)

        starts = warmup_starts(trace, warmup_fraction, warmup_refs)
        warmup_requested = (
            warmup_refs > 0 if warmup_refs is not None else warmup_fraction > 0.0
        )
        warmup_executed = 0
        if warmup_requested:
            warmup_start = tracer.now() if tracer else 0.0
            warmup_executed = executor.execute_span(
                [0] * trace.num_vcpus, list(starts)
            )
            self._reset_statistics()
            if tracer:
                tracer.complete(
                    "sim.warmup", "sim", warmup_start,
                    refs=warmup_executed, engine=self.engine,
                )

        if tracer:
            try:
                return self._run_main(
                    trace,
                    contexts,
                    executor,
                    warmup_starts=starts,
                    positions=list(starts),
                    warmup_executed=warmup_executed,
                    prior_executed=0,
                    prior_intervals=[],
                    interval_refs=interval_refs,
                    on_interval=on_interval,
                    anchor=None,
                    anchor_refs=0,
                    checkpoint_refs=checkpoint_refs,
                    on_checkpoint=on_checkpoint,
                )
            finally:
                tracer.complete(
                    "sim.run", "sim", run_start,
                    engine=self.engine, vcpus=trace.num_vcpus,
                )
        return self._run_main(
            trace,
            contexts,
            executor,
            warmup_starts=starts,
            positions=list(starts),
            warmup_executed=warmup_executed,
            prior_executed=0,
            prior_intervals=[],
            interval_refs=interval_refs,
            on_interval=on_interval,
            anchor=None,
            anchor_refs=0,
            checkpoint_refs=checkpoint_refs,
            on_checkpoint=on_checkpoint,
        )

    def resume(
        self,
        trace: WorkloadTrace,
        contexts: list[GuestProcess],
        positions: list[int],
        *,
        warmup_starts: list[int],
        warmup_executed: int = 0,
        executed_refs: int = 0,
        intervals: Optional[list[IntervalSample]] = None,
        anchor: Optional[dict] = None,
        anchor_refs: Optional[int] = None,
        interval_refs: Optional[int] = None,
        on_interval=None,
        checkpoint_refs: Optional[int] = None,
        on_checkpoint=None,
    ) -> SimulationResult:
        """Continue a restored run from ``positions`` to stream ends.

        The simulator must already hold the restored machine state (see
        :func:`repro.sim.snapshot.restore_run`, which builds it); this
        method only drives the remaining references.  With matching
        arguments the continuation is bit-identical to the straight-
        through run the snapshot was captured from.
        """
        self._validate_trace_shape(trace)
        if len(positions) != trace.num_vcpus:
            raise ValueError("positions must name one offset per stream")
        for position, start, stream in zip(positions, warmup_starts, trace.streams):
            if not start <= position <= len(stream):
                raise ValueError(
                    f"resume position {position} outside [{start}, "
                    f"{len(stream)}]"
                )
        executor = make_executor(self, trace, contexts)
        return self._run_main(
            trace,
            contexts,
            executor,
            warmup_starts=list(warmup_starts),
            positions=list(positions),
            warmup_executed=warmup_executed,
            prior_executed=executed_refs,
            prior_intervals=list(intervals or []),
            interval_refs=interval_refs,
            on_interval=on_interval,
            anchor=anchor,
            anchor_refs=executed_refs if anchor_refs is None else anchor_refs,
            checkpoint_refs=checkpoint_refs,
            on_checkpoint=on_checkpoint,
        )

    # ------------------------------------------------------------------
    # the main-phase driver (telemetry + checkpoints)
    # ------------------------------------------------------------------
    def telemetry_aggregate(self) -> dict:
        """Cumulative post-warmup aggregates used as interval anchors.

        Exact integers plus the energy total, so interval deltas are
        reproducible bit-for-bit across checkpoint/restore (the anchor
        is stored in snapshots rather than re-derived, avoiding float
        re-association).
        """
        stats = self.stats
        return {
            "busy": sum(c.busy_cycles for c in stats.cpus),
            "coherence": sum(c.coherence_cycles for c in stats.cpus),
            "background": stats.background_cycles,
            "instructions": sum(c.instructions for c in stats.cpus),
            "events": dict(stats.events),
            "vms": [vm.to_dict() for vm in stats.vms],
            "energy": self.energy_model.compute(self.chip, self.stats).total,
        }

    @staticmethod
    def _interval_delta(
        start_refs: int, end_refs: int, anchor: dict, current: dict
    ) -> IntervalSample:
        events = {
            key: value - anchor["events"].get(key, 0)
            for key, value in current["events"].items()
            if value - anchor["events"].get(key, 0)
        }
        vms = []
        for index, vm in enumerate(current["vms"]):
            base = (
                anchor["vms"][index]
                if index < len(anchor["vms"])
                else {"busy_cycles": 0, "coherence_cycles": 0,
                      "instructions": 0, "events": {}}
            )
            vms.append(
                {
                    "busy_cycles": vm["busy_cycles"] - base["busy_cycles"],
                    "coherence_cycles": (
                        vm["coherence_cycles"] - base["coherence_cycles"]
                    ),
                    "instructions": vm["instructions"] - base["instructions"],
                    "events": {
                        key: value - base["events"].get(key, 0)
                        for key, value in vm["events"].items()
                        if value - base["events"].get(key, 0)
                    },
                }
            )
        return IntervalSample(
            start_refs=start_refs,
            end_refs=end_refs,
            busy_cycles=current["busy"] - anchor["busy"],
            coherence_cycles=current["coherence"] - anchor["coherence"],
            background_cycles=current["background"] - anchor["background"],
            instructions=current["instructions"] - anchor["instructions"],
            energy=current["energy"] - anchor["energy"],
            events=events,
            vms=vms,
        )

    def _run_main(
        self,
        trace: WorkloadTrace,
        contexts: list[GuestProcess],
        executor,
        *,
        warmup_starts: list[int],
        positions: list[int],
        warmup_executed: int,
        prior_executed: int,
        prior_intervals: list[IntervalSample],
        interval_refs: Optional[int],
        on_interval=None,
        anchor: Optional[dict],
        anchor_refs: int,
        checkpoint_refs: Optional[int],
        on_checkpoint,
    ) -> SimulationResult:
        """Execute the (remaining) main phase and assemble the result.

        Telemetry and checkpoints hook the executor's round boundaries:
        after every full round-robin round all streams sit at positions
        ``min(start + CHUNK * round, end)``, a state both engines reach
        identically, which is what makes interval samples engine-
        independent and snapshots reusable by longer runs.
        """
        ends = [len(s) for s in trace.streams]
        intervals = prior_intervals
        chunk = _INTERLEAVE_CHUNK
        tracer = active_tracer()

        def emit_interval(sample: IntervalSample) -> None:
            intervals.append(sample)
            if tracer:
                tracer.instant(
                    "sim.interval", "sim",
                    start_refs=sample.start_refs,
                    end_refs=sample.end_refs,
                    busy_cycles=sample.busy_cycles,
                    coherence_cycles=sample.coherence_cycles,
                )
            if on_interval is not None:
                on_interval(sample)

        on_round = None
        if interval_refs is not None or on_checkpoint is not None:
            if interval_refs is not None and interval_refs <= 0:
                raise ValueError("interval_refs must be positive when given")
            if checkpoint_refs is not None and checkpoint_refs <= 0:
                raise ValueError("checkpoint_refs must be positive when given")
            offsets = [p - s for p, s in zip(positions, warmup_starts)]
            # Checkpoints are only meaningful from a round-aligned span
            # start (a fresh run, or a resume from a saved checkpoint);
            # from anywhere else the per-round position formula below
            # would not hold, so checkpointing is silently disabled.
            aligned = (
                bool(offsets)
                and all(offset == offsets[0] for offset in offsets)
                and offsets[0] % chunk == 0
            )
            if not aligned:
                on_checkpoint = None
            base_round = max(
                (offset + chunk - 1) // chunk for offset in offsets
            ) if offsets else 0
            # rounds 0..last_round have every stream unclamped, i.e. a
            # longer run over the same prefix visits the same state.
            last_round = min(
                (end - start) // chunk
                for start, end in zip(warmup_starts, ends)
            ) if ends else 0
            state = {
                "round": base_round,
                "anchor": anchor,
                "anchor_refs": anchor_refs,
                "last_checkpoint": prior_executed,
            }
            if interval_refs is not None and state["anchor"] is None:
                state["anchor"] = self.telemetry_aggregate()

            def on_round(executed_in_span: int) -> None:
                state["round"] += 1
                executed_total = prior_executed + executed_in_span
                if (
                    interval_refs is not None
                    and executed_total - state["anchor_refs"] >= interval_refs
                ):
                    current = self.telemetry_aggregate()
                    emit_interval(
                        self._interval_delta(
                            state["anchor_refs"], executed_total,
                            state["anchor"], current,
                        )
                    )
                    state["anchor"] = current
                    state["anchor_refs"] = executed_total
                if on_checkpoint is None:
                    return
                r = state["round"]
                due = (
                    checkpoint_refs is not None
                    and executed_total - state["last_checkpoint"]
                    >= checkpoint_refs
                )
                if (r == last_round or due) and r <= last_round and r > 0:
                    from repro.sim.snapshot import capture_snapshot

                    state["last_checkpoint"] = executed_total
                    snapshot = capture_snapshot(
                        self,
                        trace,
                        positions=[
                            start + chunk * r for start in warmup_starts
                        ],
                        warmup_starts=warmup_starts,
                        warmup_executed=warmup_executed,
                        executed_refs=executed_total,
                        intervals=intervals,
                        interval_refs=interval_refs,
                        anchor=state["anchor"],
                        anchor_refs=state["anchor_refs"],
                    )
                    on_checkpoint(snapshot)

        executed = executor.execute_span(positions, ends, on_round)

        if interval_refs is not None:
            executed_total = prior_executed + executed
            if executed_total > state["anchor_refs"]:
                current = self.telemetry_aggregate()
                emit_interval(
                    self._interval_delta(
                        state["anchor_refs"], executed_total,
                        state["anchor"], current,
                    )
                )

        energy = self.energy_model.compute(self.chip, self.stats)
        per_app = self._per_app_cycles(trace)
        return SimulationResult(
            config=self.config,
            workload=trace.name,
            stats=self.stats,
            energy=energy,
            warmup_references=warmup_executed,
            per_app_cycles=per_app,
            vm_names=list(trace.vm_names or []),
            intervals=intervals,
        )

    def _validate_trace_shape(self, trace: WorkloadTrace) -> None:
        if trace.pcpu_of_vcpu is not None:
            if len(trace.pcpu_of_vcpu) != trace.num_vcpus:
                raise ValueError("pcpu_of_vcpu must name one pCPU per stream")
            if not all(
                0 <= pcpu < self.config.num_cpus
                for pcpu in trace.pcpu_of_vcpu
            ):
                raise ValueError(
                    f"trace pins streams to pCPUs {trace.pcpu_of_vcpu} but "
                    f"the system has CPUs 0..{self.config.num_cpus - 1}"
                )
        elif trace.num_vcpus > self.config.num_cpus:
            raise ValueError(
                f"trace needs {trace.num_vcpus} vCPUs but the system has "
                f"{self.config.num_cpus} CPUs"
            )
        if trace.vm_of_vcpu is not None:
            if len(trace.vm_of_vcpu) != trace.num_vcpus:
                raise ValueError("vm_of_vcpu must name one VM per stream")
            if min(trace.vm_of_vcpu) < 0:
                raise ValueError("vm_of_vcpu indices must be non-negative")

    def _create_guests(self, trace: WorkloadTrace) -> list[GuestProcess]:
        """Create the trace's VMs and guest processes; return per-stream
        address-space contexts.

        Legacy (single-VM) traces take the historical path unchanged:
        one VM spanning the trace's streams.  Multi-VM traces create one
        VM per guest with its own nested page table and pCPU affinity,
        switch on per-VM statistics, and install any per-guest
        die-stacked memory caps the topology declares.
        """
        pcpus = trace.pcpu_of_vcpu or list(range(trace.num_vcpus))
        vm_of_vcpu = trace.vm_of_vcpu
        if vm_of_vcpu is None:
            vm = self.hypervisor.create_vm(vcpu_pcpus=pcpus)
            processes = [vm.create_process() for _ in range(trace.num_processes)]
            return [processes[p] for p in trace.process_of_vcpu]

        num_vms = trace.num_vms
        vms = []
        for index in range(num_vms):
            vcpu_pcpus = [
                pcpus[s]
                for s in range(trace.num_vcpus)
                if vm_of_vcpu[s] == index
            ]
            if not vcpu_pcpus:
                raise ValueError(f"VM {index} has no vCPU streams")
            vm = self.hypervisor.create_vm(vcpu_pcpus=vcpu_pcpus)
            vm.stats_index = index
            vms.append(vm)

        vm_of_process: dict[int, int] = {}
        for stream, process in enumerate(trace.process_of_vcpu):
            owner = vm_of_process.setdefault(process, vm_of_vcpu[stream])
            if owner != vm_of_vcpu[stream]:
                raise ValueError(f"process {process} spans more than one VM")
        processes = [
            vms[vm_of_process[p]].create_process()
            for p in range(trace.num_processes)
        ]

        self.stats.configure_vms(num_vms)
        for stream in range(trace.num_vcpus - 1, -1, -1):
            # seed the scheduling map with each pCPU's first stream
            self.stats.vm_of_cpu[pcpus[stream]] = vm_of_vcpu[stream]
        if trace.topology is not None:
            usable = self.chip.memory.fast.num_frames
            for index, guest in enumerate(trace.topology.guests):
                if guest.mem_share is not None:
                    self.hypervisor.set_vm_fast_cap(
                        vms[index].vm_id, max(1, int(guest.mem_share * usable))
                    )
        return [processes[p] for p in trace.process_of_vcpu]

    # ------------------------------------------------------------------
    # execution internals
    # ------------------------------------------------------------------
    def _resolve_trace(
        self, workload: WorkloadLike, refs_total: Optional[int]
    ) -> WorkloadTrace:
        return resolve_trace(
            workload, self.config.num_cpus, self.config.seed, refs_total
        )

    def _execute_span(
        self,
        trace: WorkloadTrace,
        contexts: list[GuestProcess],
        starts: list[int],
        ends: list[int],
        on_round=None,
    ) -> int:
        """Execute streams between per-stream ``starts`` and ``ends``.

        This is the **reference engine** loop: one layered call path per
        reference.  The fast engine (:mod:`repro.sim.engine`) must stay
        bit-identical to it; treat this method and
        :meth:`_execute_reference` as the specification.

        Streams map to physical CPUs through ``trace.pcpu_of_vcpu``
        (identity when absent); on consolidated machines two guests'
        streams may share a pCPU, which the round-robin chunks
        time-multiplex.  On multi-VM traces the per-VM scheduling map
        (:attr:`MachineStats.vm_of_cpu`) is updated at every chunk
        boundary so cycle charges land on the guest the pCPU is
        executing.

        ``on_round`` (when given) is called after every full round-robin
        round with the total references executed so far in this span --
        the hook the telemetry/checkpoint driver builds on.
        """
        positions = list(starts)
        pcpus = trace.pcpu_of_vcpu or list(range(trace.num_vcpus))
        vm_of_stream = trace.vm_of_vcpu if self.stats.vms else None
        vm_of_cpu = self.stats.vm_of_cpu
        executed = 0
        active = True
        while active:
            active = False
            for vcpu in range(trace.num_vcpus):
                pos = positions[vcpu]
                end = min(pos + _INTERLEAVE_CHUNK, ends[vcpu])
                if pos >= end:
                    continue
                active = True
                cpu = pcpus[vcpu]
                if vm_of_stream is not None:
                    vm_of_cpu[cpu] = vm_of_stream[vcpu]
                stream = trace.streams[vcpu]
                writes = trace.writes[vcpu]
                ctx = contexts[vcpu]
                for index in range(pos, end):
                    self._execute_reference(
                        cpu, ctx, int(stream[index]), bool(writes[index])
                    )
                    executed += 1
                positions[vcpu] = end
            if active and on_round is not None:
                on_round(executed)
        return executed

    def _execute_reference(
        self, cpu: int, ctx: GuestProcess, gva: int, is_write: bool
    ) -> None:
        core = self.chip.core(cpu)
        stats = self.stats
        stats.cpus[cpu].instructions += 1
        if stats.vms:
            stats.vms[stats.vm_of_cpu[cpu]].instructions += 1
        gvp = gva >> PAGE_SHIFT
        offset = gva & (PAGE_SIZE - 1)

        outcome = None
        for _ in range(_MAX_FAULT_RETRIES):
            outcome = core.translate(ctx, gvp, is_write)
            stats.charge_cpu(cpu, outcome.cycles)
            if outcome.fault is None:
                break
            if outcome.fault == "guest":
                ctx.ensure_guest_mapping(gvp)
                stats.charge_cpu(cpu, self.config.costs.page_fault_overhead // 2)
                stats.count("guest.minor_faults")
            elif outcome.fault == "nested":
                gpp = ctx.gpp_of(gvp)
                if gpp is None:
                    ctx.ensure_guest_mapping(gvp)
                    gpp = ctx.gpp_of(gvp)
                cycles = self.hypervisor.handle_nested_fault(ctx, gpp, cpu)
                stats.charge_cpu(cpu, cycles)
        else:
            raise RuntimeError(
                f"reference to gva {gva:#x} did not resolve after "
                f"{_MAX_FAULT_RETRIES} fault retries"
            )

        if self.validate:
            self._check_translation(ctx, gvp, outcome.spp)

        defrag_cycles = self.hypervisor.on_data_access(outcome.spp, cpu)
        if defrag_cycles:
            stats.count("paging.defrag_access_stalls")
        spa = (outcome.spp << PAGE_SHIFT) | offset
        stats.charge_cpu(cpu, core.access_data(spa, is_write))

    def _check_translation(self, ctx: GuestProcess, gvp: int, spp: int) -> None:
        """Cross-check a translation against the page tables (validation mode)."""
        guest_entry = ctx.guest_page_table.lookup(gvp)
        if guest_entry is None:
            raise TranslationCorrectnessError(
                f"gvp {gvp:#x} translated but has no guest mapping"
            )
        nested_entry = ctx.nested_page_table.lookup(guest_entry.pfn)
        if nested_entry is None:
            raise TranslationCorrectnessError(
                f"gpp {guest_entry.pfn:#x} translated but has no nested mapping"
            )
        if nested_entry.pfn != spp:
            raise TranslationCorrectnessError(
                f"stale translation used for gvp {gvp:#x}: got spp {spp:#x}, "
                f"page tables say {nested_entry.pfn:#x}"
            )

    def _reset_statistics(self) -> None:
        """Discard statistics accumulated so far (end of warmup)."""
        self.stats.reset()
        self.chip.reset_statistics()

    def _per_app_cycles(self, trace: WorkloadTrace) -> dict[str, int]:
        """Per-application busy cycles for multiprogrammed traces.

        Applications are labelled with the real per-vCPU workload names
        carried by the trace, falling back to positional labels for
        traces built before the names were recorded.  Multi-VM traces
        report per-guest accounting through ``stats.vms`` instead: with
        pCPUs potentially time-shared between guests, a per-stream CPU
        readout would double-count.
        """
        if trace.num_processes <= 1 or trace.vm_of_vcpu is not None:
            return {}
        per_app: dict[str, int] = {}
        for cpu in range(trace.num_vcpus):
            if trace.app_names is not None and cpu < len(trace.app_names):
                name = trace.app_names[cpu]
            else:
                name = f"app{cpu:02d}"
            per_app[name] = self.stats.cpus[cpu].busy_cycles
        return per_app


class SteppedRun:
    """Externally driven execution: advance a machine span by span.

    :meth:`Simulator.run` owns its whole execution; a *stepped* run
    hands that control to the caller, which is what multi-machine
    drivers (the fleet layer) need: every simulated host advances
    through the same global schedule of round-aligned spans, with the
    driver interleaving snapshot transport between spans.  Both engines
    execute each span bit-identically, so a stepped run remains as
    deterministic as a straight-through one.

    The run executes with no warmup (statistics accumulate from the
    first reference) and assembles a perfectly ordinary
    :class:`SimulationResult` on demand.
    """

    def __init__(self, simulator: Simulator, trace: WorkloadTrace) -> None:
        simulator._validate_trace_shape(trace)
        self.simulator = simulator
        self.trace = trace
        self.contexts = simulator._create_guests(trace)
        self.executor = make_executor(simulator, trace, self.contexts)
        self.positions = [0] * trace.num_vcpus
        self.executed_refs = 0
        self.intervals: list[IntervalSample] = []
        self._anchor = simulator.telemetry_aggregate()
        self._anchor_refs = 0

    def advance(self, spans: dict[int, int]) -> int:
        """Execute streams up to per-stream target positions.

        ``spans`` maps stream index to its new end position; unnamed
        streams do not move (their span is empty, which both engines
        skip identically).  Targets may not move a stream backwards.
        Returns the references executed.
        """
        ends = list(self.positions)
        for stream, end in spans.items():
            if end < self.positions[stream]:
                raise ValueError(
                    f"stream {stream} cannot move backwards: "
                    f"{self.positions[stream]} -> {end}"
                )
            if end > len(self.trace.streams[stream]):
                raise ValueError(
                    f"stream {stream} target {end} beyond its "
                    f"{len(self.trace.streams[stream])} references"
                )
            ends[stream] = end
        executed = self.executor.execute_span(list(self.positions), ends)
        self.positions = ends
        self.executed_refs += executed
        return executed

    def sample_interval(self) -> IntervalSample:
        """Close the current telemetry interval and start the next.

        The sample is the statistics delta since the previous call (or
        construction), exactly like the interval telemetry a
        :meth:`Simulator.run` with ``interval_refs`` emits; samples are
        collected on :attr:`intervals` and carried into the result.
        """
        current = self.simulator.telemetry_aggregate()
        sample = Simulator._interval_delta(
            self._anchor_refs, self.executed_refs, self._anchor, current
        )
        self._anchor = current
        self._anchor_refs = self.executed_refs
        self.intervals.append(sample)
        return sample

    def result(self) -> SimulationResult:
        """Assemble the run's measurements so far."""
        simulator = self.simulator
        return SimulationResult(
            config=simulator.config,
            workload=self.trace.name,
            stats=simulator.stats,
            energy=simulator.energy_model.compute(
                simulator.chip, simulator.stats
            ),
            warmup_references=0,
            per_app_cycles=simulator._per_app_cycles(self.trace),
            vm_names=list(self.trace.vm_names or []),
            intervals=self.intervals,
        )
