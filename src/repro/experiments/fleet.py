"""Fleet study: protocol x migration-intensity sweep over a datacenter.

The paper's motivating pathology is translation coherence under *churn*:
live migration ships guest page tables between hosts and then replays a
dirty-logging write storm on both ends, and every remap the storm
triggers costs the software baseline a fleet-visible shootdown while
HATRIC pays a co-tagged invalidation.  This experiment makes churn the
swept axis.  One :class:`~repro.fleet.spec.FleetSpec` per migration
intensity (VMs moved per epoch wave) runs under every protocol through
:meth:`~repro.api.session.Session.run_fleet`, and the fleet-level
differential invariants (:func:`~repro.fleet.metrics.fleet_violations`)
are the correctness oracle: identical per-VM work across protocols,
``ideal <= all``, ``hatric <= software``, matching transport counts.

The headline table shows fleet makespan normalized to the ideal
protocol growing with intensity under software coherence while HATRIC
stays within a few percent of ideal, plus the operator-facing tail
metrics: each VM's p99 cycles-per-reference epoch and its SLO-violation
count (epochs :data:`~repro.fleet.metrics.SLO_FACTOR` x slower than the
VM's own median).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.api.session import Session, default_session
from repro.experiments.output import render_table, violations_footer
from repro.fleet.metrics import FleetResult, fleet_violations
from repro.fleet.spec import FleetRequest, FleetSpec, HostSpec
from repro.sim.config import GuestConfig

#: Protocols the fleet study compares by default.
FLEET_PROTOCOLS = ("software", "hatric", "ideal")

#: Migration intensities (VMs moved per wave) swept by default.
DEFAULT_INTENSITIES = (1, 2, 3)

#: Default tenant workload: the steady-state remap source; its paging
#: pressure is what separates the protocols at fleet scale.
DEFAULT_FLEET_WORKLOAD = "syn:migration-daemon"


def fleet_spec(
    hosts: int = 2,
    vms_per_host: int = 2,
    workload: str = DEFAULT_FLEET_WORKLOAD,
    vcpus: int = 1,
    num_cpus: int = 8,
    seed: int = 42,
    policy: str = "round-robin",
    epochs: int = 4,
    epoch_refs: int = 2048,
    storm_refs: int = 512,
    intensity: int = 1,
) -> FleetSpec:
    """A homogeneous fleet: ``hosts`` hosts x ``vms_per_host`` guests."""
    if hosts < 2:
        raise ValueError("a fleet needs at least two hosts")
    if vms_per_host < 1:
        raise ValueError("vms_per_host must be positive")
    host = HostSpec(
        guests=tuple(
            GuestConfig(workload=workload, vcpus=vcpus)
            for _ in range(vms_per_host)
        )
    )
    return FleetSpec(
        hosts=tuple(host for _ in range(hosts)),
        num_cpus=num_cpus,
        seed=seed,
        policy=policy,
        epochs=epochs,
        epoch_refs=epoch_refs,
        storm_refs=storm_refs,
        intensity=intensity,
    )


@dataclass
class FleetStudyCell:
    """One (intensity, protocol) grid point's headline numbers."""

    intensity: int
    protocol: str
    makespan_cycles: int
    #: makespan / ideal makespan at the same intensity (None w/o ideal).
    normalized_makespan: Optional[float]
    #: fleet-wide busy cycles / ideal busy cycles: aggregate slowdown,
    #: insensitive to which host happens to be the makespan straggler.
    normalized_busy: Optional[float]
    coherence_cycles: int
    shootdown_messages: int
    remaps: int
    #: worst per-VM p99 cycles-per-reference epoch.
    worst_p99: float
    slo_violations: int
    migrations: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "intensity": self.intensity,
            "protocol": self.protocol,
            "makespan_cycles": self.makespan_cycles,
            "normalized_makespan": self.normalized_makespan,
            "normalized_busy": self.normalized_busy,
            "coherence_cycles": self.coherence_cycles,
            "shootdown_messages": self.shootdown_messages,
            "remaps": self.remaps,
            "worst_p99": self.worst_p99,
            "slo_violations": self.slo_violations,
            "migrations": self.migrations,
        }


@dataclass
class FleetStudyResult:
    """The full intensity sweep plus its invariant verdict."""

    policy: str
    num_hosts: int
    num_vms: int
    epochs: int
    epoch_refs: int
    storm_refs: int
    workloads: list[str] = field(default_factory=list)
    intensities: list[int] = field(default_factory=list)
    protocols: list[str] = field(default_factory=list)
    cells: list[FleetStudyCell] = field(default_factory=list)
    #: intensity -> protocol -> the full FleetResult.
    results: dict[int, dict[str, FleetResult]] = field(default_factory=dict)
    #: fleet name -> invariant violations (empty list = shape OK).
    violations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every intensity point satisfied every invariant."""
        return not any(self.violations.values())

    def cell(self, intensity: int, protocol: str) -> FleetStudyCell:
        """The grid cell of one (intensity, protocol) point."""
        for cell in self.cells:
            if cell.intensity == intensity and cell.protocol == protocol:
                return cell
        raise KeyError((intensity, protocol))

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible payload (the CLI's ``--json`` output)."""
        return {
            "policy": self.policy,
            "num_hosts": self.num_hosts,
            "num_vms": self.num_vms,
            "epochs": self.epochs,
            "epoch_refs": self.epoch_refs,
            "storm_refs": self.storm_refs,
            "workloads": list(self.workloads),
            "intensities": list(self.intensities),
            "protocols": list(self.protocols),
            "cells": [cell.to_dict() for cell in self.cells],
            "results": {
                str(intensity): {
                    protocol: result.to_dict()
                    for protocol, result in by_protocol.items()
                }
                for intensity, by_protocol in self.results.items()
            },
            "violations": self.violations,
            "ok": self.ok,
        }


def run_fleet_experiment(
    hosts: int = 2,
    vms_per_host: int = 2,
    workload: str = DEFAULT_FLEET_WORKLOAD,
    vcpus: int = 1,
    num_cpus: int = 8,
    seed: int = 42,
    policy: str = "round-robin",
    epochs: int = 4,
    epoch_refs: int = 2048,
    storm_refs: int = 512,
    intensities: Sequence[int] = DEFAULT_INTENSITIES,
    protocols: Sequence[str] = FLEET_PROTOCOLS,
    session: Optional[Session] = None,
) -> FleetStudyResult:
    """Sweep protocol x migration intensity over one fleet shape.

    Every (intensity, protocol) point is one cacheable
    :class:`~repro.fleet.spec.FleetRequest`; the whole grid goes through
    :meth:`Session.run_fleet` in a single batch, so ``--jobs`` fans the
    points out across processes and re-runs are answered from the
    result cache.  Each intensity's protocols are then checked against
    the fleet differential invariants.
    """
    if not intensities:
        raise ValueError("need at least one migration intensity")
    if not protocols:
        raise ValueError("need at least one protocol")
    # NOT ``session or default_session()``: an empty Session is falsy
    # (it has __len__), which would silently discard the caller's cache.
    session = session if session is not None else default_session()
    intensities = list(dict.fromkeys(int(x) for x in intensities))
    protocols = list(dict.fromkeys(protocols))

    specs = {
        intensity: fleet_spec(
            hosts=hosts,
            vms_per_host=vms_per_host,
            workload=workload,
            vcpus=vcpus,
            num_cpus=num_cpus,
            seed=seed,
            policy=policy,
            epochs=epochs,
            epoch_refs=epoch_refs,
            storm_refs=storm_refs,
            intensity=intensity,
        )
        for intensity in intensities
    }
    requests = [
        FleetRequest(spec=specs[intensity], protocol=protocol)
        for intensity in intensities
        for protocol in protocols
    ]
    outcomes = session.run_fleet(requests)

    study = FleetStudyResult(
        policy=policy,
        num_hosts=hosts,
        num_vms=hosts * vms_per_host,
        epochs=epochs,
        epoch_refs=epoch_refs,
        storm_refs=storm_refs,
        workloads=[workload],
        intensities=list(intensities),
        protocols=list(protocols),
    )
    position = 0
    for intensity in intensities:
        by_protocol: dict[str, FleetResult] = {}
        for protocol in protocols:
            by_protocol[protocol] = outcomes[position]
            position += 1
        study.results[intensity] = by_protocol
        ideal = by_protocol.get("ideal")
        for protocol, result in by_protocol.items():
            study.cells.append(
                FleetStudyCell(
                    intensity=intensity,
                    protocol=protocol,
                    makespan_cycles=result.makespan_cycles,
                    normalized_makespan=(
                        result.makespan_cycles / ideal.makespan_cycles
                        if ideal is not None and ideal.makespan_cycles
                        else None
                    ),
                    normalized_busy=(
                        result.totals["busy_cycles"]
                        / ideal.totals["busy_cycles"]
                        if ideal is not None and ideal.totals["busy_cycles"]
                        else None
                    ),
                    coherence_cycles=result.totals["coherence_cycles"],
                    shootdown_messages=sum(
                        result.totals["shootdown_messages"].values()
                    ),
                    remaps=result.totals["remaps"],
                    worst_p99=max(
                        (vm["tail"].get("p99", 0.0) for vm in result.vms),
                        default=0.0,
                    ),
                    slo_violations=result.totals["slo_violations"],
                    migrations=result.totals["migrations"],
                )
            )
        study.violations[specs[intensity].name] = fleet_violations(by_protocol)
    return study


def format_fleet(study: FleetStudyResult) -> str:
    """Render the study: the intensity grid plus per-VM tail tables.

    The grid's ``norm`` column is makespan normalized to the ideal
    protocol at the same intensity and ``slowdown`` is fleet-wide busy
    cycles over ideal's; the per-VM block (one per intensity)
    carries each VM's p99 cycles-per-reference and SLO-violation count
    under every protocol.  The footer is the invariant verdict.
    """
    lines = [
        f"fleet: {study.num_hosts} hosts x {study.num_vms} VMs, "
        f"policy={study.policy}, epochs={study.epochs}",
        f"  workload={'+'.join(study.workloads)}  "
        f"epoch_refs={study.epoch_refs}  storm_refs={study.storm_refs}",
        "",
    ]
    rows = []
    for cell in study.cells:
        rows.append(
            [
                cell.intensity,
                cell.protocol,
                cell.makespan_cycles,
                (
                    f"{cell.normalized_makespan:.3f}"
                    if cell.normalized_makespan is not None
                    else "-"
                ),
                (
                    f"{cell.normalized_busy:.3f}"
                    if cell.normalized_busy is not None
                    else "-"
                ),
                cell.coherence_cycles,
                cell.shootdown_messages,
                cell.remaps,
                f"{cell.worst_p99:.2f}",
                cell.slo_violations,
                cell.migrations,
            ]
        )
    lines.append(
        render_table(
            [
                "intensity",
                "protocol",
                "makespan",
                "norm",
                "slowdown",
                "coh.cycles",
                "shootdowns",
                "remaps",
                "p99 cyc/ref",
                "slo",
                "migrations",
            ],
            rows,
            aligns=["right", "left"] + ["right"] * 9,
        )
    )
    for intensity in study.intensities:
        by_protocol = study.results[intensity]
        columns = ["vm", "migrations"]
        for protocol in study.protocols:
            columns += [f"{protocol}.p99", f"{protocol}.slo"]
        vm_rows = []
        any_result = next(iter(by_protocol.values()))
        for vm_index in range(len(any_result.vms)):
            row: list[Any] = [
                any_result.vms[vm_index]["name"],
                any_result.vms[vm_index]["migrations"],
            ]
            for protocol in study.protocols:
                vm = by_protocol[protocol].vms[vm_index]
                row.append(f"{vm['tail'].get('p99', 0.0):.2f}")
                row.append(vm["slo_violations"])
            vm_rows.append(row)
        lines.append("")
        lines.append(f"per-VM tails, intensity={intensity}:")
        lines.append(render_table(columns, vm_rows))
    lines.append("")
    lines.extend(violations_footer(study.violations))
    return "\n".join(lines)


__all__ = [
    "DEFAULT_FLEET_WORKLOAD",
    "DEFAULT_INTENSITIES",
    "FLEET_PROTOCOLS",
    "FleetStudyCell",
    "FleetStudyResult",
    "fleet_spec",
    "format_fleet",
    "run_fleet_experiment",
]
