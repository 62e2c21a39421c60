"""Scenario experiments: protocol x scenario sweeps, differential checks.

Two entry points on top of :mod:`repro.workloads.synthetic`:

* :func:`run_scenarios` sweeps {protocol} x {generated scenario} through
  the shared :class:`~repro.api.session.Session`, normalizing to the
  ideal protocol when it is part of the sweep;
* :func:`run_differential` runs the same grid and checks the
  cross-protocol invariants every translation coherence protocol must
  satisfy on *any* trace: ideal is never slower than a real protocol,
  HATRIC is never slower than the software shootdown, every counter is
  non-negative, and all protocols retire the identical reference count.

The invariants make randomized scenarios a strong test oracle: no
golden values are needed, so the differential suite is scale- and
platform-independent (``tests/test_differential.py`` runs it over a
fixed seed matrix).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.api import ExperimentScale, Session, Sweep
from repro.experiments.runner import baseline_config
from repro.sim.config import SystemConfig
from repro.sim.simulator import SimulationResult
from repro.workloads.synthetic import (
    FAMILY_PRESETS,
    ScenarioSpec,
    parse_scenario_name,
    scenario_spec,
)

#: Every translation coherence protocol under differential comparison.
SCENARIO_PROTOCOLS = ("software", "unitd", "hatric", "ideal")

#: All scenario families, in preset declaration order.
SCENARIO_FAMILIES = tuple(FAMILY_PRESETS)

#: Paging knobs a family needs beyond its trace shape: compaction
#: scenarios also turn on the hypervisor's defragmentation remaps so
#: resident pages are moved in place, not just evicted and refaulted.
_FAMILY_PAGING: dict[str, dict[str, Any]] = {
    "compaction": {"defrag_interval": 2500},
}


def family_config(config: SystemConfig, family: str) -> SystemConfig:
    """Apply a scenario family's config knobs to a base system."""
    paging_overrides = _FAMILY_PAGING.get(family)
    if paging_overrides:
        config = config.replace(
            paging=dataclasses.replace(config.paging, **paging_overrides)
        )
    return config


def _configure(config: SystemConfig, coords: Mapping[str, Any]) -> SystemConfig:
    spec = parse_scenario_name(coords["workload"])
    if spec.num_vcpus is not None:
        config = config.replace(num_cpus=spec.num_vcpus)
    return family_config(config, spec.family)


def scenario_names(
    families: Sequence[str] = SCENARIO_FAMILIES,
    seed: int = 0,
    **overrides: Any,
) -> list[str]:
    """Canonical workload names of one preset scenario per family."""
    return [
        scenario_spec(family, seed=seed, **overrides).name
        for family in families
    ]


def sweep_scenarios(
    scenarios: Sequence[str],
    protocols: Sequence[str] = SCENARIO_PROTOCOLS,
    base: Optional[SystemConfig] = None,
) -> Sweep:
    """The declarative sweep: every scenario under every protocol."""
    sweep = Sweep(
        axes={
            "workload": tuple(scenarios),
            "protocol": tuple(protocols),
        },
        base=base if base is not None else baseline_config(),
        configure=_configure,
    )
    if "ideal" in protocols:
        sweep = sweep.normalize_to(protocol="ideal")
    return sweep


# ----------------------------------------------------------------------
# differential validation
# ----------------------------------------------------------------------
#: Invariant identifiers reported by :func:`check_invariants`.
INVARIANT_NON_NEGATIVE = "non-negative-counters"
INVARIANT_IDEAL_FLOOR = "ideal-is-floor"
INVARIANT_HATRIC_BOUND = "hatric-beats-software"
INVARIANT_RETIRED = "identical-retired-refs"

INVARIANT_NAMES = (
    INVARIANT_NON_NEGATIVE,
    INVARIANT_IDEAL_FLOOR,
    INVARIANT_HATRIC_BOUND,
    INVARIANT_RETIRED,
)


@dataclass(frozen=True)
class InvariantViolation:
    """One violated cross-protocol invariant, with its offenders named.

    Attributes:
        invariant: which invariant failed (one of :data:`INVARIANT_NAMES`).
        protocols: the offending protocol(s), e.g. ``("hatric",
            "software")`` for an ordering violation or a single protocol
            for a counter violation.
        detail: human-readable evidence (the offending numbers).
    """

    invariant: str
    protocols: tuple[str, ...]
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {'/'.join(self.protocols)}: {self.detail}"

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (for reproducer payloads)."""
        return {
            "invariant": self.invariant,
            "protocols": list(self.protocols),
            "detail": self.detail,
        }


def check_invariants(
    results: Mapping[str, SimulationResult]
) -> list[InvariantViolation]:
    """Check one scenario's per-protocol results against the invariants.

    ``results`` maps protocol name to the :class:`SimulationResult` of
    the *same* scenario on the *same* machine shape.  Returns one
    :class:`InvariantViolation` per violated invariant, naming the
    invariant and the offending protocol(s) (empty = all hold).
    """
    violations: list[InvariantViolation] = []

    def negative(protocol: str, detail: str) -> None:
        violations.append(
            InvariantViolation(INVARIANT_NON_NEGATIVE, (protocol,), detail)
        )

    for protocol, result in results.items():
        stats = result.stats
        for event, count in stats.events.items():
            if count < 0:
                negative(protocol, f"negative event counter {event}={count}")
        for cpu, per_cpu in enumerate(stats.cpus):
            if (
                per_cpu.busy_cycles < 0
                or per_cpu.coherence_cycles < 0
                or per_cpu.instructions < 0
            ):
                negative(protocol, f"negative cpu{cpu} counters")
        if stats.background_cycles < 0:
            negative(protocol, "negative background cycles")
        if result.energy.dynamic < 0 or result.energy.static < 0:
            negative(protocol, "negative energy")

    retired = {p: r.stats.total_instructions for p, r in results.items()}
    if len(set(retired.values())) > 1:
        violations.append(
            InvariantViolation(
                INVARIANT_RETIRED,
                tuple(results),
                f"retired reference counts differ: {retired}",
            )
        )

    ideal = results.get("ideal")
    if ideal is not None:
        for protocol, result in results.items():
            if result.runtime_cycles < ideal.runtime_cycles:
                violations.append(
                    InvariantViolation(
                        INVARIANT_IDEAL_FLOOR,
                        ("ideal", protocol),
                        f"ideal slower than {protocol}: "
                        f"{ideal.runtime_cycles} > {result.runtime_cycles}",
                    )
                )
    hatric, software = results.get("hatric"), results.get("software")
    if hatric is not None and software is not None:
        if hatric.runtime_cycles > software.runtime_cycles:
            violations.append(
                InvariantViolation(
                    INVARIANT_HATRIC_BOUND,
                    ("hatric", "software"),
                    f"hatric slower than software: "
                    f"{hatric.runtime_cycles} > {software.runtime_cycles}",
                )
            )
    return violations


def differential_violations(
    results: Mapping[str, SimulationResult]
) -> list[str]:
    """Human-readable form of :func:`check_invariants` (empty = all OK)."""
    return [str(violation) for violation in check_invariants(results)]


@dataclass
class ScenarioCell:
    """One scenario under one protocol."""

    scenario: str
    family: str
    protocol: str
    runtime_cycles: int
    coherence_cycles: int
    normalized_runtime: Optional[float] = None


@dataclass
class ScenarioRunResult:
    """A full scenario sweep plus its differential validation verdict."""

    cells: list[ScenarioCell] = field(default_factory=list)
    #: scenario name -> invariant violations (empty list = scenario OK).
    violations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every scenario satisfied every invariant."""
        return not any(self.violations.values())

    def value(self, scenario: str, protocol: str) -> float:
        """Headline metric of one cell (normalized when available).

        Dict-indexed: the index is built once and refreshed if cells
        were appended since (lookups stay O(1), matching the grid
        accessors elsewhere in the experiments layer).
        """
        index = self.__dict__.get("_index")
        if index is None or len(index) != len(self.cells):
            index = {
                (cell.scenario, cell.protocol): cell for cell in self.cells
            }
            self.__dict__["_index"] = index
        cell = index.get((scenario, protocol))
        if cell is None:
            raise KeyError((scenario, protocol))
        if cell.normalized_runtime is not None:
            return cell.normalized_runtime
        return float(cell.runtime_cycles)


def run_scenarios(
    families: Sequence[str] = SCENARIO_FAMILIES,
    protocols: Sequence[str] = SCENARIO_PROTOCOLS,
    seed: int = 0,
    scenarios: Sequence[str] = (),
    scale: Optional[ExperimentScale] = None,
    session: Optional[Session] = None,
    base: Optional[SystemConfig] = None,
    **overrides: Any,
) -> ScenarioRunResult:
    """Run generated scenarios under every protocol and validate them.

    ``families`` select preset scenarios (seeded with ``seed``, tweaked
    by ``overrides`` such as ``num_vcpus=8``); ``scenarios`` adds
    explicit ``syn:`` names to the grid as-is.
    """
    names = scenario_names(families, seed=seed, **overrides) + list(scenarios)
    if not names:
        raise ValueError("no scenarios selected")
    grid = sweep_scenarios(names, protocols, base=base).run(
        session=session, scale=scale
    )
    result = ScenarioRunResult()
    per_scenario: dict[str, dict[str, SimulationResult]] = {}
    for cell in grid:
        scenario = cell.coords["workload"]
        protocol = cell.coords["protocol"]
        per_scenario.setdefault(scenario, {})[protocol] = cell.result
        result.cells.append(
            ScenarioCell(
                scenario=scenario,
                family=parse_scenario_name(scenario).family,
                protocol=protocol,
                runtime_cycles=cell.result.runtime_cycles,
                coherence_cycles=cell.result.coherence_cycles,
                normalized_runtime=(
                    cell.normalized_runtime if cell.baseline is not None else None
                ),
            )
        )
    for scenario, results in per_scenario.items():
        result.violations[scenario] = differential_violations(results)
    return result


def format_scenarios(result: ScenarioRunResult) -> str:
    """Render the sweep as a table: one row per scenario.

    Values are runtimes normalized to the ideal protocol when it was
    part of the sweep, raw runtime cycles otherwise; the footer reports
    the differential-invariant verdict.
    """
    protocols = list(dict.fromkeys(cell.protocol for cell in result.cells))
    scenarios = list(dict.fromkeys(cell.scenario for cell in result.cells))
    name_width = max([len("scenario")] + [len(s) for s in scenarios])
    header = f"{'scenario':<{name_width}}" + "".join(
        f"{p:>12}" for p in protocols
    )
    lines = [header, "-" * len(header)]
    for scenario in scenarios:
        values = ""
        for protocol in protocols:
            value = result.value(scenario, protocol)
            values += f"{value:>12.3f}" if value < 1e6 else f"{value:>12.3e}"
        lines.append(f"{scenario:<{name_width}}{values}")
    if result.ok:
        lines.append("differential invariants: OK")
    else:
        for scenario, violations in result.violations.items():
            for violation in violations:
                lines.append(f"VIOLATION {scenario}: {violation}")
    return "\n".join(lines)


@dataclass
class DifferentialReport:
    """Invariant verdicts for a matrix of scenarios."""

    protocols: tuple[str, ...]
    #: scenario name -> violations (empty list = scenario passed).
    violations: dict[str, list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """Whether every scenario passed."""
        return not any(self.violations.values())

    @property
    def checked(self) -> int:
        """How many scenarios were validated."""
        return len(self.violations)


def run_differential(
    scenarios: Sequence[str | ScenarioSpec],
    protocols: Sequence[str] = SCENARIO_PROTOCOLS,
    scale: Optional[ExperimentScale] = None,
    session: Optional[Session] = None,
    base: Optional[SystemConfig] = None,
) -> DifferentialReport:
    """Validate the cross-protocol invariants over arbitrary scenarios."""
    names = [
        s.name if isinstance(s, ScenarioSpec) else s for s in scenarios
    ]
    grid = sweep_scenarios(names, protocols, base=base).run(
        session=session, scale=scale
    )
    report = DifferentialReport(protocols=tuple(protocols))
    for name in names:
        results = {
            protocol: grid.result(workload=name, protocol=protocol)
            for protocol in protocols
        }
        report.violations[name] = differential_violations(results)
    return report


def format_differential(report: DifferentialReport) -> str:
    """Render a differential report as one PASS/FAIL line per scenario."""
    lines = []
    for scenario, violations in report.violations.items():
        verdict = "PASS" if not violations else "FAIL"
        lines.append(f"{verdict}  {scenario}")
        lines.extend(f"      {violation}" for violation in violations)
    lines.append(
        f"{report.checked} scenarios x {len(report.protocols)} protocols: "
        + ("all invariants hold" if report.ok else "INVARIANT VIOLATIONS")
    )
    return "\n".join(lines)
