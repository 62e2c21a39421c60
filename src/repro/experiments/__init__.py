"""Experiment harnesses regenerating every figure of the paper.

Each module declares its figure as a :class:`repro.api.Sweep` (or, for
the remap anatomy, a batch of :class:`repro.api.RunRequest`) and exposes
a ``run_*`` function returning a result dataclass with the same
rows/series the corresponding figure reports, plus a ``format_*`` helper
producing the table printed by the benchmarks and examples.  All
experiments accept a ``scale`` parameter that shrinks the trace length
so they can run quickly in CI, and a ``session`` parameter so figures
sharing configurations (notably the ``no-hbm`` baselines) reuse each
other's runs; by default they share the process-global session.
"""

from repro.api import ExperimentScale
from repro.experiments.runner import baseline_config, run_configuration
from repro.experiments.figure2 import run_figure2, format_figure2, sweep_figure2
from repro.experiments.figure7 import run_figure7, format_figure7, sweep_figure7
from repro.experiments.figure8 import run_figure8, format_figure8, sweep_figure8
from repro.experiments.figure9 import run_figure9, format_figure9, sweep_figure9
from repro.experiments.figure10 import run_figure10, format_figure10, sweep_figure10
from repro.experiments.figure11 import (
    run_figure11_left,
    run_figure11_right,
    format_figure11_left,
    format_figure11_right,
    sweep_figure11_left,
    sweep_figure11_right,
)
from repro.experiments.figure12 import run_figure12, format_figure12, sweep_figure12
from repro.experiments.figure13 import run_figure13, format_figure13, sweep_figure13
from repro.experiments.xen_study import run_xen_study, format_xen_study, sweep_xen_study
from repro.experiments.anatomy import anatomy_requests, run_anatomy, format_anatomy
from repro.experiments.scenarios import (
    SCENARIO_FAMILIES,
    SCENARIO_PROTOCOLS,
    InvariantViolation,
    check_invariants,
    differential_violations,
    format_differential,
    format_scenarios,
    run_differential,
    run_scenarios,
    sweep_scenarios,
)
from repro.experiments.consolidation import (
    CONSOLIDATION_PROTOCOLS,
    consolidation_topology,
    format_consolidation,
    run_consolidation,
    sweep_consolidation,
)
from repro.experiments.timeline import (
    TIMELINE_PROTOCOLS,
    TimelineResult,
    TimelineSeries,
    format_timeline,
    run_timeline,
)
from repro.experiments.fleet import (
    FLEET_PROTOCOLS,
    FleetStudyResult,
    fleet_spec,
    format_fleet,
    run_fleet_experiment,
)
from repro.experiments.output import (
    experiment_output,
    render_table,
    violations_footer,
)

__all__ = [
    "CONSOLIDATION_PROTOCOLS",
    "ExperimentScale",
    "FLEET_PROTOCOLS",
    "FleetStudyResult",
    "experiment_output",
    "fleet_spec",
    "format_fleet",
    "render_table",
    "run_fleet_experiment",
    "violations_footer",
    "anatomy_requests",
    "baseline_config",
    "consolidation_topology",
    "format_anatomy",
    "format_consolidation",
    "format_figure10",
    "format_figure11_left",
    "format_figure11_right",
    "SCENARIO_FAMILIES",
    "SCENARIO_PROTOCOLS",
    "TIMELINE_PROTOCOLS",
    "TimelineResult",
    "TimelineSeries",
    "InvariantViolation",
    "check_invariants",
    "differential_violations",
    "format_figure12",
    "format_figure13",
    "format_figure2",
    "format_figure7",
    "format_figure8",
    "format_figure9",
    "format_scenarios",
    "format_differential",
    "format_timeline",
    "format_xen_study",
    "run_anatomy",
    "run_configuration",
    "run_consolidation",
    "run_differential",
    "run_scenarios",
    "run_figure10",
    "run_figure11_left",
    "run_figure11_right",
    "run_figure12",
    "run_figure13",
    "run_figure2",
    "run_figure7",
    "run_figure8",
    "run_figure9",
    "run_timeline",
    "run_xen_study",
    "sweep_figure10",
    "sweep_figure11_left",
    "sweep_figure11_right",
    "sweep_figure12",
    "sweep_figure13",
    "sweep_consolidation",
    "sweep_figure2",
    "sweep_figure7",
    "sweep_figure8",
    "sweep_figure9",
    "sweep_scenarios",
    "sweep_xen_study",
]
