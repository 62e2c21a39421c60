"""Hunt output: the frontier table and the committed scenario corpus.

The corpus file (``tests/golden/hunt_corpus.json``) snapshots the worst
cases a pinned hunt found, together with everything needed to replay
them: the full hunt settings and, per entry, the workload name plus its
recorded per-protocol runtimes and overhead ratios.  The regression
suite re-simulates every entry (on both engines, via
``REPRO_VALIDATE_FASTPATH``) and checks the recorded protocol ordering
and ratios within :data:`CORPUS_TOLERANCE`; :func:`corpus_requests`
rebuilds an entry's exact :class:`~repro.api.request.RunRequest` list
so tests and stress harnesses share one replay path.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.api import RunRequest
from repro.experiments.output import render_table, violations_footer
from repro.experiments.scenarios import family_config
from repro.search.engine import HuntResult, hunt_base_config
from repro.search.objectives import OBJECTIVES
from repro.workloads.multi import MULTI_PREFIX, parse_topology_name
from repro.workloads.synthetic import parse_scenario_name

#: Corpus file schema version (bump on incompatible layout changes).
CORPUS_SCHEMA = 1

#: Relative tolerance on re-simulated overhead ratios.  Replays are
#: bit-identical today (all engines agree and the corpus records the
#: replay scale), so this is slack for deliberate future cost-model
#: retunes — within it, corpus entries survive; beyond it, regenerate.
CORPUS_TOLERANCE = 0.05


def format_hunt(result: HuntResult) -> str:
    """Render a finished hunt as the frontier table plus a verdict."""
    objective = OBJECTIVES[result.settings.objective]
    columns = [
        "rank",
        "workload",
        objective.key,
        "sw/ideal",
        "hatric/ideal",
        "sw/hatric",
        "gen",
    ]
    rows = []
    for rank, entry in enumerate(result.frontier, start=1):
        metrics = entry.metrics
        rows.append(
            [
                rank,
                entry.workload,
                f"{entry.metric:.4f}",
                _cell(metrics.get("software_over_ideal")),
                _cell(metrics.get("hatric_over_ideal")),
                _cell(metrics.get("software_over_hatric")),
                entry.generation,
            ]
        )
    lines = [
        f"hunt: {len(result.evaluations)} evaluations over "
        f"{result.generations} generations, objective {objective.key} "
        f"({objective.description})",
        "",
        render_table(columns, rows),
        "",
    ]
    lines.extend(
        violations_footer({entry.workload: [] for entry in result.frontier})
    )
    return "\n".join(lines)


def _cell(value: Optional[float]) -> str:
    return f"{value:.4f}" if value is not None else "-"


def corpus_from_result(
    result: HuntResult,
    entries: Optional[int] = None,
) -> dict[str, Any]:
    """Serialize a hunt's frontier as a corpus payload (JSON-ready)."""
    frontier = result.frontier[: entries if entries else len(result.frontier)]
    return {
        "schema": CORPUS_SCHEMA,
        "tolerance": CORPUS_TOLERANCE,
        "settings": result.settings.to_dict(),
        "entries": [
            {
                "workload": entry.workload,
                "metric": entry.metric,
                "metrics": dict(entry.metrics),
                "runtime_cycles": dict(entry.runtime_cycles),
            }
            for entry in frontier
        ],
    }


def workload_families(workload: str) -> list[str]:
    """The distinct scenario families a hunt workload name touches."""
    if workload.startswith(MULTI_PREFIX):
        topology = parse_topology_name(workload)
        return sorted(
            {
                parse_scenario_name(guest.workload).family
                for guest in topology.guests
            }
        )
    return [parse_scenario_name(workload).family]


def corpus_requests(
    corpus: Mapping[str, Any],
    entry: Mapping[str, Any],
    engine: str = "",
) -> list[RunRequest]:
    """Rebuild one corpus entry's exact per-protocol requests.

    Reconstructs the machine the hunt evaluated the entry on from the
    corpus settings (baseline config at the recorded CPU count, plus
    the per-family paging knobs its workload name implies).
    """
    settings = corpus["settings"]
    config = hunt_base_config(settings["num_cpus"])
    for family in workload_families(entry["workload"]):
        config = family_config(config, family)
    return [
        RunRequest(
            config=config.with_protocol(protocol),
            workload=entry["workload"],
            refs_total=settings["refs_total"],
            warmup_refs=settings["warmup_refs"],
            engine=engine,
        )
        for protocol in settings["protocols"]
    ]


__all__ = [
    "CORPUS_SCHEMA",
    "CORPUS_TOLERANCE",
    "corpus_from_result",
    "corpus_requests",
    "format_hunt",
    "workload_families",
]
