"""Command-line front-end: ``python -m repro``.

Runs any figure of the paper or an arbitrary declarative sweep through
the :mod:`repro.api` engine, prints the table the figure encodes, and
optionally exports JSON.  Examples::

    python -m repro list
    python -m repro figure2 --scale 0.05
    python -m repro figure7 --workloads canneal,facesim --json
    python -m repro figure10 --mixes 4 --apps-per-mix 8 --jobs 4
    python -m repro sweep --axis protocol=software,hatric,ideal \\
        --axis workload=canneal,facesim \\
        --normalize protocol=ideal --normalize placement=slow-only
    python -m repro scenario run --family migration-daemon \\
        --protocols software,hatric,ideal --seed 7
    python -m repro scenario diff --seeds 0,1,2
    python -m repro consolidation --guests 1,2 --sharing pinned,shared \\
        --scale 0.3
    python -m repro bench --workloads facesim,swaptions --repeats 3 \\
        --output BENCH_3.json

Every parser that can be the last one parsed binds its handler with
``set_defaults(handler=...)``; a handler returns ``(text, exit_code)``
and :func:`main` prints the text, writes ``--output`` and returns the
code.  The full command reference lives in docs/CLI.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable, Optional, Sequence

from repro import __version__
from repro.api import ExperimentScale, Session, Sweep, SweepResult
from repro.api.cache import DEFAULT_PRUNE_MIN_AGE_SECONDS
from repro.experiments import (
    format_anatomy,
    format_figure2,
    format_figure7,
    format_figure8,
    format_figure9,
    format_figure10,
    format_figure11_left,
    format_figure11_right,
    format_figure12,
    format_figure13,
    format_xen_study,
    run_anatomy,
    run_figure2,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11_left,
    run_figure11_right,
    run_figure12,
    run_figure13,
    run_xen_study,
)
from repro.experiments.output import experiment_output, render_table
from repro.experiments.runner import baseline_config
from repro.experiments.scenarios import (
    SCENARIO_FAMILIES,
    SCENARIO_PROTOCOLS,
    format_differential,
    format_scenarios,
    run_differential,
    run_scenarios,
)
from repro.sim.engine import ENGINES
from repro.workloads import WORKLOADS, make_workload
from repro.workloads.synthetic import (
    ADDRESS_MODELS,
    SHARING_MODELS,
    scenario_spec,
    summarize_trace,
)


@dataclasses.dataclass(frozen=True)
class FigureSpec:
    """How to run and render one figure from the command line."""

    run: Callable[..., Any]
    fmt: Callable[[Any], str]
    description: str
    #: which generic CLI options this figure's run function accepts.
    params: tuple[str, ...] = ("workloads", "num_cpus", "scale", "session")


FIGURES: dict[str, FigureSpec] = {
    "figure2": FigureSpec(
        run_figure2, format_figure2, "cost of software translation coherence"
    ),
    "figure7": FigureSpec(run_figure7, format_figure7, "runtime vs vCPU count"),
    "figure8": FigureSpec(run_figure8, format_figure8, "runtime vs paging policy"),
    "figure9": FigureSpec(
        run_figure9, format_figure9, "translation structure size sensitivity"
    ),
    "figure10": FigureSpec(
        run_figure10,
        format_figure10,
        "multiprogrammed SPEC mixes",
        params=("mixes", "apps_per_mix", "scale", "session"),
    ),
    "figure11-left": FigureSpec(
        run_figure11_left,
        format_figure11_left,
        "performance-energy scatter (HATRIC vs software)",
        params=("num_cpus", "scale", "session"),
    ),
    "figure11-right": FigureSpec(
        run_figure11_right,
        format_figure11_right,
        "co-tag width sweep",
        params=("workloads", "num_cpus", "scale", "session"),
    ),
    "figure12": FigureSpec(
        run_figure12, format_figure12, "coherence directory ablation"
    ),
    "figure13": FigureSpec(run_figure13, format_figure13, "HATRIC vs UNITD++"),
    "anatomy": FigureSpec(
        run_anatomy,
        format_anatomy,
        "single page remap cost breakdown",
        params=("num_cpus", "session"),
    ),
    "xen": FigureSpec(
        run_xen_study, format_xen_study, "Xen case study"
    ),
}


def _list_of(item: Callable[[str], Any]) -> Callable[[str], tuple]:
    """argparse ``type=`` for a comma-separated list; ``""`` is empty."""

    def parse(raw: str) -> tuple:
        return tuple(item(part.strip()) for part in raw.split(",") if part.strip())

    # argparse names the type in its error: "invalid int-list value: 'x'"
    parse.__name__ = f"{item.__name__}-list"
    return parse


_NAMES = _list_of(str)
_INTS = _list_of(int)


def _parse_axis_value(raw: str) -> Any:
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


def _parse_key_values(pairs: Sequence[str], option: str) -> dict[str, Any]:
    parsed: dict[str, Any] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"{option} expects KEY=VALUE, got {pair!r}")
        parsed[key] = _parse_axis_value(value)
    return parsed


# ----------------------------------------------------------------------
# shared options: each helper adds a fresh action to the given parser
# ----------------------------------------------------------------------
def _add_json_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true", help="print JSON instead of a table"
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="also write the printed output to PATH",
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="FACTOR",
        help="trace-length multiplier (default: REPRO_EXPERIMENT_SCALE or 1.0)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan runs out across N worker processes (results are identical)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist results as JSON under DIR and reuse them across runs",
    )
    _add_json_output(parser)


def _add_protocols(parser: argparse.ArgumentParser, default: Sequence[str]) -> None:
    parser.add_argument(
        "--protocols",
        type=_NAMES,
        default=",".join(default),
        metavar="P1,P2,...",
        help=f"protocols to compare (default: {','.join(default)})",
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine",
        default=None,
        choices=ENGINES,
        help="simulation engine (default: REPRO_SIM_ENGINE or fast)",
    )


def _add_no_cache(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache (on by default here)",
    )


def _add_store_dir(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result-store directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro-hatric)",
    )


def _add_timeline_options(parser: argparse.ArgumentParser) -> None:
    """The request shape timeline and profile share (and so cache)."""
    from repro.experiments.timeline import (
        DEFAULT_TIMELINE_REFS,
        DEFAULT_TIMELINE_VCPUS,
        DEFAULT_TIMELINE_WORKLOAD,
        TIMELINE_PROTOCOLS,
    )

    parser.add_argument(
        "--workload",
        default=DEFAULT_TIMELINE_WORKLOAD,
        metavar="NAME",
        help=f"workload to run (default {DEFAULT_TIMELINE_WORKLOAD!r}; "
        f"suite, mixNN, syn:, multi: and prefix: names all work)",
    )
    _add_protocols(parser, TIMELINE_PROTOCOLS)
    parser.add_argument(
        "--num-cpus",
        type=int,
        default=DEFAULT_TIMELINE_VCPUS,
        metavar="N",
        help=f"vCPU count (default {DEFAULT_TIMELINE_VCPUS})",
    )
    parser.add_argument(
        "--refs",
        type=int,
        default=DEFAULT_TIMELINE_REFS,
        metavar="N",
        help=f"total references (default {DEFAULT_TIMELINE_REFS})",
    )
    parser.add_argument(
        "--intervals",
        type=int,
        default=16,
        metavar="N",
        help="approximate number of telemetry intervals (default 16)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate figures of the HATRIC paper or run custom sweeps.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list figures and workloads").set_defaults(
        handler=_run_list
    )

    for name, spec in FIGURES.items():
        sub = subparsers.add_parser(name, help=spec.description)
        sub.set_defaults(handler=_run_figure, figure=name)
        _add_common(sub)
        if "workloads" in spec.params:
            sub.add_argument(
                "--workloads",
                type=_NAMES,
                default=None,
                metavar="A,B,...",
                help="comma-separated workload names (default: the paper's suite)",
            )
        if "num_cpus" in spec.params:
            sub.add_argument(
                "--num-cpus", type=int, default=None, metavar="N", help="vCPU count"
            )
        if "mixes" in spec.params:
            sub.add_argument(
                "--mixes", type=int, default=None, metavar="N", help="number of mixes"
            )
        if "apps_per_mix" in spec.params:
            sub.add_argument(
                "--apps-per-mix",
                type=int,
                default=None,
                metavar="N",
                help="applications (vCPUs) per mix",
            )

    sweep = subparsers.add_parser("sweep", help="run an arbitrary declarative sweep")
    sweep.set_defaults(handler=_run_sweep)
    _add_common(sweep)
    sweep.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME=V1,V2,...",
        help="one sweep axis; NAME is 'workload' or a SystemConfig field "
        "(protocol, placement, hypervisor, num_cpus, ...); repeatable",
    )
    sweep.add_argument(
        "--normalize",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="normalize each point to the sibling with NAME overridden; repeatable",
    )
    sweep.add_argument(
        "--num-cpus",
        type=int,
        default=16,
        metavar="N",
        help="vCPU count of the base system (default 16)",
    )
    sweep.add_argument(
        "--hypervisor",
        default="kvm",
        choices=("kvm", "xen"),
        help="hypervisor of the base system",
    )

    _add_consolidation_parser(subparsers)
    _add_scenario_parser(subparsers)
    _add_hunt_parser(subparsers)
    _add_timeline_parser(subparsers)
    _add_profile_parser(subparsers)
    _add_run_parser(subparsers)
    _add_trace_parser(subparsers)
    _add_fleet_parser(subparsers)
    _add_cache_parser(subparsers)
    _add_bench_parser(subparsers)
    _add_serve_parser(subparsers)
    _add_loadtest_parser(subparsers)
    return parser


def _add_serve_parser(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve",
        help="serve simulations over HTTP (multi-tenant, single-flight)",
        description=(
            "Start the asyncio HTTP/JSON simulation service: clients "
            "POST RunRequest/Sweep/FleetRequest payloads, identical "
            "in-flight requests coalesce to one execution, and results "
            "persist in the shared on-disk store.  See docs/SERVE.md."
        ),
    )
    serve.set_defaults(handler=_run_serve)
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8357,
        metavar="PORT",
        help="port to listen on; 0 picks an ephemeral port (default 8357)",
    )
    _add_store_dir(serve)
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="cold-simulation worker processes; 0 executes on an "
        "in-process thread pool (default 2)",
    )


def _add_loadtest_parser(subparsers) -> None:
    loadtest = subparsers.add_parser(
        "loadtest",
        help="drive concurrent synthetic clients against a server",
        description=(
            "Run the concurrency/load harness: seeded asyncio clients "
            "issue a zipf-skewed request mix, then the run asserts the "
            "service contract (single-flight dedup, counter "
            "conservation, zero invariant violations, bit-identity "
            "with direct execution) and reports hit/miss latency "
            "percentiles.  Spawns an in-process server unless --port "
            "targets a live one."
        ),
    )
    loadtest.set_defaults(handler=_run_loadtest)
    loadtest.add_argument(
        "--clients",
        type=int,
        default=1000,
        metavar="N",
        help="concurrent synthetic clients (default 1000)",
    )
    loadtest.add_argument(
        "--requests",
        type=int,
        default=3,
        metavar="N",
        help="sequential requests per client (default 3)",
    )
    loadtest.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="run for a fixed time instead of a fixed request count",
    )
    loadtest.add_argument(
        "--scenarios",
        type=int,
        default=8,
        metavar="N",
        help="distinct synthetic scenarios in the pool (default 8)",
    )
    loadtest.add_argument(
        "--zipf",
        type=float,
        default=1.1,
        metavar="S",
        help="zipf skew of the request mix (default 1.1)",
    )
    loadtest.add_argument(
        "--seed",
        type=int,
        default=2025,
        metavar="N",
        help="seed for the scenario pool and the request mix",
    )
    loadtest.add_argument(
        "--num-cpus",
        type=int,
        default=4,
        metavar="N",
        help="machine shape of every request (default 4)",
    )
    loadtest.add_argument(
        "--refs",
        type=int,
        default=4000,
        metavar="N",
        help="per-request reference budget (default 4000)",
    )
    loadtest.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker processes of the spawned server; 0 uses threads "
        "(default 2; ignored with --port)",
    )
    loadtest.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="store directory of the spawned server (default: the "
        "default store; ignored with --port)",
    )
    loadtest.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="host of an already-running server (with --port)",
    )
    loadtest.add_argument(
        "--port",
        type=int,
        default=None,
        metavar="PORT",
        help="port of an already-running server; omit to spawn one "
        "in-process",
    )
    loadtest.add_argument(
        "--connection-limit",
        type=int,
        default=None,
        metavar="N",
        help="simultaneously-open client connections (default 256)",
    )
    loadtest.add_argument(
        "--expect",
        choices=("cold", "warm", "any"),
        default="cold",
        help="dedup assertion: cold store (executed == distinct), warm "
        "store (executed == 0), or any (executed <= distinct)",
    )
    loadtest.add_argument(
        "--no-multi",
        action="store_true",
        help="exclude multi-VM (consolidated) names from the pool",
    )
    loadtest.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bit-identity re-execution of distinct requests",
    )
    _add_json_output(loadtest)


def _add_hunt_parser(subparsers) -> None:
    from repro.search import DEFAULT_OBJECTIVE, OBJECTIVES, HuntSettings

    hunt = subparsers.add_parser(
        "hunt", help="adversarial scenario search under the invariant oracle"
    )
    hunt.set_defaults(handler=_run_hunt)
    _add_common(hunt)
    hunt.add_argument(
        "--budget", type=int, default=50, metavar="N",
        help="unique candidate evaluations before stopping (default 50)",
    )
    hunt.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="hunt seed; the same seed replays the identical hunt",
    )
    hunt.add_argument(
        "--objective",
        default=DEFAULT_OBJECTIVE,
        choices=tuple(OBJECTIVES),
        help="protocol gap to optimize (default: %(default)s)",
    )
    _add_protocols(hunt, HuntSettings.protocols)
    hunt.add_argument(
        "--num-cpus", type=int, default=8, metavar="N",
        help="pCPU count of the hunted machine (default 8)",
    )
    hunt.add_argument(
        "--refs", type=int, default=12_000, metavar="N",
        help="references per simulation, before --scale (default 12000)",
    )
    hunt.add_argument(
        "--population", type=int, default=8, metavar="N",
        help="candidates bred per generation (default 8)",
    )
    hunt.add_argument(
        "--max-guests", type=int, default=2, metavar="N",
        help="guest ceiling for multi-VM candidates (default 2)",
    )
    hunt.add_argument(
        "--frontier", type=int, default=8, metavar="N",
        help="top evaluations kept in the reported frontier (default 8)",
    )
    hunt.add_argument(
        "--corpus", default=None, metavar="PATH",
        help="also write the frontier as a scenario-corpus JSON to PATH",
    )
    _add_no_cache(hunt)


def _cached_session(args: argparse.Namespace, checkpoints: bool = False) -> Session:
    # Hunts and scenario runs default to the persistent cache, so
    # re-running the same command is answered from disk (a seeded hunt
    # replays the identical request sequence, and with checkpoints its
    # neighboring candidates reuse checkpoint families).  --no-cache
    # always wins, including over an explicit --cache-dir.
    if args.no_cache:
        return Session(max_workers=args.jobs)
    return Session(
        cache_dir=args.cache_dir or True,
        max_workers=args.jobs,
        checkpoints=checkpoints,
    )


def _run_hunt(args: argparse.Namespace) -> tuple[str, int]:
    from repro.search import (
        HuntSettings,
        HuntViolationError,
        corpus_from_result,
        format_hunt,
        run_hunt,
    )

    settings = HuntSettings(
        objective=args.objective,
        budget=args.budget,
        seed=args.seed,
        protocols=args.protocols,
        num_cpus=args.num_cpus,
        refs_total=args.refs,
        population=args.population,
        max_guests=args.max_guests,
        frontier_size=args.frontier,
    )
    if args.scale is not None:
        settings = settings.scaled(args.scale)
    session = _cached_session(args, checkpoints=True)
    try:
        result = run_hunt(settings, session)
    except HuntViolationError as error:
        lines = [
            f"VIOLATION {error.workload}: {violation}"
            for violation in error.violations
        ]
        lines.append("reproducer (hunt seed + RunRequest payloads):")
        lines.append(json.dumps(error.reproducer, indent=2))
        return experiment_output(
            args.json,
            lambda: {
                "ok": False,
                "error": str(error),
                "reproducer": error.reproducer,
                "session": dataclasses.asdict(session.stats),
            },
            lambda: "\n".join(lines),
            ok=False,
        )
    if args.corpus:
        with open(args.corpus, "w", encoding="utf-8") as handle:
            json.dump(corpus_from_result(result), handle, indent=2)
            handle.write("\n")
    return experiment_output(
        args.json,
        lambda: {
            **result.to_dict(),
            "ok": True,
            "session": dataclasses.asdict(session.stats),
        },
        lambda: format_hunt(result) + "\n" + _session_footer(session),
    )


def _add_fleet_parser(subparsers) -> None:
    from repro.experiments.fleet import (
        DEFAULT_FLEET_WORKLOAD,
        DEFAULT_INTENSITIES,
        FLEET_PROTOCOLS,
    )
    from repro.fleet import MIGRATION_POLICIES

    fleet = subparsers.add_parser(
        "fleet",
        help="fleet-scale study: live migration between simulated hosts",
        description=(
            "Simulate a datacenter of identical hosts whose guests live-"
            "migrate between them on a deterministic schedule, sweeping "
            "translation coherence protocols over migration intensity. "
            "Each move ships the guest's page tables to the destination "
            "and replays a dirty-logging write storm on both ends; the "
            "table reports fleet makespan normalized to the ideal "
            "protocol plus per-VM p99 tail latency and SLO violations.  "
            "The exit code reflects the fleet differential invariants."
        ),
    )
    fleet.set_defaults(handler=_run_fleet)
    _add_common(fleet)
    fleet.add_argument(
        "--hosts", type=int, default=2, metavar="N",
        help="number of simulated hosts (default 2)",
    )
    fleet.add_argument(
        "--vms-per-host", type=int, default=2, metavar="N",
        help="guests initially placed on each host (default 2)",
    )
    fleet.add_argument(
        "--workload",
        default=DEFAULT_FLEET_WORKLOAD,
        metavar="NAME",
        help=f"per-guest tenant workload (default {DEFAULT_FLEET_WORKLOAD!r})",
    )
    fleet.add_argument(
        "--vcpus", type=int, default=1, metavar="N",
        help="vCPUs per guest (default 1)",
    )
    fleet.add_argument(
        "--num-cpus", type=int, default=8, metavar="N",
        help="pCPUs per host (default 8)",
    )
    fleet.add_argument(
        "--seed", type=int, default=42, metavar="N",
        help="fleet master seed (default 42)",
    )
    fleet.add_argument(
        "--policy",
        default="round-robin",
        choices=MIGRATION_POLICIES,
        help="migration scheduling policy (default round-robin)",
    )
    fleet.add_argument(
        "--epochs", type=int, default=4, metavar="N",
        help="round-aligned execution epochs (default 4)",
    )
    fleet.add_argument(
        "--epoch-refs", type=int, default=2048, metavar="N",
        help="per-vCPU references per epoch; multiple of 32 (default 2048)",
    )
    fleet.add_argument(
        "--storm-refs", type=int, default=512, metavar="N",
        help="per-stream dirty-logging storm length; multiple of 32 "
        "(default 512)",
    )
    fleet.add_argument(
        "--intensities",
        type=_INTS,
        default=",".join(str(x) for x in DEFAULT_INTENSITIES),
        metavar="N1,N2,...",
        help=f"VMs migrated per wave, one fleet per value (default "
        f"{','.join(str(x) for x in DEFAULT_INTENSITIES)})",
    )
    _add_protocols(fleet, FLEET_PROTOCOLS)
    _add_engine(fleet)


def _run_fleet(args: argparse.Namespace) -> tuple[str, int]:
    from repro.experiments.fleet import format_fleet, run_fleet_experiment

    if args.scale is not None:
        raise ValueError(
            "fleet does not take --scale (its epoch geometry is explicit; "
            "use --epochs/--epoch-refs instead)"
        )
    study = run_fleet_experiment(
        hosts=args.hosts,
        vms_per_host=args.vms_per_host,
        workload=args.workload,
        vcpus=args.vcpus,
        num_cpus=args.num_cpus,
        seed=args.seed,
        policy=args.policy,
        epochs=args.epochs,
        epoch_refs=args.epoch_refs,
        storm_refs=args.storm_refs,
        intensities=args.intensities,
        protocols=args.protocols,
        engine=args.engine or "",
        session=_session_from_args(args),
    )
    return experiment_output(
        args.json,
        study.to_dict,
        lambda: format_fleet(study),
        ok=study.ok,
    )


def _add_timeline_parser(subparsers) -> None:
    timeline = subparsers.add_parser(
        "timeline",
        help="time-resolved protocol comparison (interval telemetry)",
        description=(
            "Run one workload under several translation coherence "
            "protocols with per-interval statistics deltas and print "
            "the protocols' coherence activity over time -- e.g. the "
            "software baseline's shootdown storms during "
            "migration-daemon bursts while HATRIC stays flat.  "
            "multi: composed names give consolidated timelines."
        ),
    )
    timeline.set_defaults(handler=_run_timeline)
    _add_common(timeline)
    _add_timeline_options(timeline)
    timeline.add_argument(
        "--chart",
        action="store_true",
        help="render compact ASCII activity sparklines instead of "
        "per-interval tables",
    )


def _run_timeline(args: argparse.Namespace) -> tuple[str, int]:
    from repro.experiments.timeline import (
        format_timeline,
        format_timeline_chart,
        run_timeline,
    )

    result = run_timeline(
        workload=args.workload,
        protocols=args.protocols,
        num_cpus=args.num_cpus,
        refs_total=args.refs,
        intervals=args.intervals,
        scale=_scale_from_args(args),
        session=_session_from_args(args),
    )
    renderer = format_timeline_chart if args.chart else format_timeline
    return experiment_output(
        args.json, result.to_dict, lambda: renderer(result)
    )


def _add_profile_parser(subparsers) -> None:
    profile = subparsers.add_parser(
        "profile",
        help="per-component cycle/energy attribution report",
        description=(
            "Run one workload under several protocols and report where "
            "the cycles and energy went: exact measured splits "
            "(translate+memory vs translation coherence vs background "
            "paging daemon), modeled attribution within them (events x "
            "cost model: shootdown initiator/target, directory traffic, "
            "co-tag CAM searches, page copies), the energy model's "
            "per-structure breakdown, per-VM splits for multi: "
            "workloads, and a coherence activity sparkline.  Shares "
            "request shapes (and hence cached results) with timeline."
        ),
    )
    profile.set_defaults(handler=_run_profile)
    _add_common(profile)
    _add_timeline_options(profile)


def _run_profile(args: argparse.Namespace) -> tuple[str, int]:
    from repro.experiments.profile import format_profile, run_profile

    result = run_profile(
        workload=args.workload,
        protocols=args.protocols,
        num_cpus=args.num_cpus,
        refs_total=args.refs,
        intervals=args.intervals,
        scale=_scale_from_args(args),
        session=_session_from_args(args),
    )
    return experiment_output(
        args.json, result.to_dict, lambda: format_profile(result)
    )


def _add_run_parser(subparsers) -> None:
    run = subparsers.add_parser(
        "run",
        help="run one workload/protocol and print its summary",
        description=(
            "Execute a single simulation through the session (so the "
            "result caches like any other request) and print its "
            "headline measurements plus a fingerprint digest over "
            "everything the run measured.  With REPRO_TRACE set, the "
            "run emits session-planning and simulator-interval spans; "
            "the printed digest is bit-identical with tracing on or "
            "off."
        ),
    )
    run.set_defaults(handler=_run_run)
    _add_common(run)
    run.add_argument(
        "--workload",
        default="syn:migration-daemon/addr=zipf/seed=7",
        metavar="NAME",
        help="workload to run (default 'syn:migration-daemon/addr=zipf/"
        "seed=7'; suite, mixNN, syn:, multi: and prefix: names all work)",
    )
    run.add_argument(
        "--protocol",
        default="hatric",
        metavar="P",
        help="translation coherence protocol (default hatric)",
    )
    _add_engine(run)
    run.add_argument(
        "--num-cpus",
        type=int,
        default=8,
        metavar="N",
        help="vCPU count (default 8)",
    )
    run.add_argument(
        "--refs",
        type=int,
        default=20_000,
        metavar="N",
        help="total references (default 20000)",
    )
    run.add_argument(
        "--intervals",
        type=int,
        default=0,
        metavar="N",
        help="emit interval telemetry in approximately N windows "
        "(default 0: no intervals)",
    )


def _run_run(args: argparse.Namespace) -> tuple[str, int]:
    import hashlib

    from repro.api.request import RunRequest
    from repro.sim.engine import result_fingerprint

    session = _session_from_args(args)
    interval_refs = (
        max(256, args.refs // args.intervals) if args.intervals > 0 else None
    )
    request = RunRequest(
        config=baseline_config(num_cpus=args.num_cpus, protocol=args.protocol),
        workload=args.workload,
        refs_total=args.refs,
        interval_refs=interval_refs,
        engine=args.engine or "",
    )
    result = session.run(request)
    fingerprint = result_fingerprint(result)
    digest = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    ).hexdigest()

    def payload() -> dict:
        return {
            "workload": args.workload,
            "protocol": args.protocol,
            "key": request.cache_key,
            "runtime_cycles": result.runtime_cycles,
            "coherence_cycles": result.coherence_cycles,
            "background_cycles": result.stats.background_cycles,
            "instructions": result.stats.total_instructions,
            "energy": result.energy_total,
            "intervals": len(result.intervals),
            "fingerprint_sha256": digest,
        }

    def table() -> str:
        lines = [
            f"run: {args.workload} protocol={args.protocol} "
            f"cpus={args.num_cpus} refs={args.refs}",
            f"  runtime cycles:    {result.runtime_cycles}",
            f"  coherence cycles:  {result.coherence_cycles}",
            f"  background cycles: {result.stats.background_cycles}",
            f"  instructions:      {result.stats.total_instructions}",
            f"  energy:            {result.energy_total:.1f}",
            f"  intervals:         {len(result.intervals)}",
            f"  fingerprint:       sha256:{digest}",
            _session_footer(session),
        ]
        return "\n".join(lines)

    return experiment_output(args.json, payload, table)


def _add_trace_parser(subparsers) -> None:
    trace = subparsers.add_parser(
        "trace",
        help="inspect and export REPRO_TRACE output",
        description=(
            "Work with the JSONL trace files written when REPRO_TRACE "
            "is set: validate and convert them to a Chrome trace_event "
            "JSON file (loadable in chrome://tracing or Perfetto), or "
            "summarize span counts and total durations."
        ),
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export",
        help="validate a JSONL trace and write a Chrome trace file",
        description=(
            "Validate every event of a JSONL trace and write the "
            "{'traceEvents': [...]} JSON object format that "
            "chrome://tracing and Perfetto load directly."
        ),
    )
    export.set_defaults(handler=_run_trace_export)
    export.add_argument(
        "trace_file", metavar="TRACE", help="JSONL trace written via REPRO_TRACE"
    )
    export.add_argument(
        "chrome_file", metavar="OUT", help="Chrome trace JSON file to write"
    )
    summary = trace_sub.add_parser(
        "summary",
        help="per-span event counts and total durations",
        description=(
            "Validate a JSONL trace and print one row per span/event "
            "name with its occurrence count and summed duration."
        ),
    )
    summary.set_defaults(handler=_run_trace_summary)
    summary.add_argument(
        "trace_file", metavar="TRACE", help="JSONL trace written via REPRO_TRACE"
    )


def _run_trace_export(args: argparse.Namespace) -> tuple[str, int]:
    from repro.obs.trace import export_chrome

    count = export_chrome(args.trace_file, args.chrome_file)
    return (
        f"wrote {args.chrome_file}: {count} events (Chrome trace_event format)",
        0,
    )


def _run_trace_summary(args: argparse.Namespace) -> tuple[str, int]:
    from repro.obs.trace import load_events, summarize_events, validate_events

    events = load_events(args.trace_file)
    validate_events(events)
    summary = summarize_events(events)
    lines = [f"trace: {args.trace_file} ({summary['events']} events)"]
    width = max((len(name) for name in summary["names"]), default=0)
    for name, entry in summary["names"].items():
        lines.append(
            f"  {name:<{width}}  count={entry['count']:<6} "
            f"total={entry['total_us']}us"
        )
    return "\n".join(lines), 0


def _add_cache_parser(subparsers) -> None:
    cache = subparsers.add_parser(
        "cache",
        help="manage the on-disk result/checkpoint caches",
        description=(
            "Inspect and maintain the on-disk JSON caches: simulation "
            "results plus the machine checkpoints living in their "
            "checkpoints/ subdirectory."
        ),
    )
    _add_store_dir(cache)
    commands = cache.add_subparsers(dest="cache_command", required=True)
    commands.add_parser(
        "info", help="show cache location and entry counts"
    ).set_defaults(handler=_run_cache_info)
    prune = commands.add_parser(
        "prune",
        help="delete stale-version and undecodable entries",
        description=(
            "Delete result and checkpoint files whose schema stamp no "
            "longer matches the running code (or which cannot be "
            "decoded at all).  Lookups already treat such entries as "
            "misses; pruning removes them instead of ignoring them "
            "forever.  Entries younger than --min-age are left alone, "
            "so pruning a directory a live server is writing to never "
            "deletes in-flight work."
        ),
    )
    prune.set_defaults(handler=_run_cache_prune)
    prune.add_argument(
        "--min-age",
        type=float,
        default=DEFAULT_PRUNE_MIN_AGE_SECONDS,
        metavar="SECONDS",
        help="only delete entries at least this old (default 3600; "
        "pass 0 to prune regardless of age)",
    )


def _store_session(args: argparse.Namespace) -> Session:
    # A session owns both stores (results + checkpoints/ subdirectory),
    # so the CLI maintains exactly what sessions read and write.
    return Session(cache_dir=args.cache_dir or True, checkpoints=True)


def _run_cache_info(args: argparse.Namespace) -> tuple[str, int]:
    # The same canonical metric names the serve layer exports on
    # /stats and /metrics, so counters never drift between surfaces.
    from repro.obs.metrics import STORE_METRIC_HELP, store_snapshot

    session = _store_session(args)
    snapshot = store_snapshot(session.disk_cache, session.checkpoint_store)
    lines = [f"cache directory: {session.disk_cache.directory}"]
    width = max(len(name) for name in STORE_METRIC_HELP)
    for name, help_text in STORE_METRIC_HELP.items():
        lines.append(f"  {name:<{width}}  {snapshot[name]:<10}  {help_text}")
    return "\n".join(lines), 0


def _run_cache_prune(args: argparse.Namespace) -> tuple[str, int]:
    session = _store_session(args)
    pruned = session.prune(min_age_seconds=args.min_age)
    lines = [f"cache directory: {session.disk_cache.directory}"]
    for section in ("results", "checkpoints"):
        stats = pruned[section]
        line = f"{section}: removed {stats.removed} stale, kept {stats.kept}"
        if stats.failed:
            line += f", failed to delete {stats.failed}"
        lines.append(line)
    status = 1 if any(stats.failed for stats in pruned.values()) else 0
    return "\n".join(lines), status


def _add_consolidation_parser(subparsers) -> None:
    from repro.experiments.consolidation import CONSOLIDATION_PROTOCOLS

    consolidation = subparsers.add_parser(
        "consolidation",
        help="multi-VM consolidation study (protocol x guests x sharing)",
        description=(
            "Consolidate N copies of a tenant workload onto one machine "
            "(multi: composed workloads), sweep the translation coherence "
            "protocols over guest counts and vCPU sharing models, and "
            "validate the differential invariants.  The exit code "
            "reflects the invariant verdict."
        ),
    )
    consolidation.set_defaults(handler=_run_consolidation)
    _add_common(consolidation)
    consolidation.add_argument(
        "--guests",
        type=_INTS,
        default="1,2",
        metavar="N1,N2,...",
        help="guest counts to sweep (default 1,2)",
    )
    consolidation.add_argument(
        "--sharing",
        type=_NAMES,
        default="pinned,shared",
        metavar="M1,M2,...",
        help="vCPU placement models: pinned (dedicated pCPU blocks) "
        "and/or shared (guests oversubscribe every pCPU)",
    )
    _add_protocols(consolidation, CONSOLIDATION_PROTOCOLS)
    consolidation.add_argument(
        "--guest-workload",
        default=None,
        metavar="NAME",
        help="per-guest tenant workload (suite, mixNN or syn: name; "
        "default: the seeded migration-daemon scenario)",
    )
    consolidation.add_argument(
        "--num-cpus",
        type=int,
        default=8,
        metavar="N",
        help="physical CPUs of the consolidated machine (default 8)",
    )
    consolidation.add_argument(
        "--seed",
        type=int,
        default=7,
        metavar="N",
        help="seed of the default tenant scenario",
    )
    consolidation.add_argument(
        "--mem-share",
        type=float,
        default=None,
        metavar="FRACTION",
        help="give every guest this static fraction of die-stacked DRAM "
        "instead of the shared pool",
    )


def _run_consolidation(args: argparse.Namespace) -> tuple[str, int]:
    from repro.experiments.consolidation import (
        format_consolidation,
        run_consolidation,
    )

    result = run_consolidation(
        guest_counts=args.guests,
        sharing_models=args.sharing,
        protocols=args.protocols,
        guest_workload=args.guest_workload,
        num_cpus=args.num_cpus,
        seed=args.seed,
        mem_share=args.mem_share,
        scale=_scale_from_args(args),
        session=_session_from_args(args),
    )
    return experiment_output(
        args.json,
        lambda: {
            "cells": [dataclasses.asdict(cell) for cell in result.cells],
            "violations": result.violations,
            "ok": result.ok,
        },
        lambda: format_consolidation(result),
        ok=result.ok,
    )


def _add_bench_parser(subparsers) -> None:
    from repro.perf.bench import DEFAULT_BENCH_TAG

    bench = subparsers.add_parser(
        "bench",
        help="time the reference and fast simulation engines",
        description=(
            "Benchmark the fast simulation engine against the reference "
            "engine across figure workloads and synthetic scenarios, "
            "verifying that both produce bit-identical results.  See "
            "docs/PERFORMANCE.md for how to read the output."
        ),
    )
    bench.set_defaults(handler=_run_bench)
    bench.add_argument(
        "--workloads",
        type=_NAMES,
        default=None,
        metavar="A,B,...",
        help="comma-separated workload names (default: the bench suite)",
    )
    bench.add_argument(
        "--scenarios",
        type=_NAMES,
        default=None,
        metavar="S1,S2,...",
        help="comma-separated syn: scenario names (default: three families; "
        "pass an empty string to skip scenarios)",
    )
    bench.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="interleaved timing repetitions per engine (default 3, best-of)",
    )
    bench.add_argument(
        "--scale",
        type=float,
        default=None,
        metavar="FACTOR",
        help="trace-length multiplier (default: 1.0, the figures' scale)",
    )
    bench.add_argument(
        "--num-cpus", type=int, default=16, metavar="N", help="vCPU count"
    )
    bench.add_argument(
        "--protocol",
        default="hatric",
        choices=("software", "unitd", "hatric", "ideal"),
        help="translation coherence protocol of the benchmarked machine",
    )
    bench.add_argument(
        "--tag",
        type=int,
        default=DEFAULT_BENCH_TAG,
        metavar="N",
        help=f"trajectory tag stamped into the payload (default "
        f"{DEFAULT_BENCH_TAG}; one tag per PR)",
    )
    bench.add_argument(
        "--json", action="store_true", help="print JSON instead of a table"
    )
    # Not the printed text: the JSON payload, whatever --json says.  Its
    # own dest keeps main()'s generic --output writer away from it.
    bench.add_argument(
        "--output",
        dest="payload_path",
        default=None,
        metavar="PATH",
        help="also write the JSON payload to PATH (the BENCH_<tag>.json "
        "trajectory format)",
    )
    bench.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="earlier BENCH_<tag>.json to gate against: exit nonzero if "
        "any shared case's best-engine speedup falls below 0.7x its "
        "baseline value or the geomean falls below 0.9x",
    )


def _run_bench(args: argparse.Namespace) -> tuple[str, int]:
    from repro.perf.bench import (
        DEFAULT_SCENARIOS,
        DEFAULT_WORKLOADS,
        bench_payload,
        check_baseline,
        default_cases,
        format_bench,
        run_bench,
    )

    report = run_bench(
        cases=default_cases(
            workloads=(
                DEFAULT_WORKLOADS if args.workloads is None else args.workloads
            ),
            scenarios=(
                DEFAULT_SCENARIOS if args.scenarios is None else args.scenarios
            ),
            num_cpus=args.num_cpus,
            protocol=args.protocol,
        ),
        repeats=args.repeats,
        scale=_scale_from_args(args),
        tag=args.tag,
    )
    payload = bench_payload(report)
    if args.payload_path:
        with open(args.payload_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    text, status = experiment_output(
        args.json,
        lambda: payload,
        lambda: format_bench(report),
        ok=report.all_identical,
    )
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        regressions = check_baseline(payload, baseline)
        if regressions:
            details = "\n".join(
                f"regression vs {args.baseline}: {message}"
                for message in regressions
            )
            text = f"{text}\n{details}" if not args.json else text
            status = 1
    return text, status


def _add_spec_options(parser: argparse.ArgumentParser) -> None:
    """The scenario-spec options of ``scenario generate/run/diff``."""
    parser.add_argument(
        "--family",
        type=_NAMES,
        default=None,
        metavar="A,B,...",
        help="scenario families (default: all); see 'scenario list'",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=[],
        metavar="syn:...",
        help="explicit canonical scenario name; repeatable",
    )
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N", help="scenario seed"
    )
    parser.add_argument(
        "--address", default=None, choices=sorted(ADDRESS_MODELS),
        help="override the family's address-stream model",
    )
    parser.add_argument(
        "--sharing", default=None, choices=SHARING_MODELS,
        help="vCPU placement model",
    )
    parser.add_argument(
        "--vcpus", type=int, default=None, metavar="N",
        help="vCPU count (default: the machine's 16)",
    )
    parser.add_argument(
        "--refs", type=int, default=None, metavar="N",
        help="total references across vCPUs",
    )
    parser.add_argument(
        "--footprint", type=int, default=None, metavar="PAGES",
        help="scenario footprint in pages",
    )


def _add_scenario_parser(subparsers) -> None:
    scenario = subparsers.add_parser(
        "scenario", help="generate and run synthetic hypervisor scenarios"
    )
    commands = scenario.add_subparsers(dest="scenario_command", required=True)

    commands.add_parser(
        "list", help="list scenario families and component models"
    ).set_defaults(handler=_run_scenario_list)

    generate = commands.add_parser(
        "generate", help="generate a trace and print its summary (no simulation)"
    )
    generate.set_defaults(handler=_run_scenario_generate)
    _add_spec_options(generate)
    _add_json_output(generate)

    run = commands.add_parser(
        "run", help="sweep protocol x scenario and validate invariants"
    )
    run.set_defaults(handler=_run_scenario_run)
    _add_common(run)
    _add_spec_options(run)
    _add_protocols(run, SCENARIO_PROTOCOLS)
    _add_no_cache(run)

    diff = commands.add_parser(
        "diff", help="differential invariant check over a seed matrix"
    )
    diff.set_defaults(handler=_run_scenario_diff)
    _add_common(diff)
    _add_spec_options(diff)
    _add_protocols(diff, SCENARIO_PROTOCOLS)
    diff.add_argument(
        "--seeds", type=_INTS, default="0,1,2,3", metavar="S1,S2,...",
        help="seed matrix: one scenario per (family, seed) pair",
    )
    _add_no_cache(diff)


def _session_from_args(args: argparse.Namespace) -> Session:
    return Session(cache_dir=args.cache_dir, max_workers=args.jobs)


def _scale_from_args(args: argparse.Namespace) -> Optional[ExperimentScale]:
    if args.scale is None:
        return None
    return ExperimentScale(trace_scale=args.scale)


def _run_list(args: argparse.Namespace) -> tuple[str, int]:
    lines = ["figures:"]
    width = max(len(name) for name in FIGURES)
    for name, spec in FIGURES.items():
        lines.append(f"  {name:<{width}}  {spec.description}")
    lines.append("")
    lines.append("workloads:")
    lines.append("  " + ", ".join(sorted(WORKLOADS)))
    lines.append("  mixNN / mixNNxM (multiprogrammed SPEC mixes)")
    lines.append(
        "  syn:FAMILY/... (synthetic scenarios; see 'python -m repro "
        "scenario list')"
    )
    lines.append(
        "  multi:WL[@VCPUS[:MEMSHARE]]+...[+share=shared] (consolidated "
        "multi-VM compositions; see 'python -m repro consolidation')"
    )
    lines.append(
        "  prefix:REFS:WL (prefix-stable trace capped at REFS total "
        "references; what checkpointed refs sweeps reuse across)"
    )
    return "\n".join(lines), 0


def _run_figure(args: argparse.Namespace) -> tuple[str, int]:
    name = args.figure
    spec = FIGURES[name]
    kwargs: dict[str, Any] = {"session": _session_from_args(args)}
    if "scale" in spec.params:
        kwargs["scale"] = _scale_from_args(args)
    elif args.scale is not None:
        raise ValueError(
            f"{name} does not take --scale (it runs no workload trace)"
        )
    if "workloads" in spec.params and args.workloads:
        kwargs["workloads"] = args.workloads
    if "num_cpus" in spec.params and args.num_cpus is not None:
        kwargs["num_cpus"] = args.num_cpus
    if "mixes" in spec.params and args.mixes is not None:
        kwargs["num_mixes"] = args.mixes
    if "apps_per_mix" in spec.params and args.apps_per_mix is not None:
        kwargs["apps_per_mix"] = args.apps_per_mix
    result = spec.run(**kwargs)
    return experiment_output(
        args.json,
        lambda: {"figure": name, "result": dataclasses.asdict(result)},
        lambda: spec.fmt(result),
    )


def _format_sweep_table(grid: SweepResult) -> str:
    axis_names = list(grid.axes)
    normalized = any(cell.baseline is not None for cell in grid.cells)
    columns = axis_names + ["runtime_cycles"] + (
        ["normalized_runtime", "normalized_energy"] if normalized else []
    )
    rows = []
    for cell in grid.cells:
        row = [cell.coords[name] for name in axis_names]
        row.append(cell.result.runtime_cycles)
        if normalized:
            row.append(f"{cell.normalized_runtime:.4f}")
            row.append(f"{cell.normalized_energy:.4f}")
        rows.append(row)
    return render_table(columns, rows, aligns=["left"] * len(columns))


def _run_sweep(args: argparse.Namespace) -> tuple[str, int]:
    axes: dict[str, tuple] = {}
    for raw in args.axis:
        name, sep, values = raw.partition("=")
        if not sep or not name or not values:
            raise ValueError(f"--axis expects NAME=V1,V2,..., got {raw!r}")
        axes[name] = tuple(
            _parse_axis_value(v.strip()) for v in values.split(",") if v.strip()
        )
    sweep = Sweep(
        axes=axes,
        base=baseline_config(num_cpus=args.num_cpus, hypervisor=args.hypervisor),
    )
    overrides = _parse_key_values(args.normalize, "--normalize")
    if overrides:
        sweep = sweep.normalize_to(**overrides)
    grid = sweep.run(session=_session_from_args(args), scale=_scale_from_args(args))
    return experiment_output(
        args.json, grid.to_dict, lambda: _format_sweep_table(grid)
    )


def _scenario_overrides(args: argparse.Namespace) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    if args.address:
        overrides["address_model"] = args.address
    if args.sharing:
        overrides["sharing"] = args.sharing
    if args.vcpus is not None:
        overrides["num_vcpus"] = args.vcpus
    if args.refs is not None:
        overrides["refs_total"] = args.refs
    if args.footprint is not None:
        overrides["footprint_pages"] = args.footprint
    return overrides


def _scenario_families(args: argparse.Namespace) -> tuple[str, ...]:
    if args.family:
        return args.family
    if args.scenario:
        return ()
    return SCENARIO_FAMILIES


def _session_footer(session: Session) -> str:
    stats = session.stats
    return (
        f"session: {stats.executed} simulated, {stats.disk_hits} from disk "
        f"cache, {stats.memo_hits + stats.deduplicated} deduplicated"
    )


def _run_scenario_list(args: argparse.Namespace) -> tuple[str, int]:
    from repro.workloads.synthetic import FAMILY_PRESETS

    lines = ["scenario families (remap-pattern models):"]
    lines += [f"  {name}" for name in FAMILY_PRESETS]
    lines.append("address models:   " + ", ".join(sorted(ADDRESS_MODELS)))
    lines.append("sharing models:   " + ", ".join(SHARING_MODELS))
    lines.append("protocols:        " + ", ".join(SCENARIO_PROTOCOLS))
    lines.append(
        "names: syn:FAMILY/key=value/... "
        "(e.g. syn:migration-daemon/addr=zipf/seed=7)"
    )
    return "\n".join(lines), 0


def _run_scenario_generate(args: argparse.Namespace) -> tuple[str, int]:
    overrides = _scenario_overrides(args)
    names = [
        scenario_spec(family, seed=args.seed, **overrides).name
        for family in _scenario_families(args)
    ] + list(args.scenario)
    summaries = [
        summarize_trace(make_workload(name).generate(num_vcpus=args.vcpus or 16))
        for name in names
    ]

    def table() -> str:
        lines = []
        for summary in summaries:
            lines.append(summary["name"])
            lines += [
                f"  {key}: {value}"
                for key, value in summary.items()
                if key != "name"
            ]
        return "\n".join(lines)

    return experiment_output(args.json, lambda: summaries, table)


def _run_scenario_run(args: argparse.Namespace) -> tuple[str, int]:
    session = _cached_session(args)
    result = run_scenarios(
        families=_scenario_families(args),
        protocols=args.protocols,
        seed=args.seed,
        scenarios=args.scenario,
        scale=_scale_from_args(args),
        session=session,
        **_scenario_overrides(args),
    )
    return experiment_output(
        args.json,
        lambda: {
            "cells": [dataclasses.asdict(cell) for cell in result.cells],
            "violations": result.violations,
            "ok": result.ok,
            "session": dataclasses.asdict(session.stats),
        },
        lambda: format_scenarios(result) + "\n" + _session_footer(session),
        ok=result.ok,
    )


def _run_scenario_diff(args: argparse.Namespace) -> tuple[str, int]:
    session = _cached_session(args)
    overrides = _scenario_overrides(args)
    specs = [
        scenario_spec(family, seed=seed, **overrides)
        for family in _scenario_families(args)
        for seed in args.seeds
    ]
    report = run_differential(
        specs + list(args.scenario),
        protocols=args.protocols,
        scale=_scale_from_args(args),
        session=session,
    )
    return experiment_output(
        args.json,
        lambda: {
            "protocols": list(report.protocols),
            "violations": report.violations,
            "ok": report.ok,
        },
        lambda: format_differential(report) + "\n" + _session_footer(session),
        ok=report.ok,
    )


def _run_serve(args: argparse.Namespace) -> tuple[str, int]:
    # imported lazily: the serve layer (and asyncio) only loads when
    # the service actually starts
    import asyncio
    import signal

    from repro.serve import ReproServer, ServiceSettings, SimulationService
    from repro.serve.service import DEFAULT_WORKERS

    workers = DEFAULT_WORKERS if args.workers is None else args.workers
    settings = ServiceSettings(
        cache_dir=args.cache_dir or True, workers=workers
    )
    service = SimulationService(settings)
    server = ReproServer(service, host=args.host, port=args.port)

    async def run() -> None:
        host, port = await server.start()
        # SIGINT cancels serving, as asyncio.run does from 3.11 on; on
        # 3.10 it would raise inside whichever connection's task runs
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGINT, asyncio.current_task().cancel
        )
        print(
            f"repro serve: listening on http://{host}:{port} "
            f"(store {service.session.disk_cache.directory}, "
            f"workers {workers})",
            flush=True,
        )
        await server.serve_forever()  # stops the server when cancelled

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    return "repro serve: stopped", 0


def _run_loadtest(args: argparse.Namespace) -> tuple[str, int]:
    from repro.serve.loadtest import (
        DEFAULT_CONNECTION_LIMIT,
        LoadTestSettings,
        format_load_report,
        run_loadtest,
    )

    settings = LoadTestSettings(
        clients=args.clients,
        requests_per_client=args.requests,
        duration=args.duration,
        scenarios=args.scenarios,
        zipf_s=args.zipf,
        seed=args.seed,
        num_cpus=args.num_cpus,
        refs_total=args.refs,
        workers=args.workers,
        include_multi=not args.no_multi,
        connection_limit=(
            DEFAULT_CONNECTION_LIMIT
            if args.connection_limit is None
            else args.connection_limit
        ),
        expect=args.expect,
        verify_identity=not args.no_verify,
    )
    host = port = None
    if args.port is not None:
        host, port = args.host, args.port
    report = run_loadtest(
        settings, host=host, port=port, cache_dir=args.cache_dir
    )
    return experiment_output(
        args.json,
        report.to_dict,
        lambda: format_load_report(report),
        ok=report.ok,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Runtime and write failures end in one ``error:`` line and exit
    code 1; argparse exits 2 on usage errors before any handler runs.
    """
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.handler(args)
        print(text)
        if getattr(args, "output", None):
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return code
