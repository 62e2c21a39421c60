"""Engine benchmark harness (``python -m repro bench``).

Each :class:`BenchCase` names one (workload, machine) point.  The
harness generates the trace once per case, runs it on both engines
(``reference``, ``fast``) ``repeats`` times (interleaved, best-of CPU
time, so platform noise and frequency wobble hit both engines alike),
verifies the results are bit-identical, and reports per-case speedups
(reference time over fast time) plus a geometric mean.

The committed ``BENCH_<tag>.json`` files at the repository root form
the performance trajectory of the project: one file per PR that changed
performance-relevant code, produced by ``python -m repro bench --output
BENCH_<tag>.json`` at default scale.  ``docs/PERFORMANCE.md`` explains
how to read them.
"""

from __future__ import annotations

import json
import math
import platform
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.api.request import RunRequest
from repro.api.scale import ExperimentScale
from repro.api.session import Session, execute_request
from repro.experiments.output import render_table
from repro.sim.config import SystemConfig
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    diff_fingerprints,
    result_fingerprint,
)
from repro.sim.simulator import SimulationResult, Simulator, resolve_trace
from repro.workloads import make_workload

#: Version of the BENCH_*.json payload layout.  Version 2 also timed a
#: third engine (with its own seconds, refs/s and scan-kernel fields),
#: redefined ``speedup`` as reference over that engine and kept the
#: reference-over-fast ratio as ``fast_speedup``.  Version 3 times two
#: engines again, with ``speedup`` = reference over fast (as in
#: version 1).
BENCH_SCHEMA_VERSION = 3

#: Tag of the bench file this revision of the repository commits
#: (``BENCH_<tag>.json``).  Bumped by every PR that records a new point
#: on the performance trajectory.
DEFAULT_BENCH_TAG = 14

#: Both engines timed per case, reference first.
BENCH_ENGINES = (ENGINE_REFERENCE, ENGINE_FAST)

#: Figure workloads timed by default: the paper's five big-memory
#: workloads plus two small-footprint (Figure 11) applications.
DEFAULT_WORKLOADS = (
    "canneal",
    "data_caching",
    "graph500",
    "tunkrank",
    "facesim",
    "blackscholes",
    "swaptions",
)

#: The TLB/L1-resident steady scenario: at the standard per-workload
#: trace length its runtime is dominated by per-run setup (trace
#: generation, machine construction), so the bench runs it at
#: :data:`RESIDENT_STEADY_MULTIPLIER` times the standard length --
#: comparable wall time to the other cases and long enough that
#: per-reference engine cost, not fixed overhead, is what is measured.
RESIDENT_STEADY_SCENARIO = "syn:steady/seed=7/fp=6/hot=1.0/cold=0.0/reuse=16"
RESIDENT_STEADY_MULTIPLIER = 20

#: Synthetic scenario families timed by default (one canonical scenario
#: each; see ``python -m repro scenario list``).
DEFAULT_SCENARIOS = (
    "syn:migration-daemon/seed=7",
    "syn:compaction/seed=7",
    "syn:steady/seed=7",
    # A genuinely TLB/L1-resident steady phase (the default syn:steady
    # keeps a paging daemon thrashing by design).  This is the case the
    # fast engine's bulk retirement exists for; see docs/PERFORMANCE.md
    # for why the two are reported separately.
    RESIDENT_STEADY_SCENARIO,
)


@dataclass(frozen=True)
class BenchCase:
    """One benchmark point: a workload on a machine configuration."""

    workload: str
    num_cpus: int = 16
    protocol: str = "hatric"
    label: str = ""
    #: trace-length multiplier over the scale's standard per-workload
    #: reference count (used for cases whose per-reference cost is so
    #: low that per-run setup would dominate at the standard length).
    refs_multiplier: int = 1

    @property
    def name(self) -> str:
        """Display name of the case."""
        if self.label:
            return self.label
        return f"{self.workload}@{self.num_cpus}cpu/{self.protocol}"


@dataclass
class BenchRecord:
    """Measured outcome of one case."""

    case: BenchCase
    reference_seconds: float
    fast_seconds: float
    references: int
    runtime_cycles: int
    identical: bool
    repeats: int

    @property
    def speedup(self) -> float:
        """Reference time over fast time (higher is better)."""
        if self.fast_seconds <= 0.0:
            return float("inf")
        return self.reference_seconds / self.fast_seconds

    @property
    def fast_refs_per_second(self) -> float:
        """Simulated references retired per wall second (fast engine)."""
        if self.fast_seconds <= 0.0:
            return float("inf")
        return self.references / self.fast_seconds


@dataclass
class BenchReport:
    """All records of one harness run plus run-wide metadata."""

    records: list[BenchRecord] = field(default_factory=list)
    trace_scale: float = 1.0
    tag: int = DEFAULT_BENCH_TAG
    #: cold-vs-checkpointed sweep timing (None when skipped).
    incremental: Optional[IncrementalSweepRecord] = None

    @property
    def geomean_speedup(self) -> float:
        """Geometric-mean reference-over-fast speedup across all cases."""
        if not self.records:
            return 0.0
        return math.exp(
            sum(math.log(r.speedup) for r in self.records) / len(self.records)
        )

    @property
    def all_identical(self) -> bool:
        """True when every case (and the incremental sweep, if timed)
        produced bit-identical results."""
        identical = all(record.identical for record in self.records)
        if self.incremental is not None:
            identical = identical and self.incremental.identical
        return identical

    @property
    def cases_at_least_2x(self) -> int:
        """Number of cases where the fast engine is >= 2x faster."""
        return sum(1 for record in self.records if record.speedup >= 2.0)


#: Default shape of the checkpointed incremental-sweep case: a
#: ``refs_total`` sweep over one prefix-capped scenario, the workload
#: pattern ``Session(checkpoints=True)`` exists to accelerate.
SWEEP_INNER_WORKLOAD = "syn:migration-daemon/seed=7"
SWEEP_POINTS = (150_000, 300_000, 450_000)
SWEEP_NUM_CPUS = 8
SWEEP_PROTOCOL = "software"
SWEEP_WARMUP_REFS = 1_000
SWEEP_INTERVAL_REFS = 10_000


@dataclass
class IncrementalSweepRecord:
    """Cold-vs-checkpointed timing of one ``refs_total`` sweep."""

    workload: str
    refs_points: tuple[int, ...]
    num_cpus: int
    protocol: str
    warmup_refs: int
    cold_seconds: float
    warm_seconds: float
    identical: bool
    restored: int

    @property
    def speedup(self) -> float:
        """Cold time over checkpointed time (higher is better).

        Clamped away from division by zero so degenerate sub-resolution
        timings never emit non-standard ``Infinity`` JSON.
        """
        return self.cold_seconds / max(self.warm_seconds, 1e-9)


def run_incremental_sweep(
    inner_workload: str = SWEEP_INNER_WORKLOAD,
    points: Sequence[int] = SWEEP_POINTS,
    num_cpus: int = SWEEP_NUM_CPUS,
    protocol: str = SWEEP_PROTOCOL,
    warmup_refs: int = SWEEP_WARMUP_REFS,
    interval_refs: int = SWEEP_INTERVAL_REFS,
    scale: Optional[ExperimentScale] = None,
) -> IncrementalSweepRecord:
    """Time a ``refs_total`` sweep cold vs. through Session checkpoints.

    Cold executes every point from scratch; warm runs the same requests
    through ``Session(checkpoints=True)`` on a throwaway cache
    directory, so each longer point restores the previous point's final
    checkpoint and simulates only the tail.  Results are verified
    bit-identical, and both sides resolve their traces the same way, so
    the ratio isolates the checkpoint machinery.
    """
    from repro.api.session import CHECKPOINT_COUNTERS

    factor = (scale or ExperimentScale()).trace_scale
    # dedupe after scaling: collapsed points would make the cold loop
    # re-simulate a request the warm session answers from its memo,
    # crediting memoization to the checkpoint machinery.
    points = tuple(
        sorted({max(4_000, int(point * factor)) for point in points})
    )
    base = points[-1]
    workload = f"prefix:{base}:{inner_workload}"
    config = SystemConfig(num_cpus=num_cpus, protocol=protocol)
    requests = [
        RunRequest(
            config=config,
            workload=workload,
            refs_total=refs,
            warmup_refs=warmup_refs,
            interval_refs=interval_refs,
        )
        for refs in points
    ]

    started = time.process_time()
    cold = [execute_request(request) for request in requests]
    cold_seconds = time.process_time() - started

    before = dict(CHECKPOINT_COUNTERS)
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        session = Session(cache_dir=tmp, checkpoints=True)
        started = time.process_time()
        warm = [session.run(request) for request in requests]
        warm_seconds = time.process_time() - started
    restored = CHECKPOINT_COUNTERS["restored"] - before["restored"]

    identical = all(
        not diff_fingerprints(
            result_fingerprint(cold_result), result_fingerprint(warm_result)
        )
        for cold_result, warm_result in zip(cold, warm)
    )
    return IncrementalSweepRecord(
        workload=workload,
        refs_points=points,
        num_cpus=num_cpus,
        protocol=protocol,
        warmup_refs=warmup_refs,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        identical=identical,
        restored=restored,
    )


def default_cases(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    scenarios: Sequence[str] = DEFAULT_SCENARIOS,
    num_cpus: int = 16,
    protocol: str = "hatric",
) -> list[BenchCase]:
    """The default benchmark matrix: figure workloads plus scenarios."""
    cases = [
        BenchCase(workload=name, num_cpus=num_cpus, protocol=protocol)
        for name in workloads
    ]
    cases += [
        BenchCase(
            workload=name,
            num_cpus=num_cpus,
            protocol=protocol,
            refs_multiplier=(
                RESIDENT_STEADY_MULTIPLIER
                if name == RESIDENT_STEADY_SCENARIO
                else 1
            ),
        )
        for name in scenarios
    ]
    return cases


def _time_run(
    config: SystemConfig, trace, warmup_fraction: float, engine: str
) -> tuple[float, SimulationResult]:
    """Build a fresh machine, run ``trace`` on ``engine``; return CPU time."""
    simulator = Simulator(config, engine=engine)
    started = time.process_time()
    result = simulator.run(trace, warmup_fraction=warmup_fraction)
    return time.process_time() - started, result


def run_case(
    case: BenchCase,
    repeats: int = 3,
    scale: Optional[ExperimentScale] = None,
) -> BenchRecord:
    """Benchmark one case; returns the record with both engine timings.

    The trace is generated once and reused, so only engine execution is
    timed.  Runs are interleaved (reference, fast, reference, ...) and
    the best CPU time per engine is kept, which makes the ratios robust
    against background load and frequency scaling.
    """
    scale = scale or ExperimentScale()
    config = SystemConfig(num_cpus=case.num_cpus, protocol=case.protocol)
    workload = make_workload(case.workload)
    refs_total = scale.refs_for(workload)
    if case.refs_multiplier > 1:
        # refs_for returns None at scale 1.0 ("the spec's own length"):
        # resolve the concrete count so the multiplier applies at any
        # scale.
        if refs_total is None:
            refs_total = workload.spec.refs_total
        refs_total *= case.refs_multiplier
    trace = resolve_trace(workload, config.num_cpus, config.seed, refs_total)

    best = {engine: float("inf") for engine in BENCH_ENGINES}
    results: dict[str, SimulationResult] = {}
    for _ in range(max(1, repeats)):
        for engine in BENCH_ENGINES:
            seconds, result = _time_run(
                config, trace, scale.warmup_fraction, engine
            )
            best[engine] = min(best[engine], seconds)
            results[engine] = result

    identical = not diff_fingerprints(
        result_fingerprint(results[ENGINE_REFERENCE]),
        result_fingerprint(results[ENGINE_FAST]),
    )
    fast = results[ENGINE_FAST]
    return BenchRecord(
        case=case,
        reference_seconds=best[ENGINE_REFERENCE],
        fast_seconds=best[ENGINE_FAST],
        references=fast.stats.total_instructions + fast.warmup_references,
        runtime_cycles=fast.runtime_cycles,
        identical=identical,
        repeats=max(1, repeats),
    )


def run_bench(
    cases: Optional[Sequence[BenchCase]] = None,
    repeats: int = 3,
    scale: Optional[ExperimentScale] = None,
    tag: int = DEFAULT_BENCH_TAG,
    incremental: bool = True,
) -> BenchReport:
    """Run the benchmark matrix and return the full report.

    ``incremental`` additionally times the checkpointed ``refs_total``
    sweep (:func:`run_incremental_sweep`).
    """
    scale = scale or ExperimentScale()
    report = BenchReport(trace_scale=scale.trace_scale, tag=tag)
    for case in cases if cases is not None else default_cases():
        report.records.append(run_case(case, repeats=repeats, scale=scale))
    if incremental:
        report.incremental = run_incremental_sweep(scale=scale)
    return report


def _best_speedup(case: dict[str, Any]) -> float:
    """Best engine speedup a BENCH case payload records.

    Schema-1 and schema-3 cases carry only ``speedup`` (reference over
    fast); schema-2 cases additionally carry ``fast_speedup`` with
    ``speedup`` redefined as reference over a third engine since
    folded into fast.  The gate compares best against best: the promise
    the trajectory makes is that the *best* engine never loses ground,
    not that one particular engine wins every case.
    """
    return max(case.get("speedup", 0.0), case.get("fast_speedup", 0.0))


def check_baseline(
    payload: dict[str, Any],
    baseline: dict[str, Any],
    tolerance: float = 0.7,
    geomean_tolerance: float = 0.9,
) -> list[str]:
    """Regression gate against an earlier BENCH_*.json payload.

    Two checks, empty list means both pass:

    * per case, the best engine speedup must stay above ``tolerance``
      times the baseline's best for the same case name (cases present on
      only one side are ignored: the matrix is allowed to grow);
    * the geometric-mean best-engine speedup must stay above
      ``geomean_tolerance`` times the baseline's.

    The per-case bar is deliberately the looser one: re-benchmarking an
    *unchanged* revision on a different day measures individual-case
    CPU-time ratios up to ~30% apart on a busy single-core host (the
    reference loop and the fast engine respond differently to
    cache/frequency pressure), while the geomean over the full matrix
    stays within a few percent.  The tight bar therefore goes on the
    geomean, where noise averages out, and the per-case bar only catches
    a case genuinely falling off a cliff.
    """
    baseline_best = {
        case["name"]: _best_speedup(case)
        for case in baseline.get("cases", ())
    }
    messages = []
    for case in payload.get("cases", ()):
        before = baseline_best.get(case["name"])
        if before is None or before <= 0:
            continue
        now = _best_speedup(case)
        if now < before * tolerance:
            messages.append(
                f"{case['name']}: best speedup {now:.2f}x fell below "
                f"{tolerance:.2f} * baseline {before:.2f}x"
            )
    baseline_geomean = max(
        baseline.get("geomean_speedup", 0.0),
        baseline.get("geomean_fast_speedup", 0.0),
    )
    geomean = max(
        payload.get("geomean_speedup", 0.0),
        payload.get("geomean_fast_speedup", 0.0),
    )
    if baseline_geomean > 0 and geomean < baseline_geomean * geomean_tolerance:
        messages.append(
            f"geomean: best speedup {geomean:.2f}x fell below "
            f"{geomean_tolerance:.2f} * baseline {baseline_geomean:.2f}x"
        )
    return messages


def bench_payload(report: BenchReport) -> dict[str, Any]:
    """JSON-compatible payload of a report (the BENCH_*.json format)."""
    incremental = None
    if report.incremental is not None:
        sweep = report.incremental
        incremental = {
            "workload": sweep.workload,
            "refs_points": list(sweep.refs_points),
            "num_cpus": sweep.num_cpus,
            "protocol": sweep.protocol,
            "warmup_refs": sweep.warmup_refs,
            "cold_seconds": round(sweep.cold_seconds, 4),
            "warm_seconds": round(sweep.warm_seconds, 4),
            "speedup": round(sweep.speedup, 4),
            "restored": sweep.restored,
            "identical": sweep.identical,
        }
    return {
        "incremental_sweep": incremental,
        "schema": BENCH_SCHEMA_VERSION,
        "tag": report.tag,
        "trace_scale": report.trace_scale,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "geomean_speedup": round(report.geomean_speedup, 4),
        "cases_at_least_2x": report.cases_at_least_2x,
        "all_identical": report.all_identical,
        "cases": [
            {
                "name": record.case.name,
                "workload": record.case.workload,
                "num_cpus": record.case.num_cpus,
                "protocol": record.case.protocol,
                "reference_seconds": round(record.reference_seconds, 4),
                "fast_seconds": round(record.fast_seconds, 4),
                "speedup": round(record.speedup, 4),
                "references": record.references,
                "fast_refs_per_second": round(record.fast_refs_per_second, 1),
                "runtime_cycles": record.runtime_cycles,
                "identical": record.identical,
                "repeats": record.repeats,
            }
            for record in report.records
        ],
    }


def format_bench(report: BenchReport) -> str:
    """Human-readable table of a bench report."""
    headers = ("case", "reference", "fast", "speedup", "refs/s", "identical")
    rows = [
        (
            record.case.name,
            f"{record.reference_seconds:.2f}s",
            f"{record.fast_seconds:.2f}s",
            f"{record.speedup:.2f}x",
            f"{record.fast_refs_per_second:,.0f}",
            "yes" if record.identical else "NO",
        )
        for record in report.records
    ]
    lines = [render_table(headers, rows, aligns=["left"] * len(headers)), ""]
    lines.append(
        f"geomean speedup {report.geomean_speedup:.2f}x over "
        f"{len(report.records)} cases ({report.cases_at_least_2x} at >=2x), "
        f"results {'bit-identical' if report.all_identical else 'DIVERGED'}"
    )
    if report.incremental is not None:
        sweep = report.incremental
        points = "/".join(str(point) for point in sweep.refs_points)
        lines.append(
            f"incremental sweep ({points} refs, {sweep.restored} restores): "
            f"cold {sweep.cold_seconds:.2f}s vs checkpointed "
            f"{sweep.warm_seconds:.2f}s = {sweep.speedup:.2f}x, results "
            f"{'bit-identical' if sweep.identical else 'DIVERGED'}"
        )
    return "\n".join(lines)
