"""Sample statistics and output checks shared by the benchmark's processes.

Everything here is a pure function over plain data, so the helpers are
unit-tested without running a workload.
"""

from __future__ import annotations

from bench_plan import MIN_P50_SAMPLES, MIN_P99_SAMPLES

#: The end-to-end metrics every untraced run prints, with their units.
#: ``hit_p99_ms`` is printed with the diagnostics instead: on a shared
#: host the serve-mixed hit tail follows the hypervisor's steal bursts,
#: too unsteady from run to run to gate.
END_TO_END_UNITS = {
    "refs_per_s": "refs/s",
    "miss_p50_ms": "ms",
    "hit_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: The percentiles the benchmark reports, with the samples each needs.
PERCENTILE_FLOORS = {50: MIN_P50_SAMPLES, 99: MIN_P99_SAMPLES}

#: Outcomes of comparing a digest with the pinned one.
PIN_OK = "ok"
PIN_UNPINNED = "unpinned"
PIN_FAILED = "failed"


def percentile(values, pct: int) -> float:
    """Nearest-rank ``pct``-th percentile, refused below its sample floor.

    Only the p50 (20 samples or more) and the p99 (1000 or more) are
    reported; a p99 over fewer samples would be set by a handful of
    outliers and drift from run to run.
    """
    if pct not in PERCENTILE_FLOORS:
        raise ValueError(f"only p50 and p99 are reported, not p{pct}")
    floor = PERCENTILE_FLOORS[pct]
    if len(values) < floor:
        raise ValueError(
            f"p{pct} needs at least {floor} samples, got {len(values)}"
        )
    from repro.sim.stats import nearest_rank_percentile

    return nearest_rank_percentile(values, pct)


def check_pin(pins: dict, schema: int, workload: str, key: str,
              digest: str) -> str:
    """Compare one output digest with the pinned digest of its key.

    Pins are keyed by ``CACHE_SCHEMA_VERSION``: a declared behaviour
    change bumps the schema, and its outputs then read ``unpinned``
    rather than ``failed`` until the pins are regenerated.
    """
    pinned = pins.get(str(schema), {}).get(workload, {}).get(key)
    if pinned is None:
        return PIN_UNPINNED
    return PIN_OK if pinned == digest else PIN_FAILED
