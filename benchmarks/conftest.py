"""Shared helpers for the benchmark harness.

Every benchmark regenerates one figure of the paper.  Full-scale traces
take tens of minutes for the whole suite, so benchmarks run shortened
traces by default; set ``REPRO_BENCH_SCALE=1.0`` (and
``REPRO_BENCH_FULL=1`` for the full parameter sweeps) to reproduce the
numbers recorded in EXPERIMENTS.md.  Each benchmark writes the table it
regenerates to a per-run temporary directory (printed at the end of the
run), so running at a non-committed scale never dirties the working
tree; set ``REPRO_UPDATE_RESULTS=1`` to write ``benchmarks/results/``
(the committed tables, regenerated at the default scale 0.35).

All benchmarks run through the process-global :class:`repro.api.Session`
(the ``run_*`` harnesses default to it), so configurations shared
between figures -- most notably the ``no-hbm`` baselines -- are
simulated once for the whole suite instead of once per figure.  The
dedup/memoization tally is written to ``session_stats.txt`` next to the
tables at the end of the run.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest

from repro.api import ExperimentScale, default_session
from repro.env import env_choice, env_float

#: Directory holding the committed tables (written only when
#: ``REPRO_UPDATE_RESULTS=1``).
RESULTS_DIR = Path(__file__).parent / "results"

_tmp_results_dir: Path | None = None


def update_results() -> bool:
    """True when tables should overwrite the committed results."""
    raw = env_choice("REPRO_UPDATE_RESULTS", "0", ("0", "false", "1", "true"))
    return raw in ("1", "true")


def results_dir() -> Path:
    """Directory the current run writes tables to.

    The committed ``benchmarks/results/`` only when
    ``REPRO_UPDATE_RESULTS=1``; otherwise a per-run temporary directory,
    so benchmark runs at arbitrary scales never leave the repository
    dirty (the old behaviour required ``git checkout benchmarks/results``
    afterwards).
    """
    global _tmp_results_dir
    if update_results():
        scale = env_float("REPRO_BENCH_SCALE", 0.35, positive=True)
        if scale != 0.35:
            raise RuntimeError(
                f"REPRO_UPDATE_RESULTS=1 would overwrite the committed "
                f"benchmarks/results/ tables at REPRO_BENCH_SCALE={scale}; "
                f"they are maintained at the default scale 0.35 -- unset "
                f"the scale (or REPRO_UPDATE_RESULTS) and rerun"
            )
        RESULTS_DIR.mkdir(exist_ok=True)
        return RESULTS_DIR
    if _tmp_results_dir is None:
        _tmp_results_dir = Path(
            tempfile.mkdtemp(prefix="repro-bench-results-")
        )
    return _tmp_results_dir


def bench_scale() -> ExperimentScale:
    """Trace scale used by the benchmarks (env-overridable)."""
    return ExperimentScale(
        trace_scale=env_float("REPRO_BENCH_SCALE", 0.35, positive=True)
    )


def full_sweeps() -> bool:
    """True when the full parameter sweeps should be run."""
    return env_choice("REPRO_BENCH_FULL", "0", ("0", "false", "1", "true")) in ("1", "true")


def save_table(name: str, table: str) -> Path:
    """Write a regenerated table to the active results directory."""
    path = results_dir() / f"{name}.txt"
    scale = env_float("REPRO_BENCH_SCALE", 0.35, positive=True)
    header = f"# regenerated with REPRO_BENCH_SCALE={scale}\n"
    path.write_text(header + table + "\n")
    return path


@pytest.fixture
def scale() -> ExperimentScale:
    """The benchmark trace scale."""
    return bench_scale()


@pytest.fixture(scope="session", autouse=True)
def shared_session():
    """The session every benchmark's runs flow through.

    Yields the process-global session and, once the whole benchmark
    suite has finished, records how many simulations the dedup /
    memoization machinery avoided.
    """
    session = default_session()
    yield session
    stats = session.stats
    if stats.requested:
        target = results_dir()
        (target / "session_stats.txt").write_text(
            f"requested={stats.requested}\n"
            f"executed={stats.executed}\n"
            f"deduplicated={stats.deduplicated}\n"
            f"memo_hits={stats.memo_hits}\n"
            f"disk_hits={stats.disk_hits}\n"
            f"simulations_avoided={stats.simulations_avoided}\n"
        )
        if not update_results():
            print(
                f"\n[benchmarks] tables written to {target} "
                f"(set REPRO_UPDATE_RESULTS=1 to refresh benchmarks/results/)"
            )
