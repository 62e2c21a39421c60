"""Golden snapshot tests: tiny figure7/figure9 values pinned to JSON.

The simulator is fully deterministic, so the normalized runtimes of a
tiny-scale run are exact values that only change when the simulation
itself changes.  Pinning them to committed JSON catches refactors that
silently drift results, complementing the differential suite (which
only checks cross-protocol orderings).

The runs pass an explicit :class:`~repro.api.ExperimentScale` (the same
mechanism ``REPRO_EXPERIMENT_SCALE`` drives), so the environment cannot
perturb the snapshot.  To regenerate after an *intentional* simulator
change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.api import ExperimentScale, Session
from repro.experiments import run_figure7, run_figure9
from tests.conftest import update_golden_requested

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Tiny but non-degenerate: data_caching at 20% trace length on 4 vCPUs
#: is the smallest shape where the three series actually separate
#: (software > hatric > ideal), so the snapshot pins protocol-specific
#: behaviour and not just the baseline machinery.
TINY = ExperimentScale(trace_scale=0.2)


def _check(filename: str, payload: dict) -> None:
    path = GOLDEN_DIR / filename
    if update_golden_requested():
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    stored = json.loads(path.read_text())
    assert payload == stored, (
        f"{filename} drifted from the committed snapshot; if the "
        f"simulation change is intentional, regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )


def test_figure7_tiny_snapshot():
    result = run_figure7(
        workloads=("data_caching",),
        vcpu_counts=(4,),
        scale=TINY,
        session=Session(),
    )
    payload = {
        f"{cell.workload}/{cell.vcpus}vcpu/{cell.series}": cell.normalized_runtime
        for cell in result.cells
    }
    assert len(payload) == 3
    _check("figure7_tiny.json", payload)


def test_figure9_tiny_snapshot():
    result = run_figure9(
        workloads=("data_caching",),
        size_scales=(1, 2),
        num_cpus=4,
        scale=TINY,
        session=Session(),
    )
    payload = {
        f"{cell.workload}/{cell.size_scale}x/{cell.series}": cell.normalized_runtime
        for cell in result.cells
    }
    assert len(payload) == 6
    _check("figure9_tiny.json", payload)
