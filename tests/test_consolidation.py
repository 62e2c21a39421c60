"""Consolidation experiment: golden snapshot and protocol separation.

The golden run pins the *smallest protocol-separating consolidated
shape* (see ``tests/golden/README.md``): two migration-daemon guests at
6000 references each, every guest spanning all 8 pCPUs (``shared``
placement) on the paper's default machine.  Below that trace length the
three protocols coincide, so the snapshot pins genuinely
protocol-specific multi-tenant behaviour.  Regenerate after an
intentional simulator change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_consolidation.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import Session
from repro.experiments import format_consolidation, run_consolidation
from repro.experiments.consolidation import consolidation_topology
from repro.workloads.synthetic import scenario_spec
from tests.conftest import update_golden_requested

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Smallest protocol-separating shape: 2 guests x 6000 refs, shared
#: placement, 8 pCPUs (4000 refs/guest does not separate).
SEPARATING_GUEST = scenario_spec("migration-daemon", seed=7, refs_total=6000)
SEPARATING_GUESTS = (2,)
SEPARATING_SHARING = ("shared",)
SEPARATING_CPUS = 8


@pytest.fixture(scope="module")
def result():
    return run_consolidation(
        guest_counts=SEPARATING_GUESTS,
        sharing_models=SEPARATING_SHARING,
        guest_workload=SEPARATING_GUEST.name,
        num_cpus=SEPARATING_CPUS,
        session=Session(),
    )


def test_consolidation_tiny_snapshot(result):
    payload = {
        f"{cell.guests}g/{cell.sharing}/{cell.protocol}": cell.normalized_runtime
        for cell in result.cells
    }
    assert len(payload) == 3
    path = GOLDEN_DIR / "consolidation_tiny.json"
    if update_golden_requested():
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    stored = json.loads(path.read_text())
    assert payload == stored, (
        "consolidation_tiny.json drifted from the committed snapshot; if "
        "the simulation change is intentional, regenerate with "
        "REPRO_UPDATE_GOLDEN=1"
    )


def test_consolidation_shows_protocol_separation(result):
    """Acceptance gate: software > hatric > ideal at a >= 2-guest shape."""
    software = result.value(2, "shared", "software")
    hatric = result.value(2, "shared", "hatric")
    assert result.ok, result.violations
    assert software > hatric > 1.0


def test_consolidation_reports_per_vm_interference(result):
    cell = next(c for c in result.cells if c.protocol == "software")
    assert len(cell.per_vm) == 2
    for row in cell.per_vm:
        assert row["instructions"] > 0
        # cross-VM shootdowns landed on every guest
        assert row["coherence_cycles"] > 0


def test_format_consolidation_renders_table(result):
    text = format_consolidation(result)
    assert "2 guest(s), shared" in text
    assert "differential invariants: OK" in text


def test_consolidation_topology_shapes():
    pinned = consolidation_topology(2, "pinned", 8, "canneal")
    assert [g.vcpus for g in pinned.guests] == [4, 4]
    shared = consolidation_topology(2, "shared", 8, "canneal")
    assert [g.vcpus for g in shared.guests] == [8, 8]
    with pytest.raises(ValueError):
        consolidation_topology(0, "pinned", 8, "canneal")
