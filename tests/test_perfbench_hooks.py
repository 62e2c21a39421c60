"""perfbench's traced runs still hook every layer they time.

``perfbench/bench_layers.py`` wraps the program's entry points from the
outside (``Simulator.run`` and ``resume``, ``capture_snapshot``, the
session's ``restore_run``, the fleet's transport, ...).  A refactor that
renames or bypasses one of them silently drops that layer from
``perfbench --trace 1``, so this test installs the wrappers in a fresh
interpreter (they last for the whole process), runs a two-point
checkpointed ``prefix:`` sweep and a two-host fleet, and checks the
calls every layer counted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys, tempfile
from pathlib import Path

import bench_layers

clock = bench_layers.LayerClock()
bench_layers.install(clock)

from repro.api import RunRequest, Session
from repro.experiments.fleet import fleet_spec
from repro.fleet import FleetRequest
from repro.sim.config import SystemConfig

with tempfile.TemporaryDirectory() as store:
    session = Session(cache_dir=store, checkpoints=True)
    session.run_batch([
        RunRequest(
            config=SystemConfig(num_cpus=4, protocol="software"),
            workload="prefix:4096:syn:migration-daemon/seed=7",
            refs_total=refs, warmup_refs=128,
        )
        for refs in (2048, 4096)
    ])
    session.run_fleet([FleetRequest(
        spec=fleet_spec(hosts=2, vms_per_host=1, num_cpus=4, epochs=2,
                        epoch_refs=256, storm_refs=64),
        protocol="hatric",
    )])
    stored = sum(
        path.stat().st_size for path in Path(store).rglob("*.json")
        if path.parent.name == "checkpoints"
    )
counts = {layer: calls for layer, (_, calls) in clock.snapshot().items()}
json.dump({"counts": counts, "stored": stored}, sys.stdout)
"""


def test_traced_layers_count_a_checkpointed_sweep_and_a_fleet(tmp_path):
    # like perfbench's own children, inherit no REPRO_* setting: the
    # validated legs would add reference-engine runs to the counts
    env = {key: value for key, value in os.environ.items()
           if "REPRO_" not in key}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
    )
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    counts = report["counts"]
    assert {layer: counts[layer] for layer in EXPECTED} == EXPECTED
    # two checkpoint saves, both counted byte for byte
    assert counts["api.checkpoint_bytes"] == report["stored"] > 0
    ran = {layer for layer, calls in counts.items() if calls}
    assert ran >= {
        "translation.walk", "translation.insert", "mem.access",
        "virt.fault", "workloads.trace", "api.store_put", "api.store_get",
        "api.plan", "api.cache_key",
    }


#: The cold 2048-ref point captures one checkpoint; the 4096-ref point
#: restores it (one load, one prefix digest) and captures one more; the
#: fleet builds two hosts and migrates once (a capture and a restore).
#: ``sim.refs`` counts each point's post-warmup references once.
EXPECTED = {
    "sim.build": 4,
    "sim.engine": 2,
    "sim.refs": (2048 - 4 * 128) + (4096 - 4 * 128),
    "sim.snapshot.capture": 2,
    "sim.snapshot.restore": 1,
    "sim.snapshot.digest": 3,
    "api.checkpoint_save": 2,
    "api.checkpoint_load": 1,
    "fleet.transport": 2,
}
