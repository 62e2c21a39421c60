"""Fresh-interpreter child processes of the benchmark, and their limits."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Hard limit on one invocation, inside the 180 s the contract allows.
DEADLINE_S = 170.0

#: Variables that change what the simulator does or where it stores
#: results; the benchmark's processes never inherit them.
CLEARED_ENV = (
    "REPRO_VALIDATE_FASTPATH", "REPRO_TRACE", "REPRO_JOBS",
    "REPRO_CACHE_DIR", "REPRO_SIM_ENGINE", "REPRO_EXPERIMENT_SCALE",
    "_REPRO_TRACE_OWNER_PID",
)

class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to a failed operation)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(plan_path: str, run_dir: str, deadline: float,
              setup_only: bool = False, traced: bool = False) -> dict:
    """One fresh interpreter running the plan; returns its record."""
    os.makedirs(run_dir)
    out = os.path.join(run_dir, "record.json")
    command = [
        sys.executable, os.path.join(HERE, "bench_child.py"),
        "--plan", plan_path, "--out", out, "--run-dir", run_dir,
    ]
    if setup_only:
        command.append("--setup-only")
    if traced:
        command.append("--traced")
    spawned_at = time.monotonic()
    child = subprocess.Popen(
        command + ["--spawned-at", repr(spawned_at)], env=child_env(),
        cwd=ROOT, stdout=sys.stderr, start_new_session=True,
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
        raise BenchmarkError(f"run in {run_dir} passed the deadline")
    if code != 0:
        raise BenchmarkError(f"run in {run_dir} exited with code {code}")
    with open(out, encoding="utf-8") as stream:
        return json.load(stream)
