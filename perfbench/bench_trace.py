"""The traced run: per-layer self time, call counts and tracing overhead.

``run.py --trace 1`` calls :func:`trace_layers`, which runs the workload
once untraced and once traced (same plan, fresh interpreters, fresh
stores), validates every span file the traced run wrote with
``python -m repro trace summary``, prints the per-layer table to
standard error and returns the ``per_layer`` metrics.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

from repro.obs.trace import load_events

from bench_layers import HARNESS, LAYER_COUNTS
from bench_plan import SERVE_CONNECTIONS
from bench_proc import ROOT as REPO_ROOT
from bench_proc import BenchmarkError, child_env, run_child
from bench_stats import percentile

#: Layer times are reported as ``<layer>_s``; these layers' call counts
#: are reported under the names in ``LAYER_COUNTS``.
TIMED_LAYERS = tuple(LAYER_COUNTS)

#: Self times should cover at least this share of the traced timed phase;
#: the rest is the benchmark's own bookkeeping between operations.
MIN_ACCOUNTED_PCT = 95.0


def _sum_layers(into: dict, layers: dict) -> None:
    for layer, (seconds, calls) in layers.items():
        cell = into.setdefault(layer, [0.0, 0])
        cell[0] += seconds
        cell[1] += calls


def _in_window(event: dict, window) -> bool:
    return window[0] <= event["ts"] <= window[1]


def _serve_layers(run_dir: str, record: dict) -> tuple[dict, dict]:
    """Server- and worker-side layer totals of the timed phase."""
    with open(os.path.join(run_dir, "server_layers.json"),
              encoding="utf-8") as stream:
        server = json.load(stream)
    layers = {k: list(v) for k, v in server["layers"].items()}
    window = record["window_us"]
    exec_s = 0.0
    for path in glob.glob(os.path.join(run_dir, "worker.*.jsonl")):
        for event in load_events(path):
            if _in_window(event, window):
                _sum_layers(layers, event["args"]["layers"])
    for path in glob.glob(os.path.join(run_dir, "server.jsonl.*")):
        for event in load_events(path):
            if event["name"] == "session.execute" and _in_window(event, window):
                exec_s += event["dur"] / 1e6
    lags = [lag * 1e3 for ts, lag in server["lags"]
            if window[0] <= ts <= window[1]]
    hit_client_s = sum(record["samples"]["hit"]) / 1e3
    extra = {
        "serve.parse_s": layers.get("serve.parse", [0.0])[0],
        "serve.encode_s": layers.get("serve.encode", [0.0])[0],
        "serve.transport_s": hit_client_s - server["hit_server_s"],
        "serve.loop_lag_p99_ms": percentile(lags, 99),
        "serve.worker_exec_s": exec_s,
        "host.gc_s": server["gc_s"],
        "host.gc_gen2": server["gc_gen2"],
        "host.cpu_s": record["diag"]["server_cpu_s"],
    }
    counts = record["diag"]["serve"]
    for name in ("memo_hits", "disk_hits", "executed", "coalesced", "errors"):
        extra[f"serve.{name}"] = counts[name]
    busy = sum(record["samples"]["hit"]) + sum(record["samples"]["miss"])
    extra["trace.accounted_pct"] = (
        100.0 * busy / 1e3 / (SERVE_CONNECTIONS * record["timed_wall_s"]))
    return layers, extra


def validate_span_files(paths: list[str]) -> None:
    """Every span file must pass ``python -m repro trace summary``."""
    for path in paths:
        check = subprocess.run(
            [sys.executable, "-m", "repro", "trace", "summary", path],
            env=child_env(), cwd=REPO_ROOT, capture_output=True, text=True,
        )
        if check.returncode != 0:
            raise BenchmarkError(
                f"repro trace summary rejected {path}: "
                f"{check.stdout.strip()} {check.stderr.strip()}")


def per_layer_metrics(layers: dict, extra: dict) -> dict:
    """The ``per_layer`` metric values from layer totals."""
    values = {}
    for layer in TIMED_LAYERS:
        seconds, calls = layers.get(layer, [0.0, 0])
        values[f"{layer}_s"] = seconds
        if LAYER_COUNTS[layer]:
            values[LAYER_COUNTS[layer]] = calls
    # capture_vm_state and restore_vm_state both count as transport
    values["fleet.migrations"] = layers.get("fleet.transport", [0.0, 0])[1] // 2
    values["sim.refs"] = layers.get("sim.refs", [0.0, 0])[1]
    values["api.checkpoint_mb"] = (
        layers.get("api.checkpoint_bytes", [0.0, 0])[1] / 2**20)
    values["harness_s"] = layers.get(HARNESS, [0.0, 0])[0]
    values.update(extra)
    return values


def format_table(layers: dict, timed_s: float) -> str:
    rows = [f"{'layer':<24}{'self s':>10}{'calls':>12}{'share':>9}"]
    for layer in (HARNESS, *TIMED_LAYERS):
        seconds, calls = layers.get(layer, [0.0, 0])
        if calls:
            rows.append(f"{layer:<24}{seconds:>10.3f}{calls:>12}"
                        f"{100 * seconds / timed_s:>8.1f}%")
    return "\n".join(rows)


def trace_layers(workload: str, plan_path: str, work: str,
                 deadline: float) -> tuple[dict, dict]:
    untraced = run_child(plan_path, os.path.join(work, "untraced"), deadline)
    run_dir = os.path.join(work, "traced")
    traced = run_child(plan_path, run_dir, deadline, traced=True)
    timed_s = traced["timed_wall_s"]
    span_files = [traced["spans"]]
    if workload == "serve-mixed":
        layers, extra = _serve_layers(run_dir, traced)
        span_files += sorted(glob.glob(os.path.join(run_dir, "worker.*.jsonl")))
        span_files += sorted(glob.glob(os.path.join(run_dir, "server.jsonl*")))
        accounted = extra["trace.accounted_pct"]
    else:
        layers = traced["diag"]["layers"]
        extra = {name: 0 for name in PER_LAYER_UNITS if name.startswith("serve.")}
        extra.update({
            "host.gc_s": traced["diag"]["gc_s"],
            "host.gc_gen2": traced["diag"]["gc_gen2"],
            "host.cpu_s": traced["diag"]["cpu_s"],
        })
        self_total = sum(layers.get(layer, [0.0])[0]
                         for layer in (HARNESS, *TIMED_LAYERS))
        accounted = 100.0 * self_total / timed_s
        extra["trace.accounted_pct"] = accounted
    checkpoints = traced["diag"]["checkpoints"]
    reused = checkpoints["restored"] + checkpoints["cold"]
    extra.update({
        "api.checkpoint_reuse": checkpoints["restored"] / reused if reused else 0.0,
        "api.checkpoint_restored": checkpoints["restored"],
        "api.checkpoint_cold": checkpoints["cold"],
        "trace.timed_s": timed_s,
        "trace.overhead_pct": 100.0 * (timed_s / untraced["timed_wall_s"] - 1),
    })
    validate_span_files(span_files)
    # keep the span files, not the stores (checkpoints run to tens of MB)
    shutil.rmtree(os.path.join(work, "untraced"))
    shutil.rmtree(os.path.join(run_dir, "store"))
    values = per_layer_metrics(layers, extra)
    print(f"perfbench: traced {workload}: timed phase {timed_s:.3f} s, "
          f"untraced {untraced['timed_wall_s']:.3f} s, overhead "
          f"{extra['trace.overhead_pct']:.1f}%, self times account for "
          f"{accounted:.1f}%", file=sys.stderr)
    print(format_table(layers, timed_s), file=sys.stderr)
    print(f"perfbench: span files: {', '.join(span_files)}", file=sys.stderr)
    if workload != "serve-mixed" and not (
        MIN_ACCOUNTED_PCT <= accounted <= 100.5
    ):
        # a check of the tracing, not of the program's outputs
        print(f"perfbench: WARNING self times account for {accounted:.1f}% "
              f"of the timed phase, outside [{MIN_ACCOUNTED_PCT}, 100.5]",
              file=sys.stderr)
    metrics = {name: {"value": value, "unit": PER_LAYER_UNITS[name]}
               for name, value in values.items()}
    if set(metrics) != set(PER_LAYER_UNITS):
        raise BenchmarkError(
            f"per-layer metrics differ from the declared set: "
            f"{sorted(set(metrics) ^ set(PER_LAYER_UNITS))}")
    diag = {
        "span_files": span_files,
        "untraced_timed_s": untraced["timed_wall_s"],
        "serve_stats": traced["diag"].get("serve", {}),
    }
    return metrics, {"record": traced, "diag": diag}


def _units() -> dict:
    units = {}
    for layer, count in LAYER_COUNTS.items():
        units[f"{layer}_s"] = "s"
        if count:
            units[count] = "count"
    units.update({
        "fleet.migrations": "count", "sim.refs": "count",
        "api.checkpoint_mb": "MB", "harness_s": "s",
        "api.checkpoint_reuse": "ratio", "api.checkpoint_restored": "count",
        "api.checkpoint_cold": "count", "serve.transport_s": "s",
        "serve.loop_lag_p99_ms": "ms", "serve.worker_exec_s": "s",
        "host.gc_s": "s", "host.gc_gen2": "count", "host.cpu_s": "s",
        "trace.timed_s": "s", "trace.overhead_pct": "%",
        "trace.accounted_pct": "%",
    })
    for name in ("memo_hits", "disk_hits", "executed", "coalesced", "errors"):
        units[f"serve.{name}"] = "count"
    return units


PER_LAYER_UNITS = _units()
