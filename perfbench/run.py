"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sim-thrash --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: it runs the workload's
set-up alone twice more in fresh interpreters (``setup_s`` is the median
of the three set-ups), then one measured run.  ``--trace 1`` runs the
workload untraced and then traced, and reports the per-layer metrics of
the traced run, its span file and its overhead over the untraced one.

Every run gets a fresh, empty store under ``perfbench/.runs/``.  The last
line of standard output is the result object; a human-readable summary
goes to standard error.  The exit code is non-zero, and no result line
is printed, when the benchmark cannot run at all (for example when the
repository's ``src/`` tree is missing).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = os.path.join(HERE, ".runs")

sys.path.insert(0, HERE)

from bench_plan import DEFAULT_SEED, WORKLOADS, make_plan  # noqa: E402
from bench_proc import DEADLINE_S, SRC, BenchmarkError, run_child  # noqa: E402
from bench_stats import END_TO_END_UNITS, percentile  # noqa: E402

#: Extra set-up-only runs in an untraced run (setup_s is the median).
SETUP_PROBES = 2

def host_facts() -> dict:
    model = ""
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as stream:
        for line in stream:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "kernel": platform.release(),
        "numba": importlib.util.find_spec("numba") is not None,
        "engine": "fast",
    }


def end_to_end(record: dict, setup_times: list[float]) -> dict:
    samples = record["samples"]
    values = {
        "refs_per_s": record["refs"] / record["sim_wall_s"],
        "miss_p50_ms": percentile(samples["miss"], 50),
        "hit_p50_ms": percentile(samples["hit"], 50),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def measure(workload: str, plan_path: str, work: str,
            deadline: float) -> tuple[dict, dict]:
    setups = []
    for probe in range(SETUP_PROBES):
        record = run_child(plan_path, os.path.join(work, f"setup{probe}"),
                           deadline, setup_only=True)
        setups.append(record["setup_s"])
    record = run_child(plan_path, os.path.join(work, "run"), deadline)
    setups.append(record["setup_s"])
    metrics = end_to_end(record, setups)
    samples = record["samples"]
    diag = {
        "hit_p99_ms": percentile(samples["hit"], 99),
        "setup_s_samples": setups,
        "samples": {name: len(values) for name, values in samples.items()},
        "refs": record["refs"],
        "timed_wall_s": record["timed_wall_s"],
        "pins": record["pins"],
        **record["diag"],
    }
    if workload == "serve-mixed":
        requests = len(samples["miss"]) + len(samples["hit"])
        diag["requests_per_s"] = requests / record["timed_wall_s"]
    return metrics, {"record": record, "diag": diag}


def update_pins(workload: str, record: dict) -> None:
    path = os.path.join(HERE, "pins.json")
    with open(path, encoding="utf-8") as stream:
        pins = json.load(stream)
    pins.setdefault(str(record["schema"]), {})[workload] = record["digests"]
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(pins, stream, indent=1, sort_keys=True)
        stream.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help=f"record this run's digests in pins.json "
                        f"(seed {DEFAULT_SEED} only; after a declared "
                        f"behaviour change)")
    args = parser.parse_args(argv)
    if args.update_pins and (args.trace or args.seed != DEFAULT_SEED):
        parser.error(f"--update-pins needs --seed {DEFAULT_SEED} --trace 0")
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, SRC)  # percentile() uses the repository's helper

    work = os.path.join(
        RUNS, f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work)
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as stream:
        json.dump(make_plan(args.workload, args.seed, args.seconds), stream)
    try:
        if args.trace:
            from bench_trace import trace_layers

            metrics, extra = trace_layers(
                args.workload, plan_path, work, deadline)
        else:
            metrics, extra = measure(args.workload, plan_path, work, deadline)
    except (BenchmarkError, ValueError) as error:
        # ValueError: a percentile without its floor of samples
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        if not args.trace:  # traced runs keep their span files
            shutil.rmtree(work, ignore_errors=True)
    record = extra["record"]
    if args.update_pins:
        update_pins(args.workload, record)
    failures = record["failures"]
    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    diagnostics = {"workload": args.workload, "seed": args.seed,
                   "host": host_facts(), **extra["diag"]}
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": record["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
