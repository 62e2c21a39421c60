"""Unit tests for the benchmark's own helpers.

These run in the repository's test suite; they never start a workload
(the workload runner lives in ``run.py`` and ``bench_child.py``, which
pytest does not collect).
"""

from __future__ import annotations

import gc
import json
import os
import re

import pytest

import bench_layers
from bench_plan import (
    HIT_SAMPLES,
    MIN_P50_SAMPLES,
    SERVE_CONNECTIONS,
    SERVE_DISK_KEYS_PER_CONNECTION,
    WORKLOADS,
    make_plan,
)
from bench_stats import (
    END_TO_END_UNITS,
    PIN_FAILED,
    PIN_OK,
    PIN_UNPINNED,
    check_pin,
    percentile,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_operations(workload):
    assert make_plan(workload, 7, 10) == make_plan(workload, 7, 10)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_gives_other_operations(workload):
    first, second = make_plan(workload, 7, 10), make_plan(workload, 8, 10)
    first.pop("seed"), second.pop("seed")
    assert first != second


def test_unknown_workload_is_refused():
    with pytest.raises(ValueError, match="unknown workload"):
        make_plan("sim-everything", 1, 10)


@pytest.mark.parametrize("workload", ("sim-thrash", "sim-resident", "resume"))
def test_in_process_plans_meet_the_sample_floors(workload):
    plan = make_plan(workload, 3, 1)
    timed = plan.get("cold") or plan["points"]
    assert len(timed) >= MIN_P50_SAMPLES
    assert len(plan["hits"]) == len(timed)
    assert sum(len(picks) for picks in plan["hits"]) >= HIT_SAMPLES
    for index, picks in enumerate(plan["hits"]):
        assert all(0 <= pick <= index for pick in picks)


def test_serve_plan_fixes_every_request_class():
    plan = make_plan("serve-mixed", 3, 10)
    assert len(plan["connections"]) == SERVE_CONNECTIONS
    seen_elsewhere = set()
    for ops in plan["connections"]:
        touched = set()
        keys = set()
        for op in ops:
            key = repr(sorted(op["request"].items()))
            if op["class"] == "memo":
                assert key in touched, "a repeat of a key not yet answered"
            else:
                assert key not in touched, "a first touch seen twice"
                touched.add(key)
            keys.add(key)
        assert not keys & seen_elsewhere, "connections share keys"
        seen_elsewhere |= keys
        disks = sum(op["class"] == "disk" for op in ops)
        misses = sum(op["class"] == "miss" for op in ops)
        assert disks == SERVE_DISK_KEYS_PER_CONNECTION
        assert misses == round(0.05 * len(ops))
    stored = {repr(sorted(r.items())) for r in plan["prepopulated"]}
    disk_keys = {repr(sorted(op["request"].items()))
                 for ops in plan["connections"] for op in ops
                 if op["class"] == "disk"}
    assert stored == disk_keys


def test_percentile_refuses_p50_below_20_samples():
    with pytest.raises(ValueError, match="at least 20"):
        percentile(list(range(19)), 50)
    assert percentile(list(range(1, 21)), 50) == 10


def test_percentile_refuses_p99_below_1000_samples():
    with pytest.raises(ValueError, match="at least 1000"):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1, 1001)), 99) == 990


def test_percentile_refuses_other_percentiles():
    with pytest.raises(ValueError, match="only p50 and p99"):
        percentile(list(range(5000)), 90)


def test_self_time_subtracts_nested_wrapped_calls():
    now = [0.0]
    clock = bench_layers.LayerClock(timer=lambda: now[0])

    def walk():
        now[0] += 2.0
        access()
        now[0] += 1.0

    def access():
        now[0] += 0.5

    walk = clock.wrap("translation.walk", walk)
    access = clock.wrap("mem.access", access)
    with clock.span():
        now[0] += 4.0
        walk()
        access()
    cells = clock.cells
    assert cells["translation.walk"] == [3.0, 1]
    assert cells["mem.access"] == [1.0, 2]
    assert cells[bench_layers.HARNESS] == [4.0, 1]
    total = sum(seconds for seconds, _ in cells.values())
    assert total == now[0]


def test_snapshot_delta_keeps_only_layers_that_ran():
    now = [0.0]
    clock = bench_layers.LayerClock(timer=lambda: now[0])
    step = clock.wrap("api.plan", lambda: now.__setitem__(0, now[0] + 1.5))
    before = clock.snapshot()
    step()
    assert bench_layers.delta(clock.snapshot(), before) == {
        "api.plan": [1.5, 1]
    }


def test_pin_outcomes():
    pins = {"2": {"sim-thrash": {"k": "abc"}}}
    assert check_pin(pins, 2, "sim-thrash", "k", "abc") == PIN_OK
    assert check_pin(pins, 2, "sim-thrash", "k", "abd") == PIN_FAILED
    assert check_pin(pins, 2, "sim-thrash", "other", "abc") == PIN_UNPINNED
    assert check_pin(pins, 3, "sim-thrash", "k", "abd") == PIN_UNPINNED


def test_tampered_digest_is_a_failed_operation(tmp_path):
    import bench_child

    plan = make_plan("sim-resident", 1, 1)
    run = bench_child.SimWorkload(plan, str(tmp_path), 0.0, traced=False)
    try:
        schema = str(bench_child.CACHE_SCHEMA_VERSION)
        run.pins = {schema: {"sim-resident": {"key": "a" * 64}}}
        run.pin("key", "a" * 64)
        assert run.failures == []
        run.pin("key", "b" * 64)
        assert len(run.failures) == 1
        assert run.pin_outcomes == {"ok": 1, "unpinned": 0, "failed": 1}
    finally:
        gc.callbacks.remove(run.gc._callback)


def test_workload_runner_stays_out_of_the_test_suite():
    """Only this file matches pytest's default test-file patterns."""
    collected = [
        name for name in os.listdir(HERE)
        if re.fullmatch(r"test_.*\.py|.*_test\.py", name)
    ]
    assert collected == [os.path.basename(__file__)]


def test_declared_metrics_are_the_printed_ones():
    from bench_trace import PER_LAYER_UNITS

    with open(BENCHMARK_JSON, encoding="utf-8") as stream:
        declared = json.load(stream)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for section, printed in (("end_to_end", END_TO_END_UNITS),
                             ("per_layer", PER_LAYER_UNITS)):
        units = {m["name"]: m["unit"] for m in declared[section]}
        assert units == printed, section
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
