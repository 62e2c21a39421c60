"""The BENCH_*.json regression gate (`repro.perf.bench.check_baseline`).

Pure payload-level tests: the gate is what CI and the committed
trajectory rely on, so its comparison semantics (best engine vs best
engine, loose per-case bar, tight geomean bar) are pinned here without
timing anything.
"""

from __future__ import annotations

from repro.perf.bench import (
    RESIDENT_STEADY_MULTIPLIER,
    RESIDENT_STEADY_SCENARIO,
    check_baseline,
    default_cases,
)


def _payload(cases, geomean=0.0, geomean_fast=0.0):
    return {
        "cases": cases,
        "geomean_speedup": geomean,
        "geomean_fast_speedup": geomean_fast,
    }


def test_gate_passes_when_nothing_moved():
    baseline = _payload(
        [{"name": "a", "speedup": 2.0}], geomean=2.0
    )
    assert check_baseline(_payload(
        [{"name": "a", "speedup": 2.0}], geomean=2.0
    ), baseline) == []


def test_gate_compares_best_engine_on_both_sides():
    # Schema-1 baseline: `speedup` is reference/fast.  Schema-2 payload:
    # `speedup` timed a third engine and may legitimately be lower than
    # `fast_speedup` on a case where that engine lost to fast.
    baseline = _payload([{"name": "a", "speedup": 2.0}], geomean=2.0)
    payload = _payload(
        [{"name": "a", "speedup": 1.2, "fast_speedup": 1.9}],
        geomean=1.2,
        geomean_fast=1.9,
    )
    assert check_baseline(payload, baseline) == []


def test_gate_reads_schema_2_baseline_against_schema_3_payload():
    # Schema-2 baseline: best of `speedup` (third engine) and
    # `fast_speedup`.  Schema-3 payload: `speedup` is reference/fast and
    # the only ratio, so it is compared with the baseline's best.
    baseline = {
        "schema": 2,
        "cases": [
            {"name": "resident", "speedup": 12.5, "fast_speedup": 4.6},
            {"name": "thrash", "speedup": 1.8, "fast_speedup": 1.9},
        ],
        "geomean_speedup": 2.33,
        "geomean_fast_speedup": 2.17,
    }
    payload = {
        "schema": 3,
        "cases": [
            {"name": "resident", "speedup": 9.0},
            {"name": "thrash", "speedup": 1.9},
        ],
        "geomean_speedup": 2.2,
    }
    assert check_baseline(payload, baseline) == []
    payload["cases"][0]["speedup"] = 8.0  # < 0.7 * 12.5
    payload["geomean_speedup"] = 2.0  # < 0.9 * 2.33
    messages = check_baseline(payload, baseline)
    assert len(messages) == 2
    assert messages[0].startswith("resident:")
    assert messages[1].startswith("geomean:")


def test_gate_flags_a_case_falling_off_a_cliff():
    baseline = _payload([{"name": "a", "speedup": 2.0}], geomean=2.0)
    payload = _payload(
        [{"name": "a", "speedup": 1.0, "fast_speedup": 1.1}],
        geomean=1.1,
        geomean_fast=1.1,
    )
    messages = check_baseline(payload, baseline)
    assert any("a:" in m for m in messages)


def test_gate_flags_geomean_regression_even_when_cases_pass():
    # Every case individually above the loose 0.7 bar, but the whole
    # matrix drifted below 0.9x: the tight geomean bar catches it.
    baseline = _payload(
        [{"name": n, "speedup": 2.0} for n in "abcd"], geomean=2.0
    )
    payload = _payload(
        [{"name": n, "speedup": 1.6} for n in "abcd"], geomean=1.6
    )
    messages = check_baseline(payload, baseline)
    assert messages and all("geomean" in m for m in messages)


def test_gate_ignores_cases_on_one_side_only():
    baseline = _payload([{"name": "old", "speedup": 9.0}], geomean=2.0)
    payload = _payload([{"name": "new", "speedup": 1.0}], geomean=2.0)
    assert check_baseline(payload, baseline) == []


def test_resident_steady_case_runs_longer():
    cases = {case.workload: case for case in default_cases()}
    assert cases[RESIDENT_STEADY_SCENARIO].refs_multiplier == (
        RESIDENT_STEADY_MULTIPLIER
    )
    others = [
        case
        for case in cases.values()
        if case.workload != RESIDENT_STEADY_SCENARIO
    ]
    assert all(case.refs_multiplier == 1 for case in others)
