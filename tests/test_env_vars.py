"""One table covering every ``REPRO_*`` environment variable.

The contract (see :mod:`repro.env`): unset or empty means the default,
a valid value is honoured, and a typo'd value raises ``ValueError``
naming the variable -- it must never silently select a fallback.  Each
row below exercises all three arms through the *actual* parse path the
production code uses, so a new env var that bypasses the helpers (or a
helper regression) shows up here as a missing/failing row.
"""

from __future__ import annotations

import pytest

from repro.api.scale import ExperimentScale
from repro.env import env_choice, env_float, env_int
from repro.obs.log import log_level_from_environment
from repro.obs.trace import trace_path_from_environment
from repro.sim.engine import (
    ENGINE_FAST,
    resolve_engine,
    validate_fastpath_requested,
)

#: (env var, parse callable, valid raw value, expected parsed value,
#:  invalid raw value).  The parse callable reads the environment the
#: same way the production call site does.
ENV_TABLE = [
    (
        "REPRO_SIM_ENGINE",
        lambda: resolve_engine(None),
        "reference",
        "reference",
        "fsat",
    ),
    (
        "REPRO_VALIDATE_FASTPATH",
        validate_fastpath_requested,
        "1",
        True,
        "yes please",
    ),
    (
        "REPRO_JOBS",
        lambda: env_int("REPRO_JOBS", None, minimum=1),
        "4",
        4,
        "four",
    ),
    (
        "REPRO_FUZZ_EXAMPLES",
        lambda: env_int("REPRO_FUZZ_EXAMPLES", 5, minimum=1),
        "25",
        25,
        "0",  # below the minimum: a zero-example fuzz run proves nothing
    ),
    (
        "REPRO_EXPERIMENT_SCALE",
        ExperimentScale.from_environment,
        "0.5",
        ExperimentScale(trace_scale=0.5),
        "big",
    ),
    (
        "REPRO_BENCH_SCALE",
        lambda: env_float("REPRO_BENCH_SCALE", 0.35, positive=True),
        "0.2",
        0.2,
        "-1",
    ),
    (
        "REPRO_BENCH_FULL",
        lambda: env_choice(
            "REPRO_BENCH_FULL", "0", ("0", "false", "1", "true")
        ),
        "1",
        "1",
        "maybe",
    ),
    (
        "REPRO_UPDATE_RESULTS",
        lambda: env_choice(
            "REPRO_UPDATE_RESULTS", "0", ("0", "false", "1", "true")
        ),
        "true",
        "true",
        "maybe",
    ),
    (
        "REPRO_TRACE",
        trace_path_from_environment,
        "out.jsonl",
        "out.jsonl",
        "1",  # a boolean typo, not a trace file path
    ),
    (
        "REPRO_LOG_LEVEL",
        log_level_from_environment,
        "debug",
        "debug",
        "loud",
    ),
]


@pytest.mark.parametrize(
    "name, parse, good, expected, bad",
    ENV_TABLE,
    ids=[row[0] for row in ENV_TABLE],
)
def test_env_var_contract(monkeypatch, name, parse, good, expected, bad):
    monkeypatch.delenv(name, raising=False)
    unset_default = parse()  # unset: must not raise

    monkeypatch.setenv(name, "")
    assert parse() == unset_default  # empty means unset

    monkeypatch.setenv(name, good)
    assert parse() == expected

    monkeypatch.setenv(name, bad)
    with pytest.raises(ValueError, match=name):
        parse()


def test_jobs_env_var_reaches_default_session(monkeypatch):
    """The loud parse guards the real construction path, not a copy."""
    import repro.api.session as session_module

    monkeypatch.setattr(session_module, "_DEFAULT_SESSION", None)
    monkeypatch.setenv("REPRO_JOBS", "three")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        session_module.default_session()
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert session_module.default_session().max_workers == 3
    monkeypatch.setattr(session_module, "_DEFAULT_SESSION", None)


def test_engine_default_unchanged(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    assert resolve_engine(None) == ENGINE_FAST
