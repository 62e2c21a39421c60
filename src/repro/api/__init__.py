"""Unified experiment API: declarative sweeps, sessions and caching.

The subsystem has four pieces:

* :class:`~repro.api.request.RunRequest` — a frozen, hashable value
  object naming one (config, workload, trace-length) unit of work, with
  a stable content-hash cache key;
* :class:`~repro.api.session.Session` — the engine that executes
  batches of requests with dedup, in-process memoization, an optional
  on-disk JSON cache, and optional process fan-out;
* :class:`~repro.api.sweep.Sweep` / :class:`~repro.api.sweep.SweepResult`
  — a declarative cross-product over experiment axes with baseline
  normalization, replacing the per-figure cell/result boilerplate;
* :class:`~repro.api.scale.ExperimentScale` — the trace-length /
  warmup scaling knob shared by every experiment.

Every figure harness under :mod:`repro.experiments` is a thin
declaration on top of this API, and ``python -m repro`` exposes it from
the command line.
"""

from repro.api.cache import ResultCache, decode_result, default_cache_dir, encode_result
from repro.api.checkpoint import CheckpointStore, checkpoint_family_key
from repro.api.request import RunRequest
from repro.api.scale import SCALE_ENV_VAR, ExperimentScale
from repro.api.session import (
    Session,
    SessionStats,
    default_session,
    execute_request,
    reset_default_session,
)
from repro.api.sweep import Sweep, SweepCell, SweepResult

__all__ = [
    "CheckpointStore",
    "ExperimentScale",
    "ResultCache",
    "RunRequest",
    "SCALE_ENV_VAR",
    "Session",
    "SessionStats",
    "Sweep",
    "SweepCell",
    "SweepResult",
    "checkpoint_family_key",
    "decode_result",
    "default_cache_dir",
    "default_session",
    "encode_result",
    "execute_request",
    "reset_default_session",
]
