"""Cross-cutting observability: tracing, metrics, structured logging.

``repro.obs`` is the observability backbone every other layer may use:

* :mod:`repro.obs.trace` -- a zero-dependency structured tracer.  Off
  by default; ``REPRO_TRACE=out.jsonl`` turns it on.  Emits one Chrome
  ``trace_event`` JSON object per line (JSONL), loadable in
  ``chrome://tracing`` / Perfetto after ``python -m repro trace
  export``.
* :mod:`repro.obs.metrics` -- a Prometheus-style metrics registry
  (counters, gauges, histograms) shared by the serve layer's
  ``/metrics`` endpoint and the CLI's cache introspection.
* :mod:`repro.obs.log` -- the structured logger every warning and
  diagnostic message routes through, with a ``REPRO_LOG_LEVEL`` knob.
* :mod:`repro.obs.profile` -- pure functions turning interval telemetry
  and event counters into per-component cycle attribution and ASCII
  activity sparklines (the ``python -m repro profile`` report).

Import-direction rule (see docs/ARCHITECTURE.md): ``repro.obs`` imports
nothing above :mod:`repro.sim`; everything may import ``repro.obs``.
Observation never perturbs simulation -- results are bit-identical with
tracing on and off, and no trace state enters cache keys.

This ``__init__`` deliberately imports only the sim-independent
submodules (``log``, ``trace``) so low layers (e.g.
:mod:`repro.sim.simulator`) can import ``repro.obs.log`` without an
import cycle through ``repro.sim``; import :mod:`repro.obs.metrics` and
:mod:`repro.obs.profile` explicitly.
"""

from repro.obs.log import LOG_LEVEL_ENV_VAR, get_logger
from repro.obs.trace import TRACE_ENV_VAR, active_tracer, tracing_enabled

__all__ = [
    "LOG_LEVEL_ENV_VAR",
    "TRACE_ENV_VAR",
    "active_tracer",
    "get_logger",
    "tracing_enabled",
]
