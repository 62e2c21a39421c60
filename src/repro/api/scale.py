"""Experiment scaling knobs (trace length and warmup).

It lives in the API layer so the sweep engine can use it without
importing the experiments package.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional, Union

from repro.workloads.base import MultiprogrammedWorkload, Workload

#: Environment variable that globally scales experiment trace lengths
#: (e.g. ``REPRO_EXPERIMENT_SCALE=0.25`` for quick benchmark runs).
SCALE_ENV_VAR = "REPRO_EXPERIMENT_SCALE"


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs applied uniformly to an experiment.

    Attributes:
        trace_scale: multiplier on each workload's total references.
        warmup_fraction: fraction of every stream treated as warmup.
    """

    trace_scale: float = 1.0
    warmup_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not math.isfinite(self.trace_scale) or self.trace_scale <= 0.0:
            raise ValueError(
                f"trace_scale must be a positive finite number, got "
                f"{self.trace_scale!r}"
            )
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")

    @classmethod
    def from_environment(cls) -> "ExperimentScale":
        """Build a scale from ``REPRO_EXPERIMENT_SCALE`` (default 1.0).

        Rejects values that would silently produce degenerate traces
        (zero, negative, NaN, infinity, or non-numeric strings).
        """
        raw = os.environ.get(SCALE_ENV_VAR)
        if not raw:
            return cls()
        try:
            value = float(raw)
        except ValueError:
            raise ValueError(
                f"{SCALE_ENV_VAR}={raw!r} is not a number; expected a "
                f"positive trace-length multiplier such as 0.25"
            ) from None
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(
                f"{SCALE_ENV_VAR}={raw!r} would produce degenerate traces; "
                f"expected a positive finite trace-length multiplier"
            )
        return cls(trace_scale=value)

    def refs_for(
        self, workload: Union[Workload, MultiprogrammedWorkload]
    ) -> Optional[int]:
        """Total references to simulate for ``workload`` (None = spec default)."""
        if self.trace_scale == 1.0:
            return None
        if isinstance(workload, MultiprogrammedWorkload):
            total = sum(spec.refs_total for spec in workload.specs)
        else:
            total = workload.spec.refs_total
        return max(1000, int(total * self.trace_scale))
