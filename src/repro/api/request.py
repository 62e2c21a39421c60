"""Declarative run requests with stable cache keys.

A :class:`RunRequest` is the unit of work the :class:`repro.api.session.
Session` engine executes, deduplicates and memoizes: a frozen, hashable
value object naming one :class:`~repro.sim.config.SystemConfig`, one
workload (by name, so requests stay picklable and serializable) and the
trace-length / warmup knobs.  Two requests constructed independently
from equal ingredients compare equal, hash equal and produce the same
``cache_key``, which is what makes cross-figure result sharing work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.sim.config import (
    SystemConfig,
    check_fields,
    config_from_dict,
    config_to_dict,
)

#: Experiment kinds a request can ask for: a trace-driven simulation or
#: the single-remap anatomy microbenchmark (which needs no workload).
EXPERIMENT_TRACE = "trace"
EXPERIMENT_REMAP = "remap"
EXPERIMENTS = (EXPERIMENT_TRACE, EXPERIMENT_REMAP)

#: Bumped whenever the simulator or the cached-result format changes in
#: a way that invalidates previously cached results.  It is part of
#: every cache key AND stamped into every on-disk cache entry, so
#: results written by an older release are ignored (treated as misses
#: and overwritten) rather than returned stale.
CACHE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class RunRequest:
    """One deduplicatable, cacheable unit of simulation work.

    Attributes:
        config: the machine to simulate.
        workload: workload name resolvable by
            :func:`repro.workloads.make_workload` (``""`` for the remap
            anatomy microbenchmark, which runs no trace).
        warmup_fraction: fraction of every stream treated as warmup.
        refs_total: total references to simulate (None = spec default).
        warmup_refs: absolute per-stream warmup length overriding
            ``warmup_fraction`` (None = use the fraction).  Checkpointed
            ``refs_total`` sweeps need a trace-length-independent warmup
            boundary; a fraction moves with the trace length.
        interval_refs: emit time-resolved telemetry
            (:class:`~repro.sim.stats.IntervalSample` deltas on
            ``result.intervals``) roughly every this many retired
            references (None = no telemetry, byte-identical legacy
            results).
        experiment: ``"trace"`` or ``"remap"``.

    A request names no engine: every request runs the fast engine, and
    ``REPRO_VALIDATE_FASTPATH=1`` checks each result against the
    reference engine (:mod:`repro.sim.engine`).  The two engines are
    bit-identical, so the engine is a detail of the machine, not of the
    work.
    """

    config: SystemConfig
    workload: str = ""
    warmup_fraction: float = 0.2
    refs_total: Optional[int] = None
    warmup_refs: Optional[int] = None
    interval_refs: Optional[int] = None
    experiment: str = EXPERIMENT_TRACE

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        if self.experiment == EXPERIMENT_TRACE and not self.workload:
            raise ValueError("a trace request needs a workload name")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.refs_total is not None and self.refs_total <= 0:
            raise ValueError("refs_total must be positive when given")
        if self.warmup_refs is not None and self.warmup_refs < 0:
            raise ValueError("warmup_refs must be >= 0 when given")
        if self.warmup_refs is not None:
            # warmup_refs overrides the fraction entirely; normalize the
            # dead field to its default so dataclass equality agrees
            # with cache-key equality (and to_dict round-trips exactly)
            object.__setattr__(self, "warmup_fraction", 0.2)
        if self.interval_refs is not None and self.interval_refs <= 0:
            raise ValueError("interval_refs must be positive when given")

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Serialize to plain JSON-compatible data.

        ``warmup_refs`` and ``interval_refs`` are absent when unset, so
        pre-existing requests keep their exact historical cache keys
        (and cached results stay valid without a
        :data:`CACHE_SCHEMA_VERSION` bump).
        """
        data: dict[str, Any] = {
            "config": config_to_dict(self.config),
            "workload": self.workload,
            # warmup_refs overrides the fraction entirely, so the dead
            # fraction must not split behaviorally identical requests
            # into distinct cache keys (mirrors checkpoint_family_key)
            "warmup_fraction": (
                None if self.warmup_refs is not None else self.warmup_fraction
            ),
            "refs_total": self.refs_total,
            "experiment": self.experiment,
        }
        if self.warmup_refs is not None:
            data["warmup_refs"] = self.warmup_refs
        if self.interval_refs is not None:
            data["interval_refs"] = self.interval_refs
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Raises ``ValueError`` naming any key :meth:`to_dict` never
        writes, instead of dropping it.
        """
        check_fields(data, _FIELDS, "run request")
        warmup_fraction = data.get("warmup_fraction")
        return cls(
            config=config_from_dict(data["config"]),
            workload=data.get("workload", ""),
            warmup_fraction=0.2 if warmup_fraction is None else warmup_fraction,
            refs_total=data.get("refs_total"),
            warmup_refs=data.get("warmup_refs"),
            interval_refs=data.get("interval_refs"),
            experiment=data.get("experiment", EXPERIMENT_TRACE),
        )

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    @property
    def cache_key(self) -> str:
        """Stable content hash identifying this request across processes.

        Equal requests (even ones built independently from equal
        configs) share a key; any differing field changes it.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            payload = {"schema": CACHE_SCHEMA_VERSION, **self.to_dict()}
            digest = hashlib.sha256(
                json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
            ).hexdigest()
            # frozen dataclass: stash the memo without going through
            # __setattr__, which would raise FrozenInstanceError.
            object.__setattr__(self, "_cache_key", digest)
            cached = digest
        return cached


#: The keys :meth:`RunRequest.to_dict` writes: one per field.
_FIELDS = frozenset(f.name for f in dataclasses.fields(RunRequest))
