"""On-disk machine-checkpoint store living beside the result cache.

Checkpoints are :mod:`repro.sim.snapshot` payloads persisted as one
JSON file per (run family, executed-reference count).  A *family* is
everything that determines a run's machine trajectory except how far it
executes: the system configuration, the workload name, the warmup
boundary and the telemetry cadence.  Two requests of the same family
that differ only in ``refs_total`` share a trajectory prefix, so the
longer run can restore the shorter run's checkpoint and simulate only
the tail (:mod:`repro.api.session`).

Every file is double-stamped -- with the snapshot payload's own
:data:`~repro.sim.snapshot.SNAPSHOT_SCHEMA_VERSION` and with the result
cache's :data:`~repro.api.request.CACHE_SCHEMA_VERSION` (any simulator
behaviour change invalidates mid-run machine state just as it
invalidates results).  :meth:`CheckpointStore.load` refuses entries
stamped with any other combination, and ``prune`` (shared with the
result cache through :class:`~repro.api.cache.JsonStore`) deletes them
instead of ignoring them forever.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Optional, Union

from repro.api.cache import (
    CacheDecodeError,
    JsonStore,
    StaleSchemaError,
    write_text_atomic,
)
from repro.api.request import CACHE_SCHEMA_VERSION, RunRequest
from repro.sim.config import config_to_dict
from repro.sim.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    validate_snapshot,
)

#: Subdirectory of the result cache that holds checkpoint files.
CHECKPOINT_SUBDIR = "checkpoints"

#: Checkpoints retained per family by :meth:`CheckpointStore.prune`
#: (the largest-refs ones).  Complete machine snapshots are large, and
#: the session's candidate scan is capped anyway, so keeping an
#: unbounded pile per family is pure disk cost.
PRUNE_KEEP_PER_FAMILY = 8

_FILE_PATTERN = re.compile(r"^(?P<family>[0-9a-f]{64})-(?P<refs>\d{12})\.json$")


def checkpoint_family_key(request: RunRequest) -> str:
    """Stable hash naming the run family a request belongs to.

    Includes everything that shapes the machine trajectory and the
    telemetry stream except ``refs_total`` (the one axis checkpoints
    exist to make incremental) -- plus both schema versions, so a
    version bump moves every family and stale state can never be
    indexed, let alone restored.
    """
    payload: dict[str, Any] = {
        "schema": CACHE_SCHEMA_VERSION,
        "snapshot_schema": SNAPSHOT_SCHEMA_VERSION,
        "config": config_to_dict(request.config),
        "workload": request.workload,
        # warmup_refs overrides the fraction entirely, so the fraction
        # must not split otherwise-identical trajectories into
        # different families when an absolute warmup is set.
        "warmup_fraction": (
            None if request.warmup_refs is not None
            else request.warmup_fraction
        ),
        "warmup_refs": request.warmup_refs,
        "interval_refs": request.interval_refs,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


class CheckpointStore(JsonStore):
    """One-file-per-checkpoint JSON store keyed by (family, refs)."""

    def path_for(self, family: str, executed_refs: int) -> Path:
        """Checkpoint file path for one (family, executed refs) pair."""
        return self.directory / f"{family}-{executed_refs:012d}.json"

    @staticmethod
    def _check(data: Any) -> dict[str, Any]:
        if not isinstance(data, dict):
            raise CacheDecodeError("checkpoint is not a JSON object")
        if data.get("cache_schema") != CACHE_SCHEMA_VERSION:
            raise StaleSchemaError(
                f"checkpoint has cache schema {data.get('cache_schema')!r}, "
                f"current code expects {CACHE_SCHEMA_VERSION}"
            )
        try:
            validate_snapshot(data)
        except SnapshotError as error:
            raise CacheDecodeError(str(error)) from error
        return data

    def _surplus(self, healthy: list[Path]) -> list[Path]:
        """All but each family's :data:`PRUNE_KEEP_PER_FAMILY` largest."""
        families: dict[str, list[tuple[int, Path]]] = {}
        for path in healthy:
            match = _FILE_PATTERN.match(path.name)
            if match is not None:
                families.setdefault(match.group("family"), []).append(
                    (int(match.group("refs")), path)
                )
        return [
            path
            for entries in families.values()
            for _, path in sorted(entries, reverse=True)[PRUNE_KEEP_PER_FAMILY:]
        ]

    def save(self, family: str, snapshot: dict[str, Any]) -> Path:
        """Persist a snapshot (atomically) under its family; return path."""
        validate_snapshot(snapshot)
        path = self.path_for(family, int(snapshot["executed_refs"]))
        payload = json.dumps(
            {"cache_schema": CACHE_SCHEMA_VERSION, **snapshot},
            separators=(",", ":"),
        )
        write_text_atomic(path, payload)
        return path

    def load(self, path: Union[str, Path]) -> Optional[dict[str, Any]]:
        """Load and validate one checkpoint file; None on a miss.

        Schema mismatches -- possibly well-formed entries from a
        different code version -- are counted as stale misses,
        unreadable, corrupt or invalid snapshots as decode misses
        (:meth:`~repro.api.cache.JsonStore.prune` deletes both).
        """
        return self._read(Path(path))

    def candidates(self, family: str) -> list[tuple[int, Path]]:
        """``(executed_refs, path)`` pairs of a family, longest first."""
        found: list[tuple[int, Path]] = []
        for path in self._paths(f"{family}-*.json"):
            match = _FILE_PATTERN.match(path.name)
            if match is not None and match.group("family") == family:
                found.append((int(match.group("refs")), path))
        found.sort(key=lambda pair: pair[0], reverse=True)
        return found


__all__ = [
    "CHECKPOINT_SUBDIR",
    "CheckpointStore",
    "checkpoint_family_key",
]
