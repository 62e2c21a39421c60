"""On-disk result cache and result (de)serialization.

Results are stored one JSON file per :attr:`RunRequest.cache_key` so
they survive across processes and sessions.  The encoders rebuild real
:class:`~repro.sim.simulator.SimulationResult` /
:class:`~repro.sim.remap_anatomy.AnatomyRow` objects, so cached results
are drop-in replacements for freshly simulated ones (normalization,
event lookups and per-app accounting all keep working).
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Mapping, NamedTuple, Optional, Union

from repro.api.request import CACHE_SCHEMA_VERSION
from repro.energy.model import EnergyBreakdown
from repro.obs.log import get_logger
from repro.sim.config import config_from_dict, config_to_dict
from repro.sim.remap_anatomy import AnatomyRow
from repro.sim.simulator import SimulationResult
from repro.sim.stats import (
    CpuStats,
    EventCounter,
    IntervalSample,
    MachineStats,
    VmStats,
)

#: Either kind of result a session can produce.
AnyResult = Union[SimulationResult, AnatomyRow]

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Grace period (seconds) before prune may remove an orphaned ``*.tmp``
#: file.  Temp files younger than this are assumed to belong to a live
#: writer mid-:func:`write_text_atomic`; only crashed writers leave
#: temp files older than a minute.
TMP_GRACE_SECONDS = 60.0

#: The ``repro cache prune`` CLI default for ``--min-age``: entries
#: (stale or not-yet-decodable) younger than an hour are left alone, so
#: pruning a directory a live server is writing to cannot delete work
#: in flight.  Programmatic callers default to 0 (prune everything
#: stale) to keep library behaviour explicit.
DEFAULT_PRUNE_MIN_AGE_SECONDS = 3600.0

logger = get_logger(__name__)


class CacheDecodeError(ValueError):
    """A cache entry is structurally not a result this code can decode.

    Raised (and caught as a miss) for malformed-but-parseable entries;
    deliberately *not* raised for same-schema entries whose decode blows
    up with ``KeyError``/``TypeError`` -- that is an encoder/decoder bug
    and must propagate instead of masquerading as a miss and being
    deleted by ``prune``.
    """


class StaleSchemaError(CacheDecodeError):
    """A cache entry is stamped with a different schema version.

    The explicit (counted, logged) case: the entry may be perfectly
    well-formed -- possibly written by a *newer* version of this code --
    it just cannot be used by the running one.
    """


class PruneStats(NamedTuple):
    """Outcome of one prune pass over an on-disk store."""

    #: stale/undecodable (or surplus) entries actually deleted.
    removed: int
    #: healthy entries left on disk.
    kept: int
    #: entries that should have been deleted but could not be
    #: (``unlink`` failed); they are neither pruned nor healthy.
    failed: int


def default_cache_dir() -> Path:
    """The default on-disk cache location (``REPRO_CACHE_DIR`` wins)."""
    override = os.environ.get(CACHE_DIR_ENV_VAR)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-hatric"


def file_age_at_least(path: Path, now: float, age_seconds: float) -> Optional[bool]:
    """Whether ``path``'s mtime is at least ``age_seconds`` before ``now``.

    Returns None when the file vanished (a concurrent writer's rename or
    another pruner got there first) -- callers must then skip the file
    entirely rather than count it either way.
    """
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return None
    return now - mtime >= age_seconds


def prune_orphan_tmp_files(
    directory: Path,
    min_age_seconds: float,
    tmp_grace_seconds: float,
) -> tuple[int, int]:
    """Delete abandoned ``*.tmp`` files left by crashed writers.

    A temp file is only removed once it is older than *both*
    ``min_age_seconds`` and ``tmp_grace_seconds``, so even a
    ``min_age_seconds=0`` prune (tests, ``--min-age 0``) cannot delete
    the temp file a live :func:`write_text_atomic` is about to rename.
    Returns ``(removed, failed)``.
    """
    removed = failed = 0
    cutoff = max(min_age_seconds, tmp_grace_seconds)
    now = time.time()
    for path in sorted(directory.glob("*.tmp")):
        old_enough = file_age_at_least(path, now, cutoff)
        if not old_enough:  # too young, or already gone (None)
            continue
        try:
            path.unlink()
            removed += 1
        except OSError as error:
            logger.warning("prune failed to delete %s: %s", path, error)
            failed += 1
    return removed, failed


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via write-then-rename.

    Concurrent readers never see a torn file.  The temporary file lives
    in ``path``'s own directory (created if needed), so the final
    ``os.replace`` is a same-filesystem rename.  Shared by the result
    cache and the checkpoint store so the two cannot drift on atomicity
    semantics.
    """
    directory = path.parent
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# result (de)serialization
# ----------------------------------------------------------------------
def _encode_stats(stats: MachineStats) -> dict[str, Any]:
    payload = {
        "num_cpus": stats.num_cpus,
        "cpus": [dataclasses.asdict(cpu) for cpu in stats.cpus],
        "events": dict(stats.events),
        "background_cycles": stats.background_cycles,
    }
    if stats.vms:
        # only consolidated runs carry per-VM counters; single-VM
        # entries stay byte-identical to the pre-multi-VM format
        payload["vms"] = [vm.to_dict() for vm in stats.vms]
    return payload


def _decode_stats(data: Mapping[str, Any]) -> MachineStats:
    stats = MachineStats(data["num_cpus"])
    stats.cpus = [CpuStats(**cpu) for cpu in data["cpus"]]
    stats.events = EventCounter(data["events"])
    stats.background_cycles = data["background_cycles"]
    stats.vms = [VmStats.from_dict(vm) for vm in data.get("vms", [])]
    return stats


def encode_result(result: AnyResult) -> dict[str, Any]:
    """Serialize a simulation or anatomy result to JSON-compatible data.

    Every entry carries the current :data:`CACHE_SCHEMA_VERSION`;
    :func:`decode_result` refuses entries stamped with any other value
    (including entries from releases that predate the stamp), which is
    what keeps a stale on-disk cache from silently feeding old numbers
    into new code.
    """
    if isinstance(result, AnatomyRow):
        return {
            "type": "anatomy",
            "schema": CACHE_SCHEMA_VERSION,
            **dataclasses.asdict(result),
        }
    if not isinstance(result, SimulationResult):
        # imported lazily: repro.fleet sits above the api layer (its
        # cache keys hash CACHE_SCHEMA_VERSION from this module)
        from repro.fleet.metrics import FleetResult

        if isinstance(result, FleetResult):
            return {
                "type": "fleet",
                "schema": CACHE_SCHEMA_VERSION,
                **result.to_dict(),
            }
        raise TypeError(f"cannot encode result type {type(result).__name__}")
    payload = {
        "type": "simulation",
        "schema": CACHE_SCHEMA_VERSION,
        "config": config_to_dict(result.config),
        "workload": result.workload,
        "stats": _encode_stats(result.stats),
        "energy": {
            "dynamic": result.energy.dynamic,
            "static": result.energy.static,
            "components": dict(result.energy.components),
        },
        "warmup_references": result.warmup_references,
        "per_app_cycles": dict(result.per_app_cycles),
    }
    if result.vm_names:
        payload["vm_names"] = list(result.vm_names)
    if result.intervals:
        # only telemetry-enabled runs carry interval samples; plain
        # entries stay byte-identical to the pre-telemetry format
        payload["intervals"] = [
            sample.to_dict() for sample in result.intervals
        ]
    return payload


def decode_result(data: Mapping[str, Any]) -> AnyResult:
    """Rebuild a result from :func:`encode_result` output.

    Raises :class:`StaleSchemaError` when the entry's schema stamp does
    not match the running code's :data:`CACHE_SCHEMA_VERSION` (missing
    stamp included) and :class:`CacheDecodeError` for entries of unknown
    type, so callers treat those -- and only those -- as cache misses.
    """
    schema = data.get("schema")
    if schema != CACHE_SCHEMA_VERSION:
        raise StaleSchemaError(
            f"cached result has schema {schema!r}, current code expects "
            f"{CACHE_SCHEMA_VERSION}; ignoring stale entry"
        )
    kind = data.get("type")
    if kind == "anatomy":
        fields = {k: v for k, v in data.items() if k not in ("type", "schema")}
        return AnatomyRow(**fields)
    if kind == "fleet":
        from repro.fleet.metrics import FleetResult

        return FleetResult.from_dict(data)
    if kind != "simulation":
        raise CacheDecodeError(f"unknown cached result type {kind!r}")
    energy = data["energy"]
    return SimulationResult(
        config=config_from_dict(data["config"]),
        workload=data["workload"],
        stats=_decode_stats(data["stats"]),
        energy=EnergyBreakdown(
            dynamic=energy["dynamic"],
            static=energy["static"],
            components=dict(energy["components"]),
        ),
        warmup_references=data["warmup_references"],
        per_app_cycles=dict(data["per_app_cycles"]),
        vm_names=list(data.get("vm_names", [])),
        intervals=[
            IntervalSample.from_dict(sample)
            for sample in data.get("intervals", [])
        ],
    )


# ----------------------------------------------------------------------
# the cache itself
# ----------------------------------------------------------------------
class ResultCache:
    """One-file-per-result JSON cache keyed by request cache keys."""

    def __init__(self, directory: Optional[Union[str, Path]] = None) -> None:
        self.directory = (
            Path(directory).expanduser() if directory else default_cache_dir()
        )
        #: per-instance miss accounting: schema-mismatched entries vs
        #: unreadable/corrupt ones (tests and diagnostics read these).
        self.stale_schema_misses = 0
        self.decode_error_misses = 0

    def path_for(self, key: str) -> Path:
        """Cache file path for one key."""
        return self.directory / f"{key}.json"

    def get(self, key: str) -> Optional[AnyResult]:
        """Return the cached result for ``key``, or None.

        Unreadable, corrupt, and schema-mismatched entries are treated
        as misses rather than errors, so a truncated write never wedges
        the cache -- but only those: a ``KeyError``/``TypeError`` out of
        a *current-schema* entry is a (de)serializer bug and propagates.
        """
        path = self.path_for(key)
        try:
            with path.open("r", encoding="utf-8") as handle:
                return decode_result(json.load(handle))
        except FileNotFoundError:
            return None
        except StaleSchemaError as error:
            self.stale_schema_misses += 1
            logger.warning("cache miss (stale schema) for %s: %s", path, error)
            return None
        except (OSError, json.JSONDecodeError, CacheDecodeError) as error:
            self.decode_error_misses += 1
            logger.warning("cache miss (undecodable) for %s: %s", path, error)
            return None

    def put(self, key: str, result: AnyResult) -> Path:
        """Store ``result`` under ``key`` (atomically) and return its path."""
        path = self.path_for(key)
        write_text_atomic(path, json.dumps(encode_result(result)))
        return path

    def __contains__(self, key: str) -> bool:
        """True when ``key`` has a decodable entry on disk.

        Decodes rather than stats so a torn/corrupt entry (which
        :meth:`get` treats as a miss) is not reported as present.
        """
        return self.get(key) is not None

    def __len__(self) -> int:
        """Number of entry files currently on disk."""
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*.json"))

    def fleet_traffic(self) -> dict[str, int]:
        """Aggregate migration-snapshot traffic across cached fleet runs.

        Scans the ``fleet:``-prefixed entries (current schema only) and
        sums their transport counters, so ``repro cache info`` can show
        how much snapshot traffic the cached fleet results represent.
        Returns ``{"entries", "captures", "restores", "bytes"}``.
        """
        totals = {"entries": 0, "captures": 0, "restores": 0, "bytes": 0}
        if not self.directory.is_dir():
            return totals
        for path in sorted(self.directory.glob("fleet:*.json")):
            try:
                with path.open("r", encoding="utf-8") as handle:
                    data = json.load(handle)
            except (OSError, ValueError):
                continue
            if (
                data.get("schema") != CACHE_SCHEMA_VERSION
                or data.get("type") != "fleet"
            ):
                continue
            transport = data.get("transport", {})
            totals["entries"] += 1
            for key in ("captures", "restores", "bytes"):
                totals[key] += int(transport.get(key, 0))
        return totals

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def prune(
        self,
        min_age_seconds: float = 0.0,
        tmp_grace_seconds: float = TMP_GRACE_SECONDS,
    ) -> PruneStats:
        """Delete stale (schema-mismatched) and undecodable entries.

        :meth:`get` already treats such entries as misses, but a miss
        leaves the file in place forever; this pass removes them so a
        long-lived cache directory does not accumulate dead weight
        across schema bumps.  Returns :class:`PruneStats`; a stale entry
        whose ``unlink`` fails counts as ``failed``, never as pruned or
        kept.

        ``min_age_seconds`` scopes deletion to entries whose mtime is at
        least that old: pruning a directory a *live server* is writing
        to must not race an in-flight write into deletion (the CLI
        defaults to :data:`DEFAULT_PRUNE_MIN_AGE_SECONDS`).  Too-young
        stale entries count as ``kept``.  Abandoned ``*.tmp`` files from
        crashed writers are removed once older than both the cutoff and
        ``tmp_grace_seconds`` (counted in ``removed``); younger ones are
        presumed to belong to a live :func:`write_text_atomic` and are
        never touched, regardless of ``min_age_seconds``.
        """
        removed = kept = failed = 0
        if not self.directory.is_dir():
            return PruneStats(0, 0, 0)
        now = time.time()
        for path in sorted(self.directory.glob("*.json")):
            stale = False
            try:
                with path.open("r", encoding="utf-8") as handle:
                    decode_result(json.load(handle))
            except FileNotFoundError:
                continue  # lost a race with another pruner/clear
            except (OSError, json.JSONDecodeError, CacheDecodeError):
                stale = True
            if stale:
                old_enough = file_age_at_least(path, now, min_age_seconds)
                if old_enough is None:
                    continue
                if not old_enough:
                    kept += 1
                    continue
                try:
                    path.unlink()
                    removed += 1
                except OSError as error:
                    logger.warning(
                        "prune failed to delete %s: %s", path, error
                    )
                    failed += 1
            else:
                kept += 1
        tmp_removed, tmp_failed = prune_orphan_tmp_files(
            self.directory, min_age_seconds, tmp_grace_seconds
        )
        return PruneStats(removed + tmp_removed, kept, failed + tmp_failed)
