"""Multi-writer hardening tests for the result and checkpoint stores.

The serve layer points many processes at one store directory, so the
stores must tolerate concurrent writers (atomic write-then-rename means
readers never observe torn JSON) and maintenance must tolerate live
servers (prune's ``min_age_seconds`` scopes deletion to old entries),
and a writer killed mid-write must leave a store that still loads.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.api import checkpoint as checkpoint_module
from repro.api.cache import (
    DEFAULT_PRUNE_MIN_AGE_SECONDS,
    TMP_GRACE_SECONDS,
    ResultCache,
)
from repro.api.checkpoint import CheckpointStore, checkpoint_family_key
from repro.api.request import RunRequest
from repro.api.session import execute_request
from repro.energy.model import EnergyBreakdown
from repro.experiments.runner import baseline_config
from repro.sim.engine import diff_fingerprints, result_fingerprint
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.snapshot import SNAPSHOT_SCHEMA_VERSION
from repro.sim.stats import MachineStats
from repro.workloads import make_workload

WORKLOAD = "syn:steady/seed=3"
SHARED_KEYS = tuple(f"shared-{i}" for i in range(4))


def tiny_request(**overrides) -> RunRequest:
    defaults = dict(
        config=baseline_config(num_cpus=2, protocol="hatric"),
        workload=WORKLOAD,
        refs_total=1500,
    )
    defaults.update(overrides)
    return RunRequest(**defaults)


def backdate(path, seconds: float) -> None:
    """Rewind a file's mtime so age-gated prunes see it as old."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def checkpoint_ladder(request: RunRequest, directory) -> SimulationResult:
    """Run ``request`` cold, saving a checkpoint every 512 references."""
    store = CheckpointStore(directory)
    return Simulator(request.config).run(
        make_workload(request.workload),
        refs_total=request.refs_total,
        warmup_refs=request.warmup_refs,
        checkpoint_refs=512,
        on_checkpoint=functools.partial(
            store.save, checkpoint_family_key(request)
        ),
    )


# ----------------------------------------------------------------------
# worker entry points (module level: picklable under the spawn context)
# ----------------------------------------------------------------------
def _hammer_result_cache(directory: str, worker_id: int, iterations: int):
    """Interleave puts and gets of shared keys against one directory."""
    result = execute_request(tiny_request())
    cache = ResultCache(directory)
    for key in SHARED_KEYS:
        cache.put(key, result)
    empty_reads = 0
    for step in range(iterations):
        key = SHARED_KEYS[(worker_id + step) % len(SHARED_KEYS)]
        cache.put(key, result)
        read = cache.get(SHARED_KEYS[step % len(SHARED_KEYS)])
        if read is None:
            empty_reads += 1
    return {
        "decode_errors": cache.decode_error_misses,
        "stale_schema": cache.stale_schema_misses,
        "empty_reads": empty_reads,
    }


def _checkpointed_run(directory: str, worker_id: int):
    """One checkpoint ladder; every worker writes the same paths."""
    request = tiny_request(
        refs_total=4000, warmup_refs=0, workload=WORKLOAD
    )
    return result_fingerprint(checkpoint_ladder(request, directory))


class TestConcurrentWriters:
    def test_result_cache_survives_concurrent_writers(self, tmp_path):
        """N spawn-context processes hammering shared keys: no torn
        JSON ever surfaces (decode_error_misses == 0 everywhere)."""
        directory = tmp_path / "results"
        context = multiprocessing.get_context("spawn")
        workers = 4
        with context.Pool(workers) as pool:
            reports = pool.starmap(
                _hammer_result_cache,
                [(str(directory), i, 40) for i in range(workers)],
            )
        for report in reports:
            assert report["decode_errors"] == 0
            assert report["stale_schema"] == 0
            assert report["empty_reads"] == 0
        # the surviving files are whole and bit-identical to a direct run
        cache = ResultCache(directory)
        expected = result_fingerprint(execute_request(tiny_request()))
        for key in SHARED_KEYS:
            stored = cache.get(key)
            assert stored is not None
            assert not diff_fingerprints(
                expected, result_fingerprint(stored)
            )
        assert cache.decode_error_misses == 0

    def test_checkpoint_store_survives_concurrent_writers(self, tmp_path):
        """Concurrent checkpointed runs of one family write the same
        snapshot paths; every surviving entry must load cleanly."""
        directory = tmp_path / "checkpoints"
        context = multiprocessing.get_context("spawn")
        workers = 3
        with context.Pool(workers) as pool:
            fingerprints = pool.starmap(
                _checkpointed_run,
                [(str(directory), i) for i in range(workers)],
            )
        # all workers computed bit-identical results
        for fingerprint in fingerprints[1:]:
            assert not diff_fingerprints(fingerprints[0], fingerprint)
        store = CheckpointStore(directory)
        family = checkpoint_family_key(
            tiny_request(refs_total=4000, warmup_refs=0)
        )
        candidates = store.candidates(family)
        assert candidates, "expected checkpoints to be saved"
        for _, path in candidates:
            assert store.load(path) is not None
        assert store.decode_error_misses == 0
        # no abandoned tmp files linger after clean exits
        assert not list(directory.glob("*.tmp"))


class TestPruneAgeGating:
    """Prune racing a live server must not delete fresh writes."""

    def _plant_stale(self, directory, name="stale.json"):
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / name
        path.write_text('{"type": "simulation", "schema": -1}')
        return path

    def test_young_stale_entry_is_kept(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = self._plant_stale(tmp_path)
        stats = cache.prune(min_age_seconds=DEFAULT_PRUNE_MIN_AGE_SECONDS)
        assert stats.removed == 0
        assert stats.kept == 1
        assert path.exists()

    def test_old_stale_entry_is_removed(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = self._plant_stale(tmp_path)
        backdate(path, DEFAULT_PRUNE_MIN_AGE_SECONDS + 60)
        stats = cache.prune(min_age_seconds=DEFAULT_PRUNE_MIN_AGE_SECONDS)
        assert stats.removed == 1
        assert not path.exists()

    def test_young_tmp_file_is_never_touched(self, tmp_path):
        cache = ResultCache(tmp_path)
        tmp = tmp_path / "inflight.json.tmp"
        tmp_path.mkdir(exist_ok=True)
        tmp.write_text("half-written")
        # even an age-0 prune leaves tmp files inside the grace window:
        # they may belong to a live write_text_atomic call
        stats = cache.prune(min_age_seconds=0.0)
        assert stats.removed == 0
        assert tmp.exists()

    def test_old_tmp_file_is_swept(self, tmp_path):
        cache = ResultCache(tmp_path)
        tmp = tmp_path / "abandoned.json.tmp"
        tmp_path.mkdir(exist_ok=True)
        tmp.write_text("crashed writer leftovers")
        backdate(tmp, TMP_GRACE_SECONDS + 60)
        stats = cache.prune(min_age_seconds=0.0)
        assert stats.removed == 1
        assert not tmp.exists()

    def test_healthy_entry_survives_any_min_age(self, tmp_path):
        request = tiny_request()
        cache = ResultCache(tmp_path)
        cache.put(request.cache_key, execute_request(request))
        backdate(cache.path_for(request.cache_key), 10_000)
        stats = cache.prune(min_age_seconds=0.0)
        assert stats.removed == 0
        assert stats.kept == 1
        assert cache.get(request.cache_key) is not None

    def test_checkpoint_surplus_is_age_gated(self, tmp_path, monkeypatch):
        """Per-family trimming also refuses to delete young files:
        a surplus entry may be another server's in-flight ladder."""
        monkeypatch.setattr(checkpoint_module, "PRUNE_KEEP_PER_FAMILY", 1)
        directory = tmp_path / "checkpoints"
        request = tiny_request(refs_total=4000, warmup_refs=0)
        checkpoint_ladder(request, directory)
        store = CheckpointStore(directory)
        family = checkpoint_family_key(request)
        total = len(store.candidates(family))
        assert total > 2
        # young surplus: kept despite exceeding PRUNE_KEEP_PER_FAMILY
        stats = store.prune(min_age_seconds=3600.0)
        assert stats.removed == 0
        assert len(store.candidates(family)) == total
        # once old, the same surplus goes
        for _, path in store.candidates(family):
            backdate(path, 7200)
        stats = store.prune(min_age_seconds=3600.0)
        assert stats.removed == total - 1
        assert len(store.candidates(family)) == 1

    def test_checkpoint_stale_entry_is_age_gated(self, tmp_path):
        directory = tmp_path / "checkpoints"
        directory.mkdir(parents=True)
        store = CheckpointStore(directory)
        stale = directory / f"{'cd' * 32}-{2000:012d}.json"
        stale.write_text(json.dumps({"cache_schema": -1}))
        stats = store.prune(min_age_seconds=3600.0)
        assert stats.removed == 0
        assert stale.exists()
        backdate(stale, 7200)
        stats = store.prune(min_age_seconds=3600.0)
        assert stats.removed == 1
        assert not stale.exists()

    def test_entry_vanishing_mid_prune_counts_nowhere(
        self, tmp_path, monkeypatch
    ):
        """An entry removed between the listing and its age check (a
        concurrent pruner or ``clear``) is skipped, not a crash."""
        cache = ResultCache(tmp_path)
        request = tiny_request()
        cache.put(request.cache_key, execute_request(request))
        vanishing = self._plant_stale(tmp_path, "vanishing.json")
        stat = Path.stat

        def stat_after_removal(path, *args, **kwargs):
            if path == vanishing:
                vanishing.unlink(missing_ok=True)
            return stat(path, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", stat_after_removal)
        stats = cache.prune(min_age_seconds=0.0)
        assert tuple(stats) == (0, 1, 0)  # the healthy entry, kept
        assert not vanishing.exists()

    def test_session_prune_threads_min_age(self, tmp_path):
        """Session.prune forwards the cutoff to both stores."""
        from repro.api.checkpoint import CHECKPOINT_SUBDIR
        from repro.api.session import Session

        session = Session(cache_dir=tmp_path / "results", checkpoints=True)
        self._plant_stale(tmp_path / "results")
        ckpt_dir = tmp_path / "results" / CHECKPOINT_SUBDIR
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        stale_ckpt = ckpt_dir / f"{'ef' * 32}-{1000:012d}.json"
        stale_ckpt.write_text(json.dumps({"cache_schema": -1}))
        report = session.prune(min_age_seconds=3600.0)
        assert (tmp_path / "results" / "stale.json").exists()
        assert stale_ckpt.exists()
        report = session.prune(min_age_seconds=0.0)
        assert not (tmp_path / "results" / "stale.json").exists()
        assert not stale_ckpt.exists()
        assert report is not None


class TestPruneIsNotALookup:
    """Prune classifies entries; it must not count or log cache misses."""

    def test_prune_leaves_the_miss_counters_alone(self, tmp_path, caplog):
        results = ResultCache(tmp_path / "results")
        checkpoints = CheckpointStore(tmp_path / "checkpoints")
        for store, stale in (
            (results, {"type": "simulation", "schema": -1}),
            (checkpoints, {"cache_schema": -1, "executed_refs": 1000}),
        ):
            store.directory.mkdir(parents=True)
            (store.directory / f"{'ab' * 32}-{1000:012d}.json").write_text(
                json.dumps(stale)
            )
            (store.directory / f"{'cd' * 32}-{2000:012d}.json").write_text("{")
        with caplog.at_level(logging.WARNING):
            for store in (results, checkpoints):
                assert tuple(store.prune(min_age_seconds=0.0)) == (2, 0, 0)
                assert store.stale_schema_misses == 0
                assert store.decode_error_misses == 0
        assert not any("miss" in record.message for record in caplog.records)


# ----------------------------------------------------------------------
# crash consistency: a writer killed in the middle of a write
# ----------------------------------------------------------------------
CRASH_FAMILY = "ef" * 32


def _write_until_killed(result_dir: str, checkpoint_dir: str) -> None:
    """Rewrite three results and three checkpoints of about 1 MB each."""
    result = SimulationResult(
        config=baseline_config(num_cpus=2),
        workload="crash-test",
        stats=MachineStats(2),
        energy=EnergyBreakdown(),
        per_app_cycles={f"app{i:05d}": i for i in range(50_000)},
    )
    snapshot = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "chip": [[i, 7 * i, i % 3] for i in range(60_000)],
    }
    cache = ResultCache(result_dir)
    store = CheckpointStore(checkpoint_dir)
    for step in itertools.count():
        cache.put(f"crash-{step % 3}", result)
        store.save(CRASH_FAMILY, {**snapshot, "executed_refs": step % 3 + 1})


def _temp_files(*stores) -> list[Path]:
    return [path for store in stores for path in store.directory.glob("*.tmp")]


class TestKilledWriter:
    def test_writer_killed_mid_write_leaves_a_loadable_store(self, tmp_path):
        results = ResultCache(tmp_path / "results")
        checkpoints = CheckpointStore(tmp_path / "checkpoints")
        writer = multiprocessing.get_context("spawn").Process(
            target=_write_until_killed,
            args=(str(results.directory), str(checkpoints.directory)),
        )
        writer.start()
        deadline = time.monotonic() + 60.0
        orphans: list[Path] = []
        try:
            while not orphans:
                assert time.monotonic() < deadline, "no write was caught"
                assert writer.is_alive(), "the writer died on its own"
                # one full round first, so both stores hold entries
                if len(checkpoints) < 3 or not _temp_files(results, checkpoints):
                    continue
                # freeze the writer, then kill it only if a temp file
                # is still there: the kill lands mid-write for certain
                os.kill(writer.pid, signal.SIGSTOP)
                orphans = _temp_files(results, checkpoints)
                if not orphans:
                    os.kill(writer.pid, signal.SIGCONT)
        finally:
            writer.kill()
            writer.join(timeout=30.0)
        assert not writer.is_alive()
        assert writer.exitcode == -signal.SIGKILL
        assert len(results) == len(checkpoints) == 3
        for path in results.directory.glob("*.json"):
            assert results.get(path.stem) is not None
        for path in checkpoints.directory.glob("*.json"):
            assert checkpoints.load(path) is not None
        for store in (results, checkpoints):
            assert store.decode_error_misses == 0
            assert store.stale_schema_misses == 0
        for orphan in orphans:
            backdate(orphan, TMP_GRACE_SECONDS + 60)
        removed = sum(
            store.prune(min_age_seconds=0.0).removed
            for store in (results, checkpoints)
        )
        assert removed == len(orphans)
        assert not _temp_files(results, checkpoints)
