"""Fuzzed snapshot round-trips: restore-then-continue must be exact.

The contract under test (see :mod:`repro.sim.snapshot`):

* a snapshot captured mid-run, serialized through JSON, restored into a
  *fresh* simulator (on either engine) and resumed, produces exactly
  the straight-through run's result fingerprint **and** post-run
  machine digest;
* interval telemetry is conserved: the per-interval deltas of a run sum
  to its final aggregate statistics, including the per-VM mirrors of
  consolidated runs, whether or not the run went through a checkpoint;
* the guards hold: schema-stamp mismatches and trace-prefix mismatches
  refuse to restore/resume instead of producing plausible-but-wrong
  state.

The hypothesis profile is derandomized (fixed example sequence) so CI
failures reproduce; raise the budget with ``REPRO_FUZZ_EXAMPLES=25``.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunRequest, Session
from repro.api.checkpoint import CheckpointStore, checkpoint_family_key
from repro.api.request import CACHE_SCHEMA_VERSION
from repro.api.session import (
    CHECKPOINT_COUNTERS,
    execute_request,
    execute_request_checkpointed,
)
from repro.sim.config import MemoryConfig, PagingConfig, SystemConfig
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    diff_fingerprints,
    machine_digest,
    result_fingerprint,
)
from repro.sim.simulator import Simulator, resolve_trace
from repro.sim.snapshot import (
    SNAPSHOT_SCHEMA_VERSION,
    SnapshotError,
    SnapshotSchemaError,
    capture_snapshot,
    restore_run,
    trace_prefix_digest,
    validate_snapshot,
)
from repro.workloads import make_workload
from repro.env import env_int
from tests.conftest import small_config

FUZZ_EXAMPLES = env_int("REPRO_FUZZ_EXAMPLES", 6, minimum=1)

WORKLOADS = (
    "syn:migration-daemon/seed=7",
    "syn:compaction/seed=3",
    "syn:live-migration/seed=5",
    "canneal",
    "mix01x4",
)
MULTI_WORKLOAD = (
    "multi:syn:migration-daemon/addr=zipf/seed=7/refs=6000/blen=80@4"
    "+syn:migration-daemon/addr=zipf/seed=8/refs=6000/blen=80@4+share=shared"
)
PROTOCOLS = ("software", "unitd", "hatric", "ideal")


def _config(protocol: str, num_cpus: int = 4, **overrides) -> SystemConfig:
    return small_config(
        protocol=protocol,
        num_cpus=num_cpus,
        memory=MemoryConfig(fast_frames=256, slow_frames=8192),
        **overrides,
    )


def _straight_with_snapshots(
    config, workload, refs, engine, *, warmup_refs, interval_refs,
    checkpoint_refs,
):
    """One straight-through run collecting snapshots along the way."""
    trace = resolve_trace(
        make_workload(workload), config.num_cpus, config.seed, refs
    )
    snapshots: list[dict] = []
    simulator = Simulator(config, engine=engine)
    result = simulator.run(
        trace,
        warmup_fraction=0.2,
        warmup_refs=warmup_refs,
        interval_refs=interval_refs,
        checkpoint_refs=checkpoint_refs,
        on_checkpoint=snapshots.append,
    )
    return trace, snapshots, result, machine_digest(simulator)


def _assert_equal_runs(result_a, digest_a, result_b, digest_b) -> None:
    differences = diff_fingerprints(
        result_fingerprint(result_a), result_fingerprint(result_b)
    ) + diff_fingerprints(digest_a, digest_b)
    assert not differences, "\n".join(differences[:20])


def _assert_conservation(result) -> None:
    """Interval deltas must sum to the final aggregate statistics."""
    samples = result.intervals
    stats = result.stats
    assert sum(s.busy_cycles for s in samples) == stats.total_cycles
    assert sum(s.coherence_cycles for s in samples) == stats.coherence_cycles
    assert sum(s.instructions for s in samples) == stats.total_instructions
    assert (
        sum(s.background_cycles for s in samples) == stats.background_cycles
    )
    summed_events: dict[str, int] = {}
    for sample in samples:
        for key, value in sample.events.items():
            summed_events[key] = summed_events.get(key, 0) + value
    assert summed_events == {k: v for k, v in stats.events.items() if v}
    assert sum(s.energy for s in samples) == pytest.approx(
        result.energy_total, rel=1e-9
    )
    # per-VM mirrors (empty on single-VM runs)
    for index, vm in enumerate(stats.vms):
        assert (
            sum(s.vms[index]["busy_cycles"] for s in samples)
            == vm.busy_cycles
        )
        assert (
            sum(s.vms[index]["instructions"] for s in samples)
            == vm.instructions
        )
    # samples tile the run: contiguous, ordered, ending at the total
    previous_end = 0
    for sample in samples:
        assert sample.start_refs == previous_end
        assert sample.end_refs > sample.start_refs
        previous_end = sample.end_refs
    if samples:
        assert previous_end == stats.total_instructions


@pytest.fixture
def checkpoints_live(monkeypatch):
    """Run the test with ``REPRO_VALIDATE_FASTPATH`` off.

    Validation mode executes every request cold on both engines and
    skips checkpoints by design (see ``execute_request_checkpointed``),
    so tests that count checkpoint restores and cold runs -- the
    checkpoint path itself -- turn it off for themselves.
    """
    monkeypatch.delenv("REPRO_VALIDATE_FASTPATH", raising=False)


class TestSnapshotRoundTrip:
    @settings(
        max_examples=FUZZ_EXAMPLES,
        deadline=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
        ],
    )
    @given(data=st.data())
    def test_restore_then_continue_is_bit_identical(self, data) -> None:
        protocol = data.draw(st.sampled_from(PROTOCOLS), label="protocol")
        workload = data.draw(st.sampled_from(WORKLOADS), label="workload")
        engine = data.draw(st.sampled_from(ENGINES), label="engine")
        restore_engine = data.draw(
            st.sampled_from(ENGINES), label="restore_engine"
        )
        refs = data.draw(
            st.integers(min_value=3000, max_value=8000), label="refs"
        )
        warmup_refs = data.draw(
            st.sampled_from([None, 0, 128, 333]), label="warmup_refs"
        )
        config = _config(protocol)
        trace, snapshots, straight, straight_digest = _straight_with_snapshots(
            config, workload, refs, engine,
            warmup_refs=warmup_refs, interval_refs=450, checkpoint_refs=1100,
        )
        assert snapshots, "run too short to produce any checkpoint"
        pick = data.draw(
            st.integers(min_value=0, max_value=len(snapshots) - 1),
            label="snapshot index",
        )
        _assert_conservation(straight)

        # serialize through JSON exactly like the on-disk store would
        payload = json.loads(json.dumps(snapshots[pick]))
        restored = restore_run(payload, engine=restore_engine)
        resumed = restored.resume(trace)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(restored.simulator),
        )
        _assert_conservation(resumed)

    def test_multi_vm_roundtrip_with_mem_caps(self) -> None:
        config = _config("software", num_cpus=8)
        workload = (
            "multi:syn:steady@2:0.3+syn:migration-daemon/seed=5@2:0.5"
        )
        trace, snapshots, straight, straight_digest = _straight_with_snapshots(
            config, workload, 9000, ENGINE_FAST,
            warmup_refs=None, interval_refs=500, checkpoint_refs=1500,
        )
        payload = json.loads(json.dumps(snapshots[0]))
        restored = restore_run(payload, engine=ENGINE_REFERENCE)
        resumed = restored.resume(trace)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(restored.simulator),
        )
        assert resumed.stats.vms, "consolidated run must track per-VM stats"
        _assert_conservation(resumed)

    def test_consolidated_shared_placement_roundtrip(self) -> None:
        config = _config("hatric", num_cpus=8)
        trace, snapshots, straight, straight_digest = _straight_with_snapshots(
            config, MULTI_WORKLOAD, 12000, ENGINE_FAST,
            warmup_refs=200, interval_refs=700, checkpoint_refs=2500,
        )
        for pick in (0, len(snapshots) - 1):
            payload = json.loads(json.dumps(snapshots[pick]))
            restored = restore_run(payload)
            resumed = restored.resume(trace)
            _assert_equal_runs(
                straight, straight_digest,
                resumed, machine_digest(restored.simulator),
            )

    def test_xen_costs_not_readjusted_on_restore(self) -> None:
        config = _config("hatric", hypervisor="xen")
        trace, snapshots, straight, straight_digest = _straight_with_snapshots(
            config, "canneal", 6000, ENGINE_FAST,
            warmup_refs=None, interval_refs=None, checkpoint_refs=1500,
        )
        restored = restore_run(json.loads(json.dumps(snapshots[0])))
        # the snapshot stores the pre-adjustment config; the restored
        # simulator must end up with the same once-adjusted costs
        assert restored.simulator.config == Simulator(config).config
        resumed = restored.resume(trace)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(restored.simulator),
        )


class TestSnapshotGuards:
    def _one_snapshot(self):
        config = _config("hatric")
        trace, snapshots, _, _ = _straight_with_snapshots(
            config, "syn:migration-daemon/seed=7", 5000, ENGINE_FAST,
            warmup_refs=None, interval_refs=None, checkpoint_refs=None,
        )
        return trace, snapshots[-1]

    def test_schema_mismatch_refuses_restore(self) -> None:
        _, snapshot = self._one_snapshot()
        stale = dict(snapshot)
        stale["schema"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotSchemaError):
            restore_run(stale)
        with pytest.raises(SnapshotSchemaError):
            validate_snapshot({"no": "schema"})

    def test_trace_prefix_mismatch_refuses_resume(self) -> None:
        _, snapshot = self._one_snapshot()
        restored = restore_run(snapshot)
        config = _config("hatric")
        other = resolve_trace(
            make_workload("syn:migration-daemon/seed=8"),
            config.num_cpus, config.seed, 5000,
        )
        with pytest.raises(SnapshotError):
            restored.resume(other)

    def test_prefix_digest_depends_on_position_and_content(self) -> None:
        config = _config("hatric")
        trace = resolve_trace(
            make_workload("syn:migration-daemon/seed=7"),
            config.num_cpus, config.seed, 5000,
        )
        positions = [200] * trace.num_vcpus
        digest = trace_prefix_digest(trace, positions)
        assert digest == trace_prefix_digest(trace, list(positions))
        assert digest != trace_prefix_digest(
            trace, [300] * trace.num_vcpus
        )
        other = resolve_trace(
            make_workload("syn:migration-daemon/seed=8"),
            config.num_cpus, config.seed, 5000,
        )
        assert digest != trace_prefix_digest(other, positions)

    def test_store_rejects_and_prunes_stale_entries(self, tmp_path) -> None:
        trace, snapshot = self._one_snapshot()
        store = CheckpointStore(tmp_path / "checkpoints")
        config = _config("hatric")
        request = RunRequest(
            config=config, workload="syn:migration-daemon/seed=7",
            refs_total=5000,
        )
        family = checkpoint_family_key(request)
        path = store.save(family, snapshot)
        assert store.load(path) is not None
        assert store.candidates(family)[0][0] == snapshot["executed_refs"]

        stale = dict(snapshot)
        stale["schema"] = SNAPSHOT_SCHEMA_VERSION + 1
        stale["executed_refs"] = snapshot["executed_refs"] + 7
        stale_path = store.directory / (
            f"{family}-{stale['executed_refs']:012d}.json"
        )
        stale_path.write_text(
            json.dumps({"cache_schema": 0, **stale}), encoding="utf-8"
        )
        corrupt = store.directory / (
            f"{family}-{snapshot['executed_refs'] + 11:012d}.json"
        )
        corrupt.write_text("{torn", encoding="utf-8")
        assert store.load(stale_path) is None
        assert store.load(corrupt) is None
        removed, kept, failed = store.prune()
        assert removed == 2
        assert kept == 1
        assert failed == 0
        assert store.load(path) is not None

    @pytest.mark.usefixtures("checkpoints_live")
    def test_shape_corrupt_candidate_degrades_to_cold(self, tmp_path) -> None:
        # schema stamps intact, payload body gutted: the candidate scan
        # must skip it (cold run), not crash the batch
        config = _config("software")
        request = RunRequest(
            config=config,
            workload="prefix:12000:syn:migration-daemon/seed=7",
            refs_total=6000, warmup_refs=100,
        )
        store = CheckpointStore(tmp_path)
        family = checkpoint_family_key(request)
        store.directory.mkdir(parents=True, exist_ok=True)
        (store.directory / f"{family}-{4000:012d}.json").write_text(
            json.dumps({
                "cache_schema": CACHE_SCHEMA_VERSION,
                "schema": SNAPSHOT_SCHEMA_VERSION,
                "executed_refs": 4000,
            }),
            encoding="utf-8",
        )
        before = dict(CHECKPOINT_COUNTERS)
        result = execute_request_checkpointed(request, str(tmp_path))
        assert CHECKPOINT_COUNTERS["cold"] - before["cold"] == 1
        cold = execute_request(request)
        assert not diff_fingerprints(
            result_fingerprint(cold), result_fingerprint(result)
        )

    def test_prune_bounds_checkpoints_per_family(self, tmp_path) -> None:
        _, snapshot = self._one_snapshot()
        store = CheckpointStore(tmp_path / "checkpoints")
        family = "ab" * 32
        for refs in range(1, 7):
            entry = dict(snapshot)
            entry["executed_refs"] = refs * 1000
            store.save(family, entry)
        removed, kept, failed = store.prune(keep_per_family=4)
        assert (removed, kept, failed) == (2, 4, 0)
        survivors = [refs for refs, _ in store.candidates(family)]
        assert survivors == [6000, 5000, 4000, 3000]


@pytest.mark.usefixtures("checkpoints_live")
class TestSessionCheckpointing:
    SWEEP_WORKLOAD = "prefix:12000:syn:migration-daemon/seed=7"

    def _requests(self, protocol: str = "software") -> list[RunRequest]:
        config = _config(protocol)
        return [
            RunRequest(
                config=config,
                workload=self.SWEEP_WORKLOAD,
                refs_total=refs,
                warmup_refs=100,
                interval_refs=1000,
            )
            for refs in (4000, 8000, 12000)
        ]

    def test_incremental_sweep_is_bit_identical_to_cold(self, tmp_path) -> None:
        requests = self._requests()
        cold = [execute_request(request) for request in requests]

        before = dict(CHECKPOINT_COUNTERS)
        session = Session(cache_dir=tmp_path, checkpoints=True)
        warm = [session.run(request) for request in requests]
        assert session.checkpoint_store is not None
        assert len(session.checkpoint_store) >= 3
        restored = CHECKPOINT_COUNTERS["restored"] - before["restored"]
        assert restored == 2, "the two longer runs must reuse checkpoints"

        for cold_result, warm_result in zip(cold, warm):
            differences = diff_fingerprints(
                result_fingerprint(cold_result),
                result_fingerprint(warm_result),
            )
            assert not differences, "\n".join(differences[:20])
            _assert_conservation(warm_result)

    def test_non_prefix_stable_sweep_degrades_to_cold(self, tmp_path) -> None:
        # raw generators are not prefix-stable in refs_total, so the
        # digest guard must reject every checkpoint: correct results,
        # zero restores.
        config = _config("software")
        requests = [
            RunRequest(
                config=config,
                workload="syn:migration-daemon/seed=7",
                refs_total=refs,
                warmup_refs=100,
            )
            for refs in (4000, 8000)
        ]
        cold = [execute_request(request) for request in requests]
        before = dict(CHECKPOINT_COUNTERS)
        warm = [
            execute_request_checkpointed(request, str(tmp_path))
            for request in requests
        ]
        assert CHECKPOINT_COUNTERS["restored"] == before["restored"]
        assert CHECKPOINT_COUNTERS["cold"] - before["cold"] == 2
        for cold_result, warm_result in zip(cold, warm):
            assert not diff_fingerprints(
                result_fingerprint(cold_result),
                result_fingerprint(warm_result),
            )

    def test_checkpoints_require_cache_dir(self) -> None:
        with pytest.raises(ValueError):
            Session(checkpoints=True)

    def test_checkpoints_reject_custom_executor(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            Session(
                cache_dir=tmp_path, checkpoints=True,
                executor=lambda request: None,
            )

    def test_family_key_ignores_fraction_under_absolute_warmup(self) -> None:
        config = _config("software")
        base = dict(
            config=config, workload=self.SWEEP_WORKLOAD, warmup_refs=100,
        )
        key_a = checkpoint_family_key(
            RunRequest(refs_total=4000, warmup_fraction=0.2, **base)
        )
        key_b = checkpoint_family_key(
            RunRequest(refs_total=8000, warmup_fraction=0.3, **base)
        )
        assert key_a == key_b, (
            "warmup_refs overrides the fraction; identical trajectories "
            "must share a family"
        )

    def test_dead_fraction_is_normalized_on_requests(self) -> None:
        # warmup_refs makes the fraction dead: requests differing only
        # in it must be equal (dataclass AND cache key) and round-trip
        # exactly through to_dict/from_dict
        config = _config("software")
        a = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD,
            warmup_refs=100, warmup_fraction=0.2,
        )
        b = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD,
            warmup_refs=100, warmup_fraction=0.35,
        )
        assert a == b
        assert a.cache_key == b.cache_key
        assert RunRequest.from_dict(b.to_dict()) == b
        # without warmup_refs the fraction still matters
        c = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD, warmup_fraction=0.35,
        )
        assert c.warmup_fraction == 0.35
        assert c.cache_key != a.cache_key

    def test_parallel_batch_keeps_family_chains(self, tmp_path) -> None:
        # two families x two refs points, fanned out across workers:
        # results must come back in input order and bit-identical to
        # cold execution (family members run serially inside a worker)
        requests = [
            RunRequest(
                config=_config(protocol), workload=self.SWEEP_WORKLOAD,
                refs_total=refs, warmup_refs=100,
            )
            for refs in (8000, 4000)
            for protocol in ("software", "hatric")
        ]
        session = Session(cache_dir=tmp_path, checkpoints=True, max_workers=2)
        warm = session.run_batch(requests)
        assert len(session.checkpoint_store) >= 2
        for request, warm_result in zip(requests, warm):
            cold = execute_request(request)
            assert not diff_fingerprints(
                result_fingerprint(cold), result_fingerprint(warm_result)
            )

    def test_shorter_rerun_finds_its_checkpoint(self, tmp_path) -> None:
        # a long run leaves periodic checkpoints behind; a *shorter*
        # request of the same family must still reuse one (candidates
        # are prefiltered by length feasibility before the scan limit)
        config = _config("software")
        long_request = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD,
            refs_total=12000, warmup_refs=100,
        )
        short_request = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD,
            refs_total=6000, warmup_refs=100,
        )
        session = Session(
            cache_dir=tmp_path, checkpoints=True, checkpoint_refs=1500
        )
        session.run(long_request)
        assert len(session.checkpoint_store) > 4
        before = dict(CHECKPOINT_COUNTERS)
        result = session.run(short_request)
        assert CHECKPOINT_COUNTERS["restored"] - before["restored"] == 1
        cold = execute_request(short_request)
        assert not diff_fingerprints(
            result_fingerprint(cold), result_fingerprint(result)
        )

    def test_fraction_warmup_skips_checkpointing(self, tmp_path) -> None:
        # fraction-based warmup boundaries move with refs_total, so no
        # family member could ever reuse them: the checkpointed path
        # must run cold WITHOUT paying for unrestorable snapshot saves
        config = _config("software")
        request = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD, refs_total=6000,
        )
        before = dict(CHECKPOINT_COUNTERS)
        result = execute_request_checkpointed(request, str(tmp_path))
        assert CHECKPOINT_COUNTERS["cold"] - before["cold"] == 1
        assert CHECKPOINT_COUNTERS["saved"] == before["saved"]
        assert len(CheckpointStore(tmp_path)) == 0
        cold = execute_request(request)
        assert not diff_fingerprints(
            result_fingerprint(cold), result_fingerprint(result)
        )

    def test_warmup_boundary_mismatch_is_not_reused(self, tmp_path) -> None:
        config = _config("software")
        first = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD,
            refs_total=6000, warmup_refs=100,
        )
        second = RunRequest(
            config=config, workload=self.SWEEP_WORKLOAD,
            refs_total=12000, warmup_refs=200,
        )
        before = dict(CHECKPOINT_COUNTERS)
        execute_request_checkpointed(first, str(tmp_path))
        result = execute_request_checkpointed(second, str(tmp_path))
        assert CHECKPOINT_COUNTERS["restored"] == before["restored"]
        cold = execute_request(second)
        assert not diff_fingerprints(
            result_fingerprint(cold), result_fingerprint(result)
        )
