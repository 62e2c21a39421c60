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

import functools
import gc
import hashlib
import json
import os

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunRequest, Session
from repro.api import checkpoint as checkpoint_module
from repro.api.checkpoint import CheckpointStore, checkpoint_family_key
from repro.api.session import CHECKPOINT_COUNTERS, execute_request
from repro.sim.config import (
    CoherenceDirectoryConfig,
    MemoryConfig,
    PagingConfig,
    SystemConfig,
)
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    FastPathMismatchError,
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

#: Machine shapes that fill the snapshot columns the fuzz matrix (lazy,
#: coarse-grained 4096-entry directories under the LRU policy) leaves
#: empty: fine-grained sharer rows, eager sharer updates, an infinite
#: directory and the FIFO paging queue.
RARE_COLUMN_SHAPES = {
    "fine-grained": dict(
        directory=CoherenceDirectoryConfig(capacity=4096, fine_grained=True),
    ),
    "fine-eager-infinite": dict(
        directory=CoherenceDirectoryConfig(
            capacity=None, lazy_pt_sharer_updates=False, fine_grained=True,
        ),
    ),
    "fifo-daemon": dict(
        paging=PagingConfig(
            policy="fifo", migration_daemon=True, daemon_free_target=8,
            prefetch_pages=0,
        ),
    ),
}


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


def _gutted(snapshot: dict) -> dict:
    """Schema stamps intact, payload body gone."""
    return {
        "schema": snapshot["schema"],
        "executed_refs": snapshot["executed_refs"],
    }


def _unknown_process(snapshot: dict) -> dict:
    """A stream runs a process the snapshot does not have."""
    snapshot["trace"]["process_of_vcpu"][0] = len(snapshot["processes"])
    return snapshot


def _unknown_pcpu(snapshot: dict) -> dict:
    """A vCPU pinned to a CPU the machine does not have."""
    snapshot["vms"][0]["pcpus"][0] = snapshot["config"]["num_cpus"]
    return snapshot


def _short_column(snapshot: dict) -> dict:
    """One residency column shorter than its siblings."""
    snapshot["hypervisor"]["resident"]["spps"].pop()
    return snapshot


def _overrun_set_counts(snapshot: dict) -> dict:
    """LLC set counts that sum past its line column."""
    snapshot["chip"]["llc"]["counts"][0] += 1
    return snapshot


def _extra_set(snapshot: dict) -> dict:
    """One LLC set count more than the cache has sets."""
    snapshot["chip"]["llc"]["counts"].append(0)
    return snapshot


def _short_cpus(snapshot: dict) -> dict:
    """Per-CPU statistics one CPU short."""
    snapshot["stats"]["cpus"].pop()
    return snapshot


def _string_free_list(snapshot: dict) -> dict:
    """A fast-memory free list holding a frame number as a string."""
    snapshot["memory"]["fast"]["free"].append("0")
    return snapshot


def _string_warmup_executed(snapshot: dict) -> dict:
    """The warmup reference count as a string."""
    snapshot["warmup"]["executed"] = str(snapshot["warmup"]["executed"])
    return snapshot


def _short_vm_of_cpu(snapshot: dict) -> dict:
    """The per-CPU VM attribution one CPU short."""
    snapshot["stats"]["vm_of_cpu"].pop()
    return snapshot


def _unknown_resident_vm(snapshot: dict) -> dict:
    """A resident page owned by a VM the snapshot does not have."""
    vm_ids = snapshot["hypervisor"]["resident"]["vm_ids"]
    vm_ids[0] = max(vm["vm_id"] for vm in snapshot["vms"]) + 1
    return snapshot


def _negative_llc_line(snapshot: dict) -> dict:
    """An LLC line word below zero."""
    snapshot["chip"]["llc"]["lines"][0] = -4
    return snapshot


def _sharer_beyond_cpus(snapshot: dict) -> dict:
    """A directory sharer mask naming a CPU the machine does not have."""
    snapshot["chip"]["directory"]["sharers"][0] |= (
        1 << snapshot["config"]["num_cpus"]
    )
    return snapshot


def _fine_rows_on_coarse_directory(snapshot: dict) -> dict:
    """A fine-grained sharer row for a directory that tracks none."""
    directory = snapshot["chip"]["directory"]
    directory["fine_entries"].append(0)
    directory["fine_kinds"].append(0)
    directory["fine_sharers"].append(1)
    return snapshot


#: Corruptions of a stored checkpoint that must degrade to a cold run,
#: by test id: broken shapes, and well-shaped fields that would restore
#: and then crash the run or change its result.
CORRUPTIONS = {
    "gutted": _gutted,
    "unknown-process": _unknown_process,
    "unknown-pcpu": _unknown_pcpu,
    "short-column": _short_column,
    "overrun-set-counts": _overrun_set_counts,
    "extra-set": _extra_set,
    "short-cpus": _short_cpus,
    "string-free-list": _string_free_list,
    "string-warmup-executed": _string_warmup_executed,
    "short-vm-of-cpu": _short_vm_of_cpu,
    "unknown-resident-vm": _unknown_resident_vm,
    "negative-llc-line": _negative_llc_line,
    "sharer-beyond-cpus": _sharer_beyond_cpus,
    "fine-rows-on-coarse-directory": _fine_rows_on_coarse_directory,
}


def _containers(value) -> int:
    """JSON lists and dicts in ``value``, itself included."""
    if isinstance(value, dict):
        return 1 + sum(_containers(item) for item in value.values())
    if isinstance(value, list):
        return 1 + sum(_containers(item) for item in value)
    return 0


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
        run = restore_run(payload, trace, engine=restore_engine)
        resumed = run.simulator.resume(run)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(run.simulator),
        )
        _assert_conservation(resumed)

    @pytest.mark.parametrize("interval_refs", [None, 450])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_restored_run_checkpoints_match_the_straight_run(
        self, engine, interval_refs
    ) -> None:
        config = _config("hatric")
        trace, snapshots, _, _ = _straight_with_snapshots(
            config, "syn:migration-daemon/seed=7", 6000, engine,
            warmup_refs=128, interval_refs=interval_refs, checkpoint_refs=700,
        )
        run = restore_run(
            json.loads(json.dumps(snapshots[0])), trace, engine=engine
        )
        continued: list[dict] = []
        run.simulator.resume(
            run, checkpoint_refs=700, on_checkpoint=continued.append
        )
        assert [s["executed_refs"] for s in continued] == [
            s["executed_refs"] for s in snapshots[1:]
        ]
        for straight, restored in zip(snapshots[1:], continued):
            assert json.dumps(restored, sort_keys=True) == json.dumps(
                straight, sort_keys=True
            ), f"checkpoint at {straight['executed_refs']} refs differs"

    @pytest.mark.parametrize(
        "engines",
        [(ENGINE_FAST, ENGINE_REFERENCE), (ENGINE_REFERENCE, ENGINE_FAST)],
        ids=["fast-to-reference", "reference-to-fast"],
    )
    @pytest.mark.parametrize("protocol", ["software", "hatric"])
    @pytest.mark.parametrize("shape", sorted(RARE_COLUMN_SHAPES))
    def test_rarely_filled_columns_round_trip(
        self, shape, protocol, engines
    ) -> None:
        engine, restore_engine = engines
        config = _config(protocol, **RARE_COLUMN_SHAPES[shape])
        trace, snapshots, straight, straight_digest = _straight_with_snapshots(
            config, "syn:migration-daemon/seed=7", 4000, engine,
            warmup_refs=128, interval_refs=450, checkpoint_refs=1000,
        )
        payload = json.loads(json.dumps(snapshots[len(snapshots) // 2]))
        if config.directory.fine_grained:
            assert payload["chip"]["directory"]["fine_entries"]
        if config.paging.policy == "fifo":
            assert payload["hypervisor"]["policy"]["kind"] == "fifo"
            assert payload["hypervisor"]["policy"]["gpps"]

        run = restore_run(payload, trace, engine=restore_engine)
        recaptured = json.loads(
            json.dumps(capture_snapshot(run, run.positions))
        )
        assert recaptured == payload
        resumed = run.simulator.resume(run)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(run.simulator),
        )

    def test_layout_does_not_grow_with_occupancy(self) -> None:
        # every per-entry structure is a fixed set of columns, so the
        # chip and hypervisor sections hold as many JSON lists and dicts
        # on a near-empty machine as on a busy one
        config = _config("hatric")
        trace = resolve_trace(
            make_workload("syn:migration-daemon/seed=7"),
            config.num_cpus, config.seed, 6000,
        )
        simulator = Simulator(config)
        captured: list[tuple[tuple[int, int, int], dict]] = []

        def on_checkpoint(snapshot: dict) -> None:
            occupancy = (
                sum(len(cache_set) for cache_set in simulator.chip.llc._sets),
                len(simulator.chip.directory),
                len(simulator.hypervisor.resident),
            )
            captured.append((occupancy, snapshot))

        simulator.run(
            trace, warmup_refs=32, checkpoint_refs=64,
            on_checkpoint=on_checkpoint,
        )
        (early_occupancy, early), (late_occupancy, late) = (
            captured[0], captured[-1]
        )
        assert all(
            early_count < late_count
            for early_count, late_count in zip(early_occupancy, late_occupancy)
        ), (early_occupancy, late_occupancy)
        for section in ("chip", "hypervisor"):
            assert _containers(early[section]) == _containers(late[section])

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
        run = restore_run(payload, trace, engine=ENGINE_REFERENCE)
        resumed = run.simulator.resume(run)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(run.simulator),
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
            run = restore_run(payload, trace)
            resumed = run.simulator.resume(run)
            _assert_equal_runs(
                straight, straight_digest,
                resumed, machine_digest(run.simulator),
            )

    def test_xen_costs_not_readjusted_on_restore(self) -> None:
        config = _config("hatric", hypervisor="xen")
        trace, snapshots, straight, straight_digest = _straight_with_snapshots(
            config, "canneal", 6000, ENGINE_FAST,
            warmup_refs=None, interval_refs=None, checkpoint_refs=1500,
        )
        run = restore_run(json.loads(json.dumps(snapshots[0])), trace)
        # the snapshot stores the pre-adjustment config; the restored
        # simulator must end up with the same once-adjusted costs
        assert run.simulator.config == Simulator(config).config
        resumed = run.simulator.resume(run)
        _assert_equal_runs(
            straight, straight_digest,
            resumed, machine_digest(run.simulator),
        )


def _assert_packed(simulator: Simulator) -> None:
    """The machine holds line state as words, not per-line objects."""
    chip = simulator.chip
    caches = [cache for core in chip.cores for cache in (core.l1, core.l2)]
    for cache in (*caches, chip.llc):
        flags = {
            value for cache_set in cache._sets for value in cache_set.values()
        }
        assert {type(value) for value in flags} <= {int}, cache.name
        assert flags <= {0, 1, 2, 3}, cache.name
    directory = chip.directory
    assert len(directory), "the run left the directory empty"
    for entry in directory._entries.values():
        assert type(entry.sharers) is int
        if directory.fine_grained:
            assert {type(mask) for mask in entry.fine_sharers.values()} <= {int}
        else:
            assert entry.fine_sharers is None
    # no per-entry container may creep back: walk everything the
    # directory reaches, leaving out classes (enum keys reach theirs)
    seen: set[int] = set()
    pending: list = [directory]
    while pending:
        obj = pending.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        assert not isinstance(obj, (set, frozenset)), obj
        pending.extend(gc.get_referents(obj))


#: sha256 of the file :meth:`CheckpointStore.save` writes for the last
#: checkpoint of a 4-CPU hatric run, per directory shape.  These bytes
#: are what ``SNAPSHOT_SCHEMA_VERSION`` 2 promises: a change to how the
#: machine holds its state in memory must not move them.  The
#: fine-grained shape is the only one that fills the ``fine_*`` rows.
CHECKPOINT_SHA256 = {
    "default": (
        "fe2462495f7476570a9580c7ca56ce0470de1e64bcf0e918662c6b0d70a3ca48"
    ),
    "fine-grained": (
        "aaf65f99e36ef79c53551911c9e4deaa92606d51fadf1f30ffa4b5d38ef13de9"
    ),
}


class TestPackedState:
    WORKLOAD = "syn:migration-daemon/seed=7"

    def _run(self, engine: str, fine_grained: bool):
        config = _config(
            "hatric",
            directory=CoherenceDirectoryConfig(fine_grained=fine_grained),
        )
        trace = resolve_trace(
            make_workload(self.WORKLOAD), config.num_cpus, config.seed, 4000
        )
        snapshots: list[dict] = []
        simulator = Simulator(config, engine=engine)
        simulator.run(
            trace, warmup_refs=128, checkpoint_refs=1000,
            on_checkpoint=snapshots.append,
        )
        return trace, snapshots, simulator

    @pytest.mark.parametrize(
        "fine_grained", [False, True], ids=["default", "fine-grained"]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_machine_holds_words_after_run_and_restore(
        self, engine, fine_grained
    ) -> None:
        trace, snapshots, simulator = self._run(engine, fine_grained)
        _assert_packed(simulator)
        run = restore_run(
            json.loads(json.dumps(snapshots[-1])), trace, engine=engine
        )
        _assert_packed(run.simulator)
        run.simulator.resume(run)
        _assert_packed(run.simulator)

    @pytest.mark.parametrize("shape", sorted(CHECKPOINT_SHA256))
    @pytest.mark.parametrize("engine", ENGINES)
    def test_checkpoint_bytes_are_pinned(self, tmp_path, engine, shape) -> None:
        _, snapshots, _ = self._run(engine, shape == "fine-grained")
        path = CheckpointStore(tmp_path).save("ab" * 32, snapshots[-1])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == CHECKPOINT_SHA256[shape]


class TestSnapshotGuards:
    def _one_snapshot(self):
        config = _config("hatric")
        trace, snapshots, _, _ = _straight_with_snapshots(
            config, "syn:migration-daemon/seed=7", 5000, ENGINE_FAST,
            warmup_refs=None, interval_refs=None, checkpoint_refs=None,
        )
        return trace, snapshots[-1]

    def test_schema_mismatch_refuses_restore(self) -> None:
        trace, snapshot = self._one_snapshot()
        stale = dict(snapshot)
        stale["schema"] = SNAPSHOT_SCHEMA_VERSION + 1
        with pytest.raises(SnapshotSchemaError):
            restore_run(stale, trace)
        with pytest.raises(SnapshotSchemaError):
            validate_snapshot({"no": "schema"})

    def test_trace_prefix_mismatch_refuses_resume(self) -> None:
        _, snapshot = self._one_snapshot()
        config = _config("hatric")
        other = resolve_trace(
            make_workload("syn:migration-daemon/seed=8"),
            config.num_cpus, config.seed, 5000,
        )
        with pytest.raises(SnapshotError):
            restore_run(snapshot, other)

    def test_positions_outside_the_main_phase_refuse_restore(self) -> None:
        trace, snapshot = self._one_snapshot()
        for positions in (
            [start - 1 for start in snapshot["warmup"]["starts"]],
            [len(stream) + 32 for stream in trace.streams],
        ):
            tampered = json.loads(json.dumps(snapshot))
            tampered["trace"]["positions"] = positions
            with pytest.raises(SnapshotError):
                restore_run(tampered, trace)

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

    @pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
    def test_shape_corrupt_candidate_degrades_to_cold(
        self, tmp_path, corrupt
    ) -> None:
        # the candidate scan must skip a corrupt checkpoint (cold run),
        # not crash the batch
        config = _config("software")
        workload = "prefix:12000:syn:migration-daemon/seed=7"
        shorter, request = (
            RunRequest(
                config=config, workload=workload, refs_total=refs,
                warmup_refs=100,
            )
            for refs in (4000, 6000)
        )
        execute_request(shorter, store_directory=str(tmp_path))
        store = CheckpointStore(tmp_path)
        family = checkpoint_family_key(request)
        [(_, path)] = store.candidates(family)
        snapshot = store.load(path)
        store.save(family, CORRUPTIONS[corrupt](snapshot))

        before = dict(CHECKPOINT_COUNTERS)
        result = execute_request(request, store_directory=str(tmp_path))
        assert CHECKPOINT_COUNTERS["cold"] - before["cold"] == 1
        assert CHECKPOINT_COUNTERS["restored"] == before["restored"]
        cold = execute_request(request)
        assert not diff_fingerprints(
            result_fingerprint(cold), result_fingerprint(result)
        )

    def test_prune_bounds_checkpoints_per_family(
        self, tmp_path, monkeypatch
    ) -> None:
        monkeypatch.setattr(checkpoint_module, "PRUNE_KEEP_PER_FAMILY", 4)
        _, snapshot = self._one_snapshot()
        store = CheckpointStore(tmp_path / "checkpoints")
        family = "ab" * 32
        for refs in range(1, 7):
            entry = dict(snapshot)
            entry["executed_refs"] = refs * 1000
            store.save(family, entry)
        removed, kept, failed = store.prune()
        assert (removed, kept, failed) == (2, 4, 0)
        survivors = [refs for refs, _ in store.candidates(family)]
        assert survivors == [6000, 5000, 4000, 3000]


class TestSessionCheckpointing:
    SWEEP_WORKLOAD = "prefix:12000:syn:migration-daemon/seed=7"

    def _requests(
        self, protocol: str = "software", points=(4000, 8000, 12000)
    ) -> list[RunRequest]:
        config = _config(protocol)
        return [
            RunRequest(
                config=config,
                workload=self.SWEEP_WORKLOAD,
                refs_total=refs,
                warmup_refs=100,
                interval_refs=1000,
            )
            for refs in points
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

    def test_validation_checks_restored_runs(
        self, tmp_path, monkeypatch
    ) -> None:
        # validation diffs the returned result, so a validated sweep
        # still takes the checkpoint path it is meant to check
        monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
        before = dict(CHECKPOINT_COUNTERS)
        session = Session(cache_dir=tmp_path, checkpoints=True)
        session.run_batch(self._requests(points=(2000, 3000)))
        assert CHECKPOINT_COUNTERS["restored"] - before["restored"] >= 1

    def test_validation_catches_restore_drift(
        self, tmp_path, monkeypatch
    ) -> None:
        from repro.sim import snapshot as snapshot_module

        load_cache = snapshot_module._load_cache

        def skip_llc(cache, data) -> None:
            if cache.name != "llc":  # restore leaves the LLC cold
                load_cache(cache, data)

        monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
        monkeypatch.setattr(snapshot_module, "_load_cache", skip_llc)
        session = Session(cache_dir=tmp_path, checkpoints=True)
        with pytest.raises(FastPathMismatchError, match="fast engine diverged"):
            session.run_batch(self._requests(points=(2000, 3000)))

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
            execute_request(request, store_directory=str(tmp_path))
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
        session = Session(cache_dir=tmp_path, checkpoints=True)
        store = session.checkpoint_store
        Simulator(config).run(
            make_workload(self.SWEEP_WORKLOAD), refs_total=12000,
            warmup_refs=100, checkpoint_refs=1500,
            on_checkpoint=functools.partial(
                store.save, checkpoint_family_key(long_request)
            ),
        )
        assert len(store) > 4
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
        result = execute_request(request, store_directory=str(tmp_path))
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
        execute_request(first, store_directory=str(tmp_path))
        result = execute_request(second, store_directory=str(tmp_path))
        assert CHECKPOINT_COUNTERS["restored"] == before["restored"]
        cold = execute_request(second)
        assert not diff_fingerprints(
            result_fingerprint(cold), result_fingerprint(result)
        )
