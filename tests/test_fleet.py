"""Fleet-layer tests: specs, plans, transport, determinism, metrics.

Covers the fleet subsystem end to end:

* percentile helpers and the telemetry conservation law (per-VM
  interval deltas sum to the final aggregates);
* the seeded migration planner (pure function of the spec, policy
  semantics, validation);
* the migration transport (schema/vm guards, capture-restore round
  trip across hosts);
* determinism: identical fingerprints across repeated runs, serial vs
  multi-process sessions, and the reference vs fast engines;
* the differential invariants on a real protocol-separating fleet, and
  the golden snapshot pinning that smallest separating shape;
* result caching (encode/decode round trip, disk hits, key stability).
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.api.cache import ResultCache, decode_result, encode_result
from repro.api.session import Session
from repro.experiments.fleet import (
    fleet_spec,
    format_fleet,
    run_fleet_experiment,
)
from repro.fleet import (
    FLEET_PREFIX,
    FleetRequest,
    FleetSpec,
    HostSpec,
    MIGRATION_POLICIES,
    execute_fleet,
    fleet_violations,
    migration_plan,
)
from repro.fleet.engine import _simulate_fleet, build_fleet_trace
from repro.fleet.transport import (
    capture_vm_state,
    payload_bytes,
    restore_vm_state,
)
from repro.sim.config import GuestConfig, SystemConfig
from repro.sim.engine import FastPageTableWalker, FastPathMismatchError
from repro.sim.simulator import Run, Simulator
from repro.sim.snapshot import SnapshotError
from repro.sim.stats import (
    IntervalSample,
    cycles_per_ref_series,
    nearest_rank_percentile,
    tail_latency_percentiles,
)
from tests.conftest import update_golden_requested

GOLDEN_DIR = Path(__file__).parent / "golden"


def tiny_spec(**overrides) -> FleetSpec:
    """The smallest fleet the driver machinery exercises: 2 hosts x 1 VM."""
    defaults = dict(
        hosts=2,
        vms_per_host=1,
        num_cpus=4,
        epochs=3,
        epoch_refs=256,
        storm_refs=64,
        intensity=1,
    )
    defaults.update(overrides)
    return fleet_spec(**defaults)


def separating_spec() -> FleetSpec:
    """The smallest shape where the three protocols strictly separate.

    Two hosts x two migration-daemon guests at 1024 refs/epoch: the
    guests' combined footprint overflows the fast-memory tier, the
    daemon starts remapping, and software > hatric > ideal on makespan.
    Smaller epoch counts or reference budgets touch too few distinct
    pages to trigger any remaps, leaving all three protocols identical
    (see tests/golden/README.md).
    """
    return fleet_spec(
        hosts=2,
        vms_per_host=2,
        num_cpus=4,
        epochs=3,
        epoch_refs=1024,
        storm_refs=64,
        intensity=1,
    )


@pytest.fixture(scope="module")
def separated():
    """One separating fleet run per protocol (shared across tests)."""
    spec = separating_spec()
    return {
        protocol: execute_fleet(
            FleetRequest(spec=spec, protocol=protocol)
        )
        for protocol in ("software", "hatric", "ideal")
    }


# ----------------------------------------------------------------------
# percentile helpers (repro.sim.stats)
# ----------------------------------------------------------------------
class TestPercentiles:
    def test_nearest_rank_is_exact(self):
        values = list(range(1, 101))  # 1..100
        assert nearest_rank_percentile(values, 50) == 50
        assert nearest_rank_percentile(values, 95) == 95
        assert nearest_rank_percentile(values, 99) == 99
        assert nearest_rank_percentile(values, 100) == 100

    def test_nearest_rank_small_samples(self):
        assert nearest_rank_percentile([7.0], 50) == 7.0
        assert nearest_rank_percentile([7.0], 99) == 7.0
        assert nearest_rank_percentile([3.0, 1.0], 50) == 1.0
        assert nearest_rank_percentile([3.0, 1.0], 99) == 3.0

    def test_nearest_rank_rejects_bad_input(self):
        with pytest.raises(ValueError):
            nearest_rank_percentile([], 50)
        with pytest.raises(ValueError):
            nearest_rank_percentile([1.0], 0)
        with pytest.raises(ValueError):
            nearest_rank_percentile([1.0], 101)

    def _sample(self, busy, refs, vms=()):
        return IntervalSample(
            start_refs=0,
            end_refs=refs,
            busy_cycles=busy,
            coherence_cycles=0,
            background_cycles=0,
            instructions=refs,
            energy=0.0,
            vms=list(vms),
        )

    def test_cycles_per_ref_series_skips_idle_intervals(self):
        samples = [
            self._sample(100, 50),
            self._sample(0, 0),  # idle: contributes no latency point
            self._sample(300, 100),
        ]
        assert cycles_per_ref_series(samples) == [2.0, 3.0]

    def test_cycles_per_ref_series_scopes_to_one_vm(self):
        vms = [
            {"busy_cycles": 40, "instructions": 10},
            {"busy_cycles": 90, "instructions": 30},
        ]
        samples = [self._sample(130, 40, vms=vms)]
        assert cycles_per_ref_series(samples, vm_index=0) == [4.0]
        assert cycles_per_ref_series(samples, vm_index=1) == [3.0]
        assert cycles_per_ref_series(samples, vm_index=9) == []

    def test_tail_latency_percentiles_shape(self):
        samples = [self._sample(100 * k, 100) for k in range(1, 11)]
        tails = tail_latency_percentiles(samples)
        assert set(tails) == {"p50", "p95", "p99"}
        assert tails["p50"] <= tails["p95"] <= tails["p99"]
        assert tail_latency_percentiles([]) == {}


# ----------------------------------------------------------------------
# specs and migration plans
# ----------------------------------------------------------------------
class TestSpecAndPlan:
    def test_spec_validation(self):
        host = HostSpec(guests=(GuestConfig(workload="w", vcpus=1),))
        with pytest.raises(ValueError):
            FleetSpec(hosts=(host,))  # one host is not a fleet
        with pytest.raises(ValueError):
            FleetSpec(hosts=(host, host), epoch_refs=100)  # not 32-aligned
        with pytest.raises(ValueError):
            FleetSpec(hosts=(host, host), storm_refs=0)
        with pytest.raises(ValueError):
            FleetSpec(hosts=(host, host), policy="thermal")
        with pytest.raises(ValueError):
            FleetSpec(hosts=(host, host), epochs=1)
        with pytest.raises(ValueError):
            HostSpec(guests=())
        with pytest.raises(ValueError):
            HostSpec(
                guests=(GuestConfig(workload="w", vcpus=1, mem_share=0.5),)
            )

    def test_spec_round_trips_and_names(self):
        spec = tiny_spec(policy="pack", intensity=2)
        assert FleetSpec.from_dict(spec.to_dict()) == spec
        assert spec.name == "fleet-2h2v-pack-x2"
        assert spec.initial_placement() == [0, 1]

    @pytest.mark.parametrize("policy", MIGRATION_POLICIES)
    def test_plan_is_deterministic_and_well_formed(self, policy):
        spec = fleet_spec(
            hosts=3, vms_per_host=2, policy=policy, epochs=4, intensity=2
        )
        plan = migration_plan(spec)
        assert plan == migration_plan(spec)
        assert len(plan) == spec.epochs - 1
        placement = spec.initial_placement()
        for wave in plan:
            assert len(wave) <= spec.intensity
            moved = set()
            for vm, src, dst in wave:
                assert placement[vm] == src
                assert src != dst
                assert vm not in moved
                placement[vm] = dst
                moved.add(vm)

    def test_round_robin_walks_every_vm(self):
        spec = fleet_spec(hosts=2, vms_per_host=2, epochs=5, intensity=1)
        plan = migration_plan(spec)
        assert [wave[0][0] for wave in plan] == [0, 1, 2, 3]

    def test_pack_consolidates_and_load_balance_spreads(self):
        # pack drains the least-loaded occupied host into the most
        # loaded one (with equal loads nothing moves, so seed the
        # imbalance with a heterogeneous fleet).
        guest = GuestConfig(workload="syn:migration-daemon", vcpus=1)
        spec = FleetSpec(
            hosts=(
                HostSpec(guests=(guest,)),
                HostSpec(guests=(guest, guest)),
            ),
            policy="pack",
            epochs=3,
        )
        placement = spec.initial_placement()
        for wave in migration_plan(spec):
            for vm, _, dst in wave:
                placement[vm] = dst
        assert set(placement) == {1}  # everything packed onto host1

        # load-balance never moves a VM onto the most loaded host.
        spec = fleet_spec(
            hosts=2, vms_per_host=2, policy="load-balance", epochs=4
        )
        guests = spec.guest_configs()
        placement = spec.initial_placement()
        for wave in migration_plan(spec):
            for vm, src, dst in wave:
                load = lambda h: sum(
                    guests[v].vcpus
                    for v in range(len(placement))
                    if placement[v] == h
                )
                assert load(dst) <= load(src)
                placement[vm] = dst

    def test_cache_keys_are_prefixed_and_distinct(self):
        spec = tiny_spec()
        key = FleetRequest(spec=spec, protocol="hatric").cache_key
        assert key.startswith(FLEET_PREFIX)
        other = FleetRequest(spec=spec, protocol="software").cache_key
        assert key != other
        assert key == FleetRequest(spec=spec, protocol="hatric").cache_key


# ----------------------------------------------------------------------
# migration transport
# ----------------------------------------------------------------------
class TestTransport:
    def _hosts_and_runs(self, spec):
        trace, layout = build_fleet_trace(spec)
        config = SystemConfig(
            num_cpus=spec.num_cpus, protocol="hatric", seed=spec.seed
        )
        hosts = [Simulator(config, engine="fast") for _ in spec.hosts]
        runs = [Run(host, trace) for host in hosts]
        return hosts, runs, layout

    def test_capture_restore_round_trips_across_hosts(self):
        spec = tiny_spec()
        hosts, runs, layout = self._hosts_and_runs(spec)
        # vm0 executes its first epoch on host0 only.
        runs[0].advance(
            {s: layout.base_end[0][0] for s in layout.streams_of_vm[0]}
        )
        payload = capture_vm_state(hosts[0], 0)
        assert payload_bytes(payload) > 0
        restore_vm_state(hosts[1], 0, payload)
        # Re-capturing from the destination reproduces the payload: the
        # transplant moved the whole architectural state and nothing else.
        assert capture_vm_state(hosts[1], 0) == payload

    def test_restore_guards_schema_and_identity(self):
        spec = tiny_spec()
        hosts, runs, layout = self._hosts_and_runs(spec)
        runs[0].advance(
            {s: layout.base_end[0][0] for s in layout.streams_of_vm[0]}
        )
        payload = capture_vm_state(hosts[0], 0)
        stale = dict(payload, schema=-1)
        with pytest.raises(SnapshotError):
            restore_vm_state(hosts[1], 0, stale)
        with pytest.raises(SnapshotError):
            restore_vm_state(hosts[1], 1, payload)  # wrong VM identity
        with pytest.raises(SnapshotError):
            capture_vm_state(hosts[0], 99)


# ----------------------------------------------------------------------
# determinism and engine equivalence
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_repeated_runs_are_bit_identical(self):
        request = FleetRequest(spec=tiny_spec(), protocol="hatric")
        first = execute_fleet(request)
        second = execute_fleet(request)
        assert first.fingerprint == second.fingerprint
        assert first.to_dict() == second.to_dict()

    def test_engines_agree(self):
        # requests run the fast engine, so both go through the machines
        (reference, reference_digests), (fast, fast_digests) = (
            _simulate_fleet(tiny_spec(), "software", engine)
            for engine in ("reference", "fast")
        )
        assert reference.fingerprint == fast.fingerprint
        assert reference_digests == fast_digests

    def test_validated_fastpath_accepts_agreeing_engines(self, monkeypatch):
        monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
        request = FleetRequest(spec=tiny_spec(), protocol="hatric")
        result = execute_fleet(request)  # raises on any divergence
        assert result.fingerprint

    def test_validated_fastpath_names_the_drifting_fields(self, monkeypatch):
        walk = FastPageTableWalker.walk

        def slower_walk(self, ctx, gvp, is_write=False):
            result = walk(self, ctx, gvp, is_write)
            result.cycles += 1  # a fast-engine-only cost drift
            return result

        monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
        monkeypatch.setattr(FastPageTableWalker, "walk", slower_walk)
        request = FleetRequest(spec=tiny_spec(), protocol="hatric")
        with pytest.raises(
            FastPathMismatchError, match=r"host\d\.busy_cycles: reference="
        ):
            execute_fleet(request)

    def test_serial_and_parallel_sessions_agree(self):
        requests = [
            FleetRequest(spec=tiny_spec(), protocol=protocol)
            for protocol in ("software", "ideal")
        ]
        serial = Session().run_fleet(requests)
        parallel = Session(max_workers=2).run_fleet(requests)
        assert [r.fingerprint for r in serial] == [
            r.fingerprint for r in parallel
        ]


# ----------------------------------------------------------------------
# telemetry conservation and work accounting
# ----------------------------------------------------------------------
class TestConservation:
    def test_interval_deltas_sum_to_final_aggregates(self, separated):
        for result in separated.values():
            for host in result.hosts:
                for key in ("busy_cycles", "coherence_cycles", "instructions"):
                    assert (
                        sum(s[key] for s in host["intervals"]) == host[key]
                    ), f"interval {key} deltas do not sum to the aggregate"

    def test_per_vm_interval_deltas_sum_to_vm_totals(self, separated):
        for result in separated.values():
            for vm_index, vm in enumerate(result.vms):
                for key in ("busy_cycles", "instructions"):
                    total = sum(
                        sample["vms"][vm_index][key]
                        for host in result.hosts
                        for sample in host["intervals"]
                    )
                    assert total == vm[key]

    def test_every_vm_retires_exactly_its_trace(self, separated):
        spec = separating_spec()
        plan = migration_plan(spec)
        moves = [0] * spec.num_vms
        for wave in plan:
            for vm, _, _ in wave:
                moves[vm] += 1
        for result in separated.values():
            for vm_index, vm in enumerate(result.vms):
                expected = (
                    spec.epochs * spec.epoch_refs
                    + 2 * spec.storm_refs * moves[vm_index]
                )  # x1 vCPU per guest
                assert vm["instructions"] == expected
                assert vm["migrations"] == moves[vm_index]


# ----------------------------------------------------------------------
# differential invariants and protocol separation
# ----------------------------------------------------------------------
class TestInvariants:
    def test_real_run_satisfies_all_invariants(self, separated):
        assert fleet_violations(separated) == []

    def test_protocols_strictly_separate(self, separated):
        software = separated["software"].makespan_cycles
        hatric = separated["hatric"].makespan_cycles
        ideal = separated["ideal"].makespan_cycles
        assert software > hatric > ideal
        assert separated["ideal"].totals["coherence_cycles"] == 0
        assert separated["software"].totals["remaps"] > 0

    def test_tampering_is_detected(self, separated):
        tampered = {p: copy.deepcopy(r) for p, r in separated.items()}
        tampered["software"].vms[0]["instructions"] += 1
        tampered["software"].totals["instructions"] += 1
        violations = fleet_violations(tampered)
        assert any("reference counts differ" in v for v in violations)

        slow_ideal = {p: copy.deepcopy(r) for p, r in separated.items()}
        slow_ideal["ideal"].totals["makespan_cycles"] = (
            slow_ideal["software"].totals["makespan_cycles"] + 1
        )
        violations = fleet_violations(slow_ideal)
        assert any("ideal slower" in v for v in violations)

    def test_transport_counts_match_the_plan(self, separated):
        plan = migration_plan(separating_spec())
        moves = sum(len(wave) for wave in plan)
        for result in separated.values():
            assert result.transport["captures"] == moves
            assert result.transport["restores"] == moves
            assert result.transport["bytes"] > 0


# ----------------------------------------------------------------------
# caching
# ----------------------------------------------------------------------
class TestCaching:
    def test_encode_decode_round_trip(self, separated):
        result = separated["hatric"]
        decoded = decode_result(encode_result(result))
        assert decoded.to_dict() == result.to_dict()
        assert decoded.fingerprint == result.fingerprint

    def test_stale_schema_is_rejected(self, separated):
        blob = encode_result(separated["ideal"])
        blob["schema"] = -1
        with pytest.raises(ValueError):
            decode_result(blob)

    def test_session_disk_cache_round_trip(self, tmp_path):
        request = FleetRequest(spec=tiny_spec(), protocol="ideal")
        first = Session(cache_dir=tmp_path)
        (fresh,) = first.run_fleet([request])
        assert first.stats.executed == 1

        second = Session(cache_dir=tmp_path)
        (cached,) = second.run_fleet([request])
        assert second.stats.executed == 0
        assert second.stats.disk_hits == 1
        assert cached.fingerprint == fresh.fingerprint
        assert cached.to_dict() == fresh.to_dict()

        traffic = ResultCache(tmp_path).fleet_traffic()
        assert traffic["entries"] == 1
        assert traffic["captures"] == fresh.transport["captures"]
        assert traffic["bytes"] == fresh.transport["bytes"]

    def test_memo_and_dedup_within_a_session(self):
        request = FleetRequest(spec=tiny_spec(), protocol="ideal")
        session = Session()
        first, second = session.run_fleet([request, request])
        assert first.fingerprint == second.fingerprint
        assert session.stats.executed == 1


# ----------------------------------------------------------------------
# the experiment harness
# ----------------------------------------------------------------------
class TestExperiment:
    def test_fleet_study_runs_and_formats(self):
        study = run_fleet_experiment(
            hosts=2,
            vms_per_host=1,
            num_cpus=4,
            epochs=3,
            epoch_refs=256,
            storm_refs=64,
            intensities=(1, 2),
            protocols=("software", "ideal"),
            session=Session(),
        )
        assert study.ok
        assert [c.intensity for c in study.cells] == [1, 1, 2, 2]
        for intensity in (1, 2):
            cell = study.cell(intensity, "software")
            assert cell.normalized_makespan >= 1.0
            assert cell.migrations == 2 * intensity
        text = format_fleet(study)
        assert "differential invariants: OK" in text
        assert "per-VM tails, intensity=1:" in text
        assert "software.p99" in text and "software.slo" in text
        payload = study.to_dict()
        assert payload["ok"] is True
        assert json.loads(json.dumps(payload)) == payload


# ----------------------------------------------------------------------
# golden snapshot
# ----------------------------------------------------------------------
def _check_golden(filename: str, payload: dict) -> None:
    path = GOLDEN_DIR / filename
    if update_golden_requested():
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    stored = json.loads(path.read_text())
    assert payload == stored, (
        f"{filename} drifted from the committed snapshot; if the "
        f"simulation change is intentional, regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )


def test_fleet_tiny_golden(separated):
    payload = {
        protocol: {
            "makespan_cycles": result.makespan_cycles,
            "coherence_cycles": result.totals["coherence_cycles"],
            "remaps": result.totals["remaps"],
            "shootdown_messages": sum(
                result.totals["shootdown_messages"].values()
            ),
            "slo_violations": result.totals["slo_violations"],
            "fingerprint": result.fingerprint,
        }
        for protocol, result in separated.items()
    }
    _check_golden("fleet_tiny.json", payload)
