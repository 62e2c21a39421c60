"""GC-quiet requests: machines die by reference counting.

Every machine a request builds is closed once its result is assembled
(:meth:`~repro.sim.simulator.Simulator.close`), which cuts the links
that make a running machine cyclic, and the whole request runs with
cyclic GC paused (:func:`~repro.sim.engine.gc_paused`).  So after any
request the cyclic collector finds nothing, and the collector's state
is whatever it was before the request.  Under
``REPRO_VALIDATE_FASTPATH=1`` every fast-engine request also builds,
runs and closes a reference machine; the pins hold there too.
"""

from __future__ import annotations

import gc
import json
import sys
import threading

import pytest

from repro.api import RunRequest
from repro.api.session import CHECKPOINT_COUNTERS, execute_request
from repro.experiments.fleet import fleet_spec
from repro.fleet import FleetRequest
from repro.fleet.engine import execute_fleet
from repro.sim.config import SystemConfig
from repro.sim.engine import ENGINE_REFERENCE, ENGINES, gc_paused
from repro.sim.simulator import Run, Simulator, resolve_trace
from repro.sim.snapshot import SnapshotError, restore_run
from repro.workloads import make_workload

PREFIX = "prefix:4096:syn:migration-daemon/seed=7"


def _request(**overrides) -> RunRequest:
    fields = dict(
        config=SystemConfig(num_cpus=2, protocol="hatric"),
        workload="data_caching",
        refs_total=1024,
    )
    fields.update(overrides)
    return RunRequest(**fields)


def _fleet_request() -> FleetRequest:
    return FleetRequest(
        spec=fleet_spec(hosts=2, vms_per_host=1, num_cpus=4, epochs=2,
                        epoch_refs=256, storm_refs=64),
        protocol="hatric",
    )


def _garbage_left_by(action) -> int:
    """Objects only the cyclic collector can free once ``action`` is done.

    The collector stays off until the count: the first allocation after
    a pause ends would otherwise run a young collection, which frees a
    dead machine built inside the pause whether or not it was closed.
    """
    gc.collect()
    with gc_paused():
        action()
        return gc.collect()


class TestNoGarbage:
    @pytest.mark.parametrize("hypervisor", ["kvm", "xen"])
    @pytest.mark.parametrize(
        "protocol", ["software", "hatric", "unitd", "ideal"]
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_request_leaves_no_garbage(
        self, engine, protocol, hypervisor, monkeypatch
    ):
        # a request runs the fast engine; the validation post-check
        # builds, runs and closes a reference machine inside it
        if engine == ENGINE_REFERENCE:
            monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
        request = _request(
            config=SystemConfig(
                num_cpus=2, protocol=protocol, hypervisor=hypervisor
            ),
        )
        assert _garbage_left_by(lambda: execute_request(request)) == 0

    def test_multi_vm_request_leaves_no_garbage(self):
        request = _request(
            config=SystemConfig(num_cpus=4, protocol="hatric"),
            workload="multi:data_caching@2+canneal@2",
            refs_total=2048,
        )
        assert _garbage_left_by(lambda: execute_request(request)) == 0

    def test_checkpointed_sweep_leaves_no_garbage(self, tmp_path):
        for refs, outcome in ((2048, "cold"), (4096, "restored")):
            request = _request(
                config=SystemConfig(num_cpus=4, protocol="software"),
                workload=PREFIX, refs_total=refs, warmup_refs=128,
            )
            before = CHECKPOINT_COUNTERS[outcome]
            assert _garbage_left_by(
                lambda: execute_request(request, None, str(tmp_path))
            ) == 0
            assert CHECKPOINT_COUNTERS[outcome] == before + 1

    def test_fleet_leaves_no_garbage(self):
        request = _fleet_request()
        assert _garbage_left_by(lambda: execute_fleet(request)) == 0

    def test_failed_restore_frees_its_machine(self):
        config = SystemConfig(num_cpus=4, protocol="software")
        trace = resolve_trace(make_workload(PREFIX), 4, config.seed, 2048)
        snapshots: list[dict] = []
        simulator = Simulator(config)
        simulator.run(trace, warmup_refs=128, on_checkpoint=snapshots.append)
        simulator.close()
        # the restore builds its machine, then trips on the structure order
        snapshot = json.loads(json.dumps(snapshots[-1]))
        snapshot["chip"]["cores"][1]["structures"][0]["name"] = "renamed"

        def restore() -> None:
            with pytest.raises(SnapshotError, match="structure order"):
                restore_run(snapshot, trace)

        assert _garbage_left_by(restore) == 0


class TestClosedSimulator:
    def _closed(self):
        simulator = Simulator(SystemConfig(num_cpus=2, protocol="hatric"))
        trace = resolve_trace(
            make_workload("data_caching"), 2, simulator.config.seed, 1024
        )
        run = Run(simulator, trace)
        simulator.close()
        simulator.close()  # idempotent
        return simulator, trace, run

    def test_closed_simulator_refuses_to_run(self):
        simulator, trace, run = self._closed()
        with pytest.raises(ValueError, match="closed"):
            simulator.run(trace)
        with pytest.raises(ValueError, match="closed"):
            simulator.resume(run)
        with pytest.raises(ValueError, match="closed"):
            Run(simulator, trace)

    def test_results_survive_the_close(self):
        simulator = Simulator(SystemConfig(num_cpus=2, protocol="hatric"))
        result = simulator.run(make_workload("data_caching"), refs_total=1024)
        before = result.runtime_cycles, result.events, result.energy_total
        simulator.close()
        assert (result.runtime_cycles, result.events,
                result.energy_total) == before


class TestGcState:
    """The collector ends every request in the state it started in."""

    @pytest.fixture(autouse=True)
    def _gc_enabled(self):
        assert gc.isenabled()
        yield
        gc.enable()

    def test_request_and_fleet_restore_gc(self):
        execute_request(_request())
        assert gc.isenabled()
        execute_fleet(_fleet_request())
        assert gc.isenabled()

    def test_failing_request_restores_gc(self):
        with pytest.raises(ValueError, match="unknown workload"):
            execute_request(_request(workload="no-such-workload"))
        assert gc.isenabled()

    def test_engine_span_nests_inside_the_request(self):
        seen: list[bool] = []
        execute_request(
            _request(interval_refs=256),
            lambda sample: seen.append(gc.isenabled()),
        )
        assert seen and not any(seen)
        assert gc.isenabled()

    def test_caller_that_disabled_gc_keeps_it_disabled(self):
        gc.disable()
        execute_request(_request())
        assert not gc.isenabled()
        execute_fleet(_fleet_request())
        assert not gc.isenabled()

    def test_concurrent_requests_end_with_gc_enabled(self):
        # serve runs streamed and --workers 0 requests on threads that
        # share one collector; more threads than cores, switching often
        errors: list[BaseException] = []

        def work(protocol: str) -> None:
            try:
                execute_request(_request(
                    config=SystemConfig(num_cpus=2, protocol=protocol)
                ))
            except BaseException as error:  # pragma: no cover - reported
                errors.append(error)

        threads = [
            threading.Thread(target=work, args=(protocol,))
            for protocol in ("software", "hatric", "unitd")
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert gc.isenabled()
