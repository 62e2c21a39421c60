"""Engine equivalence: bit-identical results across configurations.

The fast engine (:mod:`repro.sim.engine`) must produce
**bit-identical** ``MachineStats``, energy and machine state for every
configuration the reference engine supports -- that property is what
lets it be selected without a ``CACHE_SCHEMA_VERSION`` bump.  These
tests force both engines over the differential scenario matrix, every
protocol, and the directory/paging/placement/hypervisor variants whose
code paths the fast engine specializes, comparing full machine digests
(every counter, every resident cache line, TLB entry and directory
entry).  Resident scenarios additionally pin the fast engine's bulk
retirement, and that it stays off where no round is fully steady.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.api import ExperimentScale, RunRequest, Session
from repro.api.session import execute_request
from repro.sim.config import (
    CoherenceDirectoryConfig,
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
    resolve_engine,
    result_fingerprint,
)
from repro.sim.simulator import Run, Simulator, resolve_trace
from repro.workloads import make_workload
from tests.conftest import small_config
from tests.test_differential import SCENARIO_MATRIX, matrix_spec, _base_config

GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_engines_identical(config: SystemConfig, workload_name: str, **run_kwargs):
    """Run all engines and require identical results and machine state."""
    outcomes = {}
    for engine in ENGINES:
        simulator = Simulator(config, engine=engine)
        result = simulator.run(make_workload(workload_name), **run_kwargs)
        outcomes[engine] = (simulator, result)
    ref_sim, ref_result = outcomes[ENGINE_REFERENCE]
    differences = []
    for engine in ENGINES[1:]:
        sim, result = outcomes[engine]
        differences += [
            f"{engine}: {line}"
            for line in diff_fingerprints(
                result_fingerprint(ref_result), result_fingerprint(result)
            ) + diff_fingerprints(machine_digest(ref_sim), machine_digest(sim))
        ]
    assert differences == [], "\n".join(differences[:30])
    return ref_result


#: a subset of the differential matrix covering every remap family,
#: every sharing model and every address model at least once.
MATRIX_SAMPLE = tuple(SCENARIO_MATRIX[:8])


@pytest.mark.parametrize("index", MATRIX_SAMPLE)
@pytest.mark.parametrize("protocol", ("software", "unitd", "hatric", "ideal"))
def test_matrix_scenarios_identical(index, protocol):
    spec = matrix_spec(index)
    config = _base_config().with_protocol(protocol)
    assert_engines_identical(config, spec.name)


@pytest.mark.parametrize(
    "label, config",
    [
        (
            "fifo-prefetch",
            small_config(
                paging=PagingConfig(
                    policy="fifo",
                    migration_daemon=True,
                    daemon_free_target=16,
                    prefetch_pages=2,
                )
            ),
        ),
        (
            "defrag",
            small_config(
                paging=PagingConfig(
                    policy="lru",
                    migration_daemon=False,
                    prefetch_pages=0,
                    defrag_interval=300,
                )
            ),
        ),
        (
            # foreground (daemon-less) evictions charge the faulting CPU
            # from inside the fault handler; regression guard for the
            # read-before-call aliasing bug in cycle accounting
            "foreground-evictions",
            small_config(
                paging=PagingConfig(
                    policy="lru", migration_daemon=False, prefetch_pages=0
                )
            ),
        ),
        ("xen", small_config(hypervisor="xen")),
        ("slow-only", small_config(placement="slow-only")),
        ("fast-only", small_config(placement="fast-only")),
        (
            "fine-grained-directory",
            small_config(
                directory=CoherenceDirectoryConfig(
                    capacity=4096, fine_grained=True
                )
            ),
        ),
        (
            "eager-directory-updates",
            small_config(
                directory=CoherenceDirectoryConfig(
                    capacity=4096, lazy_pt_sharer_updates=False
                )
            ),
        ),
        (
            "tiny-directory-back-invalidations",
            small_config(directory=CoherenceDirectoryConfig(capacity=96)),
        ),
        ("software-flushes", small_config(protocol="software")),
        (
            "structure-scale-2x",
            small_config(translation=small_config().translation.scaled(2)),
        ),
    ],
)
def test_config_variants_identical(label, config):
    spec = matrix_spec(1)  # a migration-daemon scenario with remap traffic
    result = assert_engines_identical(config, spec.name)
    assert result.stats.total_instructions > 0


def test_paper_workload_small_scale_identical():
    config = SystemConfig(num_cpus=4, protocol="hatric")
    assert_engines_identical(config, "data_caching", refs_total=8000)


#: Multi-VM consolidated shapes: pinned blocks, shared (oversubscribed)
#: pCPUs, mixed tenant workloads and a static memory partition, each a
#: distinct engine code path (stream-to-pCPU mapping, per-VM stats,
#: per-VM eviction caps).
MULTI_VM_SHAPES = (
    "multi:{a}@2+{b}@2".format,
    "multi:{a}@4+{b}@4+share=shared".format,
    "multi:{a}@2:0.3+{b}@2:0.3".format,
)


@pytest.mark.parametrize("shape", MULTI_VM_SHAPES)
@pytest.mark.parametrize("protocol", ("software", "hatric", "ideal"))
def test_multi_vm_configs_identical(shape, protocol):
    name = shape(a=matrix_spec(1).name, b=matrix_spec(6).name)
    config = _base_config().with_protocol(protocol)
    result = assert_engines_identical(config, name)
    assert len(result.stats.vms) == 2
    assert all(vm.instructions > 0 for vm in result.stats.vms)


def test_multiprogrammed_mix_identical():
    config = SystemConfig(num_cpus=4, protocol="hatric")
    assert_engines_identical(config, "mix04x4", refs_total=8000)


def test_back_invalidations_actually_exercised():
    """The digest matrix's variants reach the slow path they guard.

    On the fast engine every L1-TLB miss runs the reference engine's
    per-reference code: L2-TLB hits, guest and nested faults.  The
    tiny-directory variant also takes the capacity fallback of the
    flattened hierarchy and walker fills (back-invalidations).
    """
    spec = matrix_spec(1)
    simulator = Simulator(small_config(), engine=ENGINE_FAST)
    result = simulator.run(make_workload(spec.name))
    assert sum(core.tlb_l2.stats.hits for core in simulator.chip.cores) > 0
    assert result.events.get("guest.minor_faults", 0) > 0
    assert result.events.get("paging.nested_faults", 0) > 0

    config = small_config(directory=CoherenceDirectoryConfig(capacity=96))
    simulator = Simulator(config, engine=ENGINE_FAST)
    result = simulator.run(make_workload(spec.name))
    assert result.events.get("directory.back_invalidations", 0) > 0


def test_validation_mode_forces_reference_engine():
    config = small_config()
    simulator = Simulator(config, validate=True, engine=ENGINE_FAST)
    assert simulator.engine == ENGINE_REFERENCE


def test_engine_env_override(monkeypatch):
    for engine in ENGINES:
        monkeypatch.setenv("REPRO_SIM_ENGINE", engine)
        assert resolve_engine(None) == engine
    with pytest.raises(ValueError, match="known: reference, fast$"):
        resolve_engine("warp")
    monkeypatch.setenv("REPRO_SIM_ENGINE", "fsat")
    with pytest.raises(ValueError, match="REPRO_SIM_ENGINE"):
        resolve_engine(None)


# ----------------------------------------------------------------------
# the retired "soa" engine name fails loudly on every surface
# ----------------------------------------------------------------------
def _value_error(call) -> str:
    with pytest.raises(ValueError) as error:
        call()
    return str(error.value)


def _soa_from_env(monkeypatch, capsys) -> str:
    monkeypatch.setenv("REPRO_SIM_ENGINE", "soa")
    return _value_error(lambda: Simulator(small_config()))


def _soa_simulator(monkeypatch, capsys) -> str:
    return _value_error(lambda: Simulator(small_config(), engine="soa"))


def _soa_run_request(monkeypatch, capsys) -> str:
    return _value_error(
        lambda: RunRequest(config=small_config(), workload="canneal",
                           engine="soa")
    )


def _soa_fleet_request(monkeypatch, capsys) -> str:
    from repro.experiments.fleet import fleet_spec
    from repro.fleet.spec import FleetRequest

    spec = fleet_spec(hosts=2, vms_per_host=1, num_cpus=2, epochs=2,
                      epoch_refs=512, storm_refs=64)
    return _value_error(
        lambda: FleetRequest(spec=spec, protocol="hatric", engine="soa")
    )


def _soa_cli(monkeypatch, capsys) -> str:
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--engine", "soa"])
    assert exit_info.value.code == 2
    return capsys.readouterr().err


def _soa_post_run(monkeypatch, capsys) -> str:
    from repro.serve import (
        ReproServer,
        ServiceClient,
        ServiceSettings,
        SimulationService,
    )

    payload = {"request": {
        **RunRequest(config=small_config(), workload="canneal").to_dict(),
        "engine": "soa",
    }}

    async def scenario():
        service = SimulationService(ServiceSettings(cache_dir=None, workers=0))
        server = ReproServer(service)
        host, port = await server.start()
        try:
            return await ServiceClient(host, port).post("/run", payload)
        finally:
            await server.stop()

    status, data = asyncio.run(scenario())
    assert status == 400
    return data["error"]["detail"]


@pytest.mark.parametrize(
    "surface",
    [
        _soa_from_env,
        _soa_simulator,
        _soa_run_request,
        _soa_fleet_request,
        _soa_cli,
        _soa_post_run,
    ],
    ids=lambda surface: surface.__name__.removeprefix("_soa_"),
)
def test_retired_soa_engine_is_rejected(surface, monkeypatch, capsys):
    """No alias, no special case: the unknown-engine error, naming both."""
    message = surface(monkeypatch, capsys)
    assert "soa" in message
    assert "reference, fast" in message.replace("'", "")


# ----------------------------------------------------------------------
# golden snapshots under a forced fast engine
# ----------------------------------------------------------------------
def test_golden_figure7_with_fast_engine_forced(monkeypatch):
    """The committed figure7 golden values hold with the fast engine."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", ENGINE_FAST)
    from repro.experiments import run_figure7

    result = run_figure7(
        workloads=("data_caching",),
        vcpu_counts=(4,),
        scale=ExperimentScale(trace_scale=0.2),
        session=Session(),
    )
    payload = {
        f"{cell.workload}/{cell.vcpus}vcpu/{cell.series}": cell.normalized_runtime
        for cell in result.cells
    }
    stored = json.loads((GOLDEN_DIR / "figure7_tiny.json").read_text())
    assert payload == stored


# ----------------------------------------------------------------------
# API plumbing: engine on RunRequest, validated execution
# ----------------------------------------------------------------------
def test_request_engine_field_keeps_default_cache_key():
    config = small_config()
    default = RunRequest(config=config, workload="canneal")
    explicit_fast = RunRequest(config=config, workload="canneal", engine="fast")
    reference = RunRequest(config=config, workload="canneal", engine="reference")
    # the default-engine payload has no engine key at all, so keys are
    # exactly what they were before engine selection existed
    assert "engine" not in default.to_dict()
    assert default.cache_key != explicit_fast.cache_key
    assert explicit_fast.cache_key != reference.cache_key
    assert default.cache_key != reference.cache_key
    # engine selection never bumped the cache schema: picking an engine
    # changes nothing about what any existing key resolves to
    from repro.api.request import CACHE_SCHEMA_VERSION

    assert CACHE_SCHEMA_VERSION == 2
    # round trip preserves the engine
    assert RunRequest.from_dict(explicit_fast.to_dict()).engine == "fast"
    assert RunRequest.from_dict(default.to_dict()).engine == ""
    with pytest.raises(ValueError):
        RunRequest(config=config, workload="canneal", engine="warp")


def test_request_engines_give_identical_results():
    spec = matrix_spec(2)
    config = _base_config()
    session = Session()
    results = [
        session.run(
            RunRequest(config=config, workload=spec.name, engine=engine)
        )
        for engine in ENGINES
    ]
    for other in results[1:]:
        assert result_fingerprint(results[0]) == result_fingerprint(other)


def test_validate_fastpath_mode_runs_and_passes(monkeypatch):
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    spec = matrix_spec(3)
    result = execute_request(
        RunRequest(config=_base_config(), workload=spec.name)
    )
    assert result.stats.total_instructions > 0


def test_validate_fastpath_mode_detects_divergence(monkeypatch):
    """A fabricated engine difference is reported, not swallowed."""
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    from repro.sim import engine as engine_module

    original = engine_module.FastPathExecutor._run_chunk

    def skewed(self, cpu, pos, end):
        count = original(self, cpu, pos, end)
        self.simulator.stats.cpus[cpu].busy_cycles += 1  # inject drift
        return count

    monkeypatch.setattr(engine_module.FastPathExecutor, "_run_chunk", skewed)
    spec = matrix_spec(3)
    with pytest.raises(FastPathMismatchError):
        execute_request(RunRequest(config=_base_config(), workload=spec.name))


#: A scenario whose working set is genuinely TLB/L1-resident, so the
#: fast engine's bulk retirement actually engages (the default bench
#: scenarios and the differential matrix thrash by design and stay on
#: exact rounds).
RESIDENT_STEADY = "syn:steady/seed=7/fp=6/hot=1.0/cold=0.0/reuse=16"


def _count_bulk(monkeypatch) -> dict:
    """Count mirror builds and bulk-retired rounds of the fast engine."""
    from repro.sim import engine as engine_module

    calls = {"mirrors": 0, "rounds": 0}
    build = engine_module.FastPathExecutor._build_mirrors
    retire = engine_module.FastPathExecutor._retire_rounds

    def counted_build(self, cpus):
        calls["mirrors"] += 1
        return build(self, cpus)

    def counted_retire(self, active, positions, window, rounds):
        calls["rounds"] += rounds
        return retire(self, active, positions, window, rounds)

    monkeypatch.setattr(
        engine_module.FastPathExecutor, "_build_mirrors", counted_build
    )
    monkeypatch.setattr(
        engine_module.FastPathExecutor, "_retire_rounds", counted_retire
    )
    return calls


def test_validate_fastpath_mode_detects_bulk_divergence(monkeypatch):
    """Drift injected into bulk retirement alone is caught and attributed."""
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    from repro.sim import engine as engine_module

    original = engine_module.FastPathExecutor._retire_rounds
    calls = []

    def skewed(self, active, positions, window, rounds):
        calls.append(rounds)
        self.simulator.stats.cpus[0].busy_cycles += 1  # inject drift
        return original(self, active, positions, window, rounds)

    monkeypatch.setattr(
        engine_module.FastPathExecutor, "_retire_rounds", skewed
    )
    config = SystemConfig(num_cpus=4, protocol="hatric")
    with pytest.raises(FastPathMismatchError, match="fast engine diverged"):
        execute_request(
            RunRequest(config=config, workload=RESIDENT_STEADY,
                       refs_total=16000)
        )
    assert calls


# ----------------------------------------------------------------------
# bulk retirement: engaged on resident content, off on thrashing content
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload",
    [
        RESIDENT_STEADY,
        # two resident guests time-sharing every pCPU (several streams
        # and VMs per core in one window), each small enough that both
        # fit the L1 together
        "multi:syn:steady/seed=7/fp=3/hot=1.0/cold=0.0/reuse=16@4"
        "+syn:steady/seed=8/fp=3/hot=1.0/cold=0.0/reuse=16@4+share=shared",
    ],
    ids=["resident", "resident-shared-pcpus"],
)
def test_bulk_retirement_engages_and_stays_identical(monkeypatch, workload):
    """Resident content really takes the bulk path, bit-identically."""
    calls = _count_bulk(monkeypatch)
    config = SystemConfig(num_cpus=4, protocol="hatric")
    assert_engines_identical(config, workload, refs_total=24000)
    assert calls["rounds"] > 0


def test_bulk_retirement_builds_nothing_without_steady_rounds(monkeypatch):
    """A thrash-dominated scenario never has an all-steady round."""
    calls = _count_bulk(monkeypatch)
    spec = matrix_spec(3)
    simulator = Simulator(_base_config(), engine=ENGINE_FAST)
    result = simulator.run(make_workload(spec.name))
    assert result.stats.total_instructions > 0
    assert calls == {"mirrors": 0, "rounds": 0}


def test_bulk_retirement_identical_on_uneven_stepped_spans(monkeypatch):
    """Stepped spans (how the fleet advances hosts) end streams unevenly."""
    calls = _count_bulk(monkeypatch)
    config = SystemConfig(num_cpus=4, protocol="hatric")
    trace = resolve_trace(
        make_workload(RESIDENT_STEADY), 4, config.seed, 24000
    )
    outcomes = {}
    for engine in ENGINES:
        simulator = Simulator(config, engine=engine)
        run = Run(simulator, trace)
        for step in range(1, 12):
            run.advance({
                s: max(run.positions[s], min(len(trace.streams[s]),
                                             step * 32 * (8 + 3 * s)))
                for s in range(4)
                if (step + s) % 3
            })
        run.advance({s: len(stream) for s, stream in enumerate(trace.streams)})
        outcomes[engine] = (
            result_fingerprint(run.result()), machine_digest(simulator)
        )
    assert outcomes[ENGINE_FAST] == outcomes[ENGINE_REFERENCE]
    assert calls["rounds"] > 0
