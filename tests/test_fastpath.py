"""Engine equivalence: bit-identical results across configurations.

The fast engine (:mod:`repro.sim.engine`) must produce
**bit-identical** ``MachineStats``, energy and machine state for every
configuration the reference engine supports -- that property is what
lets it run every request without a ``CACHE_SCHEMA_VERSION`` bump.  These
tests force both engines over the differential scenario matrix, every
protocol, and the directory/paging/placement/hypervisor variants whose
code paths the fast engine specializes, comparing full machine digests
(every counter, every resident cache line, TLB entry and directory
entry).  Resident scenarios additionally pin the fast engine's bulk
retirement, and that it stays off where no round is fully steady.
"""

from __future__ import annotations

import pytest

from repro.api import RunRequest
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


def test_unknown_engine_name_is_rejected():
    with pytest.raises(ValueError, match="known: reference, fast$"):
        resolve_engine("warp")


# ----------------------------------------------------------------------
# the retired "soa" engine name fails loudly on the machine, the one
# place an engine is named (request decoders refuse an ``engine`` field
# as unknown, see tests/test_serve.py)
# ----------------------------------------------------------------------
def _soa_simulator() -> str:
    with pytest.raises(ValueError) as error:
        Simulator(small_config(), engine="soa")
    return str(error.value)


@pytest.mark.parametrize(
    "surface",
    [_soa_simulator],
    ids=lambda surface: surface.__name__.removeprefix("_soa_"),
)
def test_retired_soa_engine_is_rejected(surface):
    """No alias, no special case: the unknown-engine error, naming both."""
    message = surface()
    assert "soa" in message
    assert "reference, fast" in message.replace("'", "")


# ----------------------------------------------------------------------
# validated execution
# ----------------------------------------------------------------------
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
