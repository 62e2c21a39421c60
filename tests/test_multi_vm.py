"""Multi-VM consolidation: composition, per-VM stats, conservation.

The per-VM counters of a consolidated run must decompose the global
``MachineStats`` exactly: per-VM instructions, busy cycles and coherence
cycles sum to the machine totals, per-VM event mirrors (faults,
evictions, remaps/shootdowns) sum to their global counters, and the
proportional per-VM energy split sums to the run's total energy.  These
hold for **every** protocol in the differential matrix because the
attribution happens on the shared charging paths, not per protocol.
"""

from __future__ import annotations

import pytest

from repro.api import RunRequest, Session, decode_result, encode_result
from repro.sim.config import GuestConfig, VmTopology
from repro.sim.simulator import Simulator
from repro.workloads import make_workload, parse_topology_name
from repro.workloads.multi import MultiVmWorkload
from tests.conftest import small_config
from tests.test_differential import matrix_spec, _base_config

#: Guest counts x sharing shapes the conservation matrix covers.
CONSOLIDATED_SHAPES = (
    "multi:{g}@2+{g}@2",
    "multi:{g}@4+{g}@4+share=shared",
    "multi:{g}@1+{g}@1+{g}@1+{g}@1",
    "multi:{g}@2:0.25+{g}@2:0.25",
)

PROTOCOLS = ("software", "unitd", "hatric", "ideal")


def _shape_name(shape: str) -> str:
    return shape.format(g=matrix_spec(1).name)


@pytest.fixture(scope="module")
def consolidated_results():
    """One shared run of every shape under every protocol."""
    session = Session()
    results = {}
    for shape in CONSOLIDATED_SHAPES:
        name = _shape_name(shape)
        for protocol in PROTOCOLS:
            results[(shape, protocol)] = session.run(
                RunRequest(
                    config=_base_config().with_protocol(protocol),
                    workload=name,
                )
            )
    return results


@pytest.mark.parametrize("shape", CONSOLIDATED_SHAPES)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_per_vm_counters_conserve_globals(consolidated_results, shape, protocol):
    result = consolidated_results[(shape, protocol)]
    stats = result.stats
    assert stats.vms, "consolidated run must track per-VM stats"
    assert sum(vm.instructions for vm in stats.vms) == stats.total_instructions
    assert sum(vm.busy_cycles for vm in stats.vms) == stats.total_cycles
    assert (
        sum(vm.coherence_cycles for vm in stats.vms) == stats.coherence_cycles
    )
    # every per-VM event mirror sums to its global counter (shootdowns
    # included: coherence.remaps is mirrored per remap-victim VM)
    mirrored = set().union(*(vm.events.keys() for vm in stats.vms))
    assert mirrored, "expected per-VM event mirrors"
    for event in mirrored:
        assert (
            sum(vm.events.get(event, 0) for vm in stats.vms)
            == stats.events.get(event, 0)
        ), event


@pytest.mark.parametrize("shape", CONSOLIDATED_SHAPES)
def test_per_vm_energy_sums_to_total(consolidated_results, shape):
    result = consolidated_results[(shape, "hatric")]
    energies = result.per_vm_energy()
    assert len(energies) == len(result.stats.vms)
    assert sum(energies) == pytest.approx(result.energy_total)


def test_remaps_are_mirrored_per_vm(consolidated_results):
    """The conservation matrix is not vacuous: shootdowns happen."""
    result = consolidated_results[(CONSOLIDATED_SHAPES[0], "software")]
    remaps = [vm.events.get("coherence.remaps", 0) for vm in result.stats.vms]
    assert sum(remaps) > 0
    assert sum(remaps) == result.events["coherence.remaps"]


# ----------------------------------------------------------------------
# topology names and composition semantics
# ----------------------------------------------------------------------
def test_topology_names_round_trip():
    for name in (
        "multi:canneal",
        "multi:canneal@4+facesim@4",
        "multi:syn:migration-daemon/addr=zipf/seed=7/blen=80@2+graph500@2",
        "multi:canneal@2+facesim@2+share=shared",
        "multi:canneal@2:0.25+facesim@2:0.75",
    ):
        topology = parse_topology_name(name)
        assert topology.name == name
        assert make_workload(name).name == name


def test_topology_validation():
    with pytest.raises(ValueError):
        parse_topology_name("multi:")
    with pytest.raises(ValueError):
        parse_topology_name("syn:steady")
    with pytest.raises(ValueError):
        parse_topology_name("multi:canneal@zero")
    with pytest.raises(ValueError):
        VmTopology(guests=())
    with pytest.raises(ValueError):
        VmTopology(
            guests=(GuestConfig(workload="canneal"),), sharing="timesliced"
        )
    with pytest.raises(ValueError):
        # shares over-commit die-stacked DRAM
        VmTopology(
            guests=(
                GuestConfig(workload="canneal", mem_share=0.7),
                GuestConfig(workload="facesim", mem_share=0.7),
            )
        )
    with pytest.raises(ValueError):
        GuestConfig(workload="a+b")


def test_pinned_topology_must_fit_the_machine():
    workload = make_workload("multi:canneal@3+facesim@3")
    with pytest.raises(ValueError):
        workload.generate(num_vcpus=4)


def test_shared_topology_oversubscribes_pcpus():
    trace = make_workload("multi:canneal@4+facesim@4+share=shared").generate(
        num_vcpus=4, refs_total=800
    )
    assert trace.num_vcpus == 8
    assert trace.pcpu_of_vcpu == [0, 1, 2, 3, 0, 1, 2, 3]
    assert trace.vm_of_vcpu == [0, 0, 0, 0, 1, 1, 1, 1]


def test_guest_traces_are_distinct_but_deterministic():
    workload = make_workload("multi:canneal@2+canneal@2")
    first = workload.generate(num_vcpus=4, seed=42, refs_total=2000)
    again = workload.generate(num_vcpus=4, seed=42, refs_total=2000)
    for a, b in zip(first.streams, again.streams):
        assert (a == b).all()
    # same tenant workload, different guests -> different streams
    assert not (first.streams[0] == first.streams[2]).all()


def test_guest_processes_never_share_nested_mappings():
    """VM isolation: no system frame is mapped by two guests."""
    config = small_config()
    simulator = Simulator(config)
    name = _shape_name("multi:{g}@2+{g}@2")
    simulator.run(make_workload(name), refs_total=2000)
    vms = [simulator.hypervisor.vm(vm_id) for vm_id in (1, 2)]
    spp_owners: dict[int, int] = {}
    for vm in vms:
        for entry in vm.nested_page_table.iter_leaf_entries():
            owner = spp_owners.setdefault(entry.pfn, vm.vm_id)
            assert owner == vm.vm_id, (
                f"frame {entry.pfn:#x} mapped by VMs {owner} and {vm.vm_id}"
            )


def test_fifo_policy_survives_external_victim_evictions():
    """Cap enforcement evicts pages the policy did not select; FIFO must
    not keep a stale queue entry that later misdirects a global eviction
    onto the just-re-faulted page (regression)."""
    from repro.virt.paging import FifoPolicy

    policy = FifoPolicy()
    for page in ((1, 1), (1, 2), (2, 1)):
        policy.on_page_resident(page)
    policy.on_page_evicted((1, 1))  # external (cap) eviction
    policy.on_page_resident((1, 1))  # the page re-faults in
    # global pressure must evict the true oldest resident, not (1, 1)
    assert policy.select_victim() == (1, 2)
    assert len(policy) == 2


def test_mem_share_caps_hold_under_fifo_policy():
    """The cap + FIFO interplay runs clean end-to-end on both engines."""
    from repro.sim.config import PagingConfig
    from repro.sim.engine import (
        ENGINE_FAST,
        ENGINE_REFERENCE,
        diff_fingerprints,
        result_fingerprint,
    )

    config = small_config(
        paging=PagingConfig(
            policy="fifo", migration_daemon=False, prefetch_pages=0
        )
    )
    name = _shape_name("multi:{g}@2:0.2+{g}@2:0.2")
    results = {}
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        simulator = Simulator(config, engine=engine)
        results[engine] = simulator.run(make_workload(name), refs_total=4000)
        cap = int(0.2 * config.memory.fast_frames)
        for vm_id in (1, 2):
            assert simulator.hypervisor.resident_pages_of(vm_id) <= cap
    assert (
        diff_fingerprints(
            result_fingerprint(results[ENGINE_REFERENCE]),
            result_fingerprint(results[ENGINE_FAST]),
        )
        == []
    )


def test_mem_share_caps_resident_pages():
    """A capped guest never exceeds its die-stacked partition."""
    config = small_config()  # 256 fast frames
    simulator = Simulator(config)
    name = _shape_name("multi:{g}@2:0.25+{g}@2:0.25")
    simulator.run(make_workload(name), refs_total=4000)
    hypervisor = simulator.hypervisor
    cap = int(0.25 * config.memory.fast_frames)
    for vm_id in (1, 2):
        assert 0 < hypervisor.resident_pages_of(vm_id) <= cap


def test_multi_vm_per_app_cycles_empty():
    """Per-stream CPU readouts would double-count on shared pCPUs."""
    config = small_config()
    result = Simulator(config).run(
        make_workload(_shape_name("multi:{g}@4+{g}@4+share=shared")),
        refs_total=2000,
    )
    assert result.per_app_cycles == {}
    assert len(result.vm_names) == 2
    summary = result.per_vm_summary()
    assert [row["vm"] for row in summary] == result.vm_names
    assert all(row["instructions"] > 0 for row in summary)


# ----------------------------------------------------------------------
# API plumbing
# ----------------------------------------------------------------------
def test_multi_vm_result_cache_round_trip():
    result = Session().run(
        RunRequest(
            config=_base_config(),
            workload=_shape_name("multi:{g}@2+{g}@2"),
        )
    )
    decoded = decode_result(encode_result(result))
    assert decoded.vm_names == result.vm_names
    assert len(decoded.stats.vms) == len(result.stats.vms)
    for mine, theirs in zip(result.stats.vms, decoded.stats.vms):
        assert mine.busy_cycles == theirs.busy_cycles
        assert mine.coherence_cycles == theirs.coherence_cycles
        assert mine.instructions == theirs.instructions
        assert dict(mine.events) == dict(theirs.events)


def test_single_vm_cache_payload_unchanged():
    """Single-VM entries keep the pre-multi-VM format (no new keys)."""
    result = Session().run(
        RunRequest(config=_base_config(), workload=matrix_spec(1).name)
    )
    payload = encode_result(result)
    assert "vm_names" not in payload
    assert "vms" not in payload["stats"]


def test_spec_refs_total_sums_guests():
    workload = make_workload("multi:canneal@2+facesim@2")
    assert isinstance(workload, MultiVmWorkload)
    expected = (
        make_workload("canneal").spec.refs_total
        + make_workload("facesim").spec.refs_total
    )
    assert workload.spec.refs_total == expected
