"""Tests for configuration, cost model and statistics containers."""

import dataclasses

import pytest

from repro.core.protocol import PROTOCOLS
from repro.experiments.runner import baseline_config
from repro.sim.config import (
    CacheConfig,
    CoherenceDirectoryConfig,
    MemoryConfig,
    PagingConfig,
    SystemConfig,
    TranslationConfig,
    config_to_dict,
)
from repro.sim.costs import CostModel
from repro.sim.stats import EventCounter, MachineStats


class TestSystemConfig:
    def test_defaults_are_valid(self):
        config = SystemConfig()
        assert config.num_cpus > 0
        assert config.protocol == "hatric"

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            SystemConfig(num_cpus=0)
        with pytest.raises(ValueError):
            SystemConfig(placement="nowhere")
        with pytest.raises(ValueError):
            SystemConfig(hypervisor="vmware")
        with pytest.raises(ValueError):
            PagingConfig(policy="belady")
        with pytest.raises(ValueError):
            PagingConfig(prefetch_pages=-1)

    def test_with_protocol_and_placement_return_copies(self):
        config = SystemConfig()
        other = config.with_protocol("software").with_placement("slow-only")
        assert other.protocol == "software"
        assert other.placement == "slow-only"
        assert config.protocol == "hatric"

    def test_translation_scaling(self):
        translation = TranslationConfig()
        doubled = translation.scaled(2)
        assert doubled.effective_l1_tlb == 2 * translation.l1_tlb_entries
        assert doubled.effective_l2_tlb == 2 * translation.l2_tlb_entries
        assert doubled.effective_ntlb == 2 * translation.ntlb_entries
        assert doubled.effective_mmu_cache == 2 * translation.mmu_cache_entries

    def test_memory_config_totals(self):
        memory = MemoryConfig(fast_frames=10, slow_frames=30)
        assert memory.total_frames == 40


#: Every section replaced by non-default values.
NON_DEFAULT_CONFIG = SystemConfig(
    num_cpus=3,
    protocol="unitd",
    placement="fast-only",
    hypervisor="xen",
    cache=CacheConfig(l1_size=8192, llc_latency=40),
    translation=TranslationConfig(l1_tlb_entries=32, size_scale=2),
    memory=MemoryConfig(fast_frames=512, slow_latency=300),
    paging=PagingConfig(policy="fifo", migration_daemon=False,
                        reserved_fast_fraction=0.1, defrag_interval=7),
    directory=CoherenceDirectoryConfig(capacity=None, fine_grained=True),
    costs=CostModel(ipi_send=777, lines_per_page=32),
    seed=9,
)


class TestConfigToDict:
    """``config_to_dict`` is ``dataclasses.asdict`` without its cost:
    equal values and key order, so no cache key moves."""

    @pytest.mark.parametrize(
        "config",
        [SystemConfig(), NON_DEFAULT_CONFIG]
        + [
            baseline_config(protocol=protocol, hypervisor=hypervisor)
            for protocol in sorted(PROTOCOLS)
            for hypervisor in ("kvm", "xen")
        ],
    )
    def test_equals_asdict_with_its_key_order(self, config):
        data = config_to_dict(config)
        reference = dataclasses.asdict(config)
        assert data == reference
        assert list(data) == list(reference)
        for name, value in reference.items():
            if isinstance(value, dict):
                assert list(data[name]) == list(value), name
                # a fresh dict per section, as asdict makes one
                assert data[name] is not config_to_dict(config)[name]

    def test_reads_declared_fields_only(self):
        config = SystemConfig()
        object.__setattr__(config.cache, "note", "not a field")
        assert "note" not in config_to_dict(config)["cache"]


class TestCostModel:
    def test_page_copy_derived_from_lines(self):
        costs = CostModel()
        assert costs.page_copy == costs.page_copy_per_line * costs.lines_per_page

    def test_scaled_multiplies_every_field(self):
        costs = CostModel()
        doubled = costs.scaled(2.0)
        assert doubled.vm_exit == 2 * costs.vm_exit
        assert doubled.ipi_send == 2 * costs.ipi_send

    def test_scaled_never_drops_below_one_cycle(self):
        costs = CostModel()
        tiny = costs.scaled(1e-9)
        assert tiny.cotag_search >= 1

    def test_with_overrides(self):
        costs = CostModel().with_overrides(vm_exit=9999)
        assert costs.vm_exit == 9999
        assert costs.ipi_send == CostModel().ipi_send

    def test_paper_cost_relationships(self):
        """Section 3.3: a VM exit (~1300 cycles) costs about twice a
        lightweight interrupt (~640 cycles)."""
        costs = CostModel()
        assert costs.vm_exit == pytest.approx(2 * costs.interrupt_handling, rel=0.05)


class TestStats:
    def test_runtime_is_critical_path(self):
        stats = MachineStats(num_cpus=3)
        stats.charge_cpu(0, 100)
        stats.charge_cpu(1, 300)
        stats.charge_cpu(2, 200)
        assert stats.runtime_cycles == 300
        assert stats.total_cycles == 600

    def test_coherence_cycles_tracked_separately(self):
        stats = MachineStats(num_cpus=2)
        stats.charge_cpu(0, 100)
        stats.charge_cpu(0, 50, coherence=True)
        assert stats.coherence_cycles == 50
        assert stats.cpus[0].busy_cycles == 150

    def test_background_cycles_do_not_affect_runtime(self):
        stats = MachineStats(num_cpus=1)
        stats.charge_cpu(0, 10)
        stats.charge_background(1000)
        assert stats.runtime_cycles == 10
        assert stats.background_cycles == 1000

    def test_reset_zeroes_everything(self):
        stats = MachineStats(num_cpus=2)
        stats.charge_cpu(0, 10)
        stats.count("some.event", 5)
        stats.charge_background(7)
        stats.reset()
        assert stats.runtime_cycles == 0
        assert stats.background_cycles == 0
        assert dict(stats.events) == {}

    def test_event_counter_and_summary(self):
        stats = MachineStats(num_cpus=1)
        stats.count("a")
        stats.count("a", 2)
        stats.count("b")
        assert stats.summary(["a"]) == {"a": 3}
        assert stats.summary()["b"] == 1

    def test_merge_events(self):
        stats = MachineStats(num_cpus=1)
        stats.count("x")
        stats.merge_events({"x": 2, "y": 5})
        assert stats.events["x"] == 3
        assert stats.events["y"] == 5

    def test_event_counter_add(self):
        counter = EventCounter()
        counter.add("k")
        counter.add("k", 4)
        assert counter["k"] == 5
