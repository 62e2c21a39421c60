"""Shared fixtures for the test suite.

Provides a small, fast system configuration plus helpers to build a
chip, a hypervisor and a bare-metal-ish single-VM environment without
going through the full :class:`~repro.sim.simulator.Simulator`.
"""

from __future__ import annotations

import pytest

from repro.core.cotag import CoTagScheme
from repro.core.protocol import make_protocol
from repro.cpu.chip import Chip
from repro.env import env_choice
from repro.sim.config import (
    CacheConfig,
    CoherenceDirectoryConfig,
    MemoryConfig,
    PagingConfig,
    SystemConfig,
    TranslationConfig,
)
from repro.sim.stats import MachineStats
from repro.virt.kvm import KvmHypervisor


def update_golden_requested() -> bool:
    """True when ``REPRO_UPDATE_GOLDEN`` asks to rewrite ``tests/golden/``.

    Parsed strictly, like every ``REPRO_*`` flag: ``0``/``false`` leave
    the committed snapshots alone, and a typo raises instead of
    rewriting them.
    """
    return env_choice(
        "REPRO_UPDATE_GOLDEN", "0", ("0", "false", "1", "true")
    ) in ("1", "true")


def small_config(**overrides) -> SystemConfig:
    """A 4-CPU system small enough for fast unit tests."""
    defaults = dict(
        num_cpus=4,
        protocol="hatric",
        cache=CacheConfig(
            l1_size=4 * 1024,
            l1_associativity=2,
            l2_size=16 * 1024,
            l2_associativity=4,
            llc_size=64 * 1024,
            llc_associativity=8,
        ),
        translation=TranslationConfig(
            l1_tlb_entries=16,
            l2_tlb_entries=64,
            ntlb_entries=8,
            mmu_cache_entries=12,
        ),
        memory=MemoryConfig(fast_frames=256, slow_frames=2048),
        paging=PagingConfig(
            policy="lru",
            migration_daemon=False,
            daemon_free_target=8,
            prefetch_pages=0,
        ),
        directory=CoherenceDirectoryConfig(capacity=4096),
    )
    defaults.update(overrides)
    return SystemConfig(**defaults)


@pytest.fixture
def config() -> SystemConfig:
    return small_config()


@pytest.fixture
def machine(config):
    """A bound (chip, stats, protocol, hypervisor, vm, process) bundle."""
    return build_machine(config)


class Machine:
    """Convenience bundle used by unit tests."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.protocol = make_protocol(config.protocol)
        self.stats = MachineStats(config.num_cpus)
        cotag_scheme = (
            CoTagScheme(config.translation.cotag_bytes)
            if self.protocol.uses_cotags
            else None
        )
        self.chip = Chip(
            config,
            self.stats,
            cotag_scheme=cotag_scheme,
            track_translation_sharers=self.protocol.tracks_translation_sharers,
        )
        self.protocol.bind(self.chip, self.stats, config.costs)
        self.hypervisor = KvmHypervisor(self.chip, config, self.protocol, self.stats)
        self.vm = self.hypervisor.create_vm(vcpu_pcpus=list(range(config.num_cpus)))
        self.process = self.vm.create_process()

    def touch(self, cpu: int, gvp: int, is_write: bool = False) -> int:
        """Translate and access one page on a CPU, handling faults.

        Returns the translated system physical page.
        """
        core = self.chip.core(cpu)
        for _ in range(4):
            outcome = core.translate(self.process, gvp, is_write)
            if outcome.fault is None:
                return outcome.spp
            if outcome.fault == "guest":
                self.process.ensure_guest_mapping(gvp)
            else:
                gpp = self.process.gpp_of(gvp)
                if gpp is None:
                    self.process.ensure_guest_mapping(gvp)
                    gpp = self.process.gpp_of(gvp)
                self.hypervisor.handle_nested_fault(self.process, gpp, cpu)
        raise RuntimeError(f"could not resolve gvp {gvp:#x}")


def build_machine(config: SystemConfig) -> Machine:
    """Build a :class:`Machine` bundle for a configuration."""
    return Machine(config)
