"""Shared plumbing for the experiment harnesses.

Every figure is regenerated from the same ingredients: build a
:class:`~repro.sim.config.SystemConfig` for a (protocol, placement,
policy, ...) point, run a workload on it, and normalize runtimes /
energies against a baseline run.  This module centralises that plumbing
and the scaling knob that lets benchmarks run shortened traces.
"""

from __future__ import annotations

from typing import Optional

from repro.api.scale import ExperimentScale
from repro.sim.config import (
    PLACEMENT_FAST_ONLY,
    PLACEMENT_PAGED,
    PLACEMENT_SLOW_ONLY,
    PagingConfig,
    SystemConfig,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.workloads import make_workload
from repro.workloads.base import MultiprogrammedWorkload, Workload

__all__ = [
    "PAPER_WORKLOADS",
    "baseline_config",
    "inf_hbm_config",
    "no_hbm_config",
    "paging_config",
    "run_configuration",
]

#: The five big-memory workloads every per-workload figure sweeps.
PAPER_WORKLOADS = ("canneal", "data_caching", "graph500", "tunkrank", "facesim")


def baseline_config(
    num_cpus: int = 16,
    protocol: str = "hatric",
    placement: str = PLACEMENT_PAGED,
    hypervisor: str = "kvm",
    **overrides,
) -> SystemConfig:
    """The default system the paper evaluates (Section 5.1), scaled down.

    16 CPUs (one per vCPU), die-stacked plus off-chip DRAM at a 1:4
    capacity ratio, LRU paging with a migration daemon and prefetching.
    """
    config = SystemConfig(
        num_cpus=num_cpus,
        protocol=protocol,
        placement=placement,
        hypervisor=hypervisor,
    )
    if overrides:
        config = config.replace(**overrides)
    return config


def no_hbm_config(num_cpus: int = 16, **overrides) -> SystemConfig:
    """The ``no-hbm`` baseline: only off-chip DRAM is used."""
    return baseline_config(
        num_cpus=num_cpus,
        protocol="ideal",
        placement=PLACEMENT_SLOW_ONLY,
        **overrides,
    )


def inf_hbm_config(num_cpus: int = 16, **overrides) -> SystemConfig:
    """The ``inf-hbm`` upper bound: everything fits in die-stacked DRAM."""
    return baseline_config(
        num_cpus=num_cpus,
        protocol="ideal",
        placement=PLACEMENT_FAST_ONLY,
        **overrides,
    )


def run_configuration(
    config: SystemConfig,
    workload: Workload | MultiprogrammedWorkload | str,
    scale: Optional[ExperimentScale] = None,
    validate: bool = False,
) -> SimulationResult:
    """Run one workload on one configuration and return the result."""
    scale = scale or ExperimentScale()
    if isinstance(workload, str):
        workload = make_workload(workload)
    simulator = Simulator(config, validate=validate)
    return simulator.run(
        workload,
        warmup_fraction=scale.warmup_fraction,
        refs_total=scale.refs_for(workload),
    )


def paging_config(
    policy: str = "lru",
    migration_daemon: bool = True,
    prefetch_pages: int = 2,
    defrag_interval: int = 0,
) -> PagingConfig:
    """Convenience constructor for paging-policy sweeps (Figure 8)."""
    return PagingConfig(
        policy=policy,
        migration_daemon=migration_daemon,
        prefetch_pages=prefetch_pages,
        defrag_interval=defrag_interval,
    )
