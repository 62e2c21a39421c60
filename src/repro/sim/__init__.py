"""Simulation driver: configuration, cost model, statistics and the main loop."""

from repro.sim.config import (
    CacheConfig,
    CoherenceDirectoryConfig,
    MemoryConfig,
    PagingConfig,
    SystemConfig,
    TranslationConfig,
)
from repro.sim.costs import CostModel
from repro.sim.engine import (
    ENGINE_DEFAULT,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    FastPathMismatchError,
    resolve_engine,
)
from repro.sim.stats import EventCounter, MachineStats
from repro.sim.simulator import SimulationResult, Simulator

__all__ = [
    "CacheConfig",
    "CoherenceDirectoryConfig",
    "CostModel",
    "ENGINE_DEFAULT",
    "ENGINE_FAST",
    "ENGINE_REFERENCE",
    "ENGINES",
    "EventCounter",
    "FastPathMismatchError",
    "MachineStats",
    "MemoryConfig",
    "PagingConfig",
    "SimulationResult",
    "Simulator",
    "SystemConfig",
    "TranslationConfig",
    "resolve_engine",
]
