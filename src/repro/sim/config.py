"""System configuration dataclasses.

A :class:`SystemConfig` fully describes one simulated machine: CPU
count, cache and translation structure geometry, the two-tier memory,
the hypervisor paging policy, the coherence directory organisation and
the translation coherence protocol under test.

The default sizes are the paper's (Section 5.1) scaled down by a
constant factor so that synthetic workloads with megabyte-range
footprints exercise the same capacity ratios the paper exercised with
gigabyte-range footprints; see DESIGN.md for the substitution note.
"""

from __future__ import annotations

import dataclasses
import reprlib
from dataclasses import dataclass, field, replace
from typing import Any, Collection, Mapping, Optional

from repro.sim.costs import CostModel


#: Data placement modes (Figure 2): everything in slow DRAM, everything
#: in die-stacked DRAM, or hypervisor-paged between the two.
PLACEMENT_SLOW_ONLY = "slow-only"
PLACEMENT_FAST_ONLY = "fast-only"
PLACEMENT_PAGED = "paged"
PLACEMENTS = (PLACEMENT_SLOW_ONLY, PLACEMENT_FAST_ONLY, PLACEMENT_PAGED)

#: vCPU-to-pCPU placement models for consolidated guests.
VM_SHARING_PINNED = "pinned"
VM_SHARING_SHARED = "shared"
VM_SHARING_MODELS = (VM_SHARING_PINNED, VM_SHARING_SHARED)


@dataclass(frozen=True)
class GuestConfig:
    """One guest VM of a consolidated (multi-tenant) machine.

    Attributes:
        workload: per-guest workload name, resolvable by
            :func:`repro.workloads.make_workload` (suite names, ``mixNN``
            and ``syn:`` scenarios all work).
        vcpus: virtual CPUs the guest runs.
        mem_share: optional fraction of die-stacked DRAM the hypervisor
            lets this guest keep resident.  ``None`` (the default) means
            the guest competes in the shared global pool; a positive
            fraction caps its resident data pages at ``mem_share *
            fast_frames`` (static partitioning, enforced by evicting the
            guest's own oldest resident page first).
    """

    workload: str
    vcpus: int = 1
    mem_share: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.workload:
            raise ValueError("a guest needs a workload name")
        if "+" in self.workload or "@" in self.workload:
            raise ValueError(
                f"guest workload name {self.workload!r} may not contain "
                f"'+' or '@' (reserved by the multi: name grammar)"
            )
        if self.vcpus <= 0:
            raise ValueError("vcpus must be positive")
        if self.mem_share is not None and not 0.0 < self.mem_share <= 1.0:
            raise ValueError("mem_share must be in (0, 1] when given")


@dataclass(frozen=True)
class VmTopology:
    """Multi-tenant machine shape: N guests and how they map onto pCPUs.

    Attributes:
        guests: the consolidated guests, in vCPU-assignment order.
        sharing: vCPU-to-pCPU placement model.  ``"pinned"`` gives each
            guest a dedicated, consecutive block of physical CPUs (the
            total vCPU count must fit the machine); ``"shared"`` maps
            guest ``i``'s vCPU ``j`` onto pCPU ``j % num_cpus``, so
            guests time-share (oversubscribe) the same physical CPUs and
            a software shootdown aimed at one guest lands on CPUs whose
            translation structures also serve the others.

    The canonical :attr:`name` (``multi:wl[@vcpus[:share]]+...`` with a
    trailing ``+share=shared`` segment when not pinned) round-trips via
    :func:`repro.workloads.multi.parse_topology_name` and is what flows
    through :class:`~repro.api.request.RunRequest` for stable cache keys.
    """

    guests: tuple[GuestConfig, ...]
    sharing: str = VM_SHARING_PINNED

    def __post_init__(self) -> None:
        if not self.guests:
            raise ValueError("a topology needs at least one guest")
        if self.sharing not in VM_SHARING_MODELS:
            raise ValueError(
                f"unknown sharing model {self.sharing!r}; known: "
                f"{', '.join(VM_SHARING_MODELS)}"
            )
        shares = [g.mem_share for g in self.guests if g.mem_share is not None]
        if shares and sum(shares) > 1.0 + 1e-9:
            raise ValueError("guest mem_shares sum to more than 1.0")

    @property
    def num_guests(self) -> int:
        """Number of consolidated guests."""
        return len(self.guests)

    @property
    def total_vcpus(self) -> int:
        """Total virtual CPUs across all guests."""
        return sum(guest.vcpus for guest in self.guests)

    @property
    def name(self) -> str:
        """Canonical ``multi:`` workload name of this topology.

        Default fields are omitted, so equal topologies always produce
        equal names (and hence equal request cache keys).
        """
        segments = []
        for guest in self.guests:
            segment = guest.workload
            if guest.mem_share is not None:
                segment += f"@{guest.vcpus}:{guest.mem_share!r}"
            elif guest.vcpus != 1:
                segment += f"@{guest.vcpus}"
            segments.append(segment)
        if self.sharing != VM_SHARING_PINNED:
            segments.append(f"share={self.sharing}")
        return "multi:" + "+".join(segments)


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of the data cache hierarchy."""

    l1_size: int = 32 * 1024
    l1_associativity: int = 8
    l1_latency: int = 4
    l2_size: int = 256 * 1024
    l2_associativity: int = 8
    l2_latency: int = 12
    llc_size: int = 2 * 1024 * 1024
    llc_associativity: int = 16
    llc_latency: int = 38


@dataclass(frozen=True)
class TranslationConfig:
    """Sizes of the per-CPU translation structures.

    ``size_scale`` multiplies every structure, reproducing the paper's
    Figure 9 sweep (1x / 2x / 4x).
    """

    l1_tlb_entries: int = 64
    l2_tlb_entries: int = 512
    ntlb_entries: int = 32
    mmu_cache_entries: int = 48
    size_scale: int = 1
    cotag_bytes: int = 2

    def scaled(self, factor: int) -> "TranslationConfig":
        """Return a copy with ``size_scale`` replaced by ``factor``."""
        return replace(self, size_scale=factor)

    @property
    def effective_l1_tlb(self) -> int:
        """L1 TLB entries after applying the scale factor."""
        return self.l1_tlb_entries * self.size_scale

    @property
    def effective_l2_tlb(self) -> int:
        """L2 TLB entries after applying the scale factor."""
        return self.l2_tlb_entries * self.size_scale

    @property
    def effective_ntlb(self) -> int:
        """nTLB entries after applying the scale factor."""
        return self.ntlb_entries * self.size_scale

    @property
    def effective_mmu_cache(self) -> int:
        """MMU cache entries after applying the scale factor."""
        return self.mmu_cache_entries * self.size_scale


@dataclass(frozen=True)
class MemoryConfig:
    """Two-tier physical memory geometry.

    The paper models 2 GB of die-stacked DRAM and 8 GB of off-chip DRAM
    (a 1:4 capacity ratio) with a 4x bandwidth advantage for the stack.
    The defaults keep the 1:4 ratio at a scaled-down absolute size.
    """

    fast_frames: int = 2048
    slow_frames: int = 8192
    fast_latency: int = 110
    slow_latency: int = 220

    @property
    def total_frames(self) -> int:
        """Total addressable frames across both tiers."""
        return self.fast_frames + self.slow_frames


@dataclass(frozen=True)
class PagingConfig:
    """Hypervisor paging policy between the memory tiers.

    Mirrors Section 5.2: an LRU (CLOCK) or FIFO eviction policy,
    optionally augmented with a migration daemon that keeps a pool of
    free die-stacked frames, and optional prefetching of adjacent pages
    on a demand migration.
    """

    policy: str = "lru"
    migration_daemon: bool = True
    daemon_free_target: int = 64
    prefetch_pages: int = 2
    #: Fraction of die-stacked frames reserved for the hypervisor /
    #: page tables rather than guest data.
    reserved_fast_fraction: float = 0.05
    #: When positive, one resident page is remapped within die-stacked
    #: DRAM every ``defrag_interval`` data accesses, modelling memory
    #: compaction / superpage defragmentation activity (Figure 11 shows
    #: such workloads still benefit from HATRIC).  0 disables it.
    defrag_interval: int = 0

    def __post_init__(self) -> None:
        if self.policy not in ("lru", "fifo"):
            raise ValueError(f"unknown paging policy {self.policy!r}")
        if self.prefetch_pages < 0:
            raise ValueError("prefetch_pages must be >= 0")


@dataclass(frozen=True)
class CoherenceDirectoryConfig:
    """Coherence directory organisation (Section 4.2 and Figure 12)."""

    capacity: Optional[int] = 65536
    lazy_pt_sharer_updates: bool = True
    fine_grained: bool = False


@dataclass(frozen=True)
class SystemConfig:
    """Complete description of one simulated system."""

    num_cpus: int = 8
    protocol: str = "hatric"
    placement: str = PLACEMENT_PAGED
    hypervisor: str = "kvm"
    cache: CacheConfig = field(default_factory=CacheConfig)
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    paging: PagingConfig = field(default_factory=PagingConfig)
    directory: CoherenceDirectoryConfig = field(
        default_factory=CoherenceDirectoryConfig
    )
    costs: CostModel = field(default_factory=CostModel)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_cpus <= 0:
            raise ValueError("num_cpus must be positive")
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        if self.hypervisor not in ("kvm", "xen"):
            raise ValueError(f"unknown hypervisor {self.hypervisor!r}")

    def with_protocol(self, protocol: str) -> "SystemConfig":
        """Return a copy running a different translation coherence protocol."""
        return replace(self, protocol=protocol)

    def with_placement(self, placement: str) -> "SystemConfig":
        """Return a copy with a different data placement mode."""
        return replace(self, placement=placement)

    def replace(self, **changes) -> "SystemConfig":
        """Return a copy with arbitrary fields replaced."""
        return replace(self, **changes)


#: Section classes rebuilt by :func:`config_from_dict`, keyed by field.
_CONFIG_SECTIONS = {
    "cache": CacheConfig,
    "translation": TranslationConfig,
    "memory": MemoryConfig,
    "paging": PagingConfig,
    "directory": CoherenceDirectoryConfig,
    "costs": CostModel,
}


#: Field names of :class:`SystemConfig` and of each section, in
#: declaration order (the order ``dataclasses.asdict`` emits).
_SYSTEM_FIELDS = tuple(f.name for f in dataclasses.fields(SystemConfig))
_SECTION_FIELDS = {
    name: tuple(f.name for f in dataclasses.fields(section_cls))
    for name, section_cls in _CONFIG_SECTIONS.items()
}


def config_to_dict(config: SystemConfig) -> dict[str, Any]:
    """Serialize a :class:`SystemConfig` to plain JSON-compatible data.

    Equal to ``dataclasses.asdict(config)``, key order included, with a
    fresh dict per section.  Built directly from the declared fields
    because ``asdict`` costs most of a request's cache key; every field
    of the config and its sections is a scalar, so no deep copy is
    needed.

    Lives here (not in ``repro.api``) so the snapshot serializer in
    :mod:`repro.sim.snapshot` can use it without inverting the layering;
    :mod:`repro.api.request` re-exports it.
    """
    data: dict[str, Any] = {}
    for name in _SYSTEM_FIELDS:
        value = getattr(config, name)
        section = _SECTION_FIELDS.get(name)
        if section is not None:
            value = {key: getattr(value, key) for key in section}
        data[name] = value
    return data


def check_fields(
    data: Mapping[str, Any], known: Collection[str], what: str
) -> None:
    """Raise a ValueError naming every key of ``data`` outside ``known``.

    The request decoders call this, so a misspelt field (``refs`` for
    ``refs_total``) fails loudly instead of running the default.
    """
    if not isinstance(data, Mapping):
        raise TypeError(f"a {what} must be a mapping, not {type(data).__name__}")
    unknown = sorted(data.keys() - known)
    if unknown:
        named = ", ".join(f"{key}={reprlib.repr(data[key])}" for key in unknown)
        raise ValueError(f"unknown {what} field(s): {named}")


def config_from_dict(data: Mapping[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    kwargs: dict[str, Any] = dict(data)
    for name, section_cls in _CONFIG_SECTIONS.items():
        if name in kwargs and isinstance(kwargs[name], Mapping):
            kwargs[name] = section_cls(**kwargs[name])
    return SystemConfig(**kwargs)
