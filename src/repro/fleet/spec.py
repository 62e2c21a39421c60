"""Fleet descriptions and the seeded migration plan.

A :class:`FleetSpec` is a pure value: hosts, guests, epoch geometry and
a migration policy.  Everything downstream -- the trace, the migration
waves, the cache key -- is a deterministic function of it, which is what
makes fleet runs bit-identical across engines, processes and sessions.

The migration *plan* is computed here, before any simulation runs, from
placement state and a seeded RNG only.  It deliberately cannot observe
measured cycles: if the scheduler reacted to protocol-dependent timing,
the per-VM instruction streams would diverge between protocols and the
differential invariants (identical work, ideal <= all) would be
meaningless.  "Load" below is therefore *placed vCPUs*, a quantity every
protocol agrees on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.core.protocol import make_protocol
from repro.sim.config import GuestConfig
from repro.sim.engine import check_engine

#: Bumped when the fleet trace/plan construction changes in a way that
#: invalidates cached fleet results.  Independent of the single-machine
#: ``CACHE_SCHEMA_VERSION``: bumping this never invalidates plain runs.
FLEET_SCHEMA_VERSION = 1

#: Cache-key prefix for fleet results; keeps fleet entries disjoint from
#: the plain hex keys single-machine ``RunRequest`` objects produce.
FLEET_PREFIX = "fleet:"

MIGRATION_POLICIES = ("round-robin", "load-balance", "pack")


@dataclass(frozen=True)
class HostSpec:
    """One simulated host: the guests initially placed on it.

    Unlike :class:`VmTopology`, per-guest ``mem_share`` caps are
    rejected: fleet machines host *every* VM's address space (absent
    guests simply never execute), so static share caps keyed to one
    host's initial population would not mean what they say.
    """

    guests: tuple[GuestConfig, ...]

    def __post_init__(self) -> None:
        if not self.guests:
            raise ValueError("a HostSpec needs at least one guest")
        for guest in self.guests:
            if not isinstance(guest, GuestConfig):
                raise TypeError("HostSpec.guests must be GuestConfig instances")
            if guest.mem_share is not None:
                raise ValueError(
                    "mem_share caps are not supported on fleet hosts"
                )

    def to_dict(self) -> dict:
        return {
            "guests": [
                {"workload": g.workload, "vcpus": g.vcpus} for g in self.guests
            ]
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HostSpec":
        return cls(
            guests=tuple(
                GuestConfig(workload=g["workload"], vcpus=g.get("vcpus", 1))
                for g in data["guests"]
            )
        )


@dataclass(frozen=True)
class FleetSpec:
    """A whole cluster and its migration schedule, as one value.

    Attributes:
        hosts: initial guest placement, one :class:`HostSpec` per host.
        num_cpus: pCPUs per host (every host is identical hardware).
        seed: master seed; per-VM workload seeds and policy RNG draws
            are all mixed from it.
        policy: migration policy, one of :data:`MIGRATION_POLICIES`.
        epochs: round-aligned execution epochs; migrations happen
            between consecutive epochs (``epochs - 1`` waves).
        epoch_refs: base-workload references each vCPU retires per
            epoch; must be a positive multiple of the executors'
            32-reference interleave chunk so epoch boundaries land on
            round boundaries in both engines.
        storm_refs: per-stream length of each dirty-logging storm
            segment (source drain + destination re-touch); same
            round-alignment rule.
        intensity: VMs migrated per wave (the sweep axis of the
            ``fleet`` experiment).
    """

    hosts: tuple[HostSpec, ...]
    num_cpus: int = 8
    seed: int = 42
    policy: str = "round-robin"
    epochs: int = 4
    epoch_refs: int = 2048
    storm_refs: int = 512
    intensity: int = 1

    def __post_init__(self) -> None:
        if len(self.hosts) < 2:
            raise ValueError("a fleet needs at least two hosts")
        for host in self.hosts:
            if not isinstance(host, HostSpec):
                raise TypeError("FleetSpec.hosts must be HostSpec instances")
        if self.num_cpus < 1:
            raise ValueError("num_cpus must be positive")
        if self.policy not in MIGRATION_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; "
                f"expected one of {MIGRATION_POLICIES}"
            )
        if self.epochs < 2:
            raise ValueError("a fleet run needs at least two epochs")
        if self.epoch_refs <= 0 or self.epoch_refs % 32:
            raise ValueError(
                "epoch_refs must be a positive multiple of 32 "
                "(the executors' interleave chunk)"
            )
        if self.storm_refs <= 0 or self.storm_refs % 32:
            raise ValueError(
                "storm_refs must be a positive multiple of 32 "
                "(the executors' interleave chunk)"
            )
        if self.intensity < 1:
            raise ValueError("intensity must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    # ------------------------------------------------------------------
    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    @property
    def num_vms(self) -> int:
        return sum(len(host.guests) for host in self.hosts)

    @property
    def name(self) -> str:
        """Display name, e.g. ``fleet-2h8v-round-robin-x1``."""
        return (
            f"fleet-{self.num_hosts}h{self.num_vms}v-{self.policy}"
            f"-x{self.intensity}"
        )

    def initial_placement(self) -> list[int]:
        """Host index of each VM (VMs numbered host-major, guest-minor)."""
        placement: list[int] = []
        for host_index, host in enumerate(self.hosts):
            placement.extend([host_index] * len(host.guests))
        return placement

    def guest_configs(self) -> list[GuestConfig]:
        """All guests in global VM order (host-major)."""
        return [guest for host in self.hosts for guest in host.guests]

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "hosts": [host.to_dict() for host in self.hosts],
            "num_cpus": self.num_cpus,
            "seed": self.seed,
            "policy": self.policy,
            "epochs": self.epochs,
            "epoch_refs": self.epoch_refs,
            "storm_refs": self.storm_refs,
            "intensity": self.intensity,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetSpec":
        return cls(
            hosts=tuple(HostSpec.from_dict(h) for h in data["hosts"]),
            num_cpus=data.get("num_cpus", 8),
            seed=data.get("seed", 42),
            policy=data.get("policy", "round-robin"),
            epochs=data.get("epochs", 4),
            epoch_refs=data.get("epoch_refs", 2048),
            storm_refs=data.get("storm_refs", 512),
            intensity=data.get("intensity", 1),
        )


def _rng_pick(seed: int, epoch: int, slot: int, options: Sequence[int]) -> int:
    """Deterministic choice among ``options`` for one (epoch, slot) draw."""
    import numpy as np

    rng = np.random.default_rng((seed % 2**32, 401, epoch, slot))
    return options[int(rng.integers(0, len(options)))]


def migration_plan(spec: FleetSpec) -> list[list[tuple[int, int, int]]]:
    """The fleet's migration waves: ``plan[e]`` moves after epoch ``e``.

    Each wave is a list of ``(vm, source_host, destination_host)``
    triples, computed against the *evolving* placement (earlier moves in
    a wave are visible to later ones).  Pure function of the spec --
    never of simulation output -- see the module docstring for why.
    """
    guests = spec.guest_configs()
    placement = spec.initial_placement()
    num_vms = len(placement)
    plan: list[list[tuple[int, int, int]]] = []

    def host_load(host: int) -> int:
        return sum(
            guests[vm].vcpus for vm in range(num_vms) if placement[vm] == host
        )

    for epoch in range(spec.epochs - 1):
        wave: list[tuple[int, int, int]] = []
        moved: set[int] = set()
        for slot in range(spec.intensity):
            vm: Optional[int] = None
            dst: Optional[int] = None
            if spec.policy == "round-robin":
                vm = (epoch * spec.intensity + slot) % num_vms
                dst = (placement[vm] + 1) % spec.num_hosts
            elif spec.policy == "load-balance":
                loads = [host_load(h) for h in range(spec.num_hosts)]
                src = max(range(spec.num_hosts), key=lambda h: (loads[h], -h))
                dst = min(range(spec.num_hosts), key=lambda h: (loads[h], h))
                candidates = [
                    v
                    for v in range(num_vms)
                    if placement[v] == src and v not in moved
                ]
                if candidates:
                    vm = _rng_pick(spec.seed, epoch, slot, candidates)
            else:  # pack
                loads = [host_load(h) for h in range(spec.num_hosts)]
                occupied = [h for h in range(spec.num_hosts) if loads[h] > 0]
                if len(occupied) > 1:
                    src = min(occupied, key=lambda h: (loads[h], h))
                    dst = max(occupied, key=lambda h: (loads[h], -h))
                    candidates = [
                        v
                        for v in range(num_vms)
                        if placement[v] == src and v not in moved
                    ]
                    if candidates:
                        vm = _rng_pick(spec.seed, epoch, slot, candidates)
            if vm is None or dst is None or placement[vm] == dst:
                continue
            wave.append((vm, placement[vm], dst))
            placement[vm] = dst
            moved.add(vm)
        plan.append(wave)
    return plan


@dataclass(frozen=True)
class FleetRequest:
    """A cacheable fleet simulation request (spec x protocol x engine).

    Mirrors :class:`repro.api.request.RunRequest`: the cache key hashes
    the full request payload plus both schema versions, but carries the
    ``fleet:`` prefix so fleet entries can never collide with (or be
    mistaken for) single-machine results on disk.
    """

    spec: FleetSpec
    protocol: str
    engine: str = ""
    _cache_key: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Reject a bad name here, where the caller can be told, rather
        # than when a worker builds the first machine.
        make_protocol(self.protocol)
        if self.engine != "":
            check_engine(self.engine)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "protocol": self.protocol,
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetRequest":
        return cls(
            spec=FleetSpec.from_dict(data["spec"]),
            protocol=data["protocol"],
            engine=data.get("engine", ""),
        )

    @property
    def cache_key(self) -> str:
        if self._cache_key is None:
            from repro.api.cache import CACHE_SCHEMA_VERSION

            payload = {
                "schema": CACHE_SCHEMA_VERSION,
                "fleet_schema": FLEET_SCHEMA_VERSION,
                **self.to_dict(),
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_cache_key", FLEET_PREFIX + digest)
        return self._cache_key


__all__ = [
    "FLEET_PREFIX",
    "FLEET_SCHEMA_VERSION",
    "MIGRATION_POLICIES",
    "FleetRequest",
    "FleetSpec",
    "HostSpec",
    "migration_plan",
]
