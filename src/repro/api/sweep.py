"""Declarative sweeps over the experiment design space.

The paper evaluates one cross-product grid — {protocol, placement,
paging policy, vCPU count, structure sizes} x workloads — and every
figure is a slice of it.  :class:`Sweep` owns that shape once: declare
the axes, optionally say which point on each slice is the normalization
baseline, and get back a :class:`SweepResult` grid with O(1)
``.value(**coords)`` lookups.

Axes whose names match :class:`~repro.sim.config.SystemConfig` fields
(``protocol``, ``placement``, ``hypervisor``, ``num_cpus``, ``paging``,
``translation``, ``directory``, ...) are applied automatically; every
other axis (``series``, ``policy``, ...) is interpreted by a
``configure`` callback.  Example::

    sweep = Sweep(
        axes={"protocol": ("software", "hatric", "ideal"),
              "workload": PAPER_WORKLOADS},
        base=SystemConfig(num_cpus=16),
    ).normalize_to(protocol="ideal", placement="slow-only")
    grid = sweep.run(session)
    grid.value(protocol="hatric", workload="canneal")  # normalized runtime

Baselines are expressed as coordinate overrides; because baseline
requests flow through the same :class:`~repro.api.session.Session` as
everything else, a baseline shared by many points (or many figures) is
simulated exactly once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Optional, Sequence

from repro.api.request import RunRequest
from repro.api.scale import ExperimentScale
from repro.api.session import Session, default_session
from repro.sim.config import SystemConfig
from repro.sim.simulator import SimulationResult
from repro.workloads import make_workload

#: Signature of the per-point config hook: receives the config after
#: automatic field mapping plus the full coordinate mapping.
ConfigureFn = Callable[[SystemConfig, Mapping[str, Any]], SystemConfig]


@dataclass
class SweepCell:
    """One grid point: its coordinates, result and baseline."""

    coords: dict[str, Any]
    result: SimulationResult
    baseline: Optional[SimulationResult] = None

    @property
    def normalized_runtime(self) -> float:
        """Runtime normalized to the baseline point (the paper's metric)."""
        if self.baseline is None:
            raise ValueError("sweep has no baseline; use .result directly")
        return self.result.normalized_runtime(self.baseline)

    @property
    def normalized_energy(self) -> float:
        """Energy normalized to the baseline point."""
        if self.baseline is None:
            raise ValueError("sweep has no baseline; use .result directly")
        return self.result.normalized_energy(self.baseline)


class SweepResult:
    """A fully-populated sweep grid with dict-indexed lookups."""

    def __init__(
        self, axes: Mapping[str, Sequence[Any]], cells: Sequence[SweepCell]
    ) -> None:
        """Index ``cells`` (one per coordinate combination) under ``axes``."""
        self.axes = {name: tuple(values) for name, values in axes.items()}
        self.cells = list(cells)
        self._index = {self._key(cell.coords): cell for cell in self.cells}

    def _key(self, coords: Mapping[str, Any]) -> tuple:
        unknown = set(coords) - set(self.axes)
        if unknown:
            raise KeyError(
                f"unknown coordinate(s) {sorted(unknown)}; sweep axes are "
                f"{tuple(self.axes)}"
            )
        try:
            return tuple(coords[name] for name in self.axes)
        except KeyError as missing:
            raise KeyError(
                f"coordinate {missing.args[0]!r} missing; sweep axes are "
                f"{tuple(self.axes)}"
            ) from None

    def cell(self, **coords: Any) -> SweepCell:
        """The grid cell at ``coords`` (every axis must be named)."""
        key = self._key(coords)
        try:
            return self._index[key]
        except KeyError:
            raise KeyError(coords) from None

    def result(self, **coords: Any) -> SimulationResult:
        """The raw :class:`SimulationResult` at ``coords``."""
        return self.cell(**coords).result

    def value(self, **coords: Any) -> float:
        """The headline metric at ``coords``.

        Normalized runtime when the sweep has a baseline, raw runtime
        cycles otherwise.
        """
        cell = self.cell(**coords)
        if cell.baseline is not None:
            return cell.normalized_runtime
        return float(cell.result.runtime_cycles)

    def __iter__(self) -> Iterator[SweepCell]:
        """Iterate over the grid's cells in axis declaration order."""
        return iter(self.cells)

    def __len__(self) -> int:
        """Number of cells (the product of the axis lengths)."""
        return len(self.cells)

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible summary of the grid (for the CLI)."""
        rows = []
        for cell in self.cells:
            row: dict[str, Any] = {
                "coords": dict(cell.coords),
                "runtime_cycles": cell.result.runtime_cycles,
                "energy_total": cell.result.energy_total,
            }
            if cell.baseline is not None:
                row["normalized_runtime"] = cell.normalized_runtime
                row["normalized_energy"] = cell.normalized_energy
            rows.append(row)
        return {"axes": {k: list(v) for k, v in self.axes.items()}, "cells": rows}


class Sweep:
    """A declarative cross-product of experiment axes.

    Args:
        axes: mapping of axis name to the values it sweeps.  The cross
            product of all axes is simulated.
        base: the starting :class:`SystemConfig` every point derives
            from (default: the paper's 16-CPU system).
        configure: hook customizing the config of each point; required
            when an axis name is neither a ``SystemConfig`` field nor
            the workload axis.
        workload_axis: the axis naming workloads (resolvable by
            :func:`repro.workloads.make_workload`).
    """

    def __init__(
        self,
        axes: Mapping[str, Sequence[Any]],
        base: Optional[SystemConfig] = None,
        configure: Optional[ConfigureFn] = None,
        workload_axis: str = "workload",
    ) -> None:
        if not axes:
            raise ValueError("a sweep needs at least one axis")
        self.axes: dict[str, tuple] = {}
        for name, values in axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            self.axes[name] = values
        self.base = base if base is not None else SystemConfig(num_cpus=16)
        self.configure = configure
        self.workload_axis = workload_axis
        self.baseline_overrides: dict[str, Any] = {}
        if workload_axis not in self.axes:
            raise ValueError(
                f"axes must include the workload axis {workload_axis!r}"
            )
        config_fields = set(SystemConfig.__dataclass_fields__)
        for name in self.axes:
            if name == workload_axis or name in config_fields:
                continue
            if configure is None:
                raise ValueError(
                    f"axis {name!r} is not a SystemConfig field; pass a "
                    f"configure callback to interpret it"
                )

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def normalize_to(self, **overrides: Any) -> "Sweep":
        """Return a sweep normalizing every point to an overridden sibling.

        Each point's baseline shares its coordinates except for the
        axes named here (e.g. ``normalize_to(series="no-hbm")``); the
        override values need not appear among the axis values.
        """
        if not overrides:
            raise ValueError("normalize_to needs at least one coordinate")
        clone = Sweep(
            axes=self.axes,
            base=self.base,
            configure=self.configure,
            workload_axis=self.workload_axis,
        )
        clone.baseline_overrides = dict(overrides)
        return clone

    def points(self) -> list[dict[str, Any]]:
        """All coordinate combinations, in axis declaration order."""
        names = list(self.axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self.axes.values())
        ]

    def config_for(self, coords: Mapping[str, Any]) -> SystemConfig:
        """Build the :class:`SystemConfig` of one grid point."""
        config = self.base
        config_fields = SystemConfig.__dataclass_fields__
        updates = {
            name: value
            for name, value in coords.items()
            if name != self.workload_axis and name in config_fields
        }
        if updates:
            config = config.replace(**updates)
        if self.configure is not None:
            config = self.configure(config, coords)
        return config

    def request_for(
        self, coords: Mapping[str, Any], scale: Optional[ExperimentScale] = None
    ) -> RunRequest:
        """Build the :class:`RunRequest` of one grid point."""
        scale = scale or ExperimentScale()
        workload = coords[self.workload_axis]
        return RunRequest(
            config=self.config_for(coords),
            workload=workload,
            warmup_fraction=scale.warmup_fraction,
            refs_total=scale.refs_for(make_workload(workload)),
        )

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def batch(self, scale: ExperimentScale) -> list[RunRequest]:
        """The grid's requests, then each point's baseline when normalizing.

        :meth:`run` executes it through a session; ``repro serve`` admits
        each request itself and hands the results to :meth:`assemble`.
        """
        points = self.points()
        batch = [self.request_for(coords, scale) for coords in points]
        if self.baseline_overrides:
            batch += [
                self.request_for({**coords, **self.baseline_overrides}, scale)
                for coords in points
            ]
        return batch

    def assemble(self, results: Sequence[SimulationResult]) -> SweepResult:
        """The sweep result of a :meth:`batch`'s results, in batch order."""
        points = self.points()
        cells = []
        for index, coords in enumerate(points):
            baseline = (
                results[len(points) + index] if self.baseline_overrides else None
            )
            cells.append(
                SweepCell(coords=coords, result=results[index], baseline=baseline)
            )
        return SweepResult(self.axes, cells)

    def run(
        self,
        session: Optional[Session] = None,
        scale: Optional[ExperimentScale] = None,
    ) -> SweepResult:
        """Simulate the grid through a session and return the result."""
        session = session if session is not None else default_session()
        scale = scale or ExperimentScale.from_environment()
        return self.assemble(session.run_batch(self.batch(scale)))
