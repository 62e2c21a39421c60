"""Shared rendering helpers for experiment CLI output.

Every experiment subcommand answers the same two questions -- "print a
table or JSON?" and "what exit code reflects the invariant verdict?" --
and the tables themselves are all fixed-width column grids with a
dashed rule under the header.  This module is the single place those
conventions live: ``consolidation``, ``timeline`` and ``fleet`` all
render through it, so their output stays structurally identical and a
new experiment gets the house style for free.  :func:`sweep_table` is
the one rendering of a sweep grid, shared by the CLI and the service.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Mapping, Optional, Sequence

#: Column alignments :func:`render_table` accepts.
ALIGNMENTS = ("left", "right")


def render_table(
    columns: Sequence[str],
    rows: Sequence[Sequence[Any]],
    aligns: Optional[Sequence[str]] = None,
    gap: str = "  ",
) -> str:
    """Render a fixed-width text table with a dashed header rule.

    ``columns`` are the header titles; every row needs one cell per
    column (cells are rendered with ``str``).  ``aligns`` gives one of
    ``"left"`` / ``"right"`` per column; the default -- first column
    left, the rest right -- is the label-plus-metrics shape every
    experiment table here has.  Trailing whitespace is stripped so a
    left-aligned last column (e.g. a sparkline bar) does not pad lines.
    """
    if aligns is None:
        aligns = ["left"] + ["right"] * (len(columns) - 1)
    if len(aligns) != len(columns):
        raise ValueError(
            f"got {len(aligns)} alignments for {len(columns)} columns"
        )
    for align in aligns:
        if align not in ALIGNMENTS:
            raise ValueError(f"unknown alignment {align!r}")
    cells = [[str(cell) for cell in row] for row in rows]
    for row in cells:
        if len(row) != len(columns):
            raise ValueError(
                f"row {row!r} has {len(row)} cells, expected {len(columns)}"
            )
    widths = [
        max(len(title), max((len(row[i]) for row in cells), default=0))
        for i, title in enumerate(columns)
    ]

    def _line(row: Sequence[str]) -> str:
        parts = [
            cell.ljust(width) if align == "left" else cell.rjust(width)
            for cell, width, align in zip(row, widths, aligns)
        ]
        return gap.join(parts).rstrip()

    header = _line(list(columns))
    lines = [header, "-" * len(header)]
    lines.extend(_line(row) for row in cells)
    return "\n".join(lines)


def sweep_table(grid) -> str:
    """Render a :class:`~repro.api.sweep.SweepResult` as a figure table.

    One row per grid point: its axis coordinates (left-aligned), then
    ``runtime_cycles`` and ``energy_total`` and, on a normalized sweep,
    the cell's ``normalized_runtime`` and ``normalized_energy``
    (right-aligned).  ``python -m repro sweep`` prints this table and
    ``POST /sweep`` returns it as ``table``.
    """
    axes = list(grid.axes)
    normalized = any(cell.baseline is not None for cell in grid.cells)
    columns = axes + ["runtime_cycles", "energy_total"]
    if normalized:
        columns += ["normalized_runtime", "normalized_energy"]
    rows = []
    for cell in grid.cells:
        row = [cell.coords[axis] for axis in axes]
        row += [cell.result.runtime_cycles, f"{cell.result.energy_total:.1f}"]
        if normalized:
            row += [
                f"{cell.normalized_runtime:.4f}",
                f"{cell.normalized_energy:.4f}",
            ]
        rows.append(row)
    aligns = ["left"] * len(axes) + ["right"] * (len(columns) - len(axes))
    return render_table(columns, rows, aligns)


def violations_footer(violations: Mapping[str, Sequence[str]]) -> list[str]:
    """The invariant-verdict footer every differential table ends with.

    ``violations`` maps a shape name to its violation descriptions; an
    all-empty mapping renders the single OK line, anything else renders
    one ``VIOLATION`` line per offense.
    """
    flat = [
        (name, violation)
        for name, offenses in violations.items()
        for violation in offenses
    ]
    if not flat:
        return ["differential invariants: OK"]
    return [f"VIOLATION {name}: {violation}" for name, violation in flat]


def experiment_output(
    as_json: bool,
    payload: Callable[[], Any],
    table: Callable[[], str],
    ok: bool = True,
) -> tuple[str, int]:
    """The ``--json``/table contract shared by experiment subcommands.

    Returns ``(text, exit_code)``: the JSON payload (any JSON value,
    indent 2) when the user asked for it, the formatted table otherwise,
    and exit code 0 only when the run's invariants held.  ``payload`` and ``table`` are
    thunks so neither rendering is built unless chosen.
    """
    text = json.dumps(payload(), indent=2) if as_json else table()
    return text, 0 if ok else 1


__all__ = [
    "ALIGNMENTS",
    "experiment_output",
    "render_table",
    "sweep_table",
    "violations_footer",
]
