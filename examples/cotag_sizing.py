#!/usr/bin/env python3
"""Co-tag sizing study (a miniature Figure 11, right panel).

Sweeps HATRIC's co-tag width over 1, 2 and 3 bytes on one workload and
prints the performance/energy trade-off relative to the software
baseline.  Narrow co-tags alias (a remap invalidates unrelated cached
translations, forcing extra page walks); wide co-tags cost lookup and
static energy on every TLB access.  The paper picks 2 bytes.

Run with::

    python examples/cotag_sizing.py [workload]
"""

from __future__ import annotations

import sys

from repro.api import ExperimentScale
from repro.experiments.figure11 import format_figure11_right, run_figure11_right


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "graph500"
    result = run_figure11_right(
        workloads=[workload],
        cotag_sizes=(1, 2, 3),
        scale=ExperimentScale(trace_scale=0.5),
    )
    print(f"co-tag sizing on {workload} (relative to software coherence)")
    print(format_figure11_right(result))
    best = min(result.cells, key=lambda c: c.relative_runtime + c.relative_energy)
    print()
    print(
        f"best combined design point: {best.cotag_bytes}-byte co-tags "
        f"(runtime {best.relative_runtime:.3f}, energy {best.relative_energy:.3f})"
    )


if __name__ == "__main__":
    main()
