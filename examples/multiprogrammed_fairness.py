#!/usr/bin/env python3
"""Multiprogrammed fairness study (a miniature Figure 10).

Runs a few 16-application SPEC-like mixes inside one VM and shows how
software translation coherence lets one application's page migrations
slow every other application down (imprecise target identification),
while HATRIC leaves uninvolved applications alone.

Run with::

    python examples/multiprogrammed_fairness.py [num_mixes]
"""

from __future__ import annotations

import sys

from repro.api import ExperimentScale
from repro.experiments.figure10 import format_figure10, run_figure10


def main() -> None:
    num_mixes = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    result = run_figure10(
        num_mixes=num_mixes, scale=ExperimentScale(trace_scale=0.5)
    )
    print(format_figure10(result))
    print()
    worst_sw = max(o.slowest_runtime for o in result.series("sw"))
    worst_hatric = max(o.slowest_runtime for o in result.series("hatric"))
    print(
        f"worst slowdown of any application: {worst_sw:.2f}x under software "
        f"coherence vs {worst_hatric:.2f}x under HATRIC"
    )


if __name__ == "__main__":
    main()
