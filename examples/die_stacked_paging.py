#!/usr/bin/env python3
"""Die-stacked DRAM paging study (a miniature Figure 2).

For one big-memory workload, compares:

* ``no-hbm``     -- off-chip DRAM only,
* ``inf-hbm``    -- everything in die-stacked DRAM (upper bound),
* ``curr-best``  -- hypervisor paging with software translation coherence,
* ``achievable`` -- the same paging with ideal (zero-cost) coherence,
* ``hatric``     -- the same paging with HATRIC.

Run with::

    python examples/die_stacked_paging.py [workload]
"""

from __future__ import annotations

import sys

from repro.api import ExperimentScale
from repro.experiments.figure2 import run_figure2, format_figure2
from repro.experiments.runner import (
    baseline_config,
    no_hbm_config,
    run_configuration,
)


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "data_caching"
    scale = ExperimentScale(trace_scale=0.5)

    figure = run_figure2(workloads=[workload], num_cpus=16, scale=scale)
    print(format_figure2(figure))

    # Add the HATRIC bar the paper introduces in later figures.
    baseline = run_configuration(no_hbm_config(16), workload, scale)
    hatric = run_configuration(
        baseline_config(16, protocol="hatric"), workload, scale
    )
    row = figure.row(workload)
    print(f"{'(+ hatric)':<14}{hatric.normalized_runtime(baseline):>12.2f}")
    print()
    if row.regression_with_software():
        print(
            "With software coherence, die-stacked DRAM actually slows this "
            "workload down - the paper's data caching / tunkrank observation."
        )
    print(
        f"software coherence wastes "
        f"{row.normalized_runtime['curr-best'] - row.normalized_runtime['achievable']:.2f}x "
        "of no-hbm runtime; HATRIC reclaims almost all of it."
    )


if __name__ == "__main__":
    main()
