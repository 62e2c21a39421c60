"""Smoke tests for the experiment harnesses (tiny scales).

Full-scale shape checks live in ``benchmarks/``; these tests only verify
that every harness runs end to end, produces the expected series, and
formats a table.
"""

import pytest

from repro.experiments import (
    format_anatomy,
    format_figure2,
    format_figure7,
    format_figure10,
    format_figure11_left,
    format_figure11_right,
    format_figure12,
    format_figure13,
    format_figure8,
    format_figure9,
    format_xen_study,
    run_anatomy,
    run_figure2,
    run_figure7,
    run_figure10,
    run_figure11_left,
    run_figure11_right,
    run_figure12,
    run_figure13,
    run_figure8,
    run_figure9,
    run_xen_study,
)
from repro.api import ExperimentScale
from repro.experiments.runner import (
    baseline_config,
    no_hbm_config,
    inf_hbm_config,
    paging_config,
    run_configuration,
)

TINY = ExperimentScale(trace_scale=0.03)


class TestRunnerHelpers:
    def test_baseline_configs(self):
        assert baseline_config().placement == "paged"
        assert no_hbm_config().placement == "slow-only"
        assert inf_hbm_config().placement == "fast-only"

    def test_paging_config_helper(self):
        cfg = paging_config(policy="fifo", migration_daemon=False, prefetch_pages=0)
        assert cfg.policy == "fifo"
        assert not cfg.migration_daemon

    def test_scale_refs_for(self):
        from repro.workloads import make_workload

        workload = make_workload("canneal")
        assert ExperimentScale().refs_for(workload) is None
        scaled = ExperimentScale(trace_scale=0.5).refs_for(workload)
        assert scaled == workload.spec.refs_total // 2

    def test_run_configuration_accepts_workload_names(self):
        result = run_configuration(
            baseline_config(num_cpus=4), "facesim", scale=TINY
        )
        assert result.runtime_cycles > 0


class TestFigureHarnesses:
    def test_figure2(self):
        result = run_figure2(workloads=["facesim"], num_cpus=4, scale=TINY)
        row = result.row("facesim")
        assert set(row.normalized_runtime) == {
            "no-hbm",
            "inf-hbm",
            "curr-best",
            "achievable",
        }
        assert "facesim" in format_figure2(result)

    def test_figure7(self):
        result = run_figure7(workloads=["facesim"], vcpu_counts=[4], scale=TINY)
        assert result.value("facesim", 4, "hatric") > 0
        assert "facesim" in format_figure7(result)

    def test_figure8(self):
        result = run_figure8(
            workloads=["facesim"], policies=["lru"], num_cpus=4, scale=TINY
        )
        assert result.value("facesim", "lru", "sw") > 0
        assert "lru" in format_figure8(result)

    def test_figure9(self):
        result = run_figure9(
            workloads=["facesim"], size_scales=[1], num_cpus=4, scale=TINY
        )
        assert result.value("facesim", 1, "ideal") > 0
        assert "facesim" in format_figure9(result)

    def test_figure10(self):
        result = run_figure10(num_mixes=1, apps_per_mix=4, scale=TINY)
        assert len(result.series("sw")) == 1
        assert len(result.series("hatric")) == 1
        assert 0 <= result.fraction_regressing("sw") <= 1
        assert "mix00" in format_figure10(result)

    def test_figure11_left(self):
        result = run_figure11_left(
            big_workloads=["facesim"],
            small_workloads=["swaptions"],
            num_cpus=4,
            scale=TINY,
        )
        assert len(result.points) == 2
        assert any(p.paged for p in result.points)
        assert "swaptions" in format_figure11_left(result)

    def test_figure11_left_small_override_follows_argument(self):
        from repro.experiments.figure11 import sweep_figure11_left

        # The defrag override tracks the small_workloads parameter, not
        # the module-level small-suite constant.
        as_small = sweep_figure11_left(
            big_workloads=(), small_workloads=("canneal",), num_cpus=4
        )
        config = as_small.config_for({"workload": "canneal", "series": "hatric"})
        assert config.paging.defrag_interval > 0
        as_big = sweep_figure11_left(
            big_workloads=("canneal",), small_workloads=(), num_cpus=4
        )
        config = as_big.config_for({"workload": "canneal", "series": "hatric"})
        assert config.paging.defrag_interval == 0

    def test_figure11_right(self):
        result = run_figure11_right(
            workloads=["facesim"], cotag_sizes=[2], num_cpus=4, scale=TINY
        )
        assert result.cell(2).relative_runtime > 0
        assert "2" in format_figure11_right(result)

    def test_figure12(self):
        result = run_figure12(
            workloads=["facesim"], designs=["hatric", "No-back-inv"], num_cpus=4, scale=TINY
        )
        assert result.cell("No-back-inv").relative_runtime > 0
        assert "No-back-inv" in format_figure12(result)

    def test_figure12_rejects_unknown_design(self):
        with pytest.raises(ValueError):
            run_figure12(workloads=["facesim"], designs=["bogus"], num_cpus=4, scale=TINY)

    def test_figure13(self):
        result = run_figure13(workloads=["facesim"], num_cpus=4, scale=TINY)
        cell = result.value("facesim", "unitd++")
        assert cell.normalized_runtime > 0
        assert "unitd++" in format_figure13(result)

    def test_xen_study(self):
        result = run_xen_study(workloads=["canneal"], num_cpus=4, scale=TINY)
        assert result.row("canneal").software_runtime > 0
        assert "canneal" in format_xen_study(result)

    def test_anatomy(self):
        result = run_anatomy(num_cpus=4)
        assert result.row("software").vm_exits == 3
        assert result.row("hatric").vm_exits == 0
        assert "mechanism" in format_anatomy(result)
