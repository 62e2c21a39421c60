"""Tests for the unified sweep/session API (:mod:`repro.api`)."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.api import (
    ExperimentScale,
    ResultCache,
    RunRequest,
    Session,
    Sweep,
    decode_result,
    encode_result,
    execute_request,
)
from repro.api.scale import SCALE_ENV_VAR
from repro.experiments import run_figure2, run_figure7
from repro.sim.config import (
    PagingConfig,
    SystemConfig,
    TranslationConfig,
    config_from_dict,
    config_to_dict,
)
from repro.workloads import make_workload
from repro.workloads.spec_mix import make_spec_mix

TINY = ExperimentScale(trace_scale=0.03)


def tiny_request(protocol: str = "hatric", workload: str = "facesim") -> RunRequest:
    return RunRequest(
        config=SystemConfig(num_cpus=4, protocol=protocol),
        workload=workload,
        refs_total=4000,
    )


class CountingExecutor:
    """Wraps :func:`execute_request`, counting executions per cache key."""

    def __init__(self) -> None:
        self.per_key: Counter[str] = Counter()

    def __call__(self, request: RunRequest):
        self.per_key[request.cache_key] += 1
        return execute_request(request)


class TestRunRequest:
    def test_equal_configs_share_identity_and_key(self):
        first = tiny_request()
        second = tiny_request()
        assert first == second
        assert hash(first) == hash(second)
        assert first.cache_key == second.cache_key

    def test_any_field_changes_the_key(self):
        base = tiny_request()
        assert tiny_request(protocol="software").cache_key != base.cache_key
        assert tiny_request(workload="canneal").cache_key != base.cache_key
        shorter = RunRequest(config=base.config, workload="facesim", refs_total=2000)
        assert shorter.cache_key != base.cache_key
        nested = RunRequest(
            config=base.config.replace(paging=PagingConfig(prefetch_pages=0)),
            workload="facesim",
            refs_total=4000,
        )
        assert nested.cache_key != base.cache_key

    def test_key_is_stable_hex(self):
        key = tiny_request().cache_key
        assert len(key) == 64
        assert all(c in "0123456789abcdef" for c in key)

    def test_round_trip(self):
        request = RunRequest(
            config=SystemConfig(
                num_cpus=4,
                protocol="software",
                translation=TranslationConfig(cotag_bytes=3),
            ),
            workload="canneal",
            warmup_fraction=0.1,
            refs_total=5000,
        )
        rebuilt = RunRequest.from_dict(request.to_dict())
        assert rebuilt == request
        assert rebuilt.cache_key == request.cache_key

    def test_config_round_trip(self):
        config = SystemConfig(num_cpus=4, hypervisor="xen")
        assert config_from_dict(config_to_dict(config)) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            RunRequest(config=SystemConfig(), workload="")  # trace needs workload
        with pytest.raises(ValueError):
            RunRequest(config=SystemConfig(), workload="canneal", experiment="bogus")
        with pytest.raises(ValueError):
            RunRequest(config=SystemConfig(), workload="canneal", warmup_fraction=1.0)
        with pytest.raises(ValueError):
            RunRequest(config=SystemConfig(), workload="canneal", refs_total=0)


class TestSession:
    def test_in_batch_dedup_executes_once(self):
        counting = CountingExecutor()
        session = Session(executor=counting)
        request = tiny_request()
        results = session.run_batch([request, tiny_request(), request])
        assert counting.per_key[request.cache_key] == 1
        assert results[0] is results[1] is results[2]
        assert session.stats.executed == 1
        assert session.stats.deduplicated == 2

    def test_memo_hits_across_batches(self):
        counting = CountingExecutor()
        session = Session(executor=counting)
        request = tiny_request()
        first = session.run(request)
        second = session.run(tiny_request())
        assert first is second
        assert counting.per_key[request.cache_key] == 1
        assert session.stats.memo_hits == 1
        assert request in session

    def test_disk_cache_round_trip(self, tmp_path):
        request = tiny_request()
        writer = Session(cache_dir=tmp_path)
        original = writer.run(request)
        assert writer.stats.executed == 1
        assert len(ResultCache(tmp_path)) == 1

        counting = CountingExecutor()
        reader = Session(cache_dir=tmp_path, executor=counting)
        cached = reader.run(tiny_request())
        assert not counting.per_key
        assert reader.stats.disk_hits == 1
        assert reader.stats.executed == 0
        assert cached.runtime_cycles == original.runtime_cycles
        assert cached.energy_total == pytest.approx(original.energy_total)
        assert cached.events == original.events
        assert cached.config == original.config
        assert cached.normalized_runtime(original) == pytest.approx(1.0)

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        request = tiny_request()
        Session(cache_dir=tmp_path).run(request)
        cache = ResultCache(tmp_path)
        cache.path_for(request.cache_key).write_text("{not json")
        session = Session(cache_dir=tmp_path)
        session.run(request)
        assert session.stats.executed == 1

    def test_result_encode_decode(self):
        request = tiny_request()
        result = execute_request(request)
        decoded = decode_result(encode_result(result))
        assert decoded.runtime_cycles == result.runtime_cycles
        assert decoded.stats.total_cycles == result.stats.total_cycles
        assert decoded.energy.total == pytest.approx(result.energy.total)

    def test_stale_schema_entry_is_a_miss(self, tmp_path):
        """Entries stamped by an older release are re-simulated, not returned."""
        import json

        from repro.api.request import CACHE_SCHEMA_VERSION

        request = tiny_request()
        Session(cache_dir=tmp_path).run(request)
        path = ResultCache(tmp_path).path_for(request.cache_key)

        for stale_stamp in (CACHE_SCHEMA_VERSION - 1, None):
            data = json.loads(path.read_text())
            assert data["schema"] == CACHE_SCHEMA_VERSION
            if stale_stamp is None:
                del data["schema"]  # releases predating the stamp
            else:
                data["schema"] = stale_stamp
            path.write_text(json.dumps(data))
            with pytest.raises(ValueError, match="schema"):
                decode_result(data)

            session = Session(cache_dir=tmp_path)
            session.run(tiny_request())
            assert session.stats.disk_hits == 0
            assert session.stats.executed == 1
            # The stale entry was overwritten with a current-schema one.
            assert json.loads(path.read_text())["schema"] == CACHE_SCHEMA_VERSION

    def test_parallel_matches_serial(self):
        requests = [
            tiny_request(protocol="software"),
            tiny_request(protocol="hatric"),
            tiny_request(protocol="ideal"),
        ]
        serial = Session().run_batch(requests)
        parallel = Session(max_workers=2).run_batch(requests)
        for s, p in zip(serial, parallel):
            assert p.runtime_cycles == s.runtime_cycles
            assert p.energy_total == pytest.approx(s.energy_total)
            assert p.events == s.events


class TestSweep:
    def sweep(self) -> Sweep:
        return Sweep(
            axes={
                "protocol": ("software", "hatric"),
                "workload": ("facesim",),
            },
            base=SystemConfig(num_cpus=4),
        )

    def test_value_and_result_lookup(self):
        grid = self.sweep().normalize_to(protocol="ideal").run(
            session=Session(), scale=TINY
        )
        assert len(grid) == 2
        value = grid.value(protocol="hatric", workload="facesim")
        assert value > 0
        cell = grid.cell(protocol="hatric", workload="facesim")
        assert cell.normalized_runtime == value
        assert grid.result(protocol="hatric", workload="facesim").workload == "facesim"

    def test_unnormalized_value_is_raw_runtime(self):
        grid = self.sweep().run(session=Session(), scale=TINY)
        cell = grid.cell(protocol="software", workload="facesim")
        assert grid.value(protocol="software", workload="facesim") == float(
            cell.result.runtime_cycles
        )
        with pytest.raises(ValueError):
            _ = cell.normalized_runtime

    def test_missing_coordinates_raise(self):
        grid = self.sweep().run(session=Session(), scale=TINY)
        with pytest.raises(KeyError):
            grid.value(protocol="software")
        with pytest.raises(KeyError):
            grid.value(protocol="bogus", workload="facesim")

    def test_unknown_coordinates_raise(self):
        grid = self.sweep().run(session=Session(), scale=TINY)
        with pytest.raises(KeyError, match="unknown coordinate"):
            grid.value(protocol="software", workload="facesim", policy="lru")

    def test_baseline_point_is_unity(self):
        grid = (
            self.sweep()
            .normalize_to(protocol="software")
            .run(session=Session(), scale=TINY)
        )
        assert grid.value(protocol="software", workload="facesim") == pytest.approx(
            1.0
        )

    def test_baseline_shared_by_points_runs_once(self):
        counting = CountingExecutor()
        session = Session(executor=counting)
        Sweep(
            axes={
                "protocol": ("software", "hatric", "ideal"),
                "workload": ("facesim",),
            },
            base=SystemConfig(num_cpus=4),
        ).normalize_to(protocol="ideal").run(session=session, scale=TINY)
        # ideal appears as a point and as every point's baseline: one run.
        assert all(count == 1 for count in counting.per_key.values())
        assert session.stats.executed == 3

    def test_unknown_axis_needs_configure(self):
        with pytest.raises(ValueError):
            Sweep(axes={"series": ("a",), "workload": ("facesim",)})

    def test_workload_axis_required(self):
        with pytest.raises(ValueError):
            Sweep(axes={"protocol": ("hatric",)})

    def test_to_dict(self):
        grid = self.sweep().normalize_to(protocol="ideal").run(
            session=Session(), scale=TINY
        )
        data = grid.to_dict()
        assert data["axes"]["protocol"] == ["software", "hatric"]
        assert len(data["cells"]) == 2
        assert "normalized_runtime" in data["cells"][0]


class TestCrossFigureDedup:
    def test_simulator_runs_once_per_unique_request(self):
        """Two figures sharing a session never re-run a request (acceptance)."""
        counting = CountingExecutor()
        session = Session(executor=counting)
        run_figure2(workloads=["facesim"], num_cpus=4, scale=TINY, session=session)
        executed_after_first = session.stats.executed
        run_figure7(
            workloads=["facesim"], vcpu_counts=[4], scale=TINY, session=session
        )
        # The simulator ran exactly once per unique RunRequest...
        assert all(count == 1 for count in counting.per_key.values())
        assert session.stats.executed == len(counting.per_key)
        # ...and figure7 reused figure2's runs: its no-hbm baseline and its
        # ideal series are figure2's "no-hbm" and "achievable" bars.
        new_runs = session.stats.executed - executed_after_first
        assert new_runs < 4  # fewer than its 3 series + 1 baseline
        assert session.stats.simulations_avoided > 0


class TestExperimentScaleValidation:
    def test_rejects_zero_and_negative(self):
        for bad in ("0", "-1", "-0.5"):
            os.environ[SCALE_ENV_VAR] = bad
            try:
                with pytest.raises(ValueError, match=SCALE_ENV_VAR):
                    ExperimentScale.from_environment()
            finally:
                del os.environ[SCALE_ENV_VAR]

    def test_rejects_non_finite_and_garbage(self):
        for bad in ("nan", "inf", "-inf", "fast", ""):
            os.environ[SCALE_ENV_VAR] = bad
            try:
                if bad == "":
                    assert ExperimentScale.from_environment() == ExperimentScale()
                else:
                    with pytest.raises(ValueError, match=SCALE_ENV_VAR):
                        ExperimentScale.from_environment()
            finally:
                del os.environ[SCALE_ENV_VAR]

    def test_constructor_validates_too(self):
        with pytest.raises(ValueError):
            ExperimentScale(trace_scale=0.0)
        with pytest.raises(ValueError):
            ExperimentScale(trace_scale=float("nan"))
        with pytest.raises(ValueError):
            ExperimentScale(warmup_fraction=1.0)

    def test_valid_environment_value(self):
        os.environ[SCALE_ENV_VAR] = "0.25"
        try:
            assert ExperimentScale.from_environment().trace_scale == 0.25
        finally:
            del os.environ[SCALE_ENV_VAR]


class TestWorkloadNaming:
    def test_mix_names_with_app_count(self):
        mix = make_workload("mix3x4")
        assert mix.multiprogrammed
        assert len(mix.specs) == 4
        reference = make_spec_mix(3, apps_per_mix=4)
        assert mix.app_names == reference.app_names

    def test_plain_mix_name_still_works(self):
        assert len(make_workload("mix00").specs) == 16

    def test_unknown_mix_suffix_rejected(self):
        with pytest.raises(ValueError):
            make_workload("mixfoo")

    def test_trailing_x_without_count_rejected(self):
        with pytest.raises(ValueError):
            make_workload("mix05x")

    def test_per_app_cycles_use_real_names(self):
        request = RunRequest(
            config=SystemConfig(num_cpus=4),
            workload="mix0x4",
            refs_total=4000,
        )
        result = execute_request(request)
        expected = make_spec_mix(0, apps_per_mix=4).app_names
        assert sorted(result.per_app_cycles) == sorted(expected)
        assert not any(name.startswith("app0") for name in result.per_app_cycles)


class TestCacheMissNarrowing:
    """Load paths swallow only decode/schema problems, never code bugs."""

    def _seed(self, tmp_path):
        import json

        request = tiny_request()
        Session(cache_dir=tmp_path).run(request)
        cache = ResultCache(tmp_path)
        path = cache.path_for(request.cache_key)
        return request, cache, path, json.loads(path.read_text())

    def test_future_schema_entry_is_counted_stale_not_deleted_data(
        self, tmp_path, caplog
    ):
        import json
        import logging

        from repro.api.cache import StaleSchemaError
        from repro.api.request import CACHE_SCHEMA_VERSION

        request, cache, path, data = self._seed(tmp_path)
        # a well-formed entry written by a *newer* release: extra keys,
        # higher schema stamp
        data["schema"] = CACHE_SCHEMA_VERSION + 1
        data["from_the_future"] = {"unknown": "layout"}
        path.write_text(json.dumps(data))
        with pytest.raises(StaleSchemaError):
            decode_result(data)
        with caplog.at_level(logging.WARNING, logger="repro.api.cache"):
            assert cache.get(request.cache_key) is None
        assert cache.stale_schema_misses == 1
        assert cache.decode_error_misses == 0
        assert any("stale schema" in record.message for record in caplog.records)

    def test_current_schema_decode_bug_propagates(self, tmp_path):
        import json

        request, cache, path, data = self._seed(tmp_path)
        # current schema stamp but a gutted body: this can only mean an
        # encoder/decoder bug (atomic writes rule out torn files), so it
        # must raise, not masquerade as a miss and get pruned away
        del data["stats"]
        path.write_text(json.dumps(data))
        with pytest.raises(KeyError):
            cache.get(request.cache_key)

    def test_corrupt_entry_counted_separately(self, tmp_path):
        request, cache, path, _ = self._seed(tmp_path)
        path.write_text("{torn")
        assert cache.get(request.cache_key) is None
        assert cache.decode_error_misses == 1
        assert cache.stale_schema_misses == 0


class TestPruneFailureAccounting:
    def test_unlink_failure_reported_as_failed_not_pruned(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        request = tiny_request()
        Session(cache_dir=tmp_path).run(request)
        cache = ResultCache(tmp_path)
        (tmp_path / "stale.json").write_text(
            '{"type": "simulation", "schema": -1}'
        )
        monkeypatch.setattr(
            Path,
            "unlink",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError("EPERM")),
        )
        stats = cache.prune()
        assert stats.removed == 0
        assert stats.failed == 1
        assert stats.kept == 1  # the healthy entry, and only it

    def test_checkpoint_store_counts_stale_schema(self, tmp_path):
        import json

        from repro.api.checkpoint import CheckpointStore

        store = CheckpointStore(tmp_path)
        bad = tmp_path / f"{'ab' * 32}-{1000:012d}.json"
        tmp_path.mkdir(exist_ok=True)
        bad.write_text(json.dumps({"cache_schema": -1, "executed_refs": 1000}))
        assert store.load(bad) is None
        assert store.stale_schema_misses == 1
        (tmp_path / "torn.json").write_text("{")
        assert store.load(tmp_path / "torn.json") is None
        assert store.decode_error_misses == 1


class TestBatchPlanning:
    """The planning/transport split behind run_batch and repro.serve."""

    def test_plan_classifies_every_source(self, tmp_path):
        from repro.api.session import (
            PLAN_DEDUP,
            PLAN_DISK,
            PLAN_MEMO,
            PLAN_PENDING,
        )

        seed = tiny_request(protocol="software")
        Session(cache_dir=tmp_path).run(seed)  # populate the disk store

        session = Session(cache_dir=tmp_path)
        memoized = tiny_request(protocol="ideal")
        session.run(memoized)
        cold = tiny_request(protocol="hatric")
        plan = session.plan_batch([memoized, cold, cold, seed])
        assert plan.sources == [PLAN_MEMO, PLAN_PENDING, PLAN_DEDUP, PLAN_DISK]
        assert plan.keys == [
            memoized.cache_key,
            cold.cache_key,
            cold.cache_key,
            seed.cache_key,
        ]
        assert list(plan.pending) == [cold.cache_key]
        # planning already settled the stats for the resolved items
        assert session.stats.memo_hits == 1
        assert session.stats.deduplicated == 1
        assert session.stats.disk_hits == 1

    def test_collect_requires_execution_of_pending(self):
        session = Session()
        request = tiny_request()
        plan = session.plan_batch([request])
        with pytest.raises(KeyError):
            session.collect(plan)
        session.store_result(
            request.cache_key, execute_request(request)
        )
        (result,) = session.collect(plan)
        assert session.peek(request.cache_key) is result
        assert session.stats.executed == 1

    def test_store_result_persists_to_disk(self, tmp_path):
        session = Session(cache_dir=tmp_path)
        request = tiny_request()
        session.store_result(request.cache_key, execute_request(request))
        assert ResultCache(tmp_path).get(request.cache_key) is not None
        # a fresh session answers from disk, not execution
        counting = CountingExecutor()
        reader = Session(cache_dir=tmp_path, executor=counting)
        reader.run(tiny_request())
        assert not counting.per_key

    def test_run_batch_equals_plan_then_collect(self):
        requests = [
            tiny_request(protocol="software"),
            tiny_request(protocol="hatric"),
            tiny_request(protocol="software"),
        ]
        direct = Session().run_batch([r for r in requests])

        session = Session()
        plan = session.plan_batch(requests)
        for key, request in plan.pending.items():
            session.store_result(key, execute_request(request))
        manual = session.collect(plan)
        assert [r.runtime_cycles for r in manual] == [
            r.runtime_cycles for r in direct
        ]
        assert manual[0] is manual[2]
