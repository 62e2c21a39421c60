"""Tests for the observability layer (``repro.obs``).

Pins the layer's three load-bearing promises:

* **Off by default, harmless when on.**  With ``REPRO_TRACE`` unset no
  tracer exists and no file is written; with it set, a traced run
  produces a valid Chrome ``trace_event`` stream while every simulation
  result stays bit-identical to the untraced run (``tests/test_cli.py``
  re-checks it end to end on full ``repro run --json`` output).
* **Conservation.**  Interval telemetry sums to final aggregates on
  fleet runs on both engines, and the serve layer's
  ``/metrics`` exposition agrees with the ``/stats`` JSON it mirrors.
* **Attribution is arithmetic.**  Cycle attribution rows are exact
  functions of event counters and the cost model, and sparklines
  resample by bucket maximum so spikes survive downsampling.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import re

import pytest

from repro.api.request import RunRequest
from repro.api.session import Session, execute_request
from repro.experiments.fleet import fleet_spec
from repro.experiments.profile import format_profile, run_profile
from repro.experiments.runner import baseline_config
from repro.experiments.timeline import format_timeline_chart
from repro.fleet.engine import _simulate_fleet
from repro.obs import log as obs_log
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    MetricsRegistry,
    STORE_METRIC_HELP,
    store_snapshot,
)
from repro.obs.profile import (
    SPARK_RAMP,
    cycle_attribution,
    interval_series,
    sparkline,
)
from repro.obs.trace import (
    active_tracer,
    export_chrome,
    load_events,
    summarize_events,
    tracing_enabled,
    validate_events,
)
from repro.serve import (
    ReproServer,
    ServiceClient,
    ServiceSettings,
    SimulationService,
)
from repro.sim.costs import CostModel
from repro.sim.engine import result_fingerprint
from repro.workloads.synthetic import scenario_spec

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

WORKLOAD = scenario_spec("steady", seed=11).name


def run_request(protocol="hatric", refs=2000, num_cpus=2, **kwargs) -> RunRequest:
    return RunRequest(
        config=baseline_config(num_cpus=num_cpus, protocol=protocol),
        workload=WORKLOAD,
        refs_total=refs,
        **kwargs,
    )


@pytest.fixture
def traced(tmp_path, monkeypatch):
    """Enable tracing to a temp file; restore the untraced default after."""
    path = tmp_path / "trace.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    os.environ.pop("_REPRO_TRACE_OWNER_PID", None)
    obs_trace.reset()
    yield path
    obs_trace.reset()
    os.environ.pop("_REPRO_TRACE_OWNER_PID", None)


@pytest.fixture
def untraced(monkeypatch):
    """Force the default (tracing off) state regardless of outer env."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    obs_trace.reset()
    yield
    obs_trace.reset()


# ----------------------------------------------------------------------
# tracer lifecycle
# ----------------------------------------------------------------------
class TestTracer:
    def test_off_by_default(self, untraced):
        assert active_tracer() is None
        assert not tracing_enabled()

    def test_enabled_via_env(self, traced):
        tracer = active_tracer()
        assert tracer is not None
        assert tracing_enabled()
        # resolved once: the same object comes back on every read
        assert active_tracer() is tracer
        # no file until the first event is written
        assert not traced.exists()

    def test_event_stream_is_valid_chrome_trace(self, traced, tmp_path):
        tracer = active_tracer()
        start = tracer.now()
        tracer.complete("unit.span", "test", start, detail=3)
        tracer.instant("unit.mark", "test")
        tracer.counter("unit.level", "test", depth=2)
        tracer.close()

        events = load_events(str(traced))
        validate_events(events)
        assert [e["ph"] for e in events] == ["X", "i", "C"]
        assert events[0]["args"] == {"detail": 3}
        assert events[1]["s"] == "t"

        out = tmp_path / "chrome.json"
        assert export_chrome(str(traced), str(out)) == 3
        with open(out, encoding="utf-8") as stream:
            payload = json.load(stream)
        assert payload["traceEvents"] == events
        assert payload["displayTimeUnit"] == "ms"

        summary = summarize_events(events)
        assert summary["events"] == 3
        assert summary["names"]["unit.span"]["count"] == 1

    def test_validate_rejects_malformed_events(self):
        with pytest.raises(ValueError, match="missing required key"):
            validate_events([{"name": "x"}])
        with pytest.raises(ValueError, match="unknown phase"):
            validate_events(
                [{"name": "x", "cat": "t", "ph": "Z", "ts": 0, "pid": 1, "tid": 0}]
            )
        with pytest.raises(ValueError, match="dur"):
            validate_events(
                [{"name": "x", "cat": "t", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]
            )

    def test_traced_session_run_emits_expected_spans(self, traced):
        session = Session()
        session.run(run_request())
        obs_trace.reset()  # close the stream before reading

        events = load_events(str(traced))
        validate_events(events)
        names = {event["name"] for event in events}
        assert "session.plan_batch" in names
        assert "session.execute" in names
        assert "session.store_result" in names
        assert "session.collect" in names
        assert "sim.run" in names
        plan = next(e for e in events if e["name"] == "session.plan_batch")
        assert plan["args"]["requests"] == 1
        assert plan["args"]["pending"] == 1

    def test_traced_run_emits_interval_events(self, traced):
        session = Session()
        session.run(run_request(interval_refs=400))
        obs_trace.reset()

        events = load_events(str(traced))
        intervals = [e for e in events if e["name"] == "sim.interval"]
        assert intervals
        for event in intervals:
            assert event["args"]["end_refs"] > event["args"]["start_refs"]


# ----------------------------------------------------------------------
# bit-exactness: tracing must never perturb results
# ----------------------------------------------------------------------
class TestTracingIsObservationOnly:
    def test_fingerprint_identical_with_and_without_tracing(
        self, tmp_path, monkeypatch
    ):
        request = run_request(refs=2000, interval_refs=400)

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        obs_trace.reset()
        baseline = result_fingerprint(execute_request(request))

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        os.environ.pop("_REPRO_TRACE_OWNER_PID", None)
        obs_trace.reset()
        traced = result_fingerprint(execute_request(request))
        obs_trace.reset()
        os.environ.pop("_REPRO_TRACE_OWNER_PID", None)

        assert traced == baseline

    def test_fingerprint_identical_under_fastpath_validation(
        self, tmp_path, monkeypatch
    ):
        request = run_request(refs=1000)

        monkeypatch.delenv("REPRO_TRACE", raising=False)
        monkeypatch.delenv("REPRO_VALIDATE_FASTPATH", raising=False)
        obs_trace.reset()
        baseline = result_fingerprint(execute_request(request))

        monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "t.jsonl"))
        monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
        os.environ.pop("_REPRO_TRACE_OWNER_PID", None)
        obs_trace.reset()
        validated = result_fingerprint(execute_request(request))
        obs_trace.reset()
        os.environ.pop("_REPRO_TRACE_OWNER_PID", None)

        assert validated == baseline

    def test_cache_key_ignores_tracing(self, monkeypatch):
        request = run_request()
        key = request.cache_key
        monkeypatch.setenv("REPRO_TRACE", "anything.jsonl")
        assert run_request().cache_key == key


# ----------------------------------------------------------------------
# satellite 3: fleet interval conservation across engines
# ----------------------------------------------------------------------
class TestFleetIntervalConservation:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_per_epoch_intervals_sum_to_host_aggregates(self, engine):
        spec = fleet_spec(
            hosts=2,
            vms_per_host=2,
            num_cpus=4,
            epochs=3,
            epoch_refs=1024,
            storm_refs=64,
            intensity=1,
        )
        # requests run the fast engine; the reference leg runs the
        # fleet's machines directly
        result, _ = _simulate_fleet(spec, "software", engine)
        assert result.hosts
        for host in result.hosts:
            intervals = host["intervals"]
            assert len(intervals) == spec.epochs
            for field in (
                "busy_cycles",
                "coherence_cycles",
                "background_cycles",
                "instructions",
            ):
                assert sum(s[field] for s in intervals) == host[field], field
            assert sum(s["energy"] for s in intervals) == pytest.approx(
                host["energy"]
            )
            summed: dict = {}
            for sample in intervals:
                for name, delta in sample["events"].items():
                    summed[name] = summed.get(name, 0) + delta
            assert summed == {k: v for k, v in host["events"].items() if v}


# ----------------------------------------------------------------------
# metrics registry + exposition format
# ----------------------------------------------------------------------
_SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (\+Inf|-?[0-9]+(\.[0-9]+([eE][+-]?[0-9]+)?)?)$"
)


def assert_prometheus_format(text: str) -> dict[str, float]:
    """Validate exposition text line by line; return unlabelled samples."""
    samples: dict[str, float] = {}
    assert text.endswith("\n")
    for line in text.strip().splitlines():
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            continue
        assert _SAMPLE_LINE.match(line), f"bad sample line: {line!r}"
        name, _, value = line.partition(" ")
        if "{" not in name:
            samples[name] = float(value)
    return samples


class TestMetricsRegistry:
    def test_render_groups_families_with_help_and_type(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", "jobs processed").inc(3)
        registry.gauge("depth", "queue depth").set(2)
        hist = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)

        text = registry.render()
        samples = assert_prometheus_format(text)
        assert samples["jobs_total"] == 3
        assert samples["depth"] == 2
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert samples["lat_seconds_count"] == 3
        assert "# HELP jobs_total jobs processed" in text
        assert "# TYPE jobs_total counter" in text
        assert "# TYPE depth gauge" in text
        assert "# TYPE lat_seconds histogram" in text

    def test_registering_same_name_twice_returns_one_instance(self):
        registry = MetricsRegistry()
        first = registry.counter("a_total", "a")
        assert registry.counter("a_total", "a") is first
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a_total", "a")

    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        counter = registry.counter("a_total", "a")
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_labelled_series_share_one_family(self):
        registry = MetricsRegistry()
        registry.counter("x_total", "x", labels={"kind": "a"}).inc(1)
        registry.counter("x_total", "x", labels={"kind": "b"}).inc(2)
        text = registry.render()
        assert text.count("# TYPE x_total counter") == 1
        assert 'x_total{kind="a"} 1' in text
        assert 'x_total{kind="b"} 2' in text

    def test_store_snapshot_covers_canonical_names(self, tmp_path):
        session = Session(cache_dir=tmp_path / "c", checkpoints=True)
        snapshot = store_snapshot(
            session.disk_cache, session.checkpoint_store
        )
        assert set(snapshot) == set(STORE_METRIC_HELP)
        assert all(isinstance(v, int) for v in snapshot.values())


# ----------------------------------------------------------------------
# serve: /metrics endpoint and /stats agreement
# ----------------------------------------------------------------------
async def raw_get(host: str, port: int, path: str):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1"))
    await writer.drain()
    data = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError, OSError):
        pass
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, body.decode("utf-8")


class TestMetricsEndpoint:
    def test_metrics_format_and_stats_agreement(self, tmp_path):
        async def scenario():
            service = SimulationService(
                ServiceSettings(cache_dir=tmp_path / "store", workers=0)
            )
            server = ReproServer(service)
            host, port = await server.start()
            try:
                client = ServiceClient(host, port)
                payload = {"request": run_request().to_dict()}
                for _ in range(2):  # second one is a memo hit
                    status, body = await client.request("POST", "/run", payload)
                    assert status == 200 and body["ok"]

                status, headers, text = await raw_get(host, port, "/metrics")
                assert status == 200
                assert headers["content-type"].startswith(
                    "text/plain; version=0.0.4"
                )
                samples = assert_prometheus_format(text)

                _, stats = await client.request("GET", "/stats")
                # conservation law, on both surfaces, in agreement
                assert samples["repro_requests_total"] == stats["requests"] == 2
                assert (
                    samples["repro_requests_total"]
                    == samples["repro_memo_hits_total"]
                    + samples["repro_disk_hits_total"]
                    + samples["repro_coalesced_total"]
                    + samples["repro_executed_total"]
                )
                assert samples["repro_memo_hits_total"] == stats["memo_hits"]
                assert samples["repro_executed_total"] == stats["executed"]
                # scrape-time gauges from the service + store
                # (workers=0 settings fall back to the stream thread pool)
                assert samples["repro_workers"] > 0
                for name in STORE_METRIC_HELP:
                    assert f"repro_{name}" in samples
                assert (
                    samples["repro_store_entries"]
                    == stats["store"]["store_entries"]
                )
                # histogram counts match the recorded latencies
                assert (
                    'repro_request_latency_seconds_bucket{class="hit",le="+Inf"} 1'
                    in text
                )
                assert (
                    'repro_request_latency_seconds_bucket{class="miss",le="+Inf"} 1'
                    in text
                )
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_stats_store_section_uses_canonical_names(self, tmp_path):
        async def scenario():
            service = SimulationService(
                ServiceSettings(cache_dir=tmp_path / "store", workers=0)
            )
            server = ReproServer(service)
            host, port = await server.start()
            try:
                _, stats = await ServiceClient(host, port).request(
                    "GET", "/stats"
                )
                assert set(stats["store"]) == set(STORE_METRIC_HELP)
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_traced_serve_request_emits_lifecycle_events(
        self, tmp_path, traced
    ):
        async def scenario():
            service = SimulationService(
                ServiceSettings(cache_dir=tmp_path / "store", workers=0)
            )
            server = ReproServer(service)
            host, port = await server.start()
            try:
                payload = {"request": run_request().to_dict()}
                status, body = await ServiceClient(host, port).request(
                    "POST", "/run", payload
                )
                assert status == 200 and body["ok"]
            finally:
                await server.stop()

        asyncio.run(scenario())
        obs_trace.reset()
        events = load_events(str(traced))
        names = [event["name"] for event in events]
        assert "serve.request" in names
        assert "serve.execute" in names
        request_event = next(
            e for e in events if e["name"] == "serve.request"
        )
        assert request_event["args"]["source"] == "executed"


# ----------------------------------------------------------------------
# profiling: attribution arithmetic, sparklines, report rendering
# ----------------------------------------------------------------------
class TestCycleAttribution:
    def test_modeled_rows_are_events_times_costs(self):
        costs = CostModel()
        events = {
            "coherence.remaps": 4,
            "coherence.ipis": 6,
            "coherence.vm_exits": 5,
            "coherence.full_flushes": 2,
            "paging.first_touch": 3,
            "paging.daemon_wakeups": 7,
        }
        rows = {
            row.component: row
            for row in cycle_attribution(
                events,
                busy_cycles=10_000,
                coherence_cycles=1_500,
                background_cycles=900,
                costs=costs,
            )
        }
        top = rows["translate+memory (TLB/L1/walker data path)"]
        assert top.cycles == 8_500 and top.basis == "measured"
        initiator = rows["shootdown initiator (IPIs + setup)"]
        assert initiator.cycles == 4 * costs.shootdown_setup + 6 * (
            costs.ipi_send + costs.ack_wait
        )
        assert initiator.basis == "modeled" and initiator.depth == 1
        target = rows["shootdown target (VM exits + flushes)"]
        assert target.cycles == 5 * (costs.vm_exit + costs.vm_entry) + 2 * (
            costs.full_translation_flush
        )
        assert rows["page copies"].cycles == 3 * costs.page_copy
        assert rows["daemon wakeups"].cycles == 7 * costs.daemon_wakeup
        assert rows["paging daemon (background)"].cycles == 900

    def test_missing_events_mean_zero(self):
        rows = cycle_attribution({}, 100, 0, 0)
        assert all(row.cycles == 0 for row in rows if row.basis == "modeled")


class TestSparkline:
    def test_empty_and_all_zero(self):
        assert sparkline([]) == ""
        assert sparkline([0, 0, 0]) == "   "

    def test_peak_maps_to_ramp_top(self):
        line = sparkline([0, 5, 10])
        assert line[0] == " "
        assert line[2] == SPARK_RAMP[-1]

    def test_nonzero_never_renders_blank(self):
        assert sparkline([1, 1000])[0] == SPARK_RAMP[1]

    def test_downsampling_keeps_spikes(self):
        values = [0.0] * 64
        values[17] = 9.0
        line = sparkline(values, width=8)
        assert SPARK_RAMP[-1] in line

    def test_shared_peak_scales_across_series(self):
        quiet = sparkline([1, 1], peak=10.0)
        assert set(quiet) == {SPARK_RAMP[1]}

    def test_interval_series_reads_fields_and_event_counters(self):
        class Sample:
            busy_cycles = 7
            events = {"coherence.ipis": 3}

        samples = [Sample(), Sample()]
        assert interval_series(samples, "busy_cycles") == [7.0, 7.0]
        assert interval_series(samples, "coherence.ipis") == [3.0, 3.0]
        assert interval_series(samples, "absent.counter") == [0.0, 0.0]


class TestProfileReport:
    @pytest.fixture(scope="class")
    def profile(self):
        return run_profile(
            workload=WORKLOAD,
            protocols=("software", "hatric"),
            num_cpus=2,
            refs_total=4000,
            intervals=4,
            session=Session(),
        )

    def test_report_renders_attribution_and_energy(self, profile):
        text = format_profile(profile)
        assert "translate+memory" in text
        assert "translation coherence" in text
        assert "energy component" in text
        assert "measured" in text and "modeled" in text
        assert "coherence activity |" in text

    def test_payload_is_json_compatible(self, profile):
        payload = profile.to_dict()
        roundtrip = json.loads(json.dumps(payload))
        for protocol in ("software", "hatric"):
            block = roundtrip["protocols"][protocol]
            assert block["runtime_cycles"] > 0
            assert block["attribution"]
            assert block["energy_components"]

    def test_chart_renders_one_row_per_series(self, profile):
        text = format_timeline_chart(profile.timeline)
        for label in ("coherence", "shootdowns", "remaps", "ramp:"):
            assert label in text
        rows = [line for line in text.splitlines() if "|" in line]
        widths = {line.index("|") for line in rows if "ramp" not in line}
        # sparkline columns line up within the report
        assert len({len(line.split("|")[1]) for line in rows[:4]}) == 1


# ----------------------------------------------------------------------
# logging knob
# ----------------------------------------------------------------------
class TestLogKnob:
    def test_level_env_var_controls_repro_parent(self, monkeypatch):
        try:
            monkeypatch.setenv("REPRO_LOG_LEVEL", "debug")
            obs_log.reset()
            logger = obs_log.get_logger("repro.test.child")
            assert logger.name == "repro.test.child"
            assert logging.getLogger("repro").level == logging.DEBUG

            # configuration is once-per-process until reset
            monkeypatch.setenv("REPRO_LOG_LEVEL", "error")
            obs_log.get_logger("repro.test.other")
            assert logging.getLogger("repro").level == logging.DEBUG
            obs_log.reset()
            obs_log.get_logger("repro.test.other")
            assert logging.getLogger("repro").level == logging.ERROR
        finally:
            monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
            obs_log.reset()
            obs_log.get_logger("repro")

    def test_default_level_is_warning_with_one_handler(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOG_LEVEL", raising=False)
        obs_log.reset()
        obs_log.get_logger("repro.test")
        obs_log.get_logger("repro.other")
        root = logging.getLogger("repro")
        assert root.level == logging.WARNING
        handlers = [
            h for h in root.handlers if isinstance(h, logging.StreamHandler)
        ]
        assert len(handlers) == 1
