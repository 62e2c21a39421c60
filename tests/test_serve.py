"""Protocol-level tests for the ``repro.serve`` service layer.

Pins the service contract at the wire level: validation failures are
structured 4xx (never stack-trace 500s), duplicate in-flight POSTs
coalesce to one execution, a server killed mid-run leaves the store
reusable, and the ``/stats`` counters obey the conservation law
``hits + misses == requests``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import pytest

from repro.api.cache import decode_result
from repro.api.request import RunRequest
from repro.api.session import Session, execute_request
from repro.experiments.runner import baseline_config
from repro.serve import ReproServer, ServiceClient, ServiceSettings, SimulationService
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


@contextlib.asynccontextmanager
async def serve(tmp_path, workers=0):
    """A live server on an ephemeral port, thread-pool execution."""
    service = SimulationService(
        ServiceSettings(cache_dir=tmp_path / "store", workers=workers)
    )
    server = ReproServer(service)
    host, port = await server.start()
    try:
        yield ServiceClient(host, port), service
    finally:
        await server.stop()


class TestProtocolErrors:
    def test_validation_errors_are_structured_4xx(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                cases = [
                    ("POST", "/run", b"{not json"),
                    ("POST", "/run", b"[1, 2]"),
                    ("POST", "/run", b"{}"),
                    ("POST", "/run", b'{"request": {"workload": 3}}'),
                    ("POST", "/run", b'{"request": {"config": {}}}'),
                    ("POST", "/sweep", b'{"axes": {}}'),
                    ("POST", "/sweep", b'{"axes": {"workload": []}}'),
                    ("POST", "/fleet", b'{"request": []}'),
                ]
                for method, path, body in cases:
                    try:
                        payload = json.loads(body)
                    except ValueError:
                        payload = None
                    if payload is None:
                        # raw bytes: go through the low-level writer
                        reader, writer = await asyncio.open_connection(
                            client.host, client.port
                        )
                        head = (
                            f"{method} {path} HTTP/1.1\r\n"
                            f"Content-Length: {len(body)}\r\n"
                            "Connection: close\r\n\r\n"
                        )
                        writer.write(head.encode() + body)
                        await writer.drain()
                        status_line = await reader.readline()
                        status = int(status_line.split()[1])
                        writer.close()
                    else:
                        status, data = await client.post(path, payload)
                        assert data["ok"] is False
                        assert "code" in data["error"], data
                    assert 400 <= status < 500, (path, body, status)

        asyncio.run(scenario())

    def test_unknown_workload_is_400(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                bad = run_request()
                payload = {"request": {**bad.to_dict(), "workload": "no-such"}}
                status, data = await client.post("/run", payload)
                assert status == 400
                assert data["error"]["code"] == "unknown-workload"

        asyncio.run(scenario())

    def test_unknown_route_and_method(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                status, data = await client.get("/nope")
                assert status == 404
                status, data = await client.get("/run")
                assert status == 405
                assert data["error"]["code"] == "method-not-allowed"

        asyncio.run(scenario())

    def test_oversized_body_is_413(self, tmp_path):
        async def scenario():
            service = SimulationService(ServiceSettings(
                cache_dir=tmp_path / "store", workers=0, max_body_bytes=64
            ))
            server = ReproServer(service)
            host, port = await server.start()
            try:
                client = ServiceClient(host, port)
                status, data = await client.post(
                    "/run", {"request": run_request().to_dict()}
                )
                assert status == 413
                assert data["error"]["code"] == "payload-too-large"
            finally:
                await server.stop()

        asyncio.run(scenario())

    @pytest.mark.parametrize("field", ["engine", "protocol"])
    def test_bad_fleet_engine_or_protocol_is_400(self, tmp_path, field):
        from repro.experiments.fleet import fleet_spec
        from repro.fleet.spec import FleetRequest

        spec = fleet_spec(hosts=2, vms_per_host=1, num_cpus=2, epochs=2,
                          epoch_refs=512, storm_refs=64)
        request = FleetRequest(spec=spec, protocol="hatric").to_dict()

        async def scenario():
            async with serve(tmp_path) as (client, service):
                status, data = await client.post(
                    "/fleet", {"request": {**request, field: "bogus"}}
                )
                assert status == 400
                assert data["error"]["code"] == "invalid-request"
                assert "'bogus'" in data["error"]["detail"]
                assert service.metrics.rejected == 1
                assert service.metrics.requests == 0

        asyncio.run(scenario())

    def test_rejections_do_not_count_as_requests(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, service):
                await client.post("/run", {"oops": 1})
                assert service.metrics.rejected == 1
                assert service.metrics.requests == 0

        asyncio.run(scenario())


class TestSingleFlight:
    def test_duplicate_inflight_posts_coalesce(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, service):
                request = run_request(refs=6000)
                payload = {"request": request.to_dict()}
                outcomes = await asyncio.gather(
                    *[client.post("/run", payload) for _ in range(6)]
                )
                sources = sorted(body["source"] for _, body in outcomes)
                assert sources.count("executed") == 1
                assert sources.count("coalesced") == 5
                fingerprints = {
                    json.dumps(
                        result_fingerprint(decode_result(body["result"])),
                        sort_keys=True,
                    )
                    for _, body in outcomes
                }
                assert len(fingerprints) == 1
                assert service.metrics.executed == 1
                assert service.metrics.coalesced == 5

        asyncio.run(scenario())

    def test_result_is_bit_identical_to_direct_execution(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                request = run_request(protocol="software")
                _, body = await client.post(
                    "/run", {"request": request.to_dict()}
                )
                assert result_fingerprint(
                    decode_result(body["result"])
                ) == result_fingerprint(execute_request(request))

        asyncio.run(scenario())

    def test_stats_counters_conserve(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, service):
                a = {"request": run_request(protocol="hatric").to_dict()}
                b = {"request": run_request(protocol="software").to_dict()}
                await client.post("/run", a)  # executed
                await client.post("/run", a)  # memo hit
                await asyncio.gather(  # executed + coalesced
                    client.post("/run", b), client.post("/run", b)
                )
                status, stats = await client.get("/stats")
                assert status == 200
                assert stats["requests"] == 4
                assert stats["hits"] + stats["misses"] == stats["requests"]
                assert stats["hits"] == stats["memo_hits"] + stats["disk_hits"]
                assert stats["misses"] == (
                    stats["coalesced"] + stats["executed"]
                )
                assert stats["executed"] == 2
                assert stats["errors"] == 0
                assert stats["latency"]["hit"]["count"] == 1
                assert stats["latency"]["miss"]["count"] == 3

        asyncio.run(scenario())

    def test_disk_hit_after_restart(self, tmp_path):
        request = run_request()

        async def first():
            async with serve(tmp_path) as (client, _):
                _, body = await client.post(
                    "/run", {"request": request.to_dict()}
                )
                assert body["source"] == "executed"

        async def second():
            async with serve(tmp_path) as (client, _):
                _, body = await client.post(
                    "/run", {"request": request.to_dict()}
                )
                assert body["source"] == "disk"

        asyncio.run(first())
        asyncio.run(second())


class TestRestartMidRun:
    def test_restart_mid_run_leaves_store_reusable(self, tmp_path):
        request = run_request(refs=30_000)

        async def interrupted():
            service = SimulationService(ServiceSettings(
                cache_dir=tmp_path / "store", workers=0
            ))
            server = ReproServer(service)
            host, port = await server.start()
            client = ServiceClient(host, port)
            task = asyncio.ensure_future(
                client.post("/run", {"request": request.to_dict()})
            )
            # let the request reach the execution pool, then kill the
            # server while the simulation is in flight
            while not service.metrics.executed:
                await asyncio.sleep(0.01)
            await server.stop()
            task.cancel()
            with contextlib.suppress(
                asyncio.CancelledError, RuntimeError, Exception
            ):
                await task

        asyncio.run(interrupted())

        async def after_restart():
            async with serve(tmp_path) as (client, _):
                status, body = await client.post(
                    "/run", {"request": request.to_dict()}
                )
                assert status == 200
                # the interrupted run was never committed...
                assert body["source"] in ("executed", "disk")
                # ...and a rerun serves straight from the store
                status, body = await client.post(
                    "/run", {"request": request.to_dict()}
                )
                assert body["source"] == "memo"

        asyncio.run(after_restart())


class TestStreaming:
    def test_interval_events_match_collected_intervals(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                request = run_request(refs=8000, interval_refs=1024)
                events = []
                async for event, data in client.stream(
                    "/run/stream", {"request": request.to_dict()}
                ):
                    events.append((event, data))
                names = [event for event, _ in events]
                assert names[0] == "queued"
                assert names[1] == "started"
                assert names[-1] == "result"
                streamed = [
                    data for event, data in events if event == "interval"
                ]
                assert streamed, "expected live interval telemetry"
                result = decode_result(events[-1][1]["result"])
                assert [s.to_dict() for s in result.intervals] == streamed
                # streamed execution stays bit-identical too
                assert result_fingerprint(result) == result_fingerprint(
                    execute_request(request)
                )

        asyncio.run(scenario())

    def test_stream_of_cached_result_is_result_only(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                request = run_request(refs=4000, interval_refs=1024)
                await client.post("/run", {"request": request.to_dict()})
                events = [
                    event
                    async for event, _ in client.stream(
                        "/run/stream", {"request": request.to_dict()}
                    )
                ]
                assert events == ["result"]

        asyncio.run(scenario())


class TestCompositePayloads:
    def test_sweep_matches_direct_sweep(self, tmp_path):
        from repro.api import Sweep

        axes = {
            "protocol": ["software", "hatric"],
            "workload": [WORKLOAD],
        }

        async def scenario():
            async with serve(tmp_path) as (client, service):
                status, body = await client.post(
                    "/sweep",
                    {
                        "axes": axes,
                        "base": {"num_cpus": 2},
                        "normalize": {"protocol": "ideal"},
                    },
                )
                assert status == 200
                assert "table" in body and "sweep" in body
                return body

        body = asyncio.run(scenario())
        from repro.sim.config import SystemConfig

        direct = (
            Sweep(axes=axes, base=SystemConfig(num_cpus=2))
            .normalize_to(protocol="ideal")
            .run(Session())
        )
        served = {
            tuple(cell["coords"].items()): cell["normalized_runtime"]
            for cell in body["sweep"]["cells"]
        }
        for cell in direct.cells:
            assert served[
                tuple(cell.coords.items())
            ] == pytest.approx(cell.normalized_runtime)

    def test_fleet_request_round_trips(self, tmp_path):
        from repro.experiments.fleet import fleet_spec
        from repro.fleet.spec import FleetRequest

        spec = fleet_spec(
            hosts=2,
            vms_per_host=1,
            num_cpus=2,
            epochs=2,
            epoch_refs=512,
            storm_refs=64,
        )
        request = FleetRequest(spec=spec, protocol="hatric", engine="fast")

        async def scenario():
            async with serve(tmp_path) as (client, _):
                status, body = await client.post(
                    "/fleet", {"request": request.to_dict()}
                )
                assert status == 200
                assert body["result"]["type"] == "fleet"
                assert body["source"] == "executed"
                status, body = await client.post(
                    "/fleet", {"request": request.to_dict()}
                )
                assert body["source"] == "memo"

        asyncio.run(scenario())

    def test_healthz(self, tmp_path):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                status, body = await client.get("/healthz")
                assert status == 200 and body["ok"] is True

        asyncio.run(scenario())
