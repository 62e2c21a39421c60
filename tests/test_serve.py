"""Protocol-level tests for the ``repro.serve`` service layer.

Pins the service contract at the wire level: validation failures are
structured 4xx (never stack-trace 500s), duplicate in-flight POSTs
coalesce to one execution, a server killed mid-run leaves the store
reusable, the ``/stats`` counters obey the conservation law
``hits + misses == requests``, connections persist by the keep-alive
rules, and reply bytes are exactly ``json.dumps`` of the payload.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import multiprocessing
import os
import signal
import threading
import time
import warnings
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.api.cache import decode_result, encode_result
from repro.api.request import RunRequest
from repro.api.session import Session, execute_request
from repro.experiments.runner import baseline_config
from repro.serve import ReproServer, ServiceClient, ServiceSettings, SimulationService
from repro.serve import http
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


@contextlib.contextmanager
def serve_in_thread(tmp_path):
    """A live server on its own event loop in a thread, so clients can
    outlive their loops and block theirs while the server runs."""
    started = threading.Event()
    state = {}

    async def main():
        service = SimulationService(
            ServiceSettings(cache_dir=tmp_path / "store", workers=0)
        )
        server = ReproServer(service)
        state["address"] = await server.start()
        state["loop"] = asyncio.get_running_loop()
        state["done"] = asyncio.Event()
        started.set()
        await state["done"].wait()
        await server.stop()

    thread = threading.Thread(target=asyncio.run, args=(main(),))
    thread.start()
    try:
        assert started.wait(30), "server thread did not start"
        yield state["address"]
    finally:
        if "loop" in state:
            state["loop"].call_soon_threadsafe(state["done"].set)
        thread.join(30)
        assert not thread.is_alive()


@pytest.fixture
def connections(monkeypatch):
    """Server-side connection counts: ``opened`` and ``closed``."""
    counts = {"opened": 0, "closed": 0}
    handle = ReproServer._handle

    async def counted(self, reader, writer):
        counts["opened"] += 1
        try:
            await handle(self, reader, writer)
        finally:
            counts["closed"] += 1

    monkeypatch.setattr(ReproServer, "_handle", counted)
    return counts


async def read_reply(reader) -> tuple[int, dict, bytes]:
    """One raw HTTP reply: ``(status, lower-cased headers, body)``."""
    status = int((await reader.readline()).split()[1])
    headers = {}
    while line := (await reader.readline()).decode("latin-1").strip():
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = headers.get("content-length")
    body = (
        await reader.readexactly(int(length))
        if length is not None
        else await reader.read()
    )
    return status, headers, body


async def server_closed(reader) -> bool:
    """True once the server closed the connection (FIN or reset)."""
    try:
        return await asyncio.wait_for(reader.read(), 10) == b""
    except ConnectionResetError:
        return True


def raw_request(method, path, body=b"", *, version="HTTP/1.1", extra=""):
    return (
        f"{method} {path} {version}\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


def run_body(request) -> bytes:
    return json.dumps({"request": request.to_dict()}).encode()


def expected_reply(key, source, result, ok=True) -> bytes:
    """What a reply must be, byte for byte: ``json.dumps`` of the
    payload dict, encoded afresh."""
    payload = {"ok": True} if ok else {}
    payload.update(key=key, source=source, result=encode_result(result))
    return json.dumps(payload).encode()


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

    @pytest.mark.parametrize(
        "head",
        [
            "POST /run HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            f"GET /{'x' * 70_000} HTTP/1.1\r\n\r\n",
            f"GET /healthz HTTP/1.1\r\nX-Pad: {'x' * 70_000}\r\n\r\n",
        ],
        ids=["negative-content-length", "long-request-line", "long-header"],
    )
    def test_malformed_framing_is_a_counted_4xx(self, tmp_path, head):
        # outside input that asyncio itself refuses (a negative read
        # size, a line past the 64 KiB stream limit) is a client error;
        # the framing state is then unknown, so the connection closes
        async def scenario():
            async with serve(tmp_path) as (client, service):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                writer.write(head.encode())
                await writer.drain()
                status, headers, _ = await read_reply(reader)
                assert 400 <= status < 500, status
                assert headers["connection"] == "close"
                assert await server_closed(reader)
                writer.close()
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


async def _kill_worker(known: set) -> set:
    """SIGKILL the one pool worker not in ``known``; wait until it is reaped.

    The pool reaps a dead worker only after marking itself broken, so
    once the pid is gone the pool's breakage is observable.  Returns the
    child pids seen, for the next call.
    """
    children = {child.pid for child in multiprocessing.active_children()}
    (pid,) = children - known
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return children
        await asyncio.sleep(0.05)
    raise AssertionError(f"killed worker {pid} was never reaped")


class TestDeadWorker:
    def test_dead_worker_fails_only_its_jobs(self):
        async def scenario():
            service = SimulationService(
                ServiceSettings(cache_dir=None, workers=1)
            )
            try:
                known = {c.pid for c in multiprocessing.active_children()}
                await service.submit(run_request(refs=1000))
                # a worker dying while idle breaks the pool before the
                # next submit: both later requests run on a fresh pool
                known = await _kill_worker(known)
                for protocol in ("software", "ideal"):
                    source, _ = await service.submit(
                        run_request(protocol, refs=1000)
                    )
                    assert source == "executed"
                assert service.metrics.errors == 0

                # a worker dying with a job inside fails that job only
                queue: asyncio.Queue = asyncio.Queue()
                task = asyncio.ensure_future(
                    service.submit(run_request(refs=30_000), queue=queue)
                )
                while (await asyncio.wait_for(queue.get(), 30))[0] != "started":
                    pass
                await _kill_worker(known)
                with pytest.raises(BrokenProcessPool):
                    await task
                event, data = await queue.get()
                assert (event, data["code"]) == ("error", "execution-failed")
                assert service.metrics.errors == 1
                source, _ = await service.submit(
                    run_request("unitd", refs=1000)
                )
                assert source == "executed"
                assert service.metrics.errors == 1
            finally:
                await service.close()

        asyncio.run(scenario())


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


class TestKeepAlive:
    def test_one_connection_serves_fifty_runs(self, tmp_path, connections):
        async def scenario():
            async with serve(tmp_path) as (client, service):
                payload = {"request": run_request().to_dict()}
                sources = []
                for _ in range(50):
                    status, body = await client.post("/run", payload)
                    assert status == 200
                    sources.append(body["source"])
                assert sources == ["executed"] + ["memo"] * 49
                _, stats = await client.get("/stats")
                assert stats["requests"] == 50
                assert stats["hits"] + stats["misses"] == stats["requests"]
                assert stats["memo_hits"] == 49 and stats["executed"] == 1
                assert stats["latency"]["hit"]["count"] == 49
                assert connections["opened"] == 1

        asyncio.run(scenario())

    def test_pipelined_requests_get_in_order_replies(self, tmp_path):
        first, second = run_request("software"), run_request("ideal")

        async def scenario():
            async with serve(tmp_path) as (client, _):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                writer.write(
                    raw_request("POST", "/run", run_body(first))
                    + raw_request("POST", "/run", run_body(second),
                                  extra="Connection: close\r\n")
                )
                await writer.drain()
                replies = [await read_reply(reader) for _ in range(2)]
                assert [json.loads(body)["key"] for _, _, body in replies] == [
                    first.cache_key, second.cache_key,
                ]
                assert [headers["connection"] for _, headers, _ in replies] == [
                    "keep-alive", "close",
                ]
                assert await server_closed(reader)
                writer.close()

        asyncio.run(scenario())

    def test_body_after_a_pause_is_served(self, tmp_path, monkeypatch):
        # the idle clock stops once the request line is in: a body that
        # arrives later than the idle timeout still gets its reply
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.2)
        body = run_body(run_request())

        async def scenario():
            async with serve(tmp_path) as (client, _):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                head, _, _ = raw_request("POST", "/run", body).partition(body)
                writer.write(head)
                await writer.drain()
                await asyncio.sleep(0.5)
                writer.write(body)
                await writer.drain()
                status, headers, reply = await read_reply(reader)
                assert status == 200 and json.loads(reply)["ok"] is True
                assert headers["connection"] == "keep-alive"
                writer.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "request_bytes, status",
        [
            (raw_request("GET", "/healthz", extra="Connection: close\r\n"),
             200),
            (raw_request("GET", "/healthz", version="HTTP/1.0"), 200),
            (raw_request("GET", "/nope"), 404),
            (raw_request("POST", "/run", b"{not json"), 400),
        ],
        ids=["connection-close", "http-1.0", "not-found", "invalid-json"],
    )
    def test_one_reply_then_eof(self, tmp_path, request_bytes, status):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                writer.write(request_bytes)
                await writer.drain()
                got, headers, _ = await read_reply(reader)
                assert (got, headers["connection"]) == (status, "close")
                assert await server_closed(reader)
                writer.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize("route", ["/run/stream", "/metrics"])
    def test_stream_and_metrics_close_their_connection(self, tmp_path, route):
        request = run_request()

        async def scenario():
            async with serve(tmp_path) as (client, _):
                await client.post("/run", {"request": request.to_dict()})
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                method = "POST" if route == "/run/stream" else "GET"
                body = run_body(request) if method == "POST" else b""
                writer.write(raw_request(method, route, body))
                await writer.drain()
                # both bodies end at EOF: the server must close
                data = await asyncio.wait_for(reader.read(), 10)
                head = data.split(b"\r\n\r\n", 1)[0].decode().lower()
                assert "connection: close" in head.splitlines()
                writer.close()

        asyncio.run(scenario())

    def test_idle_connection_closes_and_client_reconnects(
        self, tmp_path, monkeypatch, connections
    ):
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 0.2)

        async def scenario(host, port):
            client = ServiceClient(host, port)
            assert (await client.get("/healthz"))[0] == 200
            # block this loop (not the server's): the server closes the
            # pooled connection meanwhile, unseen by the client, whose
            # next request finds it dead and is sent once more
            deadline = time.monotonic() + 10
            while not connections["closed"] and time.monotonic() < deadline:
                time.sleep(0.01)
            assert connections["closed"] == 1
            status, body = await client.get("/healthz")
            assert status == 200 and body["ok"] is True
            assert connections["opened"] == 2

        with serve_in_thread(tmp_path) as (host, port):
            asyncio.run(scenario(host, port))


class TestShutdown:
    def test_stop_closes_idle_pooled_connections(
        self, tmp_path, monkeypatch, connections
    ):
        # the idle timeout must not be what ends them
        monkeypatch.setattr(http, "IDLE_TIMEOUT_S", 60.0)

        async def scenario():
            service = SimulationService(
                ServiceSettings(cache_dir=tmp_path / "store", workers=0)
            )
            server = ReproServer(service)
            host, port = await server.start()
            client = ServiceClient(host, port)
            await asyncio.gather(*[client.get("/healthz") for _ in range(3)])
            assert connections == {"opened": 3, "closed": 0}
            started = time.perf_counter()
            await asyncio.wait_for(server.stop(), 10)
            assert time.perf_counter() - started < 3
            assert connections["closed"] == 3

        asyncio.run(scenario())


class TestClientPool:
    def test_client_spans_event_loops_without_leaks(
        self, tmp_path, connections
    ):
        with serve_in_thread(tmp_path) as (host, port):
            client = ServiceClient(host, port)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", ResourceWarning)
                assert asyncio.run(client.get("/healthz"))[0] == 200
                # the first loop's shutdown closed its pooled connection
                deadline = time.monotonic() + 10
                while not connections["closed"] and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert connections == {"opened": 1, "closed": 1}
                assert asyncio.run(client.get("/healthz"))[0] == 200
                assert connections["opened"] == 2  # never carried over
                gc.collect()
            leaks = [w for w in caught if w.category is ResourceWarning]
            assert not leaks, [str(w.message) for w in leaks]

    def test_concurrent_requests_hold_their_own_connections(
        self, tmp_path, connections
    ):
        async def scenario():
            async with serve(tmp_path) as (client, _):
                await asyncio.gather(
                    *[client.get("/healthz") for _ in range(6)]
                )
                assert connections == {"opened": 6, "closed": 0}
                # the pool keeps no more than were in use at once, and
                # sequential requests reuse them
                for _ in range(10):
                    await client.get("/healthz")
                await asyncio.gather(
                    *[client.get("/healthz") for _ in range(4)]
                )
                assert connections == {"opened": 6, "closed": 0}

        asyncio.run(scenario())


class TestReplyBytes:
    """Every reply is byte-identical to ``json.dumps`` of its payload."""

    @staticmethod
    async def post_raw(host, port, path, body) -> bytes:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw_request("POST", path, body))
        await writer.drain()
        status, _, reply = await read_reply(reader)
        writer.close()
        assert status == 200, reply
        return reply

    def test_run_replies_for_every_source(self, tmp_path):
        request, raced = run_request("software"), run_request("ideal")
        key = request.cache_key

        async def first_server():
            async with serve(tmp_path) as (client, service):
                address = client.host, client.port
                executed = await self.post_raw(*address, "/run",
                                               run_body(request))
                result = service.session.peek(key)
                assert executed == expected_reply(key, "executed", result)
                memo = await self.post_raw(*address, "/run",
                                           run_body(request))
                assert memo == expected_reply(key, "memo", result)
                # a repeated hit replays the kept bytes, still exact
                again = await self.post_raw(*address, "/run",
                                            run_body(request))
                assert again == memo
                replies = await asyncio.gather(*[
                    self.post_raw(*address, "/run", run_body(raced))
                    for _ in range(2)
                ])
                sources = sorted(json.loads(r)["source"] for r in replies)
                assert sources == ["coalesced", "executed"]
                result = service.session.peek(raced.cache_key)
                assert sorted(replies) == sorted(
                    expected_reply(raced.cache_key, source, result)
                    for source in ("coalesced", "executed")
                )

        async def second_server():
            async with serve(tmp_path) as (client, service):
                disk = await self.post_raw(client.host, client.port, "/run",
                                           run_body(request))
                result = service.session.peek(key)
                assert disk == expected_reply(key, "disk", result)

        asyncio.run(first_server())
        asyncio.run(second_server())

    def test_fleet_reply(self, tmp_path):
        from repro.experiments.fleet import fleet_spec
        from repro.fleet.spec import FleetRequest

        request = FleetRequest(
            spec=fleet_spec(hosts=2, vms_per_host=1, num_cpus=2, epochs=2,
                            epoch_refs=512, storm_refs=64),
            protocol="hatric",
        )
        body = json.dumps({"request": request.to_dict()}).encode()

        async def scenario():
            async with serve(tmp_path) as (client, service):
                for source in ("executed", "memo"):
                    reply = await self.post_raw(client.host, client.port,
                                                "/fleet", body)
                    result = service.session.peek(request.cache_key)
                    assert reply == expected_reply(
                        request.cache_key, source, result
                    )

        asyncio.run(scenario())

    def test_stream_result_event_data(self, tmp_path):
        request = run_request()

        async def scenario():
            async with serve(tmp_path) as (client, service):
                await client.post("/run", {"request": request.to_dict()})
                reader, writer = await asyncio.open_connection(
                    client.host, client.port
                )
                writer.write(raw_request("POST", "/run/stream",
                                         run_body(request)))
                await writer.drain()
                _, _, events = await read_reply(reader)  # read to EOF
                writer.close()
                assert events == b"event: result\ndata: " + expected_reply(
                    request.cache_key, "memo",
                    service.session.peek(request.cache_key), ok=False,
                ) + b"\n\n"

        asyncio.run(scenario())
