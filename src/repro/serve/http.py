"""A dependency-free asyncio HTTP/1.1 front-end for the service.

Minimal by design (the container bakes in no HTTP framework): all
bodies are JSON, and the one streaming route speaks server-sent events
(``text/event-stream``).  Connections are persistent: one connection
serves requests in order until the request says ``Connection: close``,
the request line is ``HTTP/1.0``, the reply says ``Connection: close``
(``/run/stream``, ``/metrics`` and every 4xx/5xx -- after an error the
framing state is unknown), or the connection waits longer than
:data:`IDLE_TIMEOUT_S` for its next request.  Routes:

* ``GET /healthz`` -- liveness + version.
* ``GET /stats`` -- the conservation-law counters and latency summary.
* ``GET /metrics`` -- the same counters as Prometheus text.
* ``POST /run`` -- one :class:`~repro.api.request.RunRequest`.
* ``POST /run/stream`` -- the same, streamed as SSE progress events.
* ``POST /sweep`` -- a :class:`~repro.api.sweep.Sweep` grid, returning
  cells plus a rendered figure table.
* ``POST /fleet`` -- one :class:`~repro.fleet.spec.FleetRequest`.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import time
from typing import Any, NamedTuple, Optional

from repro import __version__
from repro.experiments.output import sweep_table
from repro.serve.protocol import (
    ServiceError,
    parse_fleet_payload,
    parse_run_payload,
    parse_sweep_payload,
)
from repro.serve.service import SimulationService

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Sources counted as cache hits when classifying request latency.
HIT_SOURCES = ("memo", "disk")

#: Seconds a keep-alive connection may wait for its next request line
#: before the server closes it, so a silent client cannot pin one.
IDLE_TIMEOUT_S = 5.0


class _Reply(NamedTuple):
    """One complete response, sent in a single write."""

    status: int
    body: bytes
    content_type: str = "application/json"
    #: False when the connection must close after this reply.
    keep_alive: bool = True


def _json_reply(status: int, payload: Any) -> _Reply:
    """A JSON reply; error statuses close the connection."""
    return _Reply(status, json.dumps(payload).encode("utf-8"),
                  keep_alive=status < 400)


def _ok_body(event: bytes) -> bytes:
    """The ``/run`` and ``/fleet`` body: ``event`` (an encoded
    :meth:`SimulationService.result_event`) with ``"ok": true`` first.

    Byte-identical to ``json.dumps({"ok": True, **event_dict})``.
    """
    return b'{"ok": true, ' + event[1:]


def _head(status: int, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class ReproServer:
    """One listening socket wired to a :class:`SimulationService`."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        # connections waiting for their next request line: the ones
        # stop() closes itself
        self._idle: set[asyncio.StreamWriter] = set()
        # every open connection's handler task, busy or idle: the ones
        # stop() waits for
        self._handlers: dict[asyncio.Task, asyncio.StreamWriter] = {}

    async def start(self) -> tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``
        (``port=0`` requests an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.port = sockname[1]
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI's foreground mode), then stop.

        Not ``asyncio.Server.serve_forever``: cancelled, that waits for
        every connection to drop (on Python >= 3.12.1) before anything
        could close the idle keep-alive ones.
        """
        if self._server is None:
            await self.start()
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop listening and end every connection, then return.

        In order: stop listening, close the idle connections, abandon
        in-flight work (see service.close) so every busy request gets
        its 503 ``shutting-down`` reply or stream end, and wait for the
        connection handlers to finish.  A handler still busy after
        :data:`IDLE_TIMEOUT_S` (a client stalled mid-request) has its
        connection closed.  The same stop on every Python version: no
        handler is left for the loop's shutdown to cancel, and
        ``wait_closed`` (which on 3.12.1+ waits for every connection)
        finds none open.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        for writer in self._idle:
            writer.close()
        await self.service.close()
        if self._handlers:
            _, busy = await asyncio.wait(
                list(self._handlers), timeout=IDLE_TIMEOUT_S
            )
            for task in busy:
                self._handlers[task].close()
        if server is not None:
            await server.wait_closed()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers[task] = writer
        try:
            while await self._serve_one(reader, writer):
                pass
        finally:
            writer.close()
            with contextlib.suppress(OSError):
                await writer.wait_closed()
            del self._handlers[task]

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        """Read and answer one request; True keeps the connection open."""
        keep_alive = False
        try:
            method, path, body, keep_alive = await self._read_request(
                reader, writer
            )
            if self._server is None:
                # read while stop() ran: the service no longer admits it
                raise ServiceError(
                    503, "shutting-down", "the server is stopping"
                )
            reply = await self._dispatch(writer, method, path, body)
        except ServiceError as error:
            if error.status < 500:
                self.service.metrics.rejected += 1
            reply = _json_reply(error.status, error.to_dict())
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            return False  # client went away (or idled out) mid-request
        except Exception as error:  # noqa: BLE001 -- last-resort 500
            reply = _json_reply(
                500,
                {
                    "ok": False,
                    "error": {
                        "code": "internal-error",
                        "detail": f"{type(error).__name__}: {error}",
                    },
                },
            )
        if reply is None:
            return False  # a stream, which always closes
        # a stopping server closes each connection after its reply
        keep_alive = (
            keep_alive and reply.keep_alive and self._server is not None
        )
        await self._send(writer, reply, keep_alive)
        return keep_alive

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[str, str, bytes, bool]:
        """One request: ``(method, path, body, keep_alive)``, where
        ``keep_alive`` is whether the client lets the connection stay
        open after the reply."""
        # the idle clock runs until the request line arrives; one timer
        # handle, not a task per request
        idle = asyncio.get_running_loop().call_later(
            IDLE_TIMEOUT_S, writer.close
        )
        self._idle.add(writer)
        try:
            request_line = await self._read_line(reader)
        finally:
            idle.cancel()
            self._idle.discard(writer)
        # a connection closed while idle (timeout or stop) serves no
        # request that raced the close
        if not request_line or writer.is_closing():
            raise asyncio.IncompleteReadError(b"", None)
        parts = request_line.split()
        if len(parts) != 3:
            raise ServiceError(
                400, "invalid-request-line", repr(request_line)
            )
        method, path = parts[0].upper(), parts[1]
        keep_alive = parts[2] == "HTTP/1.1"
        content_length = 0
        while True:
            line = await self._read_line(reader)
            if not line:
                break
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                value = value.strip()
                if not value.isdecimal():
                    raise ServiceError(400, "invalid-content-length", value)
                content_length = int(value)
            elif name == "connection":
                tokens = {token.strip().lower() for token in value.split(",")}
                keep_alive = keep_alive and "close" not in tokens
        if content_length > self.service.settings.max_body_bytes:
            raise ServiceError(
                413,
                "payload-too-large",
                f"{content_length} bytes exceeds "
                f"{self.service.settings.max_body_bytes}",
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body, keep_alive

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> str:
        """One request or header line, stripped.

        A line longer than the stream's buffer limit is a client error,
        not a server failure.
        """
        try:
            line = await reader.readline()
        except ValueError as error:  # the buffer limit was overrun
            raise ServiceError(431, "line-too-long", str(error)) from None
        return line.decode("latin-1").strip()

    @staticmethod
    def _parse_json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServiceError(400, "invalid-json", str(error)) from error

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> Optional[_Reply]:
        """Route one request to its handler.

        Every handler returns its reply, except the stream, which
        writes its own and returns None.
        """
        routes = {
            ("GET", "/healthz"): self._get_healthz,
            ("GET", "/stats"): self._get_stats,
            ("GET", "/metrics"): self._get_metrics,
            ("POST", "/run"): functools.partial(
                self._post_unit, parse_run_payload, "run"
            ),
            ("POST", "/run/stream"): self._post_run_stream,
            ("POST", "/sweep"): self._post_sweep,
            ("POST", "/fleet"): functools.partial(
                self._post_unit, parse_fleet_payload, "fleet"
            ),
        }
        handler = routes.get((method, path))
        if handler is None:
            known_paths = {route_path for _, route_path in routes}
            if path in known_paths:
                raise ServiceError(
                    405, "method-not-allowed", f"{method} {path}"
                )
            raise ServiceError(404, "not-found", path)
        return await handler(writer, body)

    async def _get_healthz(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> _Reply:
        return _json_reply(200, {"ok": True, "version": __version__})

    async def _get_stats(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> _Reply:
        payload = self.service.stats_snapshot()
        payload["ok"] = True
        return _json_reply(200, payload)

    async def _get_metrics(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> _Reply:
        # scrapers read to EOF, so the exposition closes its connection
        return _Reply(
            200,
            self.service.metrics_exposition().encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            keep_alive=False,
        )

    async def _post_unit(
        self, parse, kind: str, writer: asyncio.StreamWriter, body: bytes
    ) -> _Reply:
        """One admitted run unit: ``POST /run`` or ``POST /fleet``."""
        request = parse(self._parse_json(body))
        started = time.perf_counter()
        try:
            source, result = await self.service.submit(request, kind=kind)
        except ServiceError:
            raise  # already structured (a stopping service's 503)
        except Exception as error:
            raise ServiceError(
                500, "execution-failed", f"{type(error).__name__}: {error}"
            ) from error
        self.service.metrics.record_latency(
            source, time.perf_counter() - started
        )
        return _Reply(200, _ok_body(self.service.result_event(
            request.cache_key, source, result
        )))

    async def _post_run_stream(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        request = parse_run_payload(self._parse_json(body))
        self.service.metrics.streams += 1
        queue: asyncio.Queue = asyncio.Queue()
        started = time.perf_counter()
        task = asyncio.ensure_future(
            self.service.submit(request, queue=queue)
        )
        writer.write(_head(
            200,
            {
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-store",
                "Connection": "close",
            },
        ))
        await writer.drain()
        try:
            while True:
                item = await queue.get()
                if item is None:
                    break
                event, data = item
                await self._send_event(writer, event, data)
        finally:
            # the run itself must survive this client disconnecting
            # (other subscribers may still await the shared future)
            try:
                source, _ = await asyncio.shield(task)
                self.service.metrics.record_latency(
                    source, time.perf_counter() - started
                )
            except Exception:
                pass  # already streamed as an ``error`` event

    async def _post_sweep(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> _Reply:
        sweep, scale = parse_sweep_payload(self._parse_json(body))
        try:
            result = await self.service.run_sweep(sweep, scale)
        except ServiceError:
            raise
        except Exception as error:
            raise ServiceError(
                500, "execution-failed", f"{type(error).__name__}: {error}"
            ) from error
        payload = {"ok": True, "sweep": result.to_dict()}
        payload["table"] = sweep_table(result)
        return _json_reply(200, payload)

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter, reply: _Reply, keep_alive: bool
    ) -> None:
        """Head and body in one write."""
        head = _head(
            reply.status,
            {
                "Content-Type": reply.content_type,
                "Content-Length": str(len(reply.body)),
                "Connection": "keep-alive" if keep_alive else "close",
            },
        )
        try:
            writer.write(head + reply.body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; the work (if any) is already stored

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: str, data: Any
    ) -> None:
        # the terminal ``result`` event arrives already encoded
        if not isinstance(data, bytes):
            data = json.dumps(data).encode("utf-8")
        writer.write(b"event: %s\ndata: %s\n\n" % (event.encode(), data))
        await writer.drain()


__all__ = ["HIT_SOURCES", "ReproServer"]
