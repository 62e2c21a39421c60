"""A dependency-free asyncio HTTP/1.1 front-end for the service.

Minimal by design (the container bakes in no HTTP framework): every
connection carries one request and closes (``Connection: close``), all
bodies are JSON, and the one streaming route speaks server-sent events
(``text/event-stream``).  Routes:

* ``GET /healthz`` -- liveness + version.
* ``GET /stats`` -- the conservation-law counters and latency summary.
* ``POST /run`` -- one :class:`~repro.api.request.RunRequest`.
* ``POST /run/stream`` -- the same, streamed as SSE progress events.
* ``POST /sweep`` -- a :class:`~repro.api.sweep.Sweep` grid, returning
  cells plus a rendered figure table.
* ``POST /fleet`` -- one :class:`~repro.fleet.spec.FleetRequest`.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from typing import Any, Optional

from repro import __version__
from repro.experiments.output import render_table
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
}

#: Sources counted as cache hits when classifying request latency.
HIT_SOURCES = ("memo", "disk")


def _sweep_table(result) -> str:
    """Render a sweep grid as the CLI-style fixed-width figure table."""
    axes = list(result.axes)
    columns = axes + ["runtime_cycles", "energy_total"]
    has_baseline = any(cell.baseline is not None for cell in result.cells)
    if has_baseline:
        columns += ["norm_runtime", "norm_energy"]
    rows = []
    for cell in result.cells:
        row = [cell.coords[axis] for axis in axes]
        row += [cell.result.runtime_cycles, f"{cell.result.energy_total:.1f}"]
        if has_baseline:
            row += [
                f"{cell.normalized_runtime:.4f}",
                f"{cell.normalized_energy:.4f}",
            ]
        rows.append(row)
    aligns = ["left"] * len(axes) + ["right"] * (len(columns) - len(axes))
    return render_table(columns, rows, aligns)


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
        """Serve until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening and abandon in-flight work (see service.close)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                await self._dispatch(writer, method, path, body)
            except ServiceError as error:
                if error.status < 500:
                    self.service.metrics.rejected += 1
                await self._respond(writer, error.status, error.to_dict())
            except (
                asyncio.IncompleteReadError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                return  # client went away mid-request; nothing to answer
            except Exception as error:  # noqa: BLE001 -- last-resort 500
                await self._respond(
                    writer,
                    500,
                    {
                        "ok": False,
                        "error": {
                            "code": "internal-error",
                            "detail": f"{type(error).__name__}: {error}",
                        },
                    },
                )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes]:
        request_line = await self._read_line(reader)
        if not request_line:
            raise asyncio.IncompleteReadError(b"", None)
        parts = request_line.split()
        if len(parts) != 3:
            raise ServiceError(
                400, "invalid-request-line", repr(request_line)
            )
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await self._read_line(reader)
            if not line:
                break
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                value = value.strip()
                if not value.isdecimal():
                    raise ServiceError(400, "invalid-content-length", value)
                content_length = int(value)
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
        return method, path, body

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
    ) -> None:
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
        await handler(writer, body)

    async def _get_healthz(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        await self._respond(
            writer, 200, {"ok": True, "version": __version__}
        )

    async def _get_stats(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        payload = self.service.stats_snapshot()
        payload["ok"] = True
        await self._respond(writer, 200, payload)

    async def _get_metrics(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        text = self.service.metrics_exposition().encode("utf-8")
        try:
            await self._send_headers(
                writer,
                200,
                {
                    "Content-Type": "text/plain; version=0.0.4; charset=utf-8",
                    "Content-Length": str(len(text)),
                    "Connection": "close",
                },
            )
            writer.write(text)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # scraper went away; nothing to clean up

    async def _post_unit(
        self, parse, kind: str, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        """One admitted run unit: ``POST /run`` or ``POST /fleet``."""
        request = parse(self._parse_json(body))
        started = time.perf_counter()
        try:
            source, result = await self.service.submit(request, kind=kind)
        except Exception as error:
            raise ServiceError(
                500, "execution-failed", f"{type(error).__name__}: {error}"
            ) from error
        self.service.metrics.record_latency(
            source, time.perf_counter() - started
        )
        payload = {"ok": True}
        payload.update(self.service.result_event(
            request.cache_key, source, result
        ))
        await self._respond(writer, 200, payload)

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
        await self._send_headers(
            writer,
            200,
            {
                "Content-Type": "text/event-stream",
                "Cache-Control": "no-store",
                "Connection": "close",
            },
        )
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
    ) -> None:
        sweep, scale = parse_sweep_payload(self._parse_json(body))
        try:
            result = await self.service.run_sweep(sweep, scale)
        except Exception as error:
            raise ServiceError(
                500, "execution-failed", f"{type(error).__name__}: {error}"
            ) from error
        payload = {"ok": True, "sweep": result.to_dict()}
        payload["table"] = _sweep_table(result)
        await self._respond(writer, 200, payload)

    # ------------------------------------------------------------------
    # response plumbing
    # ------------------------------------------------------------------
    async def _send_headers(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        headers: dict[str, str],
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"))
        await writer.drain()

    async def _respond(
        self, writer: asyncio.StreamWriter, status: int, payload: Any
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        try:
            await self._send_headers(
                writer,
                status,
                {
                    "Content-Type": "application/json",
                    "Content-Length": str(len(body)),
                    "Connection": "close",
                },
            )
            writer.write(body)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; the work (if any) is already stored

    async def _send_event(
        self, writer: asyncio.StreamWriter, event: str, data: Any
    ) -> None:
        payload = json.dumps(data)
        writer.write(f"event: {event}\ndata: {payload}\n\n".encode("utf-8"))
        await writer.drain()


__all__ = ["HIT_SOURCES", "ReproServer"]
