"""A small asyncio client for the serve protocol.

Requests travel on persistent HTTP/1.1 connections: each one checks out
an idle connection (or opens one) and returns it after a complete
keep-alive reply, so the pool never holds more idle connections than
were in use at once.  Connections belong to the event loop that opened
them and are closed when that loop shuts down; one client can serve
several ``asyncio.run`` calls in turn.  JSON bodies both ways, and an
async iterator over server-sent events for the streaming route, which
keeps a connection of its own.  Used by the load-test harness and the
protocol test suite; it is deliberately the *only* HTTP client in the
repo, so wire-format drift breaks tests instead of users.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, AsyncIterator, Optional

_Connection = tuple[asyncio.StreamReader, asyncio.StreamWriter]

#: The tasks that close each loop's pooled connections when asyncio's
#: shutdown cancels them.  The loop holds tasks weakly, and a client
#: may be dropped before its loop shuts down.
_POOL_CLOSERS: set[asyncio.Task] = set()


async def _close_at_shutdown(idle: list[_Connection]) -> None:
    """Wait until cancelled (the loop is shutting down), then close
    ``idle``."""
    try:
        await asyncio.get_running_loop().create_future()
    finally:
        for _, writer in idle:
            writer.close()
        idle.clear()


class ServiceClient:
    """Talks to one :class:`~repro.serve.http.ReproServer`."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._idle: list[_Connection] = []

    async def request(
        self,
        method: str,
        path: str,
        payload: Optional[Any] = None,
    ) -> tuple[int, Any]:
        """One round trip; returns ``(status, decoded JSON body)``.

        A reused connection that the server has closed meanwhile (EOF
        or a reset before any byte of the status line, as when it
        closed an idle connection) is replaced by a new one and the
        request sent once more.  Nothing else is retried.
        """
        message = self._message(method, path, payload, "keep-alive")
        reader, writer, reused = await self._checkout()
        try:
            try:
                status_line = await self._exchange(reader, writer, message)
            except (ConnectionResetError, BrokenPipeError):
                if not reused:
                    raise
                status_line = b""
            if not status_line and reused:
                writer.close()
                reader, writer = await asyncio.open_connection(
                    self.host, self.port
                )
                status_line = await self._exchange(reader, writer, message)
            status, headers, body = await self._read_response(
                reader, status_line
            )
        except BaseException:
            writer.close()
            raise
        if (
            headers.get("connection") == "keep-alive"
            and "content-length" in headers
        ):
            self._idle.append((reader, writer))
        else:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        return status, json.loads(body) if body else None

    async def stream(
        self, path: str, payload: Any
    ) -> AsyncIterator[tuple[str, Any]]:
        """POST and yield ``(event, data)`` SSE pairs until the server
        closes the stream."""
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            status_line = await self._exchange(
                reader, writer, self._message("POST", path, payload, "close")
            )
            status, headers = await self._read_head(reader, status_line)
            if "text/event-stream" not in headers.get("content-type", ""):
                body = await reader.read()
                raise RuntimeError(
                    f"expected an event stream, got status {status}: "
                    f"{body.decode('utf-8', 'replace')[:200]}"
                )
            event_name = None
            data_lines: list[str] = []
            while True:
                raw = await reader.readline()
                if not raw:
                    break
                line = raw.decode("utf-8").rstrip("\n")
                if not line:
                    if event_name is not None:
                        yield event_name, json.loads("\n".join(data_lines))
                    event_name, data_lines = None, []
                    continue
                if line.startswith("event:"):
                    event_name = line[len("event:"):].strip()
                elif line.startswith("data:"):
                    data_lines.append(line[len("data:"):].strip())
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------
    # convenience verbs
    # ------------------------------------------------------------------
    async def get(self, path: str) -> tuple[int, Any]:
        """``GET path``."""
        return await self.request("GET", path)

    async def post(self, path: str, payload: Any) -> tuple[int, Any]:
        """``POST path`` with a JSON body."""
        return await self.request("POST", path, payload)

    # ------------------------------------------------------------------
    # the connection pool
    # ------------------------------------------------------------------
    async def _checkout(
        self,
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        """An idle pooled connection of the running loop, or a new one;
        the flag says whether it was reused."""
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            # a previous loop's connections were closed at its shutdown
            # (or are unusable); never carry them over
            self._loop, self._idle = loop, []
            closer = loop.create_task(_close_at_shutdown(self._idle))
            _POOL_CLOSERS.add(closer)
            closer.add_done_callback(_POOL_CLOSERS.discard)
        if self._idle:
            reader, writer = self._idle.pop()
            return reader, writer, True
        reader, writer = await asyncio.open_connection(self.host, self.port)
        return reader, writer, False

    # ------------------------------------------------------------------
    # wire plumbing
    # ------------------------------------------------------------------
    def _message(
        self,
        method: str,
        path: str,
        payload: Optional[Any],
        connection: str,
    ) -> bytes:
        body = b""
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    @staticmethod
    async def _exchange(
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        message: bytes,
    ) -> bytes:
        """Send ``message``; return the raw status line (empty at EOF)."""
        writer.write(message)
        await writer.drain()
        return await reader.readline()

    @staticmethod
    async def _read_head(
        reader: asyncio.StreamReader, status_line: bytes
    ) -> tuple[int, dict[str, str]]:
        parts = status_line.decode("latin-1").strip().split(None, 2)
        if len(parts) < 2:
            raise RuntimeError(f"malformed status line {status_line!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return status, headers

    async def _read_response(
        self, reader: asyncio.StreamReader, status_line: bytes
    ) -> tuple[int, dict[str, str], bytes]:
        status, headers = await self._read_head(reader, status_line)
        length = headers.get("content-length")
        if length is not None:
            body = await reader.readexactly(int(length))
        else:
            body = await reader.read()
        return status, headers, body


__all__ = ["ServiceClient"]
