"""The single-flight execution core behind the HTTP front-end.

One :class:`SimulationService` owns a :class:`~repro.api.session.
Session` (the shared memo + disk store) and a bounded worker pool.  Its
contract, which the load-test layer proves at >=1000 concurrent
clients:

* every admitted run unit is classified exactly once -- ``memo``,
  ``disk``, ``coalesced`` or ``executed`` -- and N concurrent requests
  for the same cache key cost exactly one cold simulation (the rest
  await the same :class:`asyncio.Future`);
* results are bit-identical to direct :class:`Session` execution (the
  transport changes, the executor does not);
* progress events (``queued`` / ``started`` / ``interval`` / ``result``
  / ``error``) fan out to every subscriber queue of an in-flight key.

Cold work runs on a ``spawn`` process pool (``workers >= 1``) or an
in-process thread pool (``workers = 0``; also used for runs that
stream ``interval_refs`` telemetry, since a callback cannot cross a
process boundary -- the GIL makes a streamed run slower, not wrong).
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Union

from repro.api.cache import AnyResult, encode_result
from repro.api.request import RunRequest
from repro.api.scale import ExperimentScale
from repro.api.session import (
    PLAN_DISK,
    PLAN_MEMO,
    Session,
    _worker_pool,
    execute_request,
)
from repro.api.sweep import Sweep, SweepResult
from repro.obs.metrics import STORE_METRIC_HELP, store_snapshot
from repro.obs.trace import active_tracer
from repro.serve.metrics import ServiceMetrics
from repro.serve.protocol import MAX_BODY_BYTES, ServiceError

#: Default worker-process count for ``python -m repro serve``.
DEFAULT_WORKERS = 2

#: Threads for streamed (and ``workers=0``) execution.
STREAM_THREADS = 4


@dataclass(frozen=True)
class ServiceSettings:
    """Deployment knobs of one service instance."""

    #: result-store directory: a path, True (default location), or
    #: None for a memo-only (non-persistent) service.
    cache_dir: Union[None, bool, str, Path] = True
    #: cold-work process pool size; 0 runs everything on the in-process
    #: thread pool (fast startup -- the test suites use it).
    workers: int = DEFAULT_WORKERS
    #: reject request bodies larger than this many bytes (413).
    max_body_bytes: int = MAX_BODY_BYTES


def wire_result(result: AnyResult) -> bytes:
    """``json.dumps(encode_result(result))`` as bytes, encoded once.

    The bytes are kept in the result's ``__dict__`` (the way
    ``RunRequest.cache_key`` keeps its digest), so they live exactly as
    long as the result -- for a hit, as long as the session memo holds
    it -- and every later hit on it replays them.  The service never
    changes a result once it is stored, so the bytes cannot go stale.
    """
    encoded = result.__dict__.get("_wire")
    if encoded is None:
        encoded = json.dumps(encode_result(result)).encode("utf-8")
        result.__dict__["_wire"] = encoded
    return encoded


@dataclass
class _Job:
    """One in-flight cold execution and its subscribers."""

    future: asyncio.Future
    queues: list[asyncio.Queue] = field(default_factory=list)


class SimulationService:
    """Single-flight, metered execution of request payloads."""

    def __init__(self, settings: Optional[ServiceSettings] = None) -> None:
        self.settings = settings or ServiceSettings()
        self.session = Session(cache_dir=self.settings.cache_dir)
        self.metrics = ServiceMetrics()
        self._inflight: dict[str, _Job] = {}
        # strong refs: a bare ensure_future() task may be collected
        # mid-flight (asyncio holds tasks weakly)
        self._tasks: set[asyncio.Task] = set()
        self._process_pool = None
        self._thread_pool: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # pools
    # ------------------------------------------------------------------
    def _processes(self):
        if self._process_pool is None:
            self._process_pool = _worker_pool(self.settings.workers)
        return self._process_pool

    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=STREAM_THREADS, thread_name_prefix="repro-serve"
            )
        return self._thread_pool

    def _cold_pool(self):
        if self.settings.workers and self.settings.workers > 0:
            return self._processes()
        return self._threads()

    async def _run_cold(self, function, request: Any) -> AnyResult:
        """Run ``function(request)`` on the cold pool, surviving dead workers.

        A process pool breaks for good once one of its workers dies.  If
        it broke while idle, the submit itself fails and nothing was
        inside: the pool is replaced and the submit retried.  If it
        broke with jobs inside, those jobs fail and the pool is dropped,
        so the next submit builds a fresh one.  Only the broken instance
        is dropped (it has already shut itself down); a replacement
        another job built meanwhile stays.
        """
        loop = asyncio.get_running_loop()
        pool = self._cold_pool()
        try:
            future = loop.run_in_executor(pool, function, request)
        except BrokenProcessPool:
            self._drop_broken(pool)
            pool = self._cold_pool()
            future = loop.run_in_executor(pool, function, request)
        try:
            return await future
        except BrokenProcessPool:
            self._drop_broken(pool)
            raise

    def _drop_broken(self, pool) -> None:
        if self._process_pool is pool:
            self._process_pool = None

    async def close(self) -> None:
        """Abandon in-flight work and release the pools.

        Deliberately abrupt (the restart-mid-run test depends on it):
        whatever did not finish simply is not in the store, and a
        restarted service re-executes it.  Every awaiter of an abandoned
        run fails with a 503 ``shutting-down`` :class:`ServiceError`,
        and every stream subscriber gets an ``error`` event and its end,
        the way a failed execution ends them.  Completed entries were
        written atomically, so the store stays reusable.
        """
        for job in self._inflight.values():
            error = ServiceError(
                503, "shutting-down",
                "the service stopped before the run finished",
            )
            if not job.future.done():
                job.future.set_exception(error)
            self._emit(
                job, "error", {"code": error.code, "detail": error.detail}
            )
            self._finish(job)
        self._inflight.clear()
        for task in list(self._tasks):
            task.cancel()
        self._tasks.clear()
        if self._process_pool is not None:
            self._process_pool.shutdown(wait=False, cancel_futures=True)
            self._process_pool = None
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=False, cancel_futures=True)
            self._thread_pool = None

    # ------------------------------------------------------------------
    # admission (the single-flight core)
    # ------------------------------------------------------------------
    async def submit(
        self,
        request: Any,
        *,
        kind: str = "run",
        queue: Optional[asyncio.Queue] = None,
    ) -> tuple[str, AnyResult]:
        """Admit one run unit; return ``(source, result)``.

        ``kind`` selects the executor: ``"run"`` for trace requests,
        ``"fleet"`` for fleet requests.  ``queue``, when given,
        subscribes to the unit's progress events (terminated by a
        ``None`` sentinel) regardless of how the unit resolves.
        All bookkeeping before the first ``await`` runs atomically on
        the event loop, which is what makes classification race-free.
        """
        key = request.cache_key
        tracer = active_tracer()
        self.metrics.requests += 1
        job = self._inflight.get(key)
        if job is not None:
            self.metrics.coalesced += 1
            if tracer:
                tracer.instant(
                    "serve.request", "serve",
                    key=key, source="coalesced", kind=kind,
                )
            if queue is not None:
                queue.put_nowait(("queued", {"key": key, "coalesced": True}))
                job.queues.append(queue)
            return "coalesced", await asyncio.shield(job.future)

        plan = self.session.plan_batch([request])
        source = plan.sources[0]
        if source in (PLAN_MEMO, PLAN_DISK):
            if source == PLAN_MEMO:
                self.metrics.memo_hits += 1
            else:
                self.metrics.disk_hits += 1
            if tracer:
                tracer.instant(
                    "serve.request", "serve", key=key, source=source, kind=kind,
                )
            result = self.session.peek(key)
            if queue is not None:
                queue.put_nowait(
                    ("result", self.result_event(key, source, result))
                )
                queue.put_nowait(None)
            return source, result

        self.metrics.executed += 1
        if tracer:
            tracer.instant(
                "serve.request", "serve", key=key, source="executed", kind=kind,
            )
        job = _Job(future=asyncio.get_running_loop().create_future())
        # mark the exception as retrieved even when every awaiter has
        # disconnected, so abandoned failures do not log asyncio noise
        job.future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        if queue is not None:
            queue.put_nowait(("queued", {"key": key, "coalesced": False}))
            job.queues.append(queue)
        self._inflight[key] = job
        task = asyncio.ensure_future(self._execute(key, request, job, kind))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return "executed", await asyncio.shield(job.future)

    async def _execute(
        self, key: str, request: Any, job: _Job, kind: str
    ) -> None:
        loop = asyncio.get_running_loop()
        tracer = active_tracer()
        start = tracer.now() if tracer else 0.0
        self._emit(job, "started", {"key": key})
        try:
            if kind == "fleet":
                from repro.fleet.engine import execute_fleet

                result = await self._run_cold(execute_fleet, request)
            elif self._streaming(request, job):
                # interval subscribers need the on_interval callback,
                # which cannot cross a process boundary: run in-process
                def run_streamed() -> AnyResult:
                    def on_interval(sample) -> None:
                        loop.call_soon_threadsafe(
                            self._emit, job, "interval", sample.to_dict()
                        )

                    return execute_request(request, on_interval)

                result = await loop.run_in_executor(
                    self._threads(), run_streamed
                )
            else:
                result = await self._run_cold(execute_request, request)
        except Exception as error:
            self.metrics.errors += 1
            self._inflight.pop(key, None)
            if tracer:
                tracer.complete(
                    "serve.execute", "serve", start,
                    key=key, kind=kind, outcome="error",
                )
            if not job.future.done():
                job.future.set_exception(error)
            self._emit(
                job,
                "error",
                {"code": "execution-failed", "detail": str(error)},
            )
            self._finish(job)
            return
        self.session.store_result(key, result)
        self._inflight.pop(key, None)
        if tracer:
            tracer.complete(
                "serve.execute", "serve", start,
                key=key, kind=kind, outcome="ok",
            )
        if not job.future.done():
            job.future.set_result(result)
        if job.queues:
            self._emit(
                job, "result", self.result_event(key, "executed", result)
            )
        self._finish(job)

    @staticmethod
    def _streaming(request: Any, job: _Job) -> bool:
        return bool(
            job.queues
            and isinstance(request, RunRequest)
            and request.interval_refs
        )

    @staticmethod
    def result_event(key: str, source: str, result: AnyResult) -> bytes:
        """The terminal payload both ``/run`` and its SSE stream carry.

        ``json.dumps({"key": key, "source": source, "result":
        encode_result(result)})`` as bytes, with the result's part
        encoded once per result object (:func:`wire_result`).
        """
        return b'{"key": %s, "source": %s, "result": %s}' % (
            json.dumps(key).encode("utf-8"),
            json.dumps(source).encode("utf-8"),
            wire_result(result),
        )

    def _emit(self, job: _Job, event: str, data: Any) -> None:
        for queue in job.queues:
            queue.put_nowait((event, data))

    def _finish(self, job: _Job) -> None:
        for queue in job.queues:
            queue.put_nowait(None)

    # ------------------------------------------------------------------
    # composite payloads
    # ------------------------------------------------------------------
    async def run_sweep(
        self, sweep: Sweep, scale: Optional[ExperimentScale] = None
    ) -> SweepResult:
        """Run a sweep grid through the single-flight path.

        Equivalent to :meth:`Sweep.run` on this service's session
        (bit-identical cells), but every grid point is its own admitted
        run unit, so distinct points fan out across the worker pool and
        shared baselines coalesce instead of re-simulating.
        """
        scale = scale or ExperimentScale()
        outcomes = await asyncio.gather(
            *[self.submit(request) for request in sweep.batch(scale)]
        )
        return sweep.assemble([result for _, result in outcomes])

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> dict[str, Any]:
        """The ``/stats`` payload: counters, gauges, session accounting."""
        in_flight = len(self._inflight)
        workers = self.settings.workers or STREAM_THREADS
        snapshot = self.metrics.snapshot(
            in_flight=in_flight,
            queue_depth=max(0, in_flight - workers),
        )
        stats = self.session.stats
        snapshot["session"] = {
            "requested": stats.requested,
            "deduplicated": stats.deduplicated,
            "memo_hits": stats.memo_hits,
            "disk_hits": stats.disk_hits,
            "executed": stats.executed,
            "simulations_avoided": stats.simulations_avoided,
        }
        store = self._store_snapshot()
        snapshot["store_entries"] = store["store_entries"]
        snapshot["store"] = store
        return snapshot

    def _store_snapshot(self) -> dict[str, int]:
        """Canonical store metrics (one name set with ``repro cache info``)."""
        if self.session.disk_cache is not None:
            return store_snapshot(
                self.session.disk_cache, self.session.checkpoint_store
            )
        return store_snapshot(self.session)

    def metrics_exposition(self) -> str:
        """The ``GET /metrics`` Prometheus text (format 0.0.4).

        Rendered from the same registry ``/stats`` reads, plus
        scrape-time gauges for the worker pool and the store.
        """
        in_flight = len(self._inflight)
        workers = self.settings.workers or STREAM_THREADS
        extra = {"repro_workers": ("cold worker pool size", float(workers))}
        for name, value in self._store_snapshot().items():
            extra[f"repro_{name}"] = (STORE_METRIC_HELP[name], float(value))
        return self.metrics.exposition(
            in_flight=in_flight,
            queue_depth=max(0, in_flight - workers),
            extra_gauges=extra,
        )


__all__ = [
    "DEFAULT_WORKERS",
    "ServiceSettings",
    "SimulationService",
]
