"""The session engine: dedup, memoization and parallel execution.

A :class:`Session` executes batches of :class:`~repro.api.request.
RunRequest` objects.  Identical requests (same cache key) are simulated
exactly once per session; results are memoized in-process and,
when a cache directory is configured, persisted as JSON on disk.
Independent requests can be fanned out across worker processes with
:class:`concurrent.futures.ProcessPoolExecutor`; every simulation is
fully seeded by its config, so parallel results are bit-identical to
serial ones.

The experiment harnesses all share one process-global default session
(:func:`default_session`), which is where the cross-figure baseline
sharing the paper's evaluation grid invites actually happens: the
``no-hbm`` baseline of Figure 2 is the same request as the 16-vCPU
baseline of Figures 7-9 and 13, and it runs once.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence, Union

from repro.api.cache import (
    CACHE_DIR_ENV_VAR,
    AnyResult,
    PruneStats,
    ResultCache,
)
from repro.api.checkpoint import (
    CHECKPOINT_SUBDIR,
    CheckpointStore,
    checkpoint_family_key,
)
from repro.api.request import EXPERIMENT_REMAP, RunRequest
from repro.env import env_int
from repro.obs.log import get_logger
from repro.obs.trace import active_tracer
from repro.sim.engine import (
    ENGINE_FAST,
    ENGINE_REFERENCE,
    FastPathMismatchError,
    diff_fingerprints,
    gc_paused,
    result_fingerprint,
    validate_fastpath_requested,
)
from repro.sim.remap_anatomy import single_remap_cost
from repro.sim.simulator import (
    Run,
    SimulationResult,
    Simulator,
    resolve_trace,
    warmup_starts,
)
from repro.sim.snapshot import SnapshotError, restore_run
from repro.workloads import make_workload

logger = get_logger(__name__)

#: Environment variable globally enabling process fan-out (worker count).
JOBS_ENV_VAR = "REPRO_JOBS"

#: Per-process counters describing checkpointed execution, mainly for
#: tests and diagnostics (worker processes count their own).
CHECKPOINT_COUNTERS = {"restored": 0, "saved": 0, "cold": 0}

#: How many stored checkpoints (longest first) a request examines
#: before giving up and running cold.  Each examination fully parses
#: the snapshot and digests the trace prefix, so the scan must stay
#: bounded even when a family accumulates many never-matching
#: checkpoints (e.g. sweeps over non-prefix-stable workloads).
CANDIDATE_SCAN_LIMIT = 4


def _worker_pool(max_workers: Optional[int]) -> ProcessPoolExecutor:
    """A worker pool with the start method pinned to ``spawn``.

    The platform default is ``fork`` on Linux and ``spawn`` on macOS;
    pinning makes the serial-vs-pool bit-identity tests prove the same
    property everywhere (workers rebuild state from pickled requests,
    never inherit it), and avoids the fork-in-threaded-process
    deprecation noise on Python 3.12+.
    """
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=multiprocessing.get_context("spawn"),
    )


@gc_paused()
def execute_request(
    request: RunRequest,
    on_interval=None,
    store_directory: Optional[str] = None,
) -> AnyResult:
    """Execute one request (no result caching).

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it into worker processes.

    The whole request -- trace build, checkpoint scan and restore, the
    run, checkpoint saves and any reference check -- runs with cyclic
    garbage collection paused (:func:`~repro.sim.engine.gc_paused`).
    Every machine it builds is closed once its result is assembled,
    which leaves the machine acyclic, so reference counting frees it
    and the paused collector has nothing to catch up on.

    ``on_interval``, when given, receives each freshly-emitted
    :class:`~repro.sim.stats.IntervalSample` of a run started from
    scratch; the serve layer uses it to stream live progress.
    Observation only -- the result is identical with or without it.

    ``store_directory`` names a machine-checkpoint store.  With one and
    an absolute warmup, the run starts from the longest stored
    checkpoint of its family whose executed trace prefix matches the
    request's trace, simulating only the tail, and leaves its final
    reusable checkpoint behind for the next, longer request.  Results
    are bit-identical either way (the fuzz suite enforces it): the
    schema stamps, the warmup-start vector and a digest of the executed
    reference prefix turn any other checkpoint into a cold run.

    The request runs on the fast engine.  When
    ``REPRO_VALIDATE_FASTPATH=1`` is set, its result (cold or restored)
    is checked against a reference-engine run before it is returned
    (see :func:`_check_against_reference`).
    """
    if request.experiment == EXPERIMENT_REMAP:
        return single_remap_cost(request.config)
    tracer = active_tracer()
    start = tracer.now() if tracer else 0.0
    workload = make_workload(request.workload)
    run = on_checkpoint = None
    # A fraction warmup moves its boundary with refs_total, so no other
    # request could ever restore its multi-megabyte snapshots: it runs
    # cold and saves nothing.  Sweeps that want reuse set
    # ``warmup_refs`` (or ``warmup_fraction=0``).
    if store_directory is not None and (
        request.warmup_refs is not None or request.warmup_fraction == 0.0
    ):
        store = CheckpointStore(store_directory)
        family = checkpoint_family_key(request)
        workload = resolve_trace(
            workload, request.config.num_cpus, request.config.seed,
            request.refs_total,
        )
        run = _restore_from(store, family, request, workload)

        def on_checkpoint(snapshot: dict) -> None:
            CHECKPOINT_COUNTERS["saved"] += 1
            store.save(family, snapshot)

    if run is not None:
        CHECKPOINT_COUNTERS["restored"] += 1
        simulator = run.simulator
    else:
        if store_directory is not None:
            CHECKPOINT_COUNTERS["cold"] += 1
        simulator = Simulator(request.config)
    try:
        if run is not None:
            result = simulator.resume(run, on_checkpoint=on_checkpoint)
        else:
            result = simulator.run(
                workload,
                warmup_fraction=request.warmup_fraction,
                refs_total=request.refs_total,
                warmup_refs=request.warmup_refs,
                interval_refs=request.interval_refs,
                on_interval=on_interval,
                on_checkpoint=on_checkpoint,
            )
    finally:
        simulator.close()
        if tracer:
            tracer.complete(
                "session.execute", "session", start,
                key=request.cache_key, engine=simulator.engine,
            )
    return _check_against_reference(request, result)


def _restore_from(
    store: CheckpointStore, family: str, request: RunRequest, trace
) -> Optional[Run]:
    """The run of the longest reusable checkpoint of ``family``, or None.

    A checkpoint's filename-level executed count bounds how far its
    positions can reach, so length-infeasible candidates (from longer
    sweeps of the family) are dropped *before* the scan limit -- a
    shorter re-run must still find its own reusable checkpoint.
    """
    starts = warmup_starts(trace, request.warmup_fraction, request.warmup_refs)
    capacity = sum(len(stream) for stream in trace.streams) - sum(starts)
    feasible = [
        path for executed, path in store.candidates(family)
        if executed <= capacity
    ]
    for path in feasible[:CANDIDATE_SCAN_LIMIT]:
        data = store.load(path)
        if data is None:
            continue
        try:
            if data["warmup"]["starts"] != starts:
                continue
            return restore_run(data, trace)
        except (SnapshotError, KeyError, TypeError, ValueError):
            # schema-valid but shape-corrupt payloads, and checkpoints
            # of another reference stream, degrade to the next
            # candidate (ultimately a cold run), never to a crash
            continue
    return None


def _execute_chain(
    requests: Sequence[RunRequest], store_directory: str
) -> list[AnyResult]:
    """Execute one checkpoint family's requests serially, in order.

    The worker-side unit of a parallel checkpointed batch: members of a
    family must run one after another (shortest first) or none of them
    can reuse the others' checkpoints.
    """
    return [
        execute_request(request, store_directory=store_directory)
        for request in requests
    ]


def _check_against_reference(
    request: RunRequest, result: SimulationResult
) -> SimulationResult:
    """Return ``result`` once the reference engine agrees with it.

    A no-op unless ``REPRO_VALIDATE_FASTPATH=1`` is set.  Then the
    request runs again, cold, on the reference engine, and any
    fingerprint difference from ``result`` (the fast engine's, cold or
    resumed from a checkpoint) raises
    :class:`~repro.sim.engine.FastPathMismatchError` instead of
    returning either result.
    """
    if not validate_fastpath_requested():
        return result
    simulator = Simulator(request.config, engine=ENGINE_REFERENCE)
    try:
        reference = simulator.run(
            make_workload(request.workload),
            warmup_fraction=request.warmup_fraction,
            refs_total=request.refs_total,
            warmup_refs=request.warmup_refs,
            interval_refs=request.interval_refs,
        )
    finally:
        simulator.close()
    differences = diff_fingerprints(
        result_fingerprint(reference), result_fingerprint(result)
    )
    if differences:
        details = "\n  ".join(differences[:20])
        raise FastPathMismatchError(
            f"{ENGINE_FAST} engine diverged from the reference engine on "
            f"workload {request.workload!r}:\n  {details}"
        )
    return result


@dataclass
class SessionStats:
    """Where every request of a session ended up."""

    #: requests handed to the session (including duplicates).
    requested: int = 0
    #: requests answered by another identical request in the same batch.
    deduplicated: int = 0
    #: requests answered from the in-process memo.
    memo_hits: int = 0
    #: requests answered from the on-disk cache.
    disk_hits: int = 0
    #: requests actually simulated.
    executed: int = 0

    @property
    def simulations_avoided(self) -> int:
        """Runs that would have happened without the session machinery."""
        return self.deduplicated + self.memo_hits + self.disk_hits


#: Per-item outcomes of :meth:`Session.plan_batch`.
PLAN_MEMO = "memo"
PLAN_DISK = "disk"
PLAN_DEDUP = "dedup"
PLAN_PENDING = "pending"

#: All plan sources, in accounting order (trace spans report one count per source).
PLAN_SOURCES = (PLAN_MEMO, PLAN_DISK, PLAN_DEDUP, PLAN_PENDING)


@dataclass
class BatchPlan:
    """What a batch of requests needs, before anything executes.

    Planning (dedup, memo and disk lookups) is separated from execution
    transport so alternative transports -- the in-process pool of
    :meth:`Session.run_batch`, the fleet engine of
    :meth:`Session.run_fleet`, or the async single-flight executor of
    :mod:`repro.serve` -- can share one caching policy.
    """

    #: cache key of every input item, aligned with the input order.
    keys: list[str] = field(default_factory=list)
    #: unique cold requests in first-seen order (key -> request).
    pending: dict[str, object] = field(default_factory=dict)
    #: per-item outcome, aligned with ``keys``: one of
    #: :data:`PLAN_MEMO`, :data:`PLAN_DISK`, :data:`PLAN_DEDUP`,
    #: :data:`PLAN_PENDING`.
    sources: list[str] = field(default_factory=list)


class Session:
    """Executes run requests with dedup, caching and optional parallelism.

    Args:
        cache_dir: directory for the on-disk JSON result cache.  None
            (the default) disables disk caching; pass ``True`` to use
            the default location (``~/.cache/repro-hatric`` or
            ``$REPRO_CACHE_DIR``).
        max_workers: worker processes for batch execution.  None or <= 1
            runs serially in-process.  Results are identical either way.
        executor: the function that turns a request into a result;
            overridable for testing/instrumentation.
        checkpoints: enable incremental execution through the
            machine-checkpoint store (requires ``cache_dir`` and the
            default ``executor``; the checkpoints live in the cache's
            ``checkpoints/`` subdirectory).  Requests whose family
            already has a matching checkpoint restore it and simulate
            only the tail; results stay bit-identical to cold
            execution.  With ``max_workers``, whole checkpoint
            families run serially inside one worker (shortest request
            first) while distinct families fan out in parallel, so
            within-family reuse survives process fan-out.
    """

    def __init__(
        self,
        cache_dir: Union[None, bool, str, Path] = None,
        max_workers: Optional[int] = None,
        executor: Callable[[RunRequest], AnyResult] = execute_request,
        checkpoints: bool = False,
    ) -> None:
        if cache_dir is True:
            self.disk_cache: Optional[ResultCache] = ResultCache()
        elif cache_dir:
            self.disk_cache = ResultCache(cache_dir)
        else:
            self.disk_cache = None
        self.max_workers = max_workers
        self.executor = executor
        self.checkpoint_store: Optional[CheckpointStore] = None
        if checkpoints:
            if self.disk_cache is None:
                raise ValueError(
                    "checkpoints=True needs a cache_dir; checkpoints "
                    "live beside the on-disk result cache"
                )
            if executor is not execute_request:
                raise ValueError(
                    "checkpoints=True is incompatible with a custom "
                    "executor: checkpointed execution runs "
                    "execute_request with the checkpoint store"
                )
            self.checkpoint_store = CheckpointStore(
                self.disk_cache.directory / CHECKPOINT_SUBDIR
            )
        self.stats = SessionStats()
        self._memo: dict[str, AnyResult] = {}

    # ------------------------------------------------------------------
    # running requests
    # ------------------------------------------------------------------
    def run(self, request: RunRequest) -> AnyResult:
        """Execute (or recall) a single request."""
        return self.run_batch([request])[0]

    def plan_batch(self, requests: Sequence) -> BatchPlan:
        """Resolve what a batch needs without executing anything.

        Works on anything with a ``cache_key`` (trace
        :class:`~repro.api.request.RunRequest` and fleet
        :class:`~repro.fleet.spec.FleetRequest` alike).  Duplicate keys
        within the batch collapse to one pending entry; keys already
        memoized (or present in the disk cache, which the plan promotes
        into the memo) need no execution at all.  Stats are accounted
        here, at planning time -- execution transports only add
        ``executed`` via :meth:`store_result`.
        """
        tracer = active_tracer()
        start = tracer.now() if tracer else 0.0
        plan = BatchPlan()
        requests = list(requests)
        self.stats.requested += len(requests)
        for request in requests:
            key = request.cache_key
            plan.keys.append(key)
            if key in self._memo:
                self.stats.memo_hits += 1
                plan.sources.append(PLAN_MEMO)
                continue
            if key in plan.pending:
                self.stats.deduplicated += 1
                plan.sources.append(PLAN_DEDUP)
                continue
            if self.disk_cache is not None:
                cached = self.disk_cache.get(key)
                if cached is not None:
                    self._memo[key] = cached
                    self.stats.disk_hits += 1
                    plan.sources.append(PLAN_DISK)
                    continue
            plan.pending[key] = request
            plan.sources.append(PLAN_PENDING)
        if tracer:
            tracer.complete(
                "session.plan_batch",
                "session",
                start,
                requests=len(requests),
                **{source: plan.sources.count(source) for source in PLAN_SOURCES},
            )
        return plan

    def peek(self, key: str) -> Optional[AnyResult]:
        """The memoized result for a cache key, or None (no execution)."""
        return self._memo.get(key)

    def store_result(self, key: str, result: AnyResult) -> None:
        """Record an externally-executed result under its cache key.

        The transport half of :meth:`plan_batch`: memoizes, counts one
        execution, and persists to the disk cache when configured.
        """
        tracer = active_tracer()
        start = tracer.now() if tracer else 0.0
        self._memo[key] = result
        self.stats.executed += 1
        if self.disk_cache is not None:
            self.disk_cache.put(key, result)
        if tracer:
            tracer.complete(
                "session.store_result",
                "session",
                start,
                key=key,
                persisted=self.disk_cache is not None,
            )

    def collect(self, plan: BatchPlan) -> list[AnyResult]:
        """Results for a fully-executed plan, aligned with its input order."""
        tracer = active_tracer()
        if tracer:
            tracer.instant("session.collect", "session", results=len(plan.keys))
        return [self._memo[key] for key in plan.keys]

    def run_batch(self, requests: Sequence[RunRequest]) -> list[AnyResult]:
        """Execute a batch, returning results aligned with the input order.

        Duplicate requests within the batch are simulated once; requests
        seen before by this session (or present in the disk cache) are
        not simulated at all.
        """
        plan = self.plan_batch(requests)
        if plan.pending:
            self._execute_pending(plan.pending)
        return self.collect(plan)

    def _execute_pending(self, pending: dict[str, RunRequest]) -> None:
        keys = list(pending)
        todo = [pending[key] for key in keys]
        tracer = active_tracer()
        start = tracer.now() if tracer else 0.0
        if self.checkpoint_store is not None:
            results = self._execute_checkpointed(todo)
        else:
            results = self._fan_out(self.executor, todo)
        if tracer:
            tracer.complete(
                "session.execute_pending",
                "session",
                start,
                pending=len(todo),
                parallel=self._parallel(len(todo)),
            )
        for key, result in zip(keys, results):
            self.store_result(key, result)

    def _parallel(self, count: int) -> bool:
        """Whether :meth:`_fan_out` spreads ``count`` items over workers."""
        return (
            self.max_workers is not None and self.max_workers > 1 and count > 1
        )

    def _fan_out(self, fn: Callable, items: list) -> list:
        """``fn`` over ``items``, in order, across workers when parallel.

        Everything else runs in-process, which keeps counters visible
        and skips the pool spawn.
        """
        if not self._parallel(len(items)):
            return [fn(item) for item in items]
        with _worker_pool(self.max_workers) as pool:
            return list(pool.map(fn, items))

    def run_matrix(
        self, groups: Sequence[Sequence[RunRequest]]
    ) -> list[list[AnyResult]]:
        """Execute request groups as one flat deduplicated batch.

        ``groups`` is a sequence of request lists (e.g. one list per
        search candidate, holding that candidate's per-protocol
        requests).  All groups are flattened into a single
        :meth:`run_batch` call — so duplicates *across* groups are
        simulated once and the process pool sees the whole matrix at
        once — then the results are regrouped to mirror the input
        structure.
        """
        groups = [list(group) for group in groups]
        flat = [request for group in groups for request in group]
        results = iter(self.run_batch(flat))
        return [[next(results) for _ in group] for group in groups]

    def run_fleet(self, requests: Sequence) -> list:
        """Execute a batch of :class:`~repro.fleet.spec.FleetRequest`.

        Fleet requests flow through the same memo, dedup and disk-cache
        machinery as trace requests (their ``fleet:``-prefixed cache
        keys keep the two populations disjoint on disk), but execute
        through :func:`repro.fleet.engine.execute_fleet` -- a whole
        fleet is one unit of work, so parallel sessions fan out at the
        granularity of fleet runs.  Checkpointing does not apply: a
        fleet run's mid-flight state spans several machines.
        """
        from repro.fleet.engine import execute_fleet

        plan = self.plan_batch(requests)
        keys = list(plan.pending)
        results = self._fan_out(
            execute_fleet, [plan.pending[key] for key in keys]
        )
        for key, result in zip(keys, results):
            self.store_result(key, result)
        return self.collect(plan)

    def _execute_checkpointed(self, todo: list[RunRequest]) -> list[AnyResult]:
        """Execute a batch through the checkpoint store.

        Requests of one checkpoint *family* (identical machine
        trajectory, different ``refs_total``) must run serially,
        shortest first, or none can reuse the others' checkpoints; a
        parallel batch therefore fans out whole family chains, keeping
        concurrency *across* families without losing reuse *within*
        them.  Results are returned in the input order.
        """
        chains: dict[str, list[int]] = {}
        for index, request in enumerate(todo):
            chains.setdefault(checkpoint_family_key(request), []).append(index)
        ordered = [
            sorted(
                indices,
                key=lambda i: (
                    todo[i].refs_total is None,
                    todo[i].refs_total or 0,
                ),
            )
            for indices in chains.values()
        ]
        runner = functools.partial(
            _execute_chain,
            store_directory=str(self.checkpoint_store.directory),
        )
        chain_outputs = self._fan_out(
            runner, [[todo[i] for i in chain] for chain in ordered]
        )
        results: list[Optional[AnyResult]] = [None] * len(todo)
        for indices, chain_results in zip(ordered, chain_outputs):
            for index, result in zip(indices, chain_results):
                results[index] = result
        return results

    # ------------------------------------------------------------------
    # cache management
    # ------------------------------------------------------------------
    def __contains__(self, request: RunRequest) -> bool:
        """True when the request is answerable without simulating."""
        key = request.cache_key
        if key in self._memo:
            return True
        return self.disk_cache is not None and key in self.disk_cache

    def __len__(self) -> int:
        """Number of results memoized in this session's process memory."""
        return len(self._memo)

    def forget(self, requests: Optional[Iterable[RunRequest]] = None) -> None:
        """Drop memoized results (all of them when ``requests`` is None)."""
        if requests is None:
            self._memo.clear()
            return
        for request in requests:
            self._memo.pop(request.cache_key, None)

    def prune(self, min_age_seconds: float = 0.0) -> dict[str, PruneStats]:
        """Prune stale on-disk entries (results and checkpoints).

        Returns ``{"results": PruneStats, "checkpoints": PruneStats}``;
        sections without a configured store report all-zero stats.
        ``min_age_seconds`` scopes deletion to entries at least that
        old, so pruning a directory a live server is writing to cannot
        delete in-flight work (see :meth:`~repro.api.cache.JsonStore.prune`).
        """
        stores = {"results": self.disk_cache, "checkpoints": self.checkpoint_store}
        # ``is not None``: both stores define __len__, so an *empty*
        # store is falsy and a bare truthiness test would skip it.
        return {
            name: (
                store.prune(min_age_seconds) if store is not None
                else PruneStats(0, 0, 0)
            )
            for name, store in stores.items()
        }


_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-global session the experiment harnesses share.

    Honours ``REPRO_JOBS`` (worker processes) and ``REPRO_CACHE_DIR``
    (which also switches the disk cache on) at first use.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        jobs = env_int(JOBS_ENV_VAR, None, minimum=1)
        cache_dir = os.environ.get(CACHE_DIR_ENV_VAR)
        logger.debug(
            "default session: jobs=%s cache_dir=%s",
            jobs if jobs is not None else "serial (REPRO_JOBS unset)",
            cache_dir or "off (REPRO_CACHE_DIR unset)",
        )
        _DEFAULT_SESSION = Session(
            cache_dir=cache_dir or None,
            max_workers=jobs,
        )
    return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Discard the process-global session (mainly for tests)."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = None
