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
    resolve_engine,
    result_fingerprint,
    validate_fastpath_requested,
)
from repro.sim.remap_anatomy import single_remap_cost
from repro.sim.simulator import (
    SimulationResult,
    Simulator,
    resolve_trace,
    warmup_starts,
)
from repro.sim.snapshot import SnapshotError, restore_run, trace_prefix_digest
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


def execute_request(request: RunRequest, on_interval=None) -> AnyResult:
    """Execute one request from scratch (no caching).

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    pickle it into worker processes.

    ``on_interval``, when given, receives each freshly-emitted
    :class:`~repro.sim.stats.IntervalSample` during execution (requests
    without ``interval_refs`` emit nothing); the serve layer uses it to
    stream live progress.  Observation only -- the returned result is
    identical with or without it.

    When ``REPRO_VALIDATE_FASTPATH=1`` is set, every fast-engine trace
    request is executed on *both* engines and the results are diffed;
    any difference raises :class:`~repro.sim.engine.
    FastPathMismatchError` instead of silently returning either result.
    """
    if request.experiment == EXPERIMENT_REMAP:
        return single_remap_cost(request.config)
    tracer = active_tracer()
    start = tracer.now() if tracer else 0.0
    workload = make_workload(request.workload)
    if (
        validate_fastpath_requested()
        and resolve_engine(request.engine or None) != ENGINE_REFERENCE
    ):
        result = _execute_validated(request, workload, on_interval)
        if tracer:
            tracer.complete(
                "session.execute", "session", start,
                key=request.cache_key, validated=True,
            )
        return result
    simulator = Simulator(request.config, engine=request.engine or None)
    if tracer:
        try:
            return simulator.run(
                workload,
                warmup_fraction=request.warmup_fraction,
                refs_total=request.refs_total,
                warmup_refs=request.warmup_refs,
                interval_refs=request.interval_refs,
                on_interval=on_interval,
            )
        finally:
            tracer.complete(
                "session.execute", "session", start,
                key=request.cache_key, engine=simulator.engine,
            )
    return simulator.run(
        workload,
        warmup_fraction=request.warmup_fraction,
        refs_total=request.refs_total,
        warmup_refs=request.warmup_refs,
        interval_refs=request.interval_refs,
        on_interval=on_interval,
    )


def execute_request_checkpointed(
    request: RunRequest,
    store_directory: str,
    checkpoint_refs: Optional[int] = None,
) -> AnyResult:
    """Execute one request through the machine-checkpoint store.

    Identical results to :func:`execute_request` (bit-for-bit; the fuzz
    suite enforces it), but the run may start from the longest stored
    checkpoint of its family whose executed trace prefix matches the
    request's trace, simulating only the tail -- and it leaves new
    round-aligned checkpoints behind for the next, longer request.

    Reuse is guarded by the snapshot's schema stamps, its warmup-start
    vector, and a digest of the exact executed reference prefix, so a
    checkpoint from a different machine, schema or reference stream
    degrades to a cold run rather than a wrong result.
    """
    if request.experiment == EXPERIMENT_REMAP:
        return single_remap_cost(request.config)
    workload = make_workload(request.workload)
    if (
        validate_fastpath_requested()
        and resolve_engine(request.engine or None) != ENGINE_REFERENCE
    ):
        # validation mode runs both engines; checkpoints would only
        # obscure which engine produced the state, so it stays cold.
        return _execute_validated(request, workload)
    if request.warmup_refs is None and request.warmup_fraction > 0.0:
        # A fraction-based warmup boundary moves with refs_total, so no
        # *other* request can ever match this family's warmup vector
        # (and an identical rerun is already served by the result
        # cache).  Saving multi-megabyte snapshots that can never be
        # restored would make checkpoints=True strictly slower than
        # off; run cold instead.  Sweeps that want reuse set
        # ``warmup_refs`` (or ``warmup_fraction=0``).
        CHECKPOINT_COUNTERS["cold"] += 1
        return execute_request(request)

    store = CheckpointStore(store_directory)
    family = checkpoint_family_key(request)
    trace = resolve_trace(
        workload, request.config.num_cpus, request.config.seed,
        request.refs_total,
    )
    starts = warmup_starts(
        trace, request.warmup_fraction, request.warmup_refs
    )
    lengths = [len(s) for s in trace.streams]

    def on_checkpoint(snapshot: dict) -> None:
        CHECKPOINT_COUNTERS["saved"] += 1
        store.save(family, snapshot)

    # A checkpoint's filename-level executed count bounds how far its
    # positions can reach, so length-infeasible candidates (from longer
    # sweeps of the family) are dropped *before* the scan limit -- a
    # shorter re-run must still find its own reusable checkpoint.
    main_capacity = sum(lengths) - sum(starts)
    feasible = [
        candidate
        for candidate in store.candidates(family)
        if candidate[0] <= main_capacity
    ]
    restored = None
    for executed, path in feasible[:CANDIDATE_SCAN_LIMIT]:
        data = store.load(path)
        if data is None:
            continue
        try:
            positions = data["trace"]["positions"]
            if data["warmup"]["starts"] != starts:
                continue
            if len(positions) != len(lengths) or any(
                position > length
                for position, length in zip(positions, lengths)
            ):
                continue
            if (
                trace_prefix_digest(trace, positions)
                != data["trace"]["prefix_digest"]
            ):
                continue
            restored = restore_run(data, engine=request.engine or None)
        except (SnapshotError, KeyError, TypeError, ValueError):
            # schema-valid but shape-corrupt payloads degrade to the
            # next candidate (ultimately a cold run), never to a crash
            continue
        break

    if restored is not None:
        CHECKPOINT_COUNTERS["restored"] += 1
        return restored.resume(
            trace,
            checkpoint_refs=checkpoint_refs,
            on_checkpoint=on_checkpoint,
            verify_prefix=False,  # the candidate scan just digested it
        )
    CHECKPOINT_COUNTERS["cold"] += 1
    simulator = Simulator(request.config, engine=request.engine or None)
    return simulator.run(
        trace,
        warmup_fraction=request.warmup_fraction,
        warmup_refs=request.warmup_refs,
        interval_refs=request.interval_refs,
        checkpoint_refs=checkpoint_refs,
        on_checkpoint=on_checkpoint,
    )


def _execute_chain(
    requests: Sequence[RunRequest],
    store_directory: str,
    checkpoint_refs: Optional[int] = None,
) -> list[AnyResult]:
    """Execute one checkpoint family's requests serially, in order.

    The worker-side unit of a parallel checkpointed batch: members of a
    family must run one after another (shortest first) or none of them
    can reuse the others' checkpoints.
    """
    return [
        execute_request_checkpointed(request, store_directory, checkpoint_refs)
        for request in requests
    ]


def _execute_validated(
    request: RunRequest, workload, on_interval=None
) -> SimulationResult:
    """Run a trace request on the reference and fast engines; require identity.

    ``on_interval`` streams from the reference run only -- interval
    samples are engine-identical by contract, so subscribers must not
    see each sample twice.
    """
    results = {}
    for engine in (ENGINE_REFERENCE, ENGINE_FAST):
        simulator = Simulator(request.config, engine=engine)
        results[engine] = simulator.run(
            workload,
            warmup_fraction=request.warmup_fraction,
            refs_total=request.refs_total,
            warmup_refs=request.warmup_refs,
            interval_refs=request.interval_refs,
            on_interval=on_interval if engine == ENGINE_REFERENCE else None,
        )
    differences = diff_fingerprints(
        result_fingerprint(results[ENGINE_REFERENCE]),
        result_fingerprint(results[ENGINE_FAST]),
    )
    if differences:
        details = "\n  ".join(differences[:20])
        raise FastPathMismatchError(
            f"{ENGINE_FAST} engine diverged from the reference engine on "
            f"workload {request.workload!r}:\n  {details}"
        )
    return results[ENGINE_FAST]


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
        checkpoint_refs: additionally capture a checkpoint roughly
            every this many retired references (None = only the final
            reusable round of each run is checkpointed).
    """

    def __init__(
        self,
        cache_dir: Union[None, bool, str, Path] = None,
        max_workers: Optional[int] = None,
        executor: Callable[[RunRequest], AnyResult] = execute_request,
        checkpoints: bool = False,
        checkpoint_refs: Optional[int] = None,
    ) -> None:
        if cache_dir is True:
            self.disk_cache: Optional[ResultCache] = ResultCache()
        elif cache_dir:
            self.disk_cache = ResultCache(cache_dir)
        else:
            self.disk_cache = None
        self.max_workers = max_workers
        self.executor = executor
        self.checkpoint_refs = checkpoint_refs
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
                    "executor: checkpointed execution replaces the "
                    "executor with execute_request_checkpointed"
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
        parallel = (
            self.max_workers is not None
            and self.max_workers > 1
            and len(todo) > 1
        )
        tracer = active_tracer()
        start = tracer.now() if tracer else 0.0
        if self.checkpoint_store is not None:
            results = self._execute_checkpointed(todo, parallel)
        elif parallel:
            with _worker_pool(self.max_workers) as pool:
                results = list(pool.map(self.executor, todo))
        else:
            results = [self.executor(request) for request in todo]
        if tracer:
            tracer.complete(
                "session.execute_pending",
                "session",
                start,
                pending=len(todo),
                parallel=parallel,
            )
        for key, result in zip(keys, results):
            self.store_result(key, result)

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
        if plan.pending:
            keys = list(plan.pending)
            todo = [plan.pending[key] for key in keys]
            parallel = (
                self.max_workers is not None
                and self.max_workers > 1
                and len(todo) > 1
            )
            if parallel:
                with _worker_pool(self.max_workers) as pool:
                    results = list(pool.map(execute_fleet, todo))
            else:
                results = [execute_fleet(request) for request in todo]
            for key, result in zip(keys, results):
                self.store_result(key, result)
        return self.collect(plan)

    def _execute_checkpointed(
        self, todo: list[RunRequest], parallel: bool
    ) -> list[AnyResult]:
        """Execute a batch through the checkpoint store.

        Requests of one checkpoint *family* (identical machine
        trajectory, different ``refs_total``) must run serially,
        shortest first, or none can reuse the others' checkpoints; a
        parallel batch therefore fans out whole family chains, keeping
        concurrency *across* families without losing reuse *within*
        them.  Results are returned in the input order.
        """
        store_directory = str(self.checkpoint_store.directory)
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
        results: list[Optional[AnyResult]] = [None] * len(todo)
        if parallel and len(ordered) > 1:
            runner = functools.partial(
                _execute_chain,
                store_directory=store_directory,
                checkpoint_refs=self.checkpoint_refs,
            )
            with _worker_pool(self.max_workers) as pool:
                chain_outputs = list(
                    pool.map(
                        runner,
                        [[todo[i] for i in chain] for chain in ordered],
                    )
                )
        else:
            # serial, or a batch that collapsed to one family: running
            # in-process keeps counters visible and skips pool spawn.
            chain_outputs = [
                _execute_chain(
                    [todo[i] for i in chain],
                    store_directory,
                    self.checkpoint_refs,
                )
                for chain in ordered
            ]
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
        delete in-flight work (see :meth:`ResultCache.prune`).
        """
        # ``is not None``: both stores define __len__, so an *empty*
        # store is falsy and a bare truthiness test would skip it.
        empty = PruneStats(0, 0, 0)
        results = (
            self.disk_cache.prune(min_age_seconds=min_age_seconds)
            if self.disk_cache is not None
            else empty
        )
        checkpoints = (
            self.checkpoint_store.prune(min_age_seconds=min_age_seconds)
            if self.checkpoint_store is not None
            else empty
        )
        return {"results": results, "checkpoints": checkpoints}


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
