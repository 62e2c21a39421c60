"""Outside-in per-layer timing for the traced benchmark runs.

The simulator is not instrumented per call; instead this module wraps
the public entry points of each layer from the outside (class methods,
module functions, one per-core instance attribute) with a
:class:`LayerClock`.  Each wrapper adds its call's *self* time -- its
duration minus the time spent in wrapped calls nested inside it -- to
an in-memory counter, so one counter update per call and no span per
call.  The benchmark turns counter differences into one span per
request.

Wrappers are installed before any machine is built and stay for the
life of the (throwaway) process.
"""

from __future__ import annotations

import gc
import json
import os
import time
from contextlib import contextmanager

#: Layer name -> the count metric reported beside its ``<layer>_s`` time.
LAYER_COUNTS = {
    "translation.walk": "translation.walks",
    "translation.insert": "translation.inserts",
    "translation.invalidate": "translation.invalidations",
    "mem.access": "mem.accesses",
    "core.remap": "core.remaps",
    "virt.fault": "virt.faults",
    "sim.build": "sim.builds",
    "sim.engine": None,
    "workloads.trace": None,
    "fleet.transport": "fleet.migrations",
    "sim.snapshot.capture": "sim.snapshot.captures",
    "sim.snapshot.restore": "sim.snapshot.restores",
    "sim.snapshot.digest": None,
    "api.checkpoint_save": None,
    "api.checkpoint_load": None,
    "api.store_put": "api.store_puts",
    "api.store_get": "api.store_gets",
    "api.plan": None,
    "api.cache_key": None,
    "serve.parse": None,
    "serve.encode": None,
}

#: The root layer: an operation's time outside every wrapped call.
HARNESS = "harness"


class LayerClock:
    """Self time and call counts per layer, from nested wrapped calls."""

    def __init__(self, timer=time.perf_counter) -> None:
        self.timer = timer
        self.cells = {layer: [0.0, 0] for layer in (HARNESS, *LAYER_COUNTS)}
        # child-time accumulators of the open calls, outermost first
        self._stack = [0.0]
        self.extra = {"sim.refs": 0, "api.checkpoint_bytes": 0}

    def wrap(self, layer: str, fn):
        """``fn`` with its self time charged to ``layer``."""
        stack = self._stack
        cell = self.cells[layer]
        perf = self.timer

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                cell[0] += elapsed - stack.pop()
                cell[1] += 1
                stack[-1] += elapsed

        timed.__wrapped__ = fn
        return timed

    @contextmanager
    def span(self, layer: str = HARNESS):
        """Charge a block's self time to ``layer`` (the harness by default)."""
        stack, cell = self._stack, self.cells[layer]
        stack.append(0.0)
        start = self.timer()
        try:
            yield
        finally:
            elapsed = self.timer() - start
            cell[0] += elapsed - stack.pop()
            cell[1] += 1
            stack[-1] += elapsed

    def snapshot(self) -> dict:
        """Current totals: ``{layer: [self_s, calls]}`` plus extra counts."""
        totals = {layer: list(cell) for layer, cell in self.cells.items()}
        totals.update({name: [0.0, value] for name, value in self.extra.items()})
        return totals

    def reset(self) -> None:
        for cell in self.cells.values():
            cell[0], cell[1] = 0.0, 0
        for name in self.extra:
            self.extra[name] = 0


def delta(after: dict, before: dict) -> dict:
    """Per-layer difference of two snapshots, zero rows dropped."""
    out = {}
    for layer, (seconds, calls) in after.items():
        base_seconds, base_calls = before.get(layer, (0.0, 0))
        if calls != base_calls:
            out[layer] = [round(seconds - base_seconds, 9), calls - base_calls]
    return out


class GcClock:
    """Cyclic-GC pause time and generation-2 collections, via gc.callbacks."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._start
            if info.get("generation") == 2:
                self.gen2 += 1

    def snapshot(self) -> tuple[float, int]:
        return self.seconds, self.gen2


def _wrap_attr(clock: LayerClock, owner, name: str, layer: str) -> None:
    setattr(owner, name, clock.wrap(layer, getattr(owner, name)))


def _wrap_shared(clock: LayerClock, owners, name: str, layer: str) -> None:
    """Wrap one function imported by name into several modules, once."""
    wrapped = clock.wrap(layer, getattr(owners[0], name))
    for owner in owners:
        setattr(owner, name, wrapped)


def install(clock: LayerClock, serve: bool = False) -> None:
    """Wrap every layer's public entry points (call before any build)."""
    from repro.api import cache, checkpoint, request, session
    from repro.core.protocol import TranslationCoherenceProtocol
    from repro.fleet import engine as fleet_engine
    from repro.sim import engine, simulator, snapshot
    from repro.virt.hypervisor import Hypervisor

    _wrap_attr(clock, engine.FastPageTableWalker, "walk", "translation.walk")
    mixin = engine._IndexedInvalidationMixin
    _wrap_attr(clock, mixin, "insert", "translation.insert")
    for name in ("invalidate_key", "invalidate_matching_cotag",
                 "invalidate_matching_line", "flush"):
        _wrap_attr(clock, mixin, name, "translation.invalidate")
    protocols = [TranslationCoherenceProtocol]
    while protocols:
        cls = protocols.pop()
        protocols.extend(cls.__subclasses__())
        if "on_nested_remap" in cls.__dict__:
            _wrap_attr(clock, cls, "on_nested_remap", "core.remap")
    hypervisors = [Hypervisor]
    while hypervisors:
        cls = hypervisors.pop()
        hypervisors.extend(cls.__subclasses__())
        if "handle_nested_fault" in cls.__dict__:
            _wrap_attr(clock, cls, "handle_nested_fault", "virt.fault")

    build = simulator.Simulator.__init__

    def build_and_wrap(self, *args, **kwargs):
        build(self, *args, **kwargs)
        # access_cycles is a per-core closure that install_fast_paths
        # sets on the instance, so it can only be wrapped once built
        for core in self.chip.cores:
            hierarchy = core.hierarchy
            if "access_cycles" in vars(hierarchy):
                hierarchy.access_cycles = clock.wrap(
                    "mem.access", hierarchy.access_cycles
                )

    simulator.Simulator.__init__ = clock.wrap("sim.build", build_and_wrap)
    extra = clock.extra

    def counting(run):
        def run_and_count(*args, **kwargs):
            result = run(*args, **kwargs)
            extra["sim.refs"] += result.stats.total_instructions
            return result

        return clock.wrap("sim.engine", run_and_count)

    simulator.Simulator.run = counting(simulator.Simulator.run)
    simulator.Simulator.resume = counting(simulator.Simulator.resume)
    _wrap_shared(clock, [simulator, session], "resolve_trace",
                 "workloads.trace")
    _wrap_attr(clock, fleet_engine, "capture_vm_state", "fleet.transport")
    _wrap_attr(clock, fleet_engine, "restore_vm_state", "fleet.transport")
    _wrap_attr(clock, snapshot, "capture_snapshot", "sim.snapshot.capture")
    _wrap_attr(clock, session, "restore_run", "sim.snapshot.restore")
    _wrap_shared(clock, [snapshot, session], "trace_prefix_digest",
                 "sim.snapshot.digest")

    save = checkpoint.CheckpointStore.save

    def save_and_count(self, family, data):
        path = save(self, family, data)
        extra["api.checkpoint_bytes"] += os.path.getsize(path)
        return path

    checkpoint.CheckpointStore.save = clock.wrap(
        "api.checkpoint_save", save_and_count
    )
    _wrap_attr(clock, checkpoint.CheckpointStore, "load",
               "api.checkpoint_load")
    _wrap_attr(clock, cache.ResultCache, "put", "api.store_put")
    _wrap_attr(clock, cache.ResultCache, "get", "api.store_get")
    _wrap_attr(clock, session.Session, "plan_batch", "api.plan")
    request.RunRequest.cache_key = property(clock.wrap(
        "api.cache_key", request.RunRequest.__dict__["cache_key"].fget
    ))
    if serve:
        from repro.serve import http, service

        _wrap_attr(clock, http, "parse_run_payload", "serve.parse")
        service.SimulationService.result_event = staticmethod(clock.wrap(
            "serve.encode",
            service.SimulationService.__dict__["result_event"].__func__,
        ))


def span_event(name: str, start_wall_us: int, duration_s: float,
               **args) -> dict:
    """One Chrome ``trace_event`` complete span (microsecond integers)."""
    return {
        "name": name, "cat": "perfbench", "ph": "X", "ts": start_wall_us,
        "dur": max(0, int(duration_s * 1_000_000)), "pid": os.getpid(),
        "tid": 0, "args": args,
    }


def install_worker(out_dir: str) -> None:
    """Pool-worker initializer of the traced serve run.

    Wraps the layers inside the worker and writes one span per executed
    request, carrying the request's per-layer counters, to
    ``worker.<pid>.jsonl``.  Written per request, because pool workers
    exit without running exit handlers.
    """
    from repro.api import session

    clock = LayerClock()
    install(clock)
    execute = session.execute_request
    path = os.path.join(out_dir, f"worker.{os.getpid()}.jsonl")

    def execute_and_record(request, on_interval=None):
        before = clock.snapshot()
        start_us = time.time_ns() // 1000
        started = time.perf_counter()
        with clock.span():
            result = execute(request, on_interval)
        event = span_event(
            "worker.request", start_us, time.perf_counter() - started,
            key=request.cache_key, layers=delta(clock.snapshot(), before),
        )
        with open(path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        return result

    session.execute_request = execute_and_record
