"""``repro serve`` with the benchmark's layer timers, for traced runs.

Starts the same service ``python -m repro serve`` starts, after wrapping
the server-side layers (request parsing, cache keys, planning, store
reads and writes, result encoding) and the pool workers' layers, and
runs a lag probe on the event loop.  SIGUSR1 zeroes the counters (the
client sends it when its timed phase begins); SIGINT stops the server,
which then writes ``server_layers.json`` into ``--out-dir``.

Usage::

    python perfbench/serve_launcher.py --out-dir DIR --port 0 \\
        --cache-dir STORE --workers 2
"""

from __future__ import annotations

import argparse
import asyncio
import json
import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor

import bench_layers

#: Seconds between lag-probe wake-ups.
PROBE_INTERVAL = 0.002


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    from repro.api import session
    from repro.serve import ReproServer, ServiceSettings, SimulationService
    from repro.serve import http
    from repro.serve import service as service_module

    clock = bench_layers.LayerClock()
    bench_layers.install(clock, serve=True)
    gc_clock = bench_layers.GcClock()

    def traced_pool(max_workers):
        return ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=bench_layers.install_worker,
            initargs=(args.out_dir,),
        )

    service_module._worker_pool = traced_pool

    # server-side time of each hit, from parsing to encoding: a hit
    # never yields to the event loop in between, so no other request's
    # calls interleave with it
    hits = {"start": 0.0, "seconds": 0.0, "count": 0}
    parse = http.parse_run_payload

    def parse_and_mark(data):
        hits["start"] = time.perf_counter()
        return parse(data)

    http.parse_run_payload = parse_and_mark
    encode = service_module.SimulationService.__dict__["result_event"].__func__

    def encode_and_mark(key, source, result):
        event = encode(key, source, result)
        if source in (session.PLAN_MEMO, session.PLAN_DISK):
            hits["seconds"] += time.perf_counter() - hits["start"]
            hits["count"] += 1
        return event

    service_module.SimulationService.result_event = staticmethod(
        encode_and_mark)

    lags: list[tuple[int, float]] = []
    gc0 = [0.0, 0]

    def reset() -> None:
        clock.reset()
        hits.update(seconds=0.0, count=0)
        lags.clear()
        gc0[:] = gc_clock.snapshot()

    async def probe() -> None:
        loop = asyncio.get_running_loop()
        while True:
            before = loop.time()
            await asyncio.sleep(PROBE_INTERVAL)
            lags.append((time.time_ns() // 1000,
                         loop.time() - before - PROBE_INTERVAL))

    service = SimulationService(
        ServiceSettings(cache_dir=args.cache_dir, workers=args.workers))
    server = ReproServer(service, host=args.host, port=args.port)

    async def run() -> None:
        host, port = await server.start()
        asyncio.get_running_loop().add_signal_handler(signal.SIGUSR1, reset)
        probe_task = asyncio.ensure_future(probe())
        print(f"repro serve: listening on http://{host}:{port} "
              f"(traced, workers {args.workers})", flush=True)
        try:
            await server.serve_forever()
        finally:
            probe_task.cancel()
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    gc_s, gc2 = gc_clock.snapshot()
    with open(os.path.join(args.out_dir, "server_layers.json"), "w",
              encoding="utf-8") as stream:
        json.dump({
            "layers": clock.snapshot(),
            "hit_server_s": hits["seconds"],
            "hit_server_count": hits["count"],
            "lags": lags,
            "gc_s": gc_s - gc0[0],
            "gc_gen2": gc2 - gc0[1],
        }, stream)


if __name__ == "__main__":
    main()
