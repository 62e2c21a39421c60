"""One measured run of one workload plan, in a fresh interpreter.

``run.py`` starts this script once per set-up probe and once per
measured run, passing the plan it generated, and reads back the JSON
record written to ``--out``.  Nothing here picks inputs: every request
comes from the plan.

The record holds the raw samples and counters of the run; ``run.py``
turns them into the printed metrics.  Only fingerprint digests of
results are kept, never result objects, so the cyclic garbage collector
sees the same live heap on every run.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

import repro  # noqa: E402  (PYTHONPATH is set by run.py)
from repro.api import ResultCache, RunRequest, Session  # noqa: E402
from repro.api.cache import decode_result  # noqa: E402
from repro.api.request import CACHE_SCHEMA_VERSION  # noqa: E402
from repro.api.session import CHECKPOINT_COUNTERS, execute_request  # noqa: E402
from repro.experiments.fleet import fleet_spec  # noqa: E402
from repro.experiments.runner import baseline_config  # noqa: E402
from repro.experiments.scenarios import check_invariants  # noqa: E402
from repro.fleet.spec import FleetRequest  # noqa: E402
from repro.sim.engine import result_fingerprint  # noqa: E402

import bench_layers  # noqa: E402
from bench_plan import DEFAULT_SEED  # noqa: E402
from bench_stats import PIN_FAILED, check_pin  # noqa: E402

PINS_PATH = os.path.join(HERE, "pins.json")

#: Every how many hits the hit phase re-checks the served digest.
HIT_CHECK_EVERY = 50


def result_digest(result) -> str:
    """The sha256 fingerprint digest ``repro run --json`` prints."""
    return hashlib.sha256(
        json.dumps(result_fingerprint(result), sort_keys=True).encode("utf-8")
    ).hexdigest()


def to_request(spec: dict) -> RunRequest:
    return RunRequest(
        config=baseline_config(
            num_cpus=spec["num_cpus"], protocol=spec["protocol"],
            seed=spec["seed"],
        ),
        workload=spec["workload"],
        refs_total=spec["refs"],
        warmup_refs=spec.get("warmup_refs"),
    )


def to_fleet_request(spec: dict) -> FleetRequest:
    shape = {k: v for k, v in spec.items() if k != "protocol"}
    return FleetRequest(spec=fleet_spec(**shape), protocol=spec["protocol"])


def peak_rss_mb(pid="self") -> float:
    """VmHWM of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as stream:
        for line in stream:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def process_cpu_s(pid) -> float:
    """User plus system CPU seconds of a process, from /proc."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stream:
        fields = stream.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_ticks() -> int:
    """Host-wide stolen CPU ticks (the 8th value of /proc/stat's cpu line)."""
    with open("/proc/stat", encoding="ascii") as stream:
        return int(stream.readline().split()[8])


def stop_group(pgid: int, timeout: float = 10.0) -> None:
    """Kill what is left of a process group and wait until it is gone.

    The server leads its own group; its pool workers are in it too, and
    are not this process's children, so their end is polled for.
    """
    deadline = time.monotonic() + timeout
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            os.killpg(pgid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        return
    # only unreaped zombies can remain: they have ended, but say so
    print(f"perfbench: process group {pgid} still listed after SIGKILL",
          file=sys.stderr)


class Run:
    """Shared bookkeeping of one measured run."""

    def __init__(self, plan: dict, run_dir: str, spawned_at: float,
                 traced: bool) -> None:
        self.plan = plan
        self.run_dir = run_dir
        self.spawned_at = spawned_at
        self.traced = traced
        self.store = os.path.join(run_dir, "store")
        os.makedirs(self.store)
        if os.listdir(self.store):
            raise RuntimeError(f"store {self.store} does not start empty")
        with open(PINS_PATH, encoding="utf-8") as stream:
            self.pins = json.load(stream)
        self.gc = bench_layers.GcClock()
        self.clock = bench_layers.LayerClock() if traced else None
        if self.clock is not None:
            bench_layers.install(self.clock)
        self.spans: list[dict] = []
        self.samples = {"miss": [], "hit": []}
        self.attempted = 0
        self.failures: list[str] = []
        self.pin_outcomes = {"ok": 0, "unpinned": 0, "failed": 0}
        self.digests: dict[str, str] = {}
        self.refs = 0
        self.sim_wall_s = 0.0
        self.timed_wall_s = 0.0
        self.diag: dict = {}

    # -- bookkeeping ---------------------------------------------------
    def fail(self, message: str) -> None:
        self.failures.append(message)

    def pin(self, key: str, digest: str) -> None:
        """Record ``digest`` and, on the default seed, check its pin."""
        self.digests[key] = digest
        if self.plan["seed"] != DEFAULT_SEED:
            return
        outcome = check_pin(self.pins, CACHE_SCHEMA_VERSION,
                            self.plan["workload"], key, digest)
        self.pin_outcomes[outcome] += 1
        if outcome == PIN_FAILED:
            self.fail(f"digest of {key[:16]} differs from its pin")

    def timed_op(self, name: str, key: str, fn):
        """Run one operation; return ``(result, seconds)`` or ``(None, s)``."""
        self.attempted += 1
        before = self.clock.snapshot() if self.clock else None
        start_us = time.time_ns() // 1000
        start = time.perf_counter()
        try:
            if self.clock:
                with self.clock.span():
                    result = fn()
            else:
                result = fn()
        except Exception as error:  # counted, never fatal to the run
            traceback.print_exc()
            self.fail(f"{name} {key[:16]}: {type(error).__name__}: {error}")
            result = None
        elapsed = time.perf_counter() - start
        if self.clock:
            self.spans.append(bench_layers.span_event(
                name, start_us, elapsed, key=key,
                layers=bench_layers.delta(self.clock.snapshot(), before),
            ))
        return result, elapsed

    def phase(self, name: str, start_us: int, seconds: float) -> None:
        self.spans.append(bench_layers.span_event(
            f"phase.{name}", start_us, seconds))

    def setup_done(self) -> float:
        return time.monotonic() - self.spawned_at

    def begin_timed(self) -> None:
        if self.clock:
            self.clock.reset()
        self._timed_start_us = time.time_ns() // 1000
        self._cpu0 = time.process_time()
        self._gc0 = self.gc.snapshot()
        self._steal0 = steal_ticks()
        self._ckpt0 = dict(CHECKPOINT_COUNTERS)

    def end_timed(self) -> None:
        gc_s, gc2 = self.gc.snapshot()
        self.diag.update(
            cpu_s=time.process_time() - self._cpu0,
            gc_s=gc_s - self._gc0[0],
            gc_gen2=gc2 - self._gc0[1],
            steal_s=(steal_ticks() - self._steal0) / os.sysconf("SC_CLK_TCK"),
            checkpoints={k: CHECKPOINT_COUNTERS[k] - self._ckpt0[k]
                         for k in CHECKPOINT_COUNTERS},
        )
        self.phase("timed", self._timed_start_us, self.timed_wall_s)
        if self.clock:
            self.diag["layers"] = self.clock.snapshot()

    def record(self, setup_s: float) -> dict:
        return {
            "setup_s": setup_s,
            "attempted": self.attempted,
            "failures": self.failures,
            "samples": self.samples,
            "refs": self.refs,
            "sim_wall_s": self.sim_wall_s,
            "timed_wall_s": self.timed_wall_s,
            "peak_rss_mb": peak_rss_mb(),
            "pins": self.pin_outcomes,
            "schema": CACHE_SCHEMA_VERSION,
            "digests": self.digests,
            "diag": self.diag,
        }

    def check(self) -> None:
        """Output checks that need the whole timed phase (none by default)."""

    def teardown(self) -> None:
        """Stop what ``setup`` started (nothing by default)."""

    def write_spans(self) -> str:
        path = os.path.join(self.run_dir, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as stream:
            for event in self.spans:
                stream.write(json.dumps(event, separators=(",", ":")) + "\n")
        return path

    # -- phases shared by the in-process workloads ----------------------
    def cold_request(self, session: Session, spec: dict):
        """One cold ``Session.run``; returns the result (or None)."""
        request = to_request(spec)
        key = request.cache_key
        result, elapsed = self.timed_op(
            "op.miss", key, lambda: session.run(request))
        session.forget()  # the memo would keep every result alive
        if result is None:
            return None
        self.samples["miss"].append(elapsed * 1e3)
        self.sim_wall_s += elapsed
        self.pin(key, result_digest(result))
        return result

    def ask_again(self, requests: list, picks: list[int]) -> None:
        """Ask for already-computed results again from fresh sessions.

        Each ask is what a second ``repro run`` of the same request
        does: a new session over the same store answers it from disk.
        """
        for pick in picks:
            request = requests[pick]
            key = request.cache_key
            fresh = Session(cache_dir=self.store)
            result, elapsed = self.timed_op(
                "op.hit", key, lambda: fresh.run(request))
            if result is None:
                continue
            if fresh.stats.disk_hits != 1:
                self.fail(f"hit on {key[:16]} was not a disk hit")
                continue
            self.samples["hit"].append(elapsed * 1e3)
            if len(self.samples["hit"]) % HIT_CHECK_EVERY == 0 and (
                result_digest(result) != self.digests.get(key)
            ):
                self.fail(f"hit on {key[:16]} differs from its run")


class SimWorkload(Run):
    """sim-thrash and sim-resident: cold requests, disk hits between them."""

    def setup(self) -> None:
        self.session = Session(cache_dir=self.store)

    def timed(self) -> None:
        start_us = time.time_ns() // 1000
        start = time.perf_counter()
        pending = {}
        asked = []
        for spec, picks in zip(self.plan["cold"], self.plan["hits"]):
            result = self.cold_request(self.session, spec)
            asked.append(to_request(spec))
            if result is not None:
                self.refs += spec["refs"]
            pair = (spec["workload"], spec["seed"])
            if spec["protocol"] == "software":
                pending[pair] = result
            elif spec["protocol"] == "hatric" and pair in pending:
                software = pending.pop(pair)
                if result is not None and software is not None:
                    for violation in check_invariants(
                        {"software": software, "hatric": result}
                    ):
                        self.fail(f"invariant: {violation}")
            del result
            self.ask_again(asked, picks)
        fleet = self.plan.get("fleet")
        if fleet is not None:
            request = to_fleet_request(fleet)
            outcome, elapsed = self.timed_op(
                "op.fleet", request.cache_key,
                lambda: self.session.run_fleet([request])[0])
            self.session.forget()
            if outcome is not None:
                self.sim_wall_s += elapsed
                self.refs += outcome.totals["instructions"]
                self.pin(request.cache_key, outcome.fingerprint)
                self.diag["fleet_migrations"] = len(outcome.migrations)
        wall = time.perf_counter() - start
        self.timed_wall_s += wall
        self.phase("cold", start_us, wall)


class ResumeWorkload(Run):
    """A fine-grained checkpointed ``refs_total`` sweep, disk hits between."""

    def setup(self) -> None:
        self.session = Session(cache_dir=self.store, checkpoints=True)
        base = to_request(self.plan["base"])
        self.session.run(base)
        self.session.forget()

    def timed(self) -> None:
        start_us = time.time_ns() // 1000
        start = time.perf_counter()
        previous = self.plan["base"]["refs"]
        last = None
        asked = []
        for spec, picks in zip(self.plan["points"], self.plan["hits"]):
            restored = CHECKPOINT_COUNTERS["restored"]
            result = self.cold_request(self.session, spec)
            asked.append(to_request(spec))
            if result is None:
                continue
            if CHECKPOINT_COUNTERS["restored"] != restored + 1:
                self.fail(f"point {spec['refs']} was not restored")
            self.refs += spec["refs"] - previous
            previous = spec["refs"]
            last = (spec, self.digests[to_request(spec).cache_key])
            del result
            self.ask_again(asked, picks)
        wall = time.perf_counter() - start
        self.timed_wall_s += wall
        self.phase("sweep", start_us, wall)
        self._last_point = last

    def check(self) -> None:
        """Off the default seed, re-run the last point cold and compare."""
        if self.plan["seed"] == DEFAULT_SEED or self._last_point is None:
            return
        spec, digest = self._last_point
        if result_digest(execute_request(to_request(spec))) != digest:
            self.fail(f"restored point {spec['refs']} differs from a cold run")


class ServeWorkload(Run):
    """A live ``repro serve`` driven by a closed loop of requests."""

    def setup(self) -> None:
        from repro.serve.client import ServiceClient

        cache = ResultCache(self.store)
        for spec in self.plan["prepopulated"]:
            request = to_request(spec)
            result = execute_request(request)
            cache.put(request.cache_key, result)
            self.digests[request.cache_key] = result_digest(result)
            del result
        env = dict(os.environ)
        if self.traced:
            env["REPRO_TRACE"] = os.path.join(self.run_dir, "server.jsonl")
            command = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                       "--out-dir", self.run_dir]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        command += ["--port", "0", "--cache-dir", self.store,
                    "--workers", "1"]
        self.server = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        line = self.server.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        host, port = address.rsplit(":", 1)
        self.client = ServiceClient(host, int(port))
        # start the pool worker before timing, with one cold request
        for spec in self.plan["warm"]:
            status, body = asyncio.run(self.client.post(
                "/run", {"request": to_request(spec).to_dict()}))
            if status != 200 or not body.get("ok"):
                raise RuntimeError(f"warm-up request failed: {body}")

    def timed(self) -> None:
        self._cpu_server0 = process_cpu_s(self.server.pid)
        if self.traced:
            # the launcher zeroes its layer counters on SIGUSR1
            os.kill(self.server.pid, signal.SIGUSR1)
            time.sleep(0.05)
        self._window = [time.time_ns() // 1000]
        start = time.perf_counter()
        self._checked = asyncio.run(self._drive())
        self.timed_wall_s = time.perf_counter() - start
        # misses and hits share the loop, so the whole phase counts
        self.sim_wall_s = self.timed_wall_s
        self._window.append(time.time_ns() // 1000)
        self.diag["server_cpu_s"] = (
            process_cpu_s(self.server.pid) - self._cpu_server0
        )

    async def _drive(self) -> list:
        results = await asyncio.gather(*[
            self._connection(ops) for ops in self.plan["connections"]
        ])
        return [item for sample in results for item in sample]

    async def _connection(self, ops: list[dict]) -> list:
        """Replay one connection's plan; return the responses to check."""
        expected = {"miss": "executed", "disk": "disk", "memo": "memo"}
        kept, unchecked = [], {"miss", "disk", "memo"}
        for op in ops:
            request = to_request(op["request"])
            payload = {"request": request.to_dict()}
            self.attempted += 1
            start_us = time.time_ns() // 1000
            start = time.perf_counter()
            try:
                status, body = await self.client.post("/run", payload)
            except Exception as error:  # counted, never fatal to the run
                traceback.print_exc()
                self.fail(f"{op['class']}: {type(error).__name__}: {error}")
                continue
            elapsed = time.perf_counter() - start
            key = request.cache_key
            if status != 200 or not body.get("ok"):
                self.fail(f"{op['class']} {key[:16]}: status {status}")
                continue
            if body["source"] != expected[op["class"]]:
                self.fail(f"{op['class']} {key[:16]} answered as "
                          f"{body['source']}")
                continue
            cls = "miss" if op["class"] == "miss" else "hit"
            self.samples[cls].append(elapsed * 1e3)
            if cls == "miss":
                self.refs += op["request"]["refs"]
            if self.traced:
                self.spans.append(bench_layers.span_event(
                    f"op.{op['class']}", start_us, elapsed, key=key))
            # the first miss, disk hit and memo hit of each connection
            # are compared with direct execution after the timed phase
            if op["class"] in unchecked:
                unchecked.discard(op["class"])
                kept.append((op["request"], body["result"]))
        return kept

    def check(self) -> None:
        import urllib.request

        url = f"http://{self.client.host}:{self.client.port}/stats"
        with urllib.request.urlopen(url, timeout=30) as response:
            stats = json.load(response)
        counts = {name: stats[name] for name in
                  ("requests", "memo_hits", "disk_hits", "executed",
                   "coalesced", "errors")}
        self.diag["serve"] = counts
        plan = self.plan
        ops = [op for c in plan["connections"] for op in c]
        want = {
            "memo_hits": sum(op["class"] == "memo" for op in ops),
            "disk_hits": sum(op["class"] == "disk" for op in ops),
            "executed": sum(op["class"] == "miss" for op in ops)
            + len(plan["warm"]),
            "coalesced": 0,
            "errors": 0,
        }
        for name, value in want.items():
            if counts[name] != value:
                self.fail(f"/stats {name} = {counts[name]}, expected {value}")
        if counts["requests"] != sum(
            counts[n] for n in ("memo_hits", "disk_hits", "executed",
                                "coalesced")
        ):
            self.fail("/stats breaks requests == memo+disk+executed+coalesced")
        for spec, encoded in self._checked:
            request = to_request(spec)
            key = request.cache_key
            served = result_digest(decode_result(encoded))
            direct = self.digests.get(key)
            if direct is None:
                direct = result_digest(execute_request(request))
            if served != direct:
                self.fail(f"served {key[:16]} differs from execute_request")
            self.pin(key, served)

    def teardown(self) -> None:
        server = getattr(self, "server", None)
        if server is None:
            return
        if server.poll() is None:
            self.diag_server_rss = peak_rss_mb(server.pid)
            server.send_signal(signal.SIGINT)
            try:
                server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                os.killpg(server.pid, signal.SIGKILL)
                server.wait()
        server.stdout.close()
        stop_group(server.pid)


    def record(self, setup_s: float) -> dict:
        record = super().record(setup_s)
        rss = getattr(self, "diag_server_rss", None)
        if rss is not None:
            record["diag"]["client_rss_mb"] = record["peak_rss_mb"]
            record["peak_rss_mb"] = rss
        return record


WORKLOAD_CLASSES = {
    "sim-thrash": SimWorkload,
    "sim-resident": SimWorkload,
    "serve-mixed": ServeWorkload,
    "resume": ResumeWorkload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"repro imported from {repro.__file__}, not from {SRC}")
    # a deadline SIGTERM from run.py still runs teardown (stops the server)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    with open(args.plan, encoding="utf-8") as stream:
        plan = json.load(stream)
    run = WORKLOAD_CLASSES[plan["workload"]](
        plan, args.run_dir, args.spawned_at, args.traced)
    try:
        start_us = time.time_ns() // 1000
        run.setup()
        setup_s = run.setup_done()
        run.phase("setup", start_us, setup_s)
        if not args.setup_only:
            run.begin_timed()
            run.timed()
            run.end_timed()
            start_us, start = time.time_ns() // 1000, time.perf_counter()
            run.check()
            run.phase("check", start_us, time.perf_counter() - start)
    finally:
        run.teardown()
    record = run.record(setup_s)
    if args.traced:
        record["spans"] = run.write_spans()
        record["window_us"] = getattr(run, "_window", None)
    with open(args.out, "w", encoding="utf-8") as stream:
        json.dump(record, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
