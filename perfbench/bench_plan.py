"""Seeded, fixed-count operation plans for the four benchmark workloads.

A plan is plain JSON data derived only from ``(workload, seed,
seconds)``: the program under test never sees the seed, only the
requests the plan names.  Every count in a plan is fixed by its
arguments -- never by wall-clock time -- so two runs with the same
arguments issue exactly the same operations in the same order.

This module imports nothing from the repository, so the orchestrator
can build plans without loading the simulator.
"""

from __future__ import annotations

import random

WORKLOADS = ("sim-thrash", "sim-resident", "serve-mixed", "resume")

#: The seed whose outputs are pinned in ``pins.json``.
DEFAULT_SEED = 1

#: Sample floors: a p50 needs 20 samples of one operation class, a p99
#: needs 1000.
MIN_P50_SAMPLES = 20
MIN_P99_SAMPLES = 1000

#: Disk hits of the sim-* and resume workloads, spread over the run.
#: The first hit after each cold request runs on cold host caches; with
#: 5000 hits those stay well under 1% of the samples, so the p99 is set
#: by the hits themselves rather than by how many cold requests a plan has.
HIT_SAMPLES = 5 * MIN_P99_SAMPLES

#: Serve-mixed traffic mix, per connection.
SERVE_CONNECTIONS = 1
SERVE_MISS_SHARE = 0.05
SERVE_DISK_KEYS_PER_CONNECTION = 12
SERVE_WARM_KEYS = 1

RESIDENT_SCENARIO = "syn:steady/seed={seed}/fp=6/hot=1.0/cold=0.0/reuse=16"


def _rng(workload: str, seed: int) -> random.Random:
    # str seeds hash deterministically (sha512), unlike hash() of a str
    return random.Random(f"perfbench:{workload}:{seed}")


def _fresh_seeds(rng: random.Random, count: int) -> list[int]:
    """``count`` distinct workload seeds."""
    return rng.sample(range(1, 1_000_000), count)


def _request(workload: str, protocol: str, num_cpus: int, seed: int,
             refs: int, **extra) -> dict:
    return {
        "workload": workload,
        "protocol": protocol,
        "num_cpus": num_cpus,
        "seed": seed,
        "refs": refs,
        **extra,
    }


def _hit_picks(rng: random.Random, choices: int) -> list[list[int]]:
    """After the i-th cold request, the indices (all <= i) to ask again.

    Hits are spread evenly over the run rather than issued in one burst
    at its end, so that they sample the same stretch of host time as the
    cold requests do.
    """
    per_request = -(-HIT_SAMPLES // choices)
    return [[rng.randrange(i + 1) for _ in range(per_request)]
            for i in range(choices)]


def _pairs(workloads, seeds, num_cpus: int, refs: int) -> list[dict]:
    """One software and one hatric request per (workload, seed)."""
    return [
        _request(workload, protocol, num_cpus, seed, refs)
        for seed in seeds
        for workload in workloads
        for protocol in ("software", "hatric")
    ]


def plan_sim_thrash(seed: int, seconds: int) -> dict:
    rng = _rng("sim-thrash", seed)
    rounds = max(5, round(seconds * 0.45))
    cold = _pairs(("data_caching", "canneal"), _fresh_seeds(rng, rounds),
                  num_cpus=16, refs=10240)
    daemon_seed = _fresh_seeds(rng, 1)[0]
    cold.append(_request(f"syn:migration-daemon/seed={daemon_seed}",
                         "hatric", 16, daemon_seed, 20480))
    fleet = {
        "hosts": 2, "vms_per_host": 2, "num_cpus": 4, "epochs": 3,
        "epoch_refs": 1024, "storm_refs": 64,
        "seed": _fresh_seeds(rng, 1)[0], "protocol": "hatric",
    }
    return {"cold": cold, "fleet": fleet,
            "hits": _hit_picks(rng, len(cold))}


def plan_sim_resident(seed: int, seconds: int) -> dict:
    rng = _rng("sim-resident", seed)
    count = max(MIN_P50_SAMPLES // 2, round(seconds * 1.4))
    seeds = _fresh_seeds(rng, count)
    cold = [
        _request(RESIDENT_SCENARIO.format(seed=s), protocol, 16, s, 204800)
        for s in seeds
        for protocol in ("software", "hatric")
    ]
    return {"cold": cold, "hits": _hit_picks(rng, len(cold))}


def _serve_request(seed: int) -> dict:
    return _request(f"syn:migration-daemon/seed={seed}", "hatric", 4, seed,
                    1024)


def plan_serve_mixed(seed: int, seconds: int) -> dict:
    """Closed-loop traffic over disjoint per-connection key sets.

    Each connection first-touches only its own keys, and repeats only
    keys it has already been answered for, so every request's class is
    fixed by the plan: a fresh key is a cold miss, a pre-populated key
    is a disk hit on first touch, and a repeat is a memo hit.
    """
    rng = _rng("serve-mixed", seed)
    per_connection = max(MIN_P99_SAMPLES, round(seconds * 200))
    misses = round(per_connection * SERVE_MISS_SHARE)
    disks = SERVE_DISK_KEYS_PER_CONNECTION
    seeds = iter(_fresh_seeds(
        rng, SERVE_CONNECTIONS * (misses + disks) + SERVE_WARM_KEYS))
    warm = [_serve_request(next(seeds)) for _ in range(SERVE_WARM_KEYS)]
    prepopulated: list[dict] = []
    connections = []
    for _ in range(SERVE_CONNECTIONS):
        fresh = [_serve_request(next(seeds)) for _ in range(misses)]
        stored = [_serve_request(next(seeds)) for _ in range(disks)]
        prepopulated.extend(stored)
        classes = ["miss"] * misses + ["disk"] * disks
        classes += ["memo"] * (per_connection - len(classes))
        # the first request must touch a key so later repeats have one
        head = classes.pop(rng.randrange(misses + disks))
        rng.shuffle(classes)
        classes.insert(0, head)
        ops, touched = [], []
        fresh_iter, stored_iter = iter(fresh), iter(stored)
        for kind in classes:
            if kind == "memo":
                ops.append({"class": "memo",
                            "request": touched[rng.randrange(len(touched))]})
                continue
            request = next(fresh_iter if kind == "miss" else stored_iter)
            touched.append(request)
            ops.append({"class": kind, "request": request})
        connections.append(ops)
    return {"warm": warm, "prepopulated": prepopulated,
            "connections": connections}


def plan_resume(seed: int, seconds: int) -> dict:
    rng = _rng("resume", seed)
    points = max(MIN_P50_SAMPLES, round(seconds * 1.4))
    step, base_refs = 2048, 12288
    daemon_seed = _fresh_seeds(rng, 1)[0]
    cap = base_refs + points * step
    family = f"prefix:{cap}:syn:migration-daemon/seed={daemon_seed}"

    def point(refs: int) -> dict:
        return _request(family, "software", 8, daemon_seed, refs,
                        warmup_refs=512)

    sweep = [point(base_refs + step * (k + 1)) for k in range(points)]
    return {"base": point(base_refs), "points": sweep,
            "hits": _hit_picks(rng, len(sweep))}


_PLANNERS = {
    "sim-thrash": plan_sim_thrash,
    "sim-resident": plan_sim_resident,
    "serve-mixed": plan_serve_mixed,
    "resume": plan_resume,
}


def make_plan(workload: str, seed: int, seconds: int) -> dict:
    """The full operation plan of one run."""
    if workload not in _PLANNERS:
        raise ValueError(
            f"unknown workload {workload!r}; expected one of {WORKLOADS}"
        )
    if seconds < 1:
        raise ValueError("seconds must be at least 1")
    plan = _PLANNERS[workload](seed, seconds)
    plan.update(workload=workload, seed=seed, seconds=seconds)
    return plan
