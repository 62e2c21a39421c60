"""Regression tests for the committed adversarial corpus.

``tests/golden/hunt_corpus.json`` snapshots the frontier of one pinned
hunt (:data:`CORPUS_SETTINGS`): the worst translation-coherence
scenarios the search has found so far.  Every entry re-simulates here
on both engines (``REPRO_VALIDATE_FASTPATH=1`` with the fast engine
runs reference and fast in one request and diffs them) and must
reproduce its recorded protocol ordering and overhead ratio within the
corpus tolerance.

The corpus also encodes the search's reason to exist: its best entry
must be *strictly worse* (higher software-vs-ideal overhead) than
every scenario of the fixed differential matrix on the same machine at
the same scale — a hand-written matrix should never dominate the
adversarial search.

Regenerate after an *intentional* simulator or search change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_hunt_corpus.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.api import RunRequest, Session
from repro.experiments.scenarios import check_invariants
from repro.search import HuntSettings, corpus_from_result, run_hunt
from repro.search.engine import hunt_base_config
from repro.search.report import CORPUS_SCHEMA, CORPUS_TOLERANCE, corpus_requests
from tests.conftest import update_golden_requested
from tests.test_differential import SCENARIO_MATRIX, matrix_spec

CORPUS_PATH = Path(__file__).parent / "golden" / "hunt_corpus.json"

#: The pinned hunt that generates the corpus.  Small machine and short
#: traces so the replay tests below stay cheap, but deep enough (40
#: evaluations, 4000 refs under real memory pressure) that the frontier
#: scenarios meaningfully separate the protocols.
CORPUS_SETTINGS = HuntSettings(
    budget=40,
    seed=2025,
    num_cpus=4,
    refs_total=4000,
    warmup_refs=64,
    population=8,
    parents=4,
    frontier_size=6,
)


@functools.lru_cache(maxsize=1)
def _corpus() -> dict:
    if update_golden_requested():
        result = run_hunt(CORPUS_SETTINGS, Session())
        payload = corpus_from_result(result)
        CORPUS_PATH.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
    return json.loads(CORPUS_PATH.read_text())


def test_corpus_is_the_pinned_hunt():
    """The file must stay in lockstep with :data:`CORPUS_SETTINGS`."""
    corpus = _corpus()
    assert corpus["schema"] == CORPUS_SCHEMA
    assert corpus["tolerance"] == CORPUS_TOLERANCE
    assert corpus["settings"] == CORPUS_SETTINGS.to_dict()
    entries = corpus["entries"]
    assert len(entries) == CORPUS_SETTINGS.frontier_size
    metrics = [entry["metric"] for entry in entries]
    assert metrics == sorted(metrics, reverse=True)
    names = [entry["workload"] for entry in entries]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("index", range(CORPUS_SETTINGS.frontier_size))
def test_corpus_entry_replays_across_engines(monkeypatch, index):
    """Each entry reproduces its ordering and ratio on every engine."""
    monkeypatch.setenv("REPRO_VALIDATE_FASTPATH", "1")
    corpus = _corpus()
    entry = corpus["entries"][index]
    session = Session()
    requests = corpus_requests(corpus, entry)
    results = dict(
        zip(corpus["settings"]["protocols"], session.run_batch(requests))
    )
    assert check_invariants(results) == []
    # The recorded ordering, explicitly: ideal <= hatric <= software.
    assert results["ideal"].runtime_cycles <= results["hatric"].runtime_cycles
    assert (
        results["hatric"].runtime_cycles <= results["software"].runtime_cycles
    )
    replayed = results["software"].runtime_cycles / max(
        1, results["ideal"].runtime_cycles
    )
    assert replayed == pytest.approx(
        entry["metric"], rel=corpus["tolerance"]
    ), (
        f"{entry['workload']} drifted from the committed corpus; if the "
        f"simulation change is intentional, regenerate with "
        f"REPRO_UPDATE_GOLDEN=1"
    )


def test_corpus_best_beats_every_matrix_scenario():
    """The hunt's worst case dominates the hand-written matrix."""
    corpus = _corpus()
    best = corpus["entries"][0]
    settings = corpus["settings"]
    base = hunt_base_config(settings["num_cpus"])
    session = Session()
    for index in SCENARIO_MATRIX:
        spec = matrix_spec(index)
        results = {
            protocol: session.run(
                RunRequest(
                    config=base.with_protocol(protocol),
                    workload=spec.name,
                    refs_total=settings["refs_total"],
                    warmup_refs=settings["warmup_refs"],
                )
            )
            for protocol in ("software", "ideal")
        }
        ratio = results["software"].runtime_cycles / max(
            1, results["ideal"].runtime_cycles
        )
        assert best["metric"] > ratio, (
            f"matrix scenario {spec.name} ({ratio:.4f}) is worse than the "
            f"corpus best {best['workload']} ({best['metric']:.4f}); the "
            f"hunt should dominate the fixed matrix -- regenerate the "
            f"corpus with a deeper hunt"
        )
