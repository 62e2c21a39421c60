"""Smoke and parity tests for the ``python -m repro`` CLI."""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import ExperimentScale, Session
from repro.cli import _build_parser, main
from repro.experiments import run_figure7
from repro.obs import trace as obs_trace
from repro.serve import ServiceClient

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def _module_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_module(*args: str) -> subprocess.CompletedProcess:
    """Invoke ``python -m repro`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=_module_env(),
    )


TIMELINE_ARGS = [
    "timeline",
    "--workload",
    "syn:migration-daemon/addr=zipf/seed=7",
    "--protocols",
    "software,hatric",
    "--num-cpus",
    "4",
    "--refs",
    "6000",
    "--intervals",
    "4",
]

HUNT_ARGS = [
    "hunt", "--budget", "1", "--population", "1", "--num-cpus", "2",
    "--refs", "2000", "--no-cache",
]

SERVE_ARGV = ["serve", "--port", "0", "--workers", "0", "--cache-dir", "{tmp}"]

#: One row per handler the parser binds, at tiny shapes: (argv, exit
#: code, markers the printed output contains).  ``{tmp}`` expands to the
#: test's temp directory and ``{trace}`` to a JSONL file a traced
#: ``run`` wrote.  ``serve`` blocks, so its own subprocess test covers it.
SMOKE_ROWS = [
    pytest.param(["list"], 0, ["figure2", "canneal"], id="list"),
    pytest.param(
        ["figure2", "--workloads", "facesim", "--num-cpus", "4", "--scale", "0.03"],
        0,
        ["facesim", "curr-best"],
        id="figure2",
    ),
    pytest.param(
        ["figure10", "--mixes", "1", "--apps-per-mix", "2", "--scale", "0.02"],
        0,
        ["mix00", "sw weighted"],
        id="figure10-mixes",
    ),
    pytest.param(
        ["anatomy", "--num-cpus", "2"],
        0,
        ["single page remap on a 2-CPU VM"],
        id="anatomy",
    ),
    pytest.param(
        ["sweep", "--axis", "protocol=software,hatric", "--axis",
         "workload=facesim", "--num-cpus", "2", "--scale", "0.02",
         "--normalize", "protocol=ideal"],
        0,
        ["normalized_runtime", "software  facesim"],
        id="sweep",
    ),
    pytest.param(
        ["consolidation", "--guests", "1", "--sharing", "pinned",
         "--num-cpus", "2", "--scale", "0.02"],
        0,
        ["1 guest(s), pinned", "differential invariants: OK"],
        id="consolidation",
    ),
    pytest.param(
        ["scenario", "list"], 0, ["migration-daemon", "zipf"], id="scenario-list"
    ),
    pytest.param(
        ["scenario", "generate", "--family", "steady", "--vcpus", "2",
         "--refs", "2000"],
        0,
        ["syn:steady/vcpus=2/refs=2000", "total_references: 2000"],
        id="scenario-generate",
    ),
    pytest.param(
        ["scenario", "run", "--family", "steady", "--protocols",
         "software,ideal", "--vcpus", "2", "--refs", "2000", "--no-cache"],
        0,
        ["differential invariants: OK", "session: 2 simulated"],
        id="scenario-run",
    ),
    pytest.param(
        ["scenario", "diff", "--family", "steady", "--seeds", "0",
         "--protocols", "software,ideal", "--vcpus", "2", "--refs", "2000",
         "--no-cache"],
        0,
        ["PASS  syn:steady", "all invariants hold"],
        id="scenario-diff",
    ),
    pytest.param(
        HUNT_ARGS, 0, ["hunt: 1 evaluations", "differential invariants: OK"],
        id="hunt",
    ),
    pytest.param(
        TIMELINE_ARGS,
        0,
        ["timeline: syn:migration-daemon", "software:", "hatric:", "coh.cycles"],
        id="timeline",
    ),
    pytest.param(
        ["profile", "--protocols", "software,hatric", "--num-cpus", "2",
         "--refs", "2000", "--intervals", "2"],
        0,
        ["profile: syn:migration-daemon", "translation coherence"],
        id="profile",
    ),
    pytest.param(
        ["run", "--refs", "2000", "--num-cpus", "2"],
        0,
        ["runtime cycles:", "fingerprint:       sha256:"],
        id="run",
    ),
    pytest.param(
        ["trace", "summary", "{trace}"], 0, ["events)", "count="],
        id="trace-summary",
    ),
    pytest.param(
        ["trace", "export", "{trace}", "{tmp}/chrome.json"],
        0,
        ["Chrome trace_event format"],
        id="trace-export",
    ),
    pytest.param(
        # fleet rejects a single epoch
        ["fleet", "--vms-per-host", "1", "--num-cpus", "2", "--epochs", "2",
         "--epoch-refs", "64", "--storm-refs", "32", "--intensities", "1",
         "--protocols", "software,ideal"],
        0,
        ["fleet: 2 hosts", "differential invariants: OK"],
        id="fleet",
    ),
    pytest.param(
        ["cache", "--cache-dir", "{tmp}", "info"], 0, ["store_entries"],
        id="cache-info",
    ),
    pytest.param(
        ["cache", "--cache-dir", "{tmp}", "prune", "--min-age", "0"],
        0,
        ["results: removed 0 stale"],
        id="cache-prune",
    ),
    pytest.param(
        # an empty --scenarios list skips the scenario cases
        ["bench", "--workloads", "facesim", "--scenarios", "", "--repeats",
         "1", "--scale", "0.02", "--num-cpus", "2", "--no-incremental"],
        0,
        ["facesim@2cpu/hatric", "over 1 cases", "results bit-identical"],
        id="bench",
    ),
    pytest.param(
        ["loadtest", "--clients", "2", "--requests", "1", "--scenarios", "1",
         "--workers", "0", "--num-cpus", "2", "--refs", "2000", "--no-multi",
         "--cache-dir", "{tmp}"],
        0,
        ["OK: dedup", "OK: bit-identity"],
        id="loadtest",
    ),
]


def _expand(argv, tmp_path, trace=None) -> list:
    return [
        arg.replace("{tmp}", str(tmp_path)).replace("{trace}", str(trace))
        for arg in argv
    ]


@pytest.fixture
def traced_run(tmp_path, monkeypatch):
    """A JSONL trace written by one traced ``repro run``."""
    path = tmp_path / "run.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    monkeypatch.delenv("_REPRO_TRACE_OWNER_PID", raising=False)
    obs_trace.reset()
    try:
        assert main(["run", "--refs", "2000", "--num-cpus", "2"]) == 0
    finally:
        monkeypatch.delenv("REPRO_TRACE")
        monkeypatch.delenv("_REPRO_TRACE_OWNER_PID", raising=False)
        obs_trace.reset()
    return path


@pytest.mark.parametrize("argv, code, markers", SMOKE_ROWS)
def test_smoke(argv, code, markers, tmp_path, capsys, request):
    trace = request.getfixturevalue("traced_run") if "{trace}" in argv else None
    capsys.readouterr()
    assert main(_expand(argv, tmp_path, trace)) == code
    out = capsys.readouterr().out
    for marker in markers:
        assert marker in out


def _bound_handlers(parser: argparse.ArgumentParser) -> set:
    handlers = {parser.get_default("handler")} - {None}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                handlers |= _bound_handlers(sub)
    return handlers


def test_smoke_rows_reach_every_handler(tmp_path):
    parser = _build_parser()
    argvs = [row.values[0] for row in SMOKE_ROWS] + [SERVE_ARGV]
    reached = {
        parser.parse_args(_expand(argv, tmp_path, "run.jsonl")).handler
        for argv in argvs
    }
    assert reached == _bound_handlers(parser)


def test_serve_listens_answers_and_stops_on_sigint(tmp_path):
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *_expand(SERVE_ARGV, tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_module_env(),
    )
    try:
        # perfbench's serve-mixed workload parses this first line
        line = proc.stdout.readline()
        assert "listening on http://" in line, proc.stderr.read()
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        status, _ = asyncio.run(ServiceClient(host, int(port)).get("/healthz"))
        assert status == 200
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0, err
    assert "repro serve: stopped" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--refs", "2000", "--num-cpus", "2", "--output",
         "{tmp}/missing/a.txt"],
        HUNT_ARGS + ["--corpus", "{tmp}/missing/c.json"],
    ],
    ids=["output", "hunt-corpus"],
)
def test_write_failure_is_an_error_line(argv, tmp_path, capsys):
    assert main(_expand(argv, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "missing" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["consolidation", "--guests", "x"],
        ["scenario", "diff", "--seeds", "x"],
        ["fleet", "--intensities", "x"],
    ],
    ids=lambda argv: argv[-2],
)
def test_malformed_int_list_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert (
        f"argument {argv[-2]}: invalid int-list value: 'x'"
        in capsys.readouterr().err
    )


class TestCli:
    def test_figure_json_and_output_file(self, capsys, tmp_path):
        target = tmp_path / "figure2.json"
        code = main(
            [
                "figure2",
                "--workloads",
                "facesim",
                "--num-cpus",
                "4",
                "--scale",
                "0.03",
                "--json",
                "--output",
                str(target),
            ]
        )
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["figure"] == "figure2"
        row = printed["result"]["rows"][0]
        assert row["workload"] == "facesim"
        assert row["normalized_runtime"]["no-hbm"] == 1.0
        assert json.loads(target.read_text()) == printed

    def test_module_smoke(self):
        """``python -m repro figure2 --scale 0.05 --json`` runs end to end."""
        proc = run_module(
            "figure2",
            "--scale",
            "0.05",
            "--json",
            "--workloads",
            "facesim",
            "--num-cpus",
            "4",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["figure"] == "figure2"

    def test_figure7_cli_matches_direct_call(self, capsys):
        """CLI output equals the library call at the same scale (acceptance)."""
        code = main(
            [
                "figure7",
                "--workloads",
                "facesim",
                "--scale",
                "0.05",
                "--json",
            ]
        )
        assert code == 0
        cells = json.loads(capsys.readouterr().out)["result"]["cells"]
        direct = run_figure7(
            workloads=["facesim"],
            scale=ExperimentScale(trace_scale=0.05),
            session=Session(),
        )
        assert cells
        for cell in cells:
            assert direct.value(
                cell["workload"], cell["vcpus"], cell["series"]
            ) == pytest.approx(cell["normalized_runtime"], abs=1e-12)

    def test_sweep_command(self, capsys):
        code = main(
            [
                "sweep",
                "--axis",
                "protocol=software,hatric",
                "--axis",
                "workload=facesim",
                "--num-cpus",
                "4",
                "--scale",
                "0.03",
                "--normalize",
                "protocol=ideal",
                "--normalize",
                "placement=slow-only",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["axes"]["protocol"] == ["software", "hatric"]
        assert all("normalized_runtime" in cell for cell in payload["cells"])

    def test_sweep_rejects_unknown_axis(self, capsys):
        code = main(["sweep", "--axis", "bogus=1", "--axis", "workload=facesim"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_scenario_generate(self, capsys):
        code = main(
            [
                "scenario",
                "generate",
                "--family",
                "ballooning",
                "--seed",
                "5",
                "--vcpus",
                "2",
                "--refs",
                "3000",
                "--json",
            ]
        )
        assert code == 0
        (summary,) = json.loads(capsys.readouterr().out)
        assert summary["name"].startswith("syn:ballooning/")
        assert summary["num_vcpus"] == 2
        assert summary["total_references"] == 3000

    def test_scenario_run_validates_and_caches(self, capsys, tmp_path):
        # 8 vCPUs at 20k refs over the default footprint is the
        # smallest CLI shape where the protocols actually separate, so
        # the invariant verdict is not vacuously true (see the
        # non-vacuity assertion below).
        args = [
            "scenario",
            "run",
            "--family",
            "migration-daemon",
            "--protocols",
            "software,hatric,ideal",
            "--seed",
            "7",
            "--vcpus",
            "8",
            "--refs",
            "20000",
            "--cache-dir",
            str(tmp_path),
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["ok"] is True
        assert first["session"]["executed"] == 3
        assert {cell["protocol"] for cell in first["cells"]} == {
            "software",
            "hatric",
            "ideal",
        }
        # Non-vacuous: remaps happened, so software pays visibly more
        # than ideal and the invariants were checked on a real spread.
        (software,) = [
            cell for cell in first["cells"] if cell["protocol"] == "software"
        ]
        assert software["normalized_runtime"] > 1.2
        assert software["coherence_cycles"] > 0
        # Rerunning the same command is answered from the disk cache.
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["session"]["executed"] == 0
        assert second["session"]["disk_hits"] == 3
        assert second["cells"] == first["cells"]

    def test_scenario_no_cache_wins_over_cache_dir(self, capsys, tmp_path):
        args = [
            "scenario",
            "run",
            "--family",
            "steady",
            "--protocols",
            "software,ideal",
            "--vcpus",
            "2",
            "--refs",
            "2000",
            "--footprint",
            "300",
            "--cache-dir",
            str(tmp_path),
            "--no-cache",
            "--json",
        ]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["session"]["executed"] == 2
        assert not list(tmp_path.glob("*.json"))  # nothing persisted

    def test_scenario_diff(self, capsys, tmp_path):
        code = main(
            [
                "scenario",
                "diff",
                "--family",
                "steady,numa-balancing",
                "--seeds",
                "0,1",
                "--protocols",
                "software,ideal",
                "--vcpus",
                "4",
                "--refs",
                "4000",
                "--footprint",
                "500",
                "--cache-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "all invariants hold" in out

    def test_jobs_and_cache_dir(self, capsys, tmp_path):
        args = [
            "figure2",
            "--workloads",
            "facesim",
            "--num-cpus",
            "4",
            "--scale",
            "0.03",
            "--cache-dir",
            str(tmp_path),
            "--json",
        ]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert len(list(tmp_path.glob("*.json"))) > 0
        # Second invocation is served from the on-disk cache.
        assert main(args + ["--jobs", "2"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == first


class TestTimelineCli:
    ARGS = TIMELINE_ARGS

    def test_timeline_json_is_conserved(self, capsys):
        assert main(self.ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["protocol"] for s in payload["series"]] == [
            "software",
            "hatric",
        ]
        for series in payload["series"]:
            assert series["intervals"], "telemetry must produce samples"
            assert (
                sum(row["coherence_cycles"] for row in series["intervals"])
                == series["coherence_cycles"]
            )

    def test_timeline_uses_the_session_cache(self, capsys, tmp_path):
        args = self.ARGS + ["--cache-dir", str(tmp_path), "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second == first
        assert len(list(tmp_path.glob("*.json"))) >= 2


class TestCacheCli:
    def test_cache_info_and_prune(self, capsys, tmp_path):
        # seed the cache through an ordinary cached run
        assert (
            main(
                [
                    "figure2",
                    "--workloads",
                    "facesim",
                    "--num-cpus",
                    "4",
                    "--scale",
                    "0.03",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        good = len(list(tmp_path.glob("*.json")))
        assert good > 0
        # plant one stale-schema entry and one torn file
        (tmp_path / "stale.json").write_text(
            '{"type": "simulation", "schema": -1}', encoding="utf-8"
        )
        (tmp_path / "torn.json").write_text("{torn", encoding="utf-8")

        assert main(["cache", "--cache-dir", str(tmp_path), "info"]) == 0
        out = capsys.readouterr().out
        # canonical store-metric names (see repro.obs.metrics): the CLI
        # renders the same table /stats and /metrics report from
        assert re.search(rf"store_entries\s+{good + 2}\b", out)
        assert re.search(r"checkpoint_entries\s+0\b", out)

        # the default --min-age (one hour) protects freshly-written
        # entries: a prune racing a live server deletes nothing young
        assert main(["cache", "--cache-dir", str(tmp_path), "prune"]) == 0
        out = capsys.readouterr().out
        assert "removed 0 stale" in out
        assert (tmp_path / "stale.json").exists()
        assert (tmp_path / "torn.json").exists()

        assert (
            main(
                [
                    "cache",
                    "--cache-dir",
                    str(tmp_path),
                    "prune",
                    "--min-age",
                    "0",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "removed 2 stale" in out
        assert not (tmp_path / "stale.json").exists()
        assert not (tmp_path / "torn.json").exists()
        assert len(list(tmp_path.glob("*.json"))) == good
