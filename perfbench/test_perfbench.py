"""Tests of the benchmark itself, at the smoke size.

Every workload runs and passes its check in both modes and reports exactly
the metrics BENCHMARK.json names; each check fails on a planted fault; the
traced counts repeat across runs; and the benchmark refuses to run without
the package's source tree.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from idpacct import accountant, cli, dpsgd_sim, rdp_math, release, traceio  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_pass_report_every_metric_and_repeat_counts(workload):
    plain = result_of(bench(workload, 0))
    traced = [result_of(bench(workload, 1)) for _ in range(2)]
    for res, kind in ((plain, "end_to_end"), (traced[0], "per_layer"),
                      (traced[1], "per_layer")):
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
        assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
            [(m["name"], m["unit"]) for m in SPEC[kind]]
        assert all(math.isfinite(v["value"]) for v in res["metrics"].values())
    assert all(v["value"] > 0 for v in plain["metrics"].values())
    for key in spans.EXACT_COUNTS:
        assert traced[0]["metrics"][key] == traced[1]["metrics"][key], key


def test_refuses_to_run_without_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cli_pipeline", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- planted faults ----------------------------------------------------------

@pytest.fixture
def make(tmp_path):
    def _make(name):
        workdir = tmp_path / name
        workdir.mkdir()
        w = workloads.make(name, str(workdir), seed=5, size="smoke")
        w.setup()
        return w
    return _make


def problems(workload) -> list:
    return run.iterate(workload)[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_passes_without_fault(make, workload):
    assert problems(make(workload)) == []


def test_account_large_check_holds_under_ceil_rounding(make, monkeypatch):
    def ceil_round(z, rounding, max_clip):
        j = np.clip(np.ceil(z / rounding), 1, math.ceil(max_clip / rounding))
        return np.minimum(j * rounding, max_clip)

    monkeypatch.setattr(accountant, "_round_array", ceil_round)
    assert problems(make("account_large")) == []


def test_account_large_check_catches_corrupt_curve(make, monkeypatch):
    replay = traceio.replay_trace

    def corrupted(*args, **kwargs):
        ledger = replay(*args, **kwargs)
        ledger.cache.corrupt_for_testing(0.98)      # the curve of bucket C
        return ledger

    monkeypatch.setattr(traceio, "replay_trace", corrupted)
    assert "saturated slice" in " ".join(problems(make("account_large")))


def test_exactness_sim_check_catches_corrupt_cache(make, monkeypatch):
    train = dpsgd_sim.train

    def corrupted(*args, **kwargs):
        out = train(*args, **kwargs)
        out.ledger.cache.corrupt_for_testing()
        return out

    monkeypatch.setattr(dpsgd_sim, "train", corrupted)
    assert "exact reference differ" in " ".join(problems(make("exactness_sim")))


def test_cli_check_catches_trace_that_disagrees_with_training(make, monkeypatch):
    write = traceio.write_trace
    monkeypatch.setattr(traceio, "write_trace",
                        lambda path, header, norms: write(path, header, 1.5 * norms))
    assert "differs from simulate" in " ".join(problems(make("cli_pipeline")))


def test_cli_check_catches_failed_command(make, monkeypatch):
    monkeypatch.setattr(cli, "cmd_release", lambda args: cli.EXIT_RUNTIME)
    assert "exit codes [0, 0, 2]" in " ".join(problems(make("cli_pipeline")))


def test_cli_check_catches_overspent_release(make, monkeypatch):
    release_all = release.release_all

    def overspent(*args, **kwargs):
        stats = release_all(*args, **kwargs)
        stats.budget["realized_epsilon"] = 1.5 * stats.budget["configured_epsilon"]
        return stats

    monkeypatch.setattr(release, "release_all", overspent)
    assert "released" in " ".join(problems(make("cli_pipeline")))


def test_count_check_catches_counts_that_change(make, monkeypatch):
    w = make("account_large")
    calls = itertools.count()
    original = w.run

    def drifting():
        if next(calls) == 3:                         # the second traced iteration
            rdp_math.sgm_rdp_curve(0.01, 1.0, [2, 3])
        return original()

    monkeypatch.setattr(w, "run", drifting)
    samples = run.measure(w, 0, trace=True)
    assert [bool(s["problems"]) for s in samples] == [False, False, False, True, False, False]
    assert "kernel.calls" in samples[3]["problems"][0]
