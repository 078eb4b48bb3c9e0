"""End-to-end tests of the command-line pipeline: subcommand behavior,
exit codes, determinism, and file round trips."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import idpacct
from idpacct.accountant import PrivacyReport
from idpacct.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    main,
)
from idpacct.traceio import TraceHeader, write_losses_csv, write_trace, write_trace_npz


def _write_config(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


def _sim_config(tmp_path, **overrides):
    fields = dict(n=100, d=6, epochs=2, sampling_prob=0.1, noise_std=0.8,
                  seed=5)
    fields.update(overrides)
    return _write_config(tmp_path, **fields)


def _read(path):
    with open(path, "rb") as f:
        return f.read()


# ------------------------------------------------------------- simulate ---

def test_simulate_smoke_writes_full_report(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out),
                 "--unsafe-export-per-example"])
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == 100
    assert len(report["epsilons"]) == 100
    assert (out / "trace.jsonl").exists()
    assert (out / "losses.csv").exists()
    assert (out / "analysis.json").exists()
    assert (out / "scatter.csv").exists()


def test_simulate_redacts_per_example_by_default(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "epsilons" not in report
    assert report["summary"]["mean"] > 0
    assert not (out / "scatter.csv").exists()


def test_simulate_byte_identical_under_same_seed(tmp_path):
    cfg = _sim_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--unsafe-export-per-example"]) == EXIT_OK
    for name in ("trace.jsonl", "losses.csv", "report.json",
                 "analysis.json", "histogram.csv", "scatter.csv"):
        assert _read(out1 / name) == _read(out2 / name), name


def test_simulate_clipping_modes_reach_similar_loss(tmp_path):
    losses = {}
    for mode in ("max", "individual"):
        cfg = _sim_config(tmp_path, name=f"{mode}.json", n=300, d=10,
                          separation=4.0, noise_std=0.5, epochs=8, lr=0.05)
        out = tmp_path / mode
        assert main(["simulate", "--config", cfg, "--clipping", mode,
                     "--out", str(out)]) == EXIT_OK
        table = np.genfromtxt(out / "losses.csv", delimiter=",", names=True)
        losses[mode] = float(np.mean(table["final_loss"]))
    rel = abs(losses["max"] - losses["individual"]) / losses["max"]
    assert rel <= 0.05


def test_simulate_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = _write_config(tmp_path, n=100, not_a_knob=3)
    assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION
    assert "not_a_knob" in capsys.readouterr().err


def test_simulate_rejects_holdout_key(tmp_path, capsys):
    # holdout was range-checked and then never read: no example was held out
    cfg = _sim_config(tmp_path, holdout=20)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert "unknown config keys ['holdout']" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_oversized_order_grid(tmp_path, capsys):
    # the kernel's tables for orders [2, 1e8] would take about 9 GB
    cfg = _sim_config(tmp_path, orders=[2, 100_000_000])
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION
    assert "order grid too large: 2 orders x 99999999 binomial terms" in capsys.readouterr().err
    assert peak < 16 << 20
    assert not out.exists()


def test_simulate_rejects_invalid_values(tmp_path):
    cfg = _write_config(tmp_path, n=-10)
    assert main(["simulate", "--config", cfg]) == EXIT_VALIDATION


@pytest.mark.parametrize("fields, message", [
    ({"noise_std": float("nan")}, "noise_std must be finite"),   # used to exit 2
    ({"lr": float("nan")}, "lr must be finite"),                 # used to exit 2
    ({"n": 50.5}, "n must be an integer"),                       # used to exit 2
    ({"epochs": 1.5}, "epochs must be an integer"),              # used to exit 2
    ({"epochs": True}, "epochs must be an integer"),             # used to exit 0
    ({"track_ids": [1.7, 2.2]}, "track_ids must be a sequence of integers"),  # used to exit 0
], ids=["noise_std_nan", "lr_nan", "n_fraction", "epochs_fraction", "epochs_bool",
        "track_ids_fraction"])
def test_simulate_rejects_bad_config_values(tmp_path, capsys, fields, message):
    cfg = _sim_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_flag_overrides_config(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--gamma", "1", "--rounding",
                 "0.05", "--out", str(out)]) == EXIT_OK
    header = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert header["rounding"] == 0.05
    assert header["frequency"] == 10         # steps_per_epoch / gamma


# -------------------------------------------------------------- account ---

@pytest.mark.parametrize("trace, flags", [("trace.jsonl", []),
                                          ("trace.npz", ["--binary-trace"])],
                         ids=["jsonl", "npz"])
def test_account_round_trip_reproduces_report(tmp_path, trace, flags):
    cfg = _sim_config(tmp_path)
    sim_out, acct_out = tmp_path / "sim", tmp_path / "acct"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out),
                 "--unsafe-export-per-example", *flags]) == EXIT_OK
    assert main(["account", str(sim_out / trace),
                 "--losses", str(sim_out / "losses.csv"),
                 "--out", str(acct_out), "--unsafe-export-per-example"]) == EXIT_OK
    assert (json.loads((sim_out / "report.json").read_text())
            == json.loads((acct_out / "report.json").read_text()))


def test_account_reproduces_report_at_simulate_delta(tmp_path):
    # a trace holds no delta: account reproduces a run at delta 1e-6 only
    # when given the same --delta
    cfg = _sim_config(tmp_path, delta=1e-6)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    expected = json.loads((sim_out / "report.json").read_text())
    reports = {}
    for name, flags in (("same", ["--delta", "1e-6"]), ("default", [])):
        out = tmp_path / name
        assert main(["account", str(sim_out / "trace.jsonl"),
                     "--losses", str(sim_out / "losses.csv"), "--out", str(out),
                     "--unsafe-export-per-example", *flags]) == EXIT_OK
        reports[name] = json.loads((out / "report.json").read_text())
    assert reports["same"] == expected
    assert reports["default"]["delta"] == 1e-5
    assert reports["default"]["worst_case"]["epsilon"] < expected["worst_case"]["epsilon"]


def test_account_saturated_trace_hits_worst_case(tmp_path):
    header = TraceHeader(n=4, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                         frequency=1, rounding=0.01, steps=5)
    norms = np.full((5, 4), 7.0)          # every norm above the clip
    trace = tmp_path / "sat.jsonl"
    write_trace(str(trace), header, norms)
    out = tmp_path / "out"
    assert main(["account", str(trace), "--out", str(out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    report = PrivacyReport.from_json(str(out / "report.json"))
    assert np.allclose(report.epsilons, report.worst_epsilon, rtol=0, atol=1e-9)


def test_account_malformed_trace_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    header = TraceHeader(n=2, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                         frequency=1, rounding=0.01, steps=2)
    write_trace(str(bad), header, np.full((2, 2), 0.5))
    lines = bad.read_text().splitlines()
    assert len(lines) == 3                  # the header, then one row per step
    lines[2] = "[0.5, {broken"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["account", str(bad)]) == EXIT_VALIDATION
    assert "line 3" in capsys.readouterr().err


def test_account_detects_flipped_bit_in_stored_npz(tmp_path, capsys):
    # one norm one ulp off is still a valid norm: only the member's CRC-32 shows it
    header = TraceHeader(n=50, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                         frequency=1, rounding=0.01, steps=4)
    norms = np.random.default_rng(6).uniform(0, 2, (4, 50))
    trace = tmp_path / "t.npz"
    write_trace_npz(str(trace), header, norms)
    data = bytearray(trace.read_bytes())
    at = data.index(norms.tobytes()) + 8 * (1 * 50 + 17)     # row 1, example 17
    data[at] ^= 1                           # the lowest mantissa bit, little-endian
    trace.write_bytes(bytes(data))
    out = tmp_path / "out"
    assert main(["account", str(trace), "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{trace}: unreadable array in binary trace: Bad CRC-32" in err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("field, value", [
    ("rounding", float("nan")),          # used to run exactness mode
    ("clip", float("inf")),              # used to overflow in the grid size
    ("clip", float("nan")),
    ("rounding", 1e-9),                  # a 10^9-point grid
    ("noise_std", True),                 # used to account with noise_std 1.0
])
def test_account_rejects_bad_header_values(tmp_path, capsys, field, value):
    trace = tmp_path / "t.jsonl"
    header = TraceHeader(n=2, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                         frequency=1, rounding=0.01, steps=2)
    write_trace(str(trace), header, np.full((2, 2), 0.5))
    lines = trace.read_text().splitlines()
    doc = json.loads(lines[0])
    doc[field] = value
    lines[0] = json.dumps(doc)              # writes NaN / Infinity tokens
    trace.write_text("\n".join(lines) + "\n")
    assert main(["account", str(trace)]) == EXIT_VALIDATION
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("groups", [None, [0, 1]], ids=["no_groups", "groups"])
def test_account_rejects_losses_of_another_size(tmp_path, capsys, groups):
    # a 2-row losses file against a 300-example trace: without groups it
    # used to exit 0, with groups it failed only after the whole replay
    trace = tmp_path / "t.jsonl"
    header = TraceHeader(n=300, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                         frequency=1, rounding=0.01, steps=2)
    write_trace(str(trace), header, np.full((2, 300), 0.5))
    losses = tmp_path / "losses.csv"
    write_losses_csv(str(losses), [0.1, 0.2], groups)
    out = tmp_path / "out"
    assert main(["account", str(trace), "--losses", str(losses),
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{losses}: losses file has 2 rows but the trace covers 300" in err
    assert not (out / "report.json").exists()


def test_account_missing_file(tmp_path):
    assert main(["account", str(tmp_path / "nope.jsonl")]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv, message", [
    (["account", "{sim}/trace.jsonl", "--losses", "{tmp}/nope.csv"], "nope.csv: no such file"),
    (["report", "{tmp}/nope.json", "--losses", "{sim}/losses.csv"], "nope.json: no such file"),
    (["release", "{tmp}/nope.json"], "nope.json: no such file"),
    (["report", "{sim}/losses.csv", "--losses", "{sim}/losses.csv"],
     "losses.csv:1: Expecting value"),                  # not a JSON report
    (["release", "{tmp}/list.json"], "list.json: not a privacy report file"),
    (["release", "{tmp}/no_steps.json"], "no_steps.json: report is missing steps"),
    (["report", "{sim}/report.json", "--losses", "{sim}/losses.csv"],
     "report.json: report was exported without per-example values"),
    (["release", "{sim}/report.json"],
     "report.json: report was exported without per-example values"),
    (["release", "{tmp}/null_epsilon.json"],           # used to release a NaN mean
     "per-example epsilon must be a number >= 0"),
], ids=["account_losses", "report", "release", "report_not_json", "release_list",
        "release_no_steps", "report_redacted", "release_redacted", "release_null_epsilon"])
def test_missing_or_malformed_input_is_validation_failure(tmp_path, capsys, argv, message):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path),
                 "--out", str(sim_out)]) == EXIT_OK
    capsys.readouterr()
    (tmp_path / "list.json").write_text("[]")             # used to exit 2
    doc = json.loads((sim_out / "report.json").read_text())
    (tmp_path / "null_epsilon.json").write_text(json.dumps(
        dict(doc, epsilons=[None] * doc["n"], best_orders=[2] * doc["n"])))
    del doc["steps"]                                      # used to exit 2
    (tmp_path / "no_steps.json").write_text(json.dumps(doc))
    argv = [a.format(sim=sim_out, tmp=tmp_path) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err


# --------------------------------------------------------------- report ---

def test_report_subcommand_regenerates_analysis(tmp_path):
    cfg = _sim_config(tmp_path)
    sim_out, rep_out = tmp_path / "sim", tmp_path / "rep"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    assert main(["report", str(sim_out / "report.json"),
                 "--losses", str(sim_out / "losses.csv"),
                 "--out", str(rep_out)]) == EXIT_OK
    assert (_read(rep_out / "analysis.json") == _read(sim_out / "analysis.json"))
    assert (_read(rep_out / "histogram.csv") == _read(sim_out / "histogram.csv"))


def test_report_rejects_losses_of_another_size(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path), "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    losses = tmp_path / "losses.csv"
    write_losses_csv(str(losses), [0.1, 0.2])
    code = main(["report", str(sim_out / "report.json"), "--losses", str(losses),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_VALIDATION
    assert (f"{losses}: losses file has 2 rows but the report covers 100"
            in capsys.readouterr().err)


def test_report_rejects_losses_out_of_example_order(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    losses = sim_out / "losses.csv"
    head, *rows = losses.read_text().splitlines()
    rows.sort(key=lambda r: float(r.split(",")[2]))     # sorted by loss, ids kept
    losses.write_text("\n".join([head, *rows]) + "\n")
    code = main(["report", str(sim_out / "report.json"), "--losses", str(losses),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_VALIDATION
    assert "example_id" in capsys.readouterr().err


def test_report_aggregates_derived_not_read_back(tmp_path):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path), "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    path = sim_out / "report.json"
    doc = json.loads(path.read_text())
    written = doc["summary"], doc["group_means"]
    path.write_text(json.dumps(dict(doc, summary={"mean": "x", "min": -1.0, "max": 0.0},
                                    group_means={"0": 99.0, "7": 1.0})))
    report = PrivacyReport.from_json(str(path))
    eps, labels = np.asarray(doc["epsilons"]), np.asarray(doc["group_labels"])
    assert report.summary == {"mean": float(np.mean(eps)), "min": float(np.min(eps)),
                              "max": float(np.max(eps))}
    assert report.group_means == {int(g): float(np.mean(eps[labels == g]))
                                  for g in np.unique(labels)}
    assert (report.summary, {str(g): m for g, m in report.group_means.items()}) == written


def test_report_requires_per_example_values(tmp_path, capsys):
    cfg = _sim_config(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == EXIT_OK
    code = main(["report", str(sim_out / "report.json"),
                 "--losses", str(sim_out / "losses.csv"),
                 "--out", str(tmp_path / "rep")])
    assert code == EXIT_VALIDATION
    assert "per-example" in capsys.readouterr().err


# -------------------------------------------------------------- release ---

@pytest.fixture()
def sim_report(tmp_path):
    cfg = _sim_config(tmp_path, n=400, epochs=3)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    return out / "report.json"


def test_release_zero_noise_exact_mean(tmp_path, sim_report):
    report = PrivacyReport.from_json(str(sim_report))
    bound = report.worst_epsilon
    cfg = _write_config(tmp_path, name="rel.json", epsilon=0.5, bound=bound)
    out = tmp_path / "rel"
    assert main(["release", str(sim_report), "--config", cfg, "--zero-noise",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads((out / "release.json").read_text())
    expected = float(np.mean(np.clip(report.epsilons, 0, bound)))
    assert doc["mean"] == expected
    assert doc["budget"]["realized_epsilon"] == 0.0


def test_release_budget_echo_and_reproducibility(tmp_path, sim_report):
    cfg = _write_config(tmp_path, name="rel.json", epsilon=2.0, bound=40.0)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["release", str(sim_report), "--config", cfg,
                     "--seed", "9", "--out", str(out)]) == EXIT_OK
    a = json.loads((out1 / "release.json").read_text())
    b = json.loads((out2 / "release.json").read_text())
    assert a == b
    assert a["budget"]["realized_epsilon"] <= 2.0


@pytest.mark.parametrize("fields, message", [
    ({"epsilon": True}, "epsilon must be a number"),     # used to exit 0
    ({"quantile_lr": float("nan")}, "quantile_lr must be finite"),
    ({"quantile_steps": True}, "quantile_steps must be a number"),
    ({"bound": float("nan")}, "bound must be finite"),
    ({"epsilon": float("inf")}, "epsilon must be finite"),
    ({"quantiles": [0.5, 0.5]}, "quantiles must be distinct"),   # used to exit 0
], ids=["epsilon_bool", "quantile_lr_nan", "quantile_steps_bool", "bound_nan", "epsilon_inf",
        "quantiles_repeated"])
def test_release_rejects_bad_config_values(tmp_path, capsys, sim_report, fields, message):
    cfg = _write_config(tmp_path, name="rel.json", **{"epsilon": 1.0, "bound": 40.0, **fields})
    assert main(["release", str(sim_report), "--config", cfg,
                 "--out", str(tmp_path / "rel")]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not (tmp_path / "rel" / "release.json").exists()


@pytest.mark.parametrize("fields, missing", [
    (None, "<defaults>: missing config keys ['bound', 'epsilon']"),
    ({"epsilon": 1.0}, "rel.json: missing config keys ['bound']"),
], ids=["no_config", "no_bound"])
def test_release_names_missing_config_keys(tmp_path, capsys, sim_report, fields, missing):
    flags = [] if fields is None else ["--config",
                                       _write_config(tmp_path, name="rel.json", **fields)]
    assert main(["release", str(sim_report), *flags,
                 "--out", str(tmp_path / "rel")]) == EXIT_VALIDATION
    assert missing in capsys.readouterr().err
    assert not (tmp_path / "rel").exists()


def test_release_requires_per_example_values(tmp_path):
    cfg = _sim_config(tmp_path)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out)]) == EXIT_OK
    rel_cfg = _write_config(tmp_path, name="rel.json", epsilon=1.0, bound=40.0)
    assert main(["release", str(sim_out / "report.json"), "--config", rel_cfg,
                 "--out", str(tmp_path / "rel")]) == EXIT_VALIDATION


# --------------------------------------------------------------- verify ---

def test_verify_full_suite_passes(tmp_path, capsys):
    assert main(["verify"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert set(summary["suites"]) == {"oracle", "adaptive", "sim"}
    assert summary["elapsed_seconds"] < 300


def test_verify_detects_corrupted_cache(tmp_path, capsys):
    assert main(["verify", "--suite", "sim", "--corrupt-cache"]) == EXIT_VERIFICATION
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False


@pytest.mark.parametrize("suite", ["oracle", "adaptive"])
def test_verify_rejects_corrupt_cache_without_sim_suite(capsys, suite):
    # the hook corrupts the sim suite's ledger; elsewhere it used to be ignored
    assert main(["verify", "--suite", suite, "--corrupt-cache"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "--corrupt-cache applies only to the sim suite" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------ interface ---

def test_unknown_subcommand_is_validation_failure():
    assert main(["frobnicate"]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv, flag", [
    (["account", "{sim}/trace.jsonl", "--config", "{cfg}"], "--config"),
    (["account", "{sim}/trace.jsonl", "--seed", "3"], "--seed"),
    (["report", "{sim}/report.json", "--losses", "{sim}/losses.csv",
      "--config", "{cfg}"], "--config"),
    (["report", "{sim}/report.json", "--losses", "{sim}/losses.csv",
      "--seed", "3"], "--seed"),
    (["report", "{sim}/report.json", "--losses", "{sim}/losses.csv",
      "--delta", "1e-6"], "--delta"),
    (["verify", "--suite", "oracle", "--config", "{cfg}"], "--config"),
    (["verify", "--suite", "oracle", "--seed", "3"], "--seed"),
    (["verify", "--suite", "oracle", "--delta", "1e-6"], "--delta"),
    (["verify", "--suite", "oracle", "--out", "{out}"], "--out"),
    (["verify", "--suite", "oracle", "--unsafe-export-per-example"],
     "--unsafe-export-per-example"),
    (["release", "{sim}/report.json", "--config", "{rel}", "--zero-noise",
      "--unsafe-export-per-example"], "--unsafe-export-per-example"),
], ids=["account_config", "account_seed", "report_config", "report_seed",
        "report_delta", "verify_config", "verify_seed", "verify_delta", "verify_out",
        "verify_unsafe_export", "release_unsafe_export"])
def test_flag_a_subcommand_does_not_read_is_rejected(tmp_path, capsys, argv, flag):
    # each of these flags used to be accepted and never read (exit 0)
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path), "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    cfg = _sim_config(tmp_path, name="other.json", delta=1e-6)
    rel = _write_config(tmp_path, name="rel.json", epsilon=1.0, bound=40.0)
    capsys.readouterr()
    out = tmp_path / "out"
    argv = [a.format(sim=sim_out, cfg=cfg, rel=rel, out=out) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "unrecognized arguments: " + flag in captured.err
    assert captured.out == ""
    assert not out.exists()


def _run_child(argv, cwd=None):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(idpacct.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path})


def test_console_entry_point_runs():
    out = _run_child(["-m", "idpacct.cli", "--help"])
    assert out.returncode == 0
    assert "simulate" in out.stdout and "verify" in out.stdout


_SCIPY_PROBE = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import idpacct
from idpacct.cli import main
seen = {"import": scipy_modules()}
for argv in [
    ["simulate", "--config", "cfg.json", "--out", "sim", "--unsafe-export-per-example"],
    ["account", "sim/trace.jsonl", "--losses", "sim/losses.csv", "--out", "acct",
     "--unsafe-export-per-example"],
    ["report", "acct/report.json", "--losses", "sim/losses.csv", "--out", "rep"],
    ["release", "acct/report.json", "--config", "rel.json", "--out", "rel"],
]:
    seen[argv[0]] = [main(argv), scipy_modules()]
seen["verify"] = main(["verify", "--suite", "oracle"])
print(json.dumps(seen))
"""


def test_pipeline_loads_no_scipy_until_the_quadrature_oracle(tmp_path):
    # scipy's import takes most of a fresh process's start-up; only the
    # quadrature oracle behind `verify` needs it
    _sim_config(tmp_path, n=400)
    _write_config(tmp_path, name="rel.json", epsilon=2.0, bound=40.0)
    out = _run_child(["-c", _SCIPY_PROBE], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    assert seen.pop("verify") == EXIT_OK
    assert seen == {cmd: [EXIT_OK, []]
                    for cmd in ("simulate", "account", "report", "release")}
