"""End-to-end tests of the command-line pipeline: subcommand behavior,
exit codes, determinism, and file round trips."""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import zipfile

import numpy as np
import pytest

from idpacct import analysis, cli, dpsgd_sim
from idpacct.accountant import PrivacyReport
from idpacct.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    ValidationFailure,
    _read_input,
    main,
)
from idpacct.dpsgd_sim import SimConfig
from idpacct.traceio import (
    TraceHeader,
    read_any_trace,
    read_trace,
    write_losses_csv,
    write_trace,
    write_trace_npz,
)

from conftest import run_child, traced_peak


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


def _tree(root):
    """Every path under ``root``, with each file's bytes."""
    return {p: None if p.is_dir() else _read(p) for p in root.rglob("*")}


# what `account --losses --unsafe-export-per-example` writes beside report.json
_ANALYSIS_FILES = ("analysis.json", "histogram.csv", "scatter.csv")


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
    # the analysis of a run comes from `account --losses` on its trace
    assert sorted(os.listdir(out)) == ["losses.csv", "report.json", "trace.jsonl"]


def test_simulate_redacts_per_example_by_default(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert "epsilons" not in report
    assert report["summary"]["mean"] > 0
    assert sorted(os.listdir(out)) == ["losses.csv", "report.json", "trace.jsonl"]


def test_simulate_byte_identical_under_same_seed(tmp_path):
    cfg = _sim_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--unsafe-export-per-example"]) == EXIT_OK
    assert sorted(os.listdir(out1)) == ["losses.csv", "report.json", "trace.jsonl"]
    for name in ("trace.jsonl", "losses.csv", "report.json"):
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
    # a trace records no order grid, so account replays at the default
    # grid: a simulate config may not choose another one, however large
    # (test_kernel covers the kernel's own cap on table size)
    cfg = _sim_config(tmp_path, orders=[2, 100_000_000])
    out = tmp_path / "out"
    code, peak = traced_peak(main, ["simulate", "--config", cfg, "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "unknown config keys ['orders']" in capsys.readouterr().err
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
    # ids outside the examples used to exit 2 with an IndexError
    ({"track_ids": [5000]}, "track_ids must be a sequence of integers in [0, n = 100)"),
    ({"track_ids": [3, -1]}, "integers in [0, n = 100), got [3, -1]"),
    # used to exit 1 with numpy's "expected non-negative integer"
    ({"seed": -1}, "seed must be >= 0, got -1"),
    # an infinite worst case used to write a report holding Infinity, then exit 1
    ({"clip": 1e300, "noise_std": 1.0}, "the worst-case epsilon of 20 steps at noise "
     "multiplier noise_std / clip = 1e-300 is not finite"),
    ({"clip": 1.0, "noise_std": 1e-300}, "the worst-case epsilon of 20 steps at noise "
     "multiplier noise_std / clip = 1e-300 is not finite"),
], ids=["noise_std_nan", "lr_nan", "n_fraction", "epochs_fraction", "epochs_bool",
        "track_ids_fraction", "track_ids_above_n", "track_ids_negative", "seed_negative",
        "clip_huge", "noise_std_tiny"])
def test_simulate_rejects_bad_config_values(tmp_path, capsys, fields, message):
    cfg = _sim_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("argv, message", [
    (["simulate", "--out", "{tmp}/afile/x"], "--out {tmp}/afile/x: not a directory"),
    (["account", "{tmp}/trace.jsonl", "--out", "{tmp}/afile"], "--out {tmp}/afile: file exists"),
    (["release", "{tmp}/report.json", "--out", "{tmp}/afile"], "--out {tmp}/afile: file exists"),
], ids=["simulate", "account", "release"])
def test_bad_out_is_refused_before_any_work(tmp_path, capsys, monkeypatch, argv, message):
    # a bad --out used to be refused at the first write: after the whole run
    # was trained, or the whole trace read and replayed
    def never(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    monkeypatch.setattr(cli.dpsgd_sim, "train", never)
    monkeypatch.setattr(cli.traceio, "read_any_trace", never)
    monkeypatch.setattr(cli.traceio, "replay_trace", never)
    (tmp_path / "afile").write_text("")
    assert main([a.format(tmp=tmp_path) for a in argv]) == EXIT_VALIDATION
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["afile"]

def test_simulate_flag_overrides_config(tmp_path):
    cfg = _sim_config(tmp_path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--gamma", "1", "--rounding",
                 "0.05", "--out", str(out)]) == EXIT_OK
    header = json.loads((out / "trace.jsonl").read_text().splitlines()[0])
    assert header["rounding"] == 0.05
    assert header["frequency"] == 10         # steps_per_epoch / gamma


# -------------------------------------------------------------- account ---

_OFFGRID = {"clip": 1.0, "rounding": 0.03}       # the top bucket is C itself
_MLP = {"model": "mlp", "hidden": 8, "epochs": 3}

# simulate's config and flags for each pipeline run, at simulate's default
# shape: each clipping mode and trace format, exactness mode (rounding off),
# a clip that is not a multiple of the rounding, and the one-hidden-layer MLP
_PIPELINE = {
    "jsonl": ({}, []),
    "npz": ({}, ["--binary-trace"]),
    "individual": ({}, ["--clipping", "individual"]),
    "exact": ({}, ["--rounding", "0"]),
    "offgrid": (_OFFGRID, []),
    "offgrid_npz": (_OFFGRID, ["--binary-trace"]),
    "offgrid_individual": (_OFFGRID, ["--clipping", "individual"]),
    "mlp": (_MLP, []),
    "mlp_individual_npz": (_MLP, ["--clipping", "individual", "--binary-trace"]),
}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A directory holding, for each _PIPELINE run, simulate's outputs in
    ``<run>/sim`` and account's from its trace and losses in ``<run>/acct``;
    then ``rel``, released from the jsonl run's account report."""
    root = tmp_path_factory.mktemp("pipeline")
    for name, (fields, flags) in _PIPELINE.items():
        sim = root / name / "sim"
        assert main(["simulate", "--config", _write_config(root, f"{name}.json", **fields),
                     "--out", str(sim), "--unsafe-export-per-example", *flags]) == EXIT_OK
        trace = sim / ("trace.npz" if "--binary-trace" in flags else "trace.jsonl")
        assert main(["account", str(trace), "--losses", str(sim / "losses.csv"),
                     "--out", str(root / name / "acct"),
                     "--unsafe-export-per-example"]) == EXIT_OK
    report = str(root / "jsonl" / "acct" / "report.json")
    budget = _write_config(root, "budget.json", epsilon=1.0, bound=40.0)
    assert main(["release", report, "--config", budget, "--out", str(root / "rel")]) == EXIT_OK
    return root


@pytest.mark.parametrize("run", list(_PIPELINE))
def test_account_round_trip_reproduces_report(pipeline, run):
    # simulate's report is the replay of the trace it wrote, as account's is
    sim, acct = pipeline / run / "sim", pipeline / run / "acct"
    assert _read(sim / "report.json") == _read(acct / "report.json")


def test_trace_writers_agree_bit_for_bit(pipeline):
    # the jsonl and npz runs train identically, so their traces must agree
    (ha, a), (hb, b) = (read_any_trace(str(pipeline / run / "sim" / trace))
                        for run, trace in (("jsonl", "trace.jsonl"), ("npz", "trace.npz")))
    assert ha.to_dict() == hb.to_dict()
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_analysis_of_either_trace_format_agrees_byte_for_byte(pipeline):
    # so must the analysis account writes from either trace and the losses
    jsonl, npz = pipeline / "jsonl" / "acct", pipeline / "npz" / "acct"
    for name in _ANALYSIS_FILES:
        assert _read(jsonl / name) == _read(npz / name), name


def test_release_of_an_account_report_keeps_its_budget(pipeline):
    doc = json.loads((pipeline / "rel" / "release.json").read_text())
    assert doc["version"] == 3
    assert doc["budget"]["realized_epsilon"] <= doc["budget"]["configured_epsilon"]


def test_pipeline_leaves_no_temp_files(pipeline):
    # every atomic write renamed or removed its temp file
    assert list(pipeline.rglob(".tmp-*")) == []


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


def _header_line(**fields) -> str:
    doc = dict(n=2, clip=1.0, noise_std=1.0, sampling_prob=0.1, frequency=1, rounding=0.01,
               steps=1)
    return json.dumps(TraceHeader(**dict(doc, **fields)).to_dict())


def test_negative_zero_norm_accounts_as_zero_in_exactness_mode(tmp_path):
    # with rounding off, -0.0 gets the zero curve of +0.0, not a multiplier of -inf
    reports = []
    for z in ("-0.0", "0.0"):
        trace, out = tmp_path / f"z{z}.jsonl", tmp_path / f"z{z}"
        trace.write_text(f"{_header_line(rounding=0.0)}\n[{z}, 0.5]\n")
        assert main(["account", str(trace), "--out", str(out),
                     "--unsafe-export-per-example"]) == EXIT_OK
        reports.append(_read(out / "report.json"))
    assert reports[0] == reports[1]


def test_trace_of_10_to_the_12_steps_accounts_through_the_cli(tmp_path):
    # one refresh covers every step; replay used to record them one call at
    # a time, about 31 hours here, so a child's timeout fails the test
    # rather than hanging it
    (tmp_path / "trace.jsonl").write_text(
        f"{_header_line(sampling_prob=0.01, frequency=10 ** 12, steps=10 ** 12)}\n[0.3, 2.0]\n")
    out = run_child(["-m", "idpacct.cli", "account", "trace.jsonl", "--out", "acct"],
                    cwd=tmp_path, timeout=60)
    assert out.returncode == EXIT_OK, out.stderr
    assert (tmp_path / "acct" / "report.json").exists()


_CORES_PROBE = """
import json, os, sys
import numpy as np
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from idpacct import accountant
from idpacct.cli import main
from idpacct.rdp_math import _eps_from_rdp
from idpacct.traceio import read_any_trace, replay_trace
code = main(["account", "trace.npz", "--out", sys.argv[1], "--unsafe-export-per-example"])
# the pruned query equals the full conversion of every row, bit for bit
ledger = replay_trace(*read_any_trace("trace.npz"))
eps, best = ledger.epsilons()
want_eps, want_best = _eps_from_rdp(ledger.counts(), ledger.config.orders, ledger.config.delta)
print(json.dumps({"exit": code, "cores": accountant._cores(), "monotone": ledger._monotone,
                  "full_pass": bool(np.array_equal(eps, want_eps)
                                    and np.array_equal(best, want_best))}))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_ledger_pass_split_across_cores_matches_a_one_core_run(tmp_path):
    # n = 200,000 is large enough that the summing pass runs on every core;
    # the other child may use one core only
    header = TraceHeader(n=200_000, clip=1.0, noise_std=1.0, sampling_prob=0.01,
                         frequency=10, rounding=0.01, steps=30)
    write_trace_npz(str(tmp_path / "trace.npz"), header,
                    np.random.default_rng(0).gamma(4.0, 0.25, (3, header.n)))
    seen = {}
    for cores in ("all", "one"):
        out = run_child(["-c", _CORES_PROBE, cores], cwd=tmp_path)
        assert out.returncode == 0, out.stderr
        seen[cores] = json.loads(out.stdout.splitlines()[-1])
    assert seen["all"]["cores"] == len(os.sched_getaffinity(0))
    assert seen["one"]["cores"] == 1
    for probe in seen.values():
        assert (probe["exit"], probe["monotone"], probe["full_pass"]) == (EXIT_OK, True, True)
    assert _read(tmp_path / "all" / "report.json") == _read(tmp_path / "one" / "report.json")


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
    # past a float64, so the worst case is infinite, not an OverflowError
    pytest.param("steps", 10 ** 400, id="steps-10**400"),
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


def test_report_rejects_losses_of_another_size(tmp_path, capsys):
    # a losses file one row longer than the run it came from: the report
    # it would join covers 100 examples, and none is written
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path),
                 "--out", str(sim_out)]) == EXIT_OK
    with open(sim_out / "losses.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    losses = tmp_path / "losses.csv"
    write_losses_csv(str(losses), [float(r["final_loss"]) for r in rows] + [0.5],
                     [int(r["group"]) for r in rows] + [0])
    out = tmp_path / "out"
    assert main(["account", str(sim_out / "trace.jsonl"), "--losses", str(losses),
                 "--out", str(out)]) == EXIT_VALIDATION
    assert (f"{losses}: losses file has 101 rows but the trace covers 100"
            in capsys.readouterr().err)
    assert not out.exists()


def test_account_missing_file(tmp_path):
    assert main(["account", str(tmp_path / "nope.jsonl")]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv, message", [
    (["account", "{sim}/trace.jsonl", "--losses", "{tmp}/nope.csv"], "nope.csv: no such file"),
    (["release", "{tmp}/nope.json"], "nope.json: no such file"),
    # the report is read, and refused, before the budget beside it
    (["release", "{tmp}/nope.json", "--config", "{tmp}/budget.json"], "nope.json: no such file"),
    (["release", "{sim}/losses.csv"], "losses.csv:1: Expecting value"),    # not a JSON report
    (["release", "{tmp}/list.json"], "list.json: not a privacy report file"),
    (["release", "{tmp}/no_steps.json"], "no_steps.json: report is missing steps"),
    (["release", "{sim}/report.json", "--config", "{tmp}/budget.json"],
     "report.json: report was exported without per-example values"),
    (["release", "{sim}/report.json"],
     "report.json: report was exported without per-example values"),
    (["release", "{tmp}/null_epsilon.json"],           # used to release a NaN mean
     "per-example epsilon must be a number >= 0"),
    # unreadable inputs used to exit 2 (a directory) or to exit 1 with a
    # bare "'utf-8' codec can't decode" naming neither file nor field
    (["account", "{sim}"], "sim: is a directory"),
    (["account", "{tmp}/npz.jsonl"], "npz.jsonl: not utf-8 text"),
    (["account", "{sim}/trace.jsonl", "--losses", "{tmp}/trace.npz"],
     "trace.npz: not utf-8 text"),
    (["simulate", "--config", "{tmp}/latin1.json"], "latin1.json: not utf-8 text"),
    (["account", "{tmp}/huge_steps.jsonl"],
     "huge_steps.jsonl: line 1: header implies a 1000000000000 x 100 norm matrix"),
    (["account", "{tmp}/huge_n.jsonl"],
     "huge_n.jsonl: line 1: header implies a 7 x 1000000000000 norm matrix"),
    (["account", "{tmp}/huge_steps.npz"],
     "huge_steps.npz: binary trace column 'norm' has shape (1, 100), "
     "header implies (1000000000000, 100)"),
    (["account", "{tmp}/huge_n.npz"],
     "huge_n.npz: binary trace column 'norm' has shape (1, 100), "
     "header implies (7, 1000000000000)"),
    # npz members whose own .npy header is refused before it is allocated;
    # huge_member.npz used to exit 2 with a MemoryError of 21.8 TiB
    (["account", "{tmp}/huge_member.npz"],
     "huge_member.npz: unreadable array in binary trace: column 'norm' declares shape "
     "(1000000000000, 3) of <f8 (24000000000128 bytes with its header), but its "
     "member holds 176 bytes"),
    (["account", "{tmp}/f4.npz"], "f4.npz: binary trace column 'norm' is C-order <f4, "
     "expected C-order <f8"),
    (["account", "{tmp}/fortran.npz"], "fortran.npz: binary trace column 'norm' is "
     "Fortran-order <f8, expected C-order <f8"),
    (["account", "{tmp}/truncated.npz"],
     "truncated.npz: unreadable array in binary trace: column 'norm' declares shape "
     "(7, 100) of <f8"),
    # norms the ledger cannot charge, named by position (they used to be
    # named by none), each at example 1 of the last of 7 rows; -0.0 and
    # subnormal norms read back (tests/test_traceio.py::test_npz_round_trip_exact)
    (["account", "{tmp}/nan.npz"],
     "nan.npz: binary trace norms must be finite and >= 0: example 1 in row 6 is nan"),
    (["account", "{tmp}/inf.npz"],
     "inf.npz: binary trace norms must be finite and >= 0: example 1 in row 6 is inf"),
    (["account", "{tmp}/minus_inf.npz"],
     "minus_inf.npz: binary trace norms must be finite and >= 0: example 1 in row 6 is -inf"),
    (["account", "{tmp}/negative.npz"],
     "negative.npz: binary trace norms must be finite and >= 0: example 1 in row 6 is -5e-324"),
    # a header whose worst case is infinite used to account to a report
    # holding Infinity, which release and report then refused
    (["account", "{tmp}/inf_worst.jsonl"],
     "inf_worst.jsonl: line 1: invalid header values: the worst-case epsilon of 20 steps at "
     "noise multiplier noise_std / clip = 1e-300 is not finite"),
    (["account", "{tmp}/inf_worst.npz"],
     "inf_worst.npz: line 1: invalid header values: the worst-case epsilon of 20 steps at "
     "noise multiplier noise_std / clip = 1e-300 is not finite"),
    # an --out that names a file, or a path through one, used to exit 2
    # with a FileExistsError or a NotADirectoryError
    (["account", "{sim}/trace.jsonl", "--out", "{tmp}/list.json"],
     "--out {tmp}/list.json: file exists"),
    (["simulate", "--config", "{tmp}/cfg.json", "--out", "{tmp}/list.json/x"],
     "--out {tmp}/list.json/x: not a directory"),
    # per-example fields of the wrong type or length used to load, truncated
    (["release", "{tmp}/label_float.json"],
     "label_float.json: group_labels[1]: a group label must be an integer, got 1.7"),
    (["release", "{tmp}/label_bool.json"],
     "label_bool.json: group_labels[1]: a group label must be an integer, got True"),
    (["release", "{tmp}/eps_string.json"],
     "eps_string.json: epsilons[1]: per-example epsilon must be a number >= 0, got '4.6'"),
    (["release", "{tmp}/orders_short.json"],
     "orders_short.json: best_orders must be an array of n = 100 values"),
    (["release", "{tmp}/orders_float.json"],
     "orders_float.json: best_orders[1]: an order must be an integer >= 2, got 2.7"),
    (["release", "{tmp}/orders_one.json"],
     "orders_one.json: best_orders[1]: an order must be an integer >= 2, got 1"),
    # malformed scalars: a bad worst-case epsilon used to exit 2 with a
    # TypeError, n = true to exit 1 naming "n = True values", the rest to exit 0
    (["release", "{tmp}/worst_x.json"],
     "worst_x.json: worst_case.epsilon must be a finite number > 0, got 'x'"),
    (["release", "{tmp}/worst_x.json", "--config", "{tmp}/budget.json"],
     "worst_x.json: worst_case.epsilon must be a finite number > 0, got 'x'"),
    (["release", "{tmp}/worst_null.json"],
     "worst_null.json: worst_case.epsilon must be a finite number > 0, got None"),
    (["release", "{tmp}/worst_null.json", "--config", "{tmp}/budget.json"],
     "worst_null.json: worst_case.epsilon must be a finite number > 0, got None"),
    (["release", "{tmp}/steps_many.json"],
     "steps_many.json: steps must be an integer >= 1, got 'many'"),
    (["release", "{tmp}/delta_x.json"], "delta_x.json: delta must be a number in (0, 1), got 'x'"),
    (["release", "{tmp}/order_x.json"],
     "order_x.json: worst_case.order must be an integer >= 2, got 'x'"),
    (["release", "{tmp}/config_list.json"], "config_list.json: config must be an object, got [1]"),
    (["release", "{tmp}/n_true.json"], "n_true.json: n must be an integer >= 1, got True"),
    # a negative --seed used to fail in numpy, in release after calibrating
    (["simulate", "--config", "{tmp}/cfg.json", "--seed", "-1"],
     "cfg.json: seed must be >= 0, got -1"),
    (["release", "{tmp}/full.json", "--config", "{tmp}/budget.json", "--seed", "-1"],
     "budget.json: seed must be >= 0, got -1"),
], ids=["account_losses", "release", "report", "release_not_json", "release_list",
        "release_no_steps", "release_redacted", "report_redacted", "release_null_epsilon",
        "account_directory", "account_npz_as_jsonl", "account_losses_npz",
        "simulate_config_latin1", "account_huge_steps", "account_huge_n",
        "account_huge_steps_npz", "account_huge_n_npz", "account_huge_member_npz",
        "account_f4_npz", "account_fortran_npz", "account_truncated_npz", "account_nan_npz",
        "account_inf_npz", "account_minus_inf_npz", "account_negative_npz",
        "account_infinite_worst_case", "account_infinite_worst_case_npz", "account_out_file",
        "simulate_out_under_file", "release_label_float", "release_label_bool",
        "release_eps_string", "release_orders_short", "release_orders_float",
        "release_orders_one", "release_worst_x", "report_worst_x", "release_worst_null",
        "report_worst_null", "release_steps_many", "release_delta_x", "release_order_x",
        "release_config_list", "release_n_true", "simulate_negative_seed",
        "release_negative_seed"])
def test_missing_or_malformed_input_is_validation_failure(tmp_path, capsys, argv, message):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path),
                 "--out", str(sim_out)]) == EXIT_OK
    capsys.readouterr()
    (tmp_path / "list.json").write_text("[]")             # used to exit 2
    (tmp_path / "budget.json").write_text(json.dumps({"epsilon": 1.0, "bound": 40.0}))
    doc = json.loads((sim_out / "report.json").read_text())
    (tmp_path / "null_epsilon.json").write_text(json.dumps(
        dict(doc, epsilons=[None] * doc["n"], best_orders=[2] * doc["n"])))
    full = dict(doc, epsilons=[0.0] * doc["n"], best_orders=[2] * doc["n"],
                group_labels=[0] * doc["n"])
    (tmp_path / "full.json").write_text(json.dumps(full))
    for name, field, value in [("label_float", "group_labels", 1.7),
                               ("label_bool", "group_labels", True),
                               ("eps_string", "epsilons", "4.6"),
                               ("orders_float", "best_orders", 2.7),
                               ("orders_one", "best_orders", 1)]:
        values = list(full[field])
        values[1] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(full, **{field: values})))
    (tmp_path / "orders_short.json").write_text(json.dumps(
        dict(full, best_orders=full["best_orders"][1:])))
    for name, fields in [("worst_x", {"worst_case": dict(doc["worst_case"], epsilon="x")}),
                         ("worst_null", {"worst_case": dict(doc["worst_case"], epsilon=None)}),
                         ("steps_many", {"steps": "many"}), ("delta_x", {"delta": "x"}),
                         ("order_x", {"worst_case": dict(doc["worst_case"], order="x")}),
                         ("config_list", {"config": [1]}), ("n_true", {"n": True})]:
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(full, **fields)))
    header, norms = read_trace(str(sim_out / "trace.jsonl"))
    write_trace_npz(str(tmp_path / "trace.npz"), header, norms)
    # headers implying 10**12 refreshes or examples, then one row; all but
    # huge_n.npz used to exit 2 with a MemoryError of 7.28 TiB or more
    for name, big in [("huge_steps", {"steps": 10 ** 12, "frequency": 1}),
                      ("huge_n", {"n": 10 ** 12})]:
        huge = json.dumps(dict(header.to_dict(), **big))
        (tmp_path / f"{name}.jsonl").write_text(f"{huge}\n{json.dumps(norms[0].tolist())}\n")
        np.savez(tmp_path / f"{name}.npz", norm=norms[:1],
                 header=np.frombuffer(huge.encode(), dtype=np.uint8))
    # norm members written by hand: 10**12 rows declared and 2 held, under a
    # header that implies them; the wrong dtype; Fortran order; one row short
    for name, trace_doc, descr, fortran, shape, data in [
            ("huge_member", dict(header.to_dict(), n=3, steps=10 ** 12, frequency=1),
             "<f8", False, (10 ** 12, 3), norms[:2, :3].tobytes()),
            ("f4", header.to_dict(), "<f4", False, norms.shape, norms.astype("<f4").tobytes()),
            ("fortran", header.to_dict(), "<f8", True, norms.shape, norms.tobytes("F")),
            ("truncated", header.to_dict(), "<f8", False, norms.shape, norms[:-1].tobytes())]:
        npy = io.BytesIO()
        np.lib.format.write_array_header_1_0(npy, {"descr": descr, "fortran_order": fortran,
                                                   "shape": shape})
        np.savez(tmp_path / f"{name}.npz",
                 header=np.frombuffer(json.dumps(trace_doc).encode(), dtype=np.uint8))
        with zipfile.ZipFile(tmp_path / f"{name}.npz", "a") as zf:
            zf.writestr("norm.npy", npy.getvalue() + data)
    for name, value in [("nan", np.nan), ("inf", np.inf), ("minus_inf", -np.inf),
                        ("negative", -5e-324)]:
        bad = norms.copy()
        bad[-1, 1] = value
        np.savez(tmp_path / f"{name}.npz", norm=bad,
                 header=np.frombuffer(json.dumps(header.to_dict()).encode(), dtype=np.uint8))
    inf_worst = json.dumps(dict(header.to_dict(), clip=1.0, noise_std=1e-300, rounding=0.01))
    (tmp_path / "inf_worst.jsonl").write_text(f"{inf_worst}\n{json.dumps(norms[0].tolist())}\n")
    np.savez(tmp_path / "inf_worst.npz", norm=norms,
             header=np.frombuffer(inf_worst.encode(), dtype=np.uint8))
    (tmp_path / "npz.jsonl").write_bytes((tmp_path / "trace.npz").read_bytes())
    (tmp_path / "latin1.json").write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
    del doc["steps"]                                      # used to exit 2
    (tmp_path / "no_steps.json").write_text(json.dumps(doc))
    argv = [a.format(sim=sim_out, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    before = _tree(tmp_path)
    assert main(argv) == EXIT_VALIDATION
    assert message.format(tmp=tmp_path) in capsys.readouterr().err
    assert _tree(tmp_path) == before          # a refused input writes nothing


def test_permission_denied_input_names_its_path():
    # chmod does not stop a superuser from reading, so the reader raises
    def denied(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    with pytest.raises(ValidationFailure, match="^secret.json: permission denied$"):
        _read_input(denied, "secret.json")


# ------------------------------------------------------------- analysis ---

def test_account_losses_writes_the_analysis_of_the_run(tmp_path):
    # what account writes from a run's trace and losses.csv is the analysis
    # of the report, losses and groups that training returned
    with open(_sim_config(tmp_path)) as f:
        config = SimConfig(**json.load(f))
    dataset = dpsgd_sim.generate_synthetic(config)
    run = dpsgd_sim.train(config, dataset)
    trace, losses = tmp_path / "trace.jsonl", tmp_path / "losses.csv"
    write_trace(str(trace), run.header, run.trace_norms)
    write_losses_csv(str(losses), run.losses, dataset.groups)
    report = run.ledger.report(group_labels=dataset.groups)
    hist = analysis.histogram(report)
    want = tmp_path / "want"
    want.mkdir()
    analysis.write_analysis_json(str(want / "analysis.json"),
                                 analysis.eps_loss_correlation(report, run.losses),
                                 analysis.group_summary(report, run.losses, dataset.groups),
                                 hist)
    analysis.write_histogram_csv(str(want / "histogram.csv"), hist)
    analysis.write_scatter_csv(str(want / "scatter.csv"), report, run.losses, dataset.groups)
    acct = tmp_path / "acct"
    assert main(["account", str(trace), "--losses", str(losses), "--out", str(acct),
                 "--unsafe-export-per-example"]) == EXIT_OK
    for name in _ANALYSIS_FILES:
        assert _read(acct / name) == _read(want / name), name


def _value_counts(path):
    """How many values each JSON array in a .json file holds, at any depth,
    or each column of a .csv file."""
    text = path.read_text()
    if path.suffix == ".csv":
        return {len(list(csv.reader(io.StringIO(text)))) - 1}     # rows below the header
    counts, stack = set(), [json.loads(text)]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            counts.add(len(node))
            stack.extend(node)
        elif isinstance(node, dict):
            stack.extend(node.values())
    return counts


def test_account_losses_writes_no_per_example_values_by_default(tmp_path):
    # the aggregates need no per-example file: without the flag, no output
    # holds n values; with it, report.json and scatter.csv do
    n = 100
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path, n=n), "--out", str(sim)]) == EXIT_OK
    outs = {}
    for name, flags in (("safe", []), ("unsafe", ["--unsafe-export-per-example"])):
        outs[name] = tmp_path / name
        assert main(["account", str(sim / "trace.jsonl"), "--losses", str(sim / "losses.csv"),
                     "--out", str(outs[name]), *flags]) == EXIT_OK
    safe, unsafe = outs["safe"], outs["unsafe"]
    assert sorted(os.listdir(safe)) == ["analysis.json", "histogram.csv", "report.json"]
    for name in os.listdir(safe):
        assert n not in _value_counts(safe / name), name
    assert sorted(os.listdir(unsafe)) == sorted(["report.json", *_ANALYSIS_FILES])
    assert n in _value_counts(unsafe / "report.json")
    assert _value_counts(unsafe / "scatter.csv") == {n}


def test_account_without_losses_writes_the_report_only(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path), "--out", str(sim)]) == EXIT_OK
    out = tmp_path / "acct"
    assert main(["account", str(sim / "trace.jsonl"), "--out", str(out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    assert os.listdir(out) == ["report.json"]


def test_one_example_run_has_no_correlation(tmp_path):
    # one point has no variance, so no correlation; this run used to write
    # report.json and the trace, then exit 1
    cfg = _write_config(tmp_path, n=1, group_proportions=[1.0], group_noise_scales=[1.0],
                        clip=1.0)
    sim_out, acct_out = tmp_path / "sim", tmp_path / "acct"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    assert main(["account", str(sim_out / "trace.jsonl"), "--losses", str(sim_out / "losses.csv"),
                 "--out", str(acct_out), "--unsafe-export-per-example"]) == EXIT_OK
    assert json.loads((acct_out / "analysis.json").read_text())["correlation"] is None


def test_account_rejects_losses_out_of_example_order(tmp_path, capsys):
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", _sim_config(tmp_path), "--out", str(sim_out)]) == EXIT_OK
    losses = sim_out / "losses.csv"
    head, *rows = losses.read_text().splitlines()
    rows.sort(key=lambda r: float(r.split(",")[2]))     # sorted by loss, ids kept
    losses.write_text("\n".join([head, *rows]) + "\n")
    out = tmp_path / "acct"
    code = main(["account", str(sim_out / "trace.jsonl"), "--losses", str(losses),
                 "--out", str(out)])
    assert code == EXIT_VALIDATION
    assert "example_id" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------- release ---

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
    ({"orders": [2, 3]}, "unknown config keys ['orders']"),     # no order grid any more
], ids=["epsilon_bool", "quantile_lr_nan", "quantile_steps_bool", "bound_nan", "epsilon_inf",
        "quantiles_repeated", "orders"])
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


# --------------------------------------------------------------- verify ---

def test_verify_full_suite_passes(tmp_path, capsys):
    assert main(["verify"]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is True
    assert set(summary["suites"]) == {"oracle", "adaptive", "sim"}
    assert summary["elapsed_seconds"] < 300


def test_verify_detects_corrupted_cache(capsys, monkeypatch):
    # the negative control: a corrupted curve in the sim suite's ledger fails it
    train = cli.dpsgd_sim.train

    def corrupted(*args, **kwargs):
        out = train(*args, **kwargs)
        out.ledger.cache.corrupt_for_testing()
        return out

    monkeypatch.setattr(cli.dpsgd_sim, "train", corrupted)
    assert main(["verify", "--suite", "sim"]) == EXIT_VERIFICATION
    summary = json.loads(capsys.readouterr().out)
    assert summary["pass"] is False


@pytest.mark.parametrize("suite", ["oracle", "adaptive"])
def test_verify_rejects_corrupt_cache_without_sim_suite(capsys, suite):
    # the sim suite's negative control is a test, so no suite takes the flag
    assert main(["verify", "--suite", suite, "--corrupt-cache"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert "unrecognized arguments: --corrupt-cache" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------ interface ---

def test_unknown_subcommand_is_validation_failure():
    assert main(["frobnicate"]) == EXIT_VALIDATION


@pytest.mark.parametrize("argv, flag", [
    (["account", "{sim}/trace.jsonl", "--config", "{cfg}"], "--config"),
    (["account", "{sim}/trace.jsonl", "--seed", "3"], "--seed"),
    (["verify", "--suite", "oracle", "--config", "{cfg}"], "--config"),
    (["verify", "--suite", "oracle", "--seed", "3"], "--seed"),
    (["verify", "--suite", "oracle", "--delta", "1e-6"], "--delta"),
    (["verify", "--suite", "oracle", "--out", "{out}"], "--out"),
    (["verify", "--suite", "oracle", "--unsafe-export-per-example"],
     "--unsafe-export-per-example"),
    # the sim suite's negative control is a test, not a flag
    (["verify", "--suite", "sim", "--corrupt-cache"], "--corrupt-cache"),
    (["release", "{sim}/report.json", "--config", "{rel}", "--zero-noise",
      "--unsafe-export-per-example"], "--unsafe-export-per-example"),
], ids=["account_config", "account_seed", "verify_config", "verify_seed", "verify_delta",
        "verify_out", "verify_unsafe_export", "verify_corrupt_cache", "release_unsafe_export"])
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


def test_console_entry_point_runs():
    out = run_child(["-m", "idpacct.cli", "--help"])
    assert out.returncode == 0
    assert "{simulate,account,release,verify}" in out.stdout


def test_report_subcommand_is_gone(tmp_path, capsys):
    # `account --losses` writes the analysis outputs that `report` re-derived
    out = tmp_path / "out"
    assert main(["report", str(tmp_path / "report.json"), "--losses",
                 str(tmp_path / "losses.csv"), "--out", str(out)]) == EXIT_VALIDATION
    assert "invalid choice: 'report'" in capsys.readouterr().err
    assert not out.exists()


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
    out = run_child(["-c", _SCIPY_PROBE], cwd=tmp_path)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout.splitlines()[-1])
    assert seen.pop("import") == []
    assert seen.pop("verify") == EXIT_OK
    assert seen == {cmd: [EXIT_OK, []]
                    for cmd in ("simulate", "account", "release")}
