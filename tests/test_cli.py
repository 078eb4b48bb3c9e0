"""End-to-end tests of the command-line pipeline: subcommand behavior,
exit codes, determinism, and file round trips."""

from __future__ import annotations

import errno
import io
import json
import os
import subprocess
import sys
import tracemalloc
import zipfile

import numpy as np
import pytest

import idpacct
from idpacct import cli
from idpacct.accountant import PrivacyReport
from idpacct.cli import (
    EXIT_OK,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    ValidationFailure,
    _read_input,
    main,
)
from idpacct.traceio import (
    TraceHeader,
    read_trace,
    write_losses_csv,
    write_trace,
    write_trace_npz,
)


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
    # a trace records no order grid, so account replays at the default
    # grid: a simulate config may not choose another one, however large
    # (test_kernel covers the kernel's own cap on table size)
    cfg = _sim_config(tmp_path, orders=[2, 100_000_000])
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
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
], ids=["noise_std_nan", "lr_nan", "n_fraction", "epochs_fraction", "epochs_bool",
        "track_ids_fraction", "track_ids_above_n", "track_ids_negative"])
def test_simulate_rejects_bad_config_values(tmp_path, capsys, fields, message):
    cfg = _sim_config(tmp_path, **fields)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("argv, message", [
    (["simulate", "--out", "{tmp}/afile/x"], "--out {tmp}/afile/x: not a directory"),
    (["account", "{tmp}/trace.jsonl", "--out", "{tmp}/afile"], "--out {tmp}/afile: file exists"),
    (["report", "{tmp}/report.json", "--losses", "{tmp}/losses.csv", "--out", "{tmp}/afile/x"],
     "--out {tmp}/afile/x: not a directory"),
    (["release", "{tmp}/report.json", "--out", "{tmp}/afile"], "--out {tmp}/afile: file exists"),
], ids=["simulate", "account", "report", "release"])
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
    (["release", "{sim}/report.json", "--config", "{tmp}/budget.json"],
     "report.json: report was exported without per-example values"),
    (["release", "{tmp}/null_epsilon.json"],           # used to release a NaN mean
     "per-example epsilon must be a number >= 0"),
    # unreadable inputs used to exit 2 (a directory) or to exit 1 with a
    # bare "'utf-8' codec can't decode" naming neither file nor field
    (["account", "{sim}"], "sim: is a directory"),
    (["account", "{tmp}/npz.jsonl"], "npz.jsonl: not utf-8 text"),
    (["report", "{tmp}/full.json", "--losses", "{tmp}/trace.npz"],
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
    # an --out that names a file, or a path through one, used to exit 2
    # with a FileExistsError or a NotADirectoryError
    (["account", "{sim}/trace.jsonl", "--out", "{tmp}/list.json"],
     "--out {tmp}/list.json: file exists"),
    (["simulate", "--config", "{tmp}/cfg.json", "--out", "{tmp}/list.json/x"],
     "--out {tmp}/list.json/x: not a directory"),
    # per-example fields of the wrong type or length used to load, truncated
    (["report", "{tmp}/label_float.json", "--losses", "{sim}/losses.csv"],
     "label_float.json: group_labels[1]: a group label must be an integer, got 1.7"),
    (["report", "{tmp}/label_bool.json", "--losses", "{sim}/losses.csv"],
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
    (["report", "{tmp}/worst_x.json", "--losses", "{sim}/losses.csv"],
     "worst_x.json: worst_case.epsilon must be a finite number > 0, got 'x'"),
    (["release", "{tmp}/worst_null.json"],
     "worst_null.json: worst_case.epsilon must be a finite number > 0, got None"),
    (["report", "{tmp}/worst_null.json", "--losses", "{sim}/losses.csv"],
     "worst_null.json: worst_case.epsilon must be a finite number > 0, got None"),
    (["release", "{tmp}/steps_many.json"],
     "steps_many.json: steps must be an integer >= 1, got 'many'"),
    (["release", "{tmp}/delta_x.json"], "delta_x.json: delta must be a number in (0, 1), got 'x'"),
    (["release", "{tmp}/order_x.json"],
     "order_x.json: worst_case.order must be an integer >= 2, got 'x'"),
    (["release", "{tmp}/config_list.json"], "config_list.json: config must be an object, got [1]"),
    (["release", "{tmp}/n_true.json"], "n_true.json: n must be an integer >= 1, got True"),
], ids=["account_losses", "report", "release", "report_not_json", "release_list",
        "release_no_steps", "report_redacted", "release_redacted", "release_null_epsilon",
        "account_directory", "account_npz_as_jsonl", "report_losses_npz",
        "simulate_config_latin1", "account_huge_steps", "account_huge_n",
        "account_huge_steps_npz", "account_huge_n_npz", "account_huge_member_npz",
        "account_f4_npz", "account_fortran_npz", "account_truncated_npz", "account_nan_npz",
        "account_inf_npz", "account_minus_inf_npz", "account_negative_npz", "account_out_file",
        "simulate_out_under_file", "report_label_float", "report_label_bool",
        "release_eps_string", "release_orders_short", "release_orders_float",
        "release_orders_one", "release_worst_x", "report_worst_x", "release_worst_null",
        "report_worst_null", "release_steps_many", "release_delta_x", "release_order_x",
        "release_config_list", "release_n_true"])
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
    (tmp_path / "npz.jsonl").write_bytes((tmp_path / "trace.npz").read_bytes())
    (tmp_path / "latin1.json").write_bytes('{"seed": "\xe9"}'.encode("latin-1"))
    del doc["steps"]                                      # used to exit 2
    (tmp_path / "no_steps.json").write_text(json.dumps(doc))
    argv = [a.format(sim=sim_out, tmp=tmp_path) for a in argv]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_VALIDATION
    assert message.format(tmp=tmp_path) in capsys.readouterr().err


def test_permission_denied_input_names_its_path():
    # chmod does not stop a superuser from reading, so the reader raises
    def denied(path):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    with pytest.raises(ValidationFailure, match="^secret.json: permission denied$"):
        _read_input(denied, "secret.json")


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


def test_one_example_run_has_no_correlation(tmp_path):
    # one point has no variance, so no correlation; this run used to write
    # report.json and the trace, then exit 1
    cfg = _write_config(tmp_path, n=1, group_proportions=[1.0], group_noise_scales=[1.0],
                        clip=1.0)
    sim_out, rep_out = tmp_path / "sim", tmp_path / "rep"
    assert main(["simulate", "--config", cfg, "--out", str(sim_out),
                 "--unsafe-export-per-example"]) == EXIT_OK
    assert json.loads((sim_out / "analysis.json").read_text())["correlation"] is None
    assert main(["report", str(sim_out / "report.json"), "--losses", str(sim_out / "losses.csv"),
                 "--out", str(rep_out)]) == EXIT_OK
    assert _read(rep_out / "analysis.json") == _read(sim_out / "analysis.json")


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
