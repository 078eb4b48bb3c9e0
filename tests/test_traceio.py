"""Tests for the gradient-norm trace format: round trips, strict
validation with line numbers, the binary variant, and replay equivalence."""

from __future__ import annotations

import io
import json
import re
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from idpacct._fileio import atomic_write
from idpacct.accountant import AccountantConfig, IndividualLedger
from idpacct.cli import EXIT_VALIDATION, main
from idpacct.rdp_math import RdpCurve, rdp_to_dp, sgm_rdp_curve
from idpacct.traceio import (
    TRACE_VERSION,
    TraceFormatError,
    TraceHeader,
    read_any_trace,
    read_losses_csv,
    read_trace,
    read_trace_npz,
    replay_trace,
    write_losses_csv,
    write_trace,
    write_trace_npz,
)


def _header(**overrides) -> TraceHeader:
    base = dict(n=3, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                frequency=2, rounding=0.01, steps=6)
    base.update(overrides)
    return TraceHeader(**base)


def _norms(header: TraceHeader, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 2, (len(header.refresh_steps()), header.n))


# ----------------------------------------------------------- round trip ---

def test_jsonl_round_trip_exact(tmp_path):
    header = _header()
    norms = _norms(header)
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, norms)
    got_header, got_norms = read_trace(path)
    assert got_header.to_dict() == header.to_dict()
    assert np.array_equal(got_norms, norms)      # bit-exact float round trip
    # the header line, then one array of n norms per refresh step
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 1 + len(header.refresh_steps())
    assert [len(json.loads(line)) for line in lines[1:]] == [header.n] * len(norms)


def test_npz_round_trip_exact(tmp_path):
    header = _header(n=5, steps=9, frequency=3)
    norms = _norms(header, seed=1)
    path = str(tmp_path / "t.npz")
    write_trace_npz(path, header, norms)
    got_header, got_norms = read_trace_npz(path)
    assert got_header.to_dict() == header.to_dict()
    assert np.array_equal(got_norms, norms)
    with np.load(path) as z:                  # the header implies every step and id
        assert sorted(z.files) == ["header", "norm"]
        assert z["norm"].shape == norms.shape


def test_npz_writer_stores_c_order_members_uncompressed(tmp_path):
    header = _header(n=5, steps=9, frequency=3)
    norms = np.asfortranarray(_norms(header, seed=1))
    path = str(tmp_path / "t.npz")
    write_trace_npz(path, header, norms)
    with zipfile.ZipFile(path) as zf:
        assert [m.compress_type for m in zf.infolist()] == [zipfile.ZIP_STORED] * 2
    with np.load(path) as z:
        assert z["norm"].flags.c_contiguous
    assert np.array_equal(read_trace_npz(path)[1], norms)


@pytest.mark.parametrize("save, layout", [
    (np.savez_compressed, lambda a: a),               # the earlier writer
    (np.savez, np.asfortranarray),
    (np.savez_compressed, np.asfortranarray),
    (np.savez, lambda a: a.astype(">f8")),
], ids=["compressed", "fortran", "compressed_fortran", "big_endian"])
def test_npz_other_member_layouts_read_back(tmp_path, save, layout):
    # the reader accepts every archive np.load reads, as earlier versions wrote them
    header = _header(n=5, steps=9, frequency=3)
    norms = _norms(header, seed=3)
    path = str(tmp_path / "t.npz")
    save(path, header=np.frombuffer(json.dumps(header.to_dict()).encode(), dtype=np.uint8),
         norm=layout(norms))
    got_header, got = read_trace_npz(path)
    assert got_header.to_dict() == header.to_dict()
    assert np.array_equal(got, norms)


def test_readme_example_trace_reads(tmp_path):
    # the documented example must stay a trace the reader accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```jsonl\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    path = tmp_path / "example.jsonl"
    path.write_text(blocks[0])
    header, norms = read_trace(str(path))
    assert (header.n, header.frequency, header.steps) == (3, 2, 4)
    assert header.refresh_steps().tolist() == [0, 2]
    assert norms.shape == (2, 3)
    assert norms.tolist() == [json.loads(line) for line in blocks[0].splitlines()[1:]]


def test_read_any_trace_dispatches_on_suffix(tmp_path):
    header = _header()
    norms = _norms(header)
    for name, writer in (("t.jsonl", write_trace), ("t.npz", write_trace_npz)):
        path = str(tmp_path / name)
        writer(path, header, norms)
        _, got = read_any_trace(path)
        assert np.array_equal(got, norms)


# --------------------------------------------------- streaming writers ---

def _old_npz_bytes(header: TraceHeader, norms: np.ndarray) -> bytes:
    # the earlier writer: the whole archive built in memory first
    buf = io.BytesIO()
    np.savez(buf, header=np.frombuffer(json.dumps(header.to_dict()).encode(), dtype=np.uint8),
             norm=np.ascontiguousarray(norms))
    return buf.getvalue()


def _old_jsonl_bytes(header: TraceHeader, norms: np.ndarray) -> bytes:
    lines = [json.dumps(header.to_dict())] + [json.dumps(row) for row in norms.tolist()]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray],
                         ids=["c_order", "fortran_order"])
@pytest.mark.parametrize("writer, old", [(write_trace, _old_jsonl_bytes),
                                         (write_trace_npz, _old_npz_bytes)],
                         ids=["jsonl", "npz"])
def test_streaming_writer_matches_in_memory_route(tmp_path, writer, old, layout):
    header = _header(n=7, steps=11, frequency=2)
    norms = layout(np.concatenate([_norms(header, seed=4)[:, :-2],
                                   np.full((6, 2), [0.0, 5e-324])], axis=1))
    path = tmp_path / "t"
    writer(str(path), header, norms)
    assert path.read_bytes() == old(header, norms)


@pytest.mark.parametrize("writer, reader, n, bound", [
    (write_trace_npz, read_trace_npz, 20_000, 1.1),
    # tracemalloc traces every Python float, which takes 7 s at n = 20,000;
    # the ratio is the same at any n, since the extra memory is one row's text
    (write_trace, read_trace, 2_000, 0.5),
], ids=["npz", "jsonl"])
def test_trace_writer_memory_is_bounded(tmp_path, writer, reader, n, bound):
    # traced peak above the 64-row input matrix; the earlier writers, which built
    # the whole file in memory, peaked at 2.0x (npz) and 7.5x (JSON-Lines)
    header = _header(n=n, steps=64, frequency=1)
    norms = _norms(header, seed=6)
    path = str(tmp_path / "t")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        writer(path, header, norms)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < bound * norms.nbytes, peak / norms.nbytes
    assert np.array_equal(reader(path)[1], norms)


# -------------------------------------------------------- atomic writes ---

def _temp_files(directory: Path) -> list[str]:
    return sorted(p.name for p in directory.iterdir() if p.name.startswith(".tmp-"))


def _savez_then_raise(exc):
    def savez(file, **arrays):
        file.write(b"PK\x03\x04 part of an archive")
        raise exc
    return savez


def _dumps_then_raise(exc):
    calls = []
    real = json.dumps

    def dumps(obj, **kwargs):
        calls.append(obj)
        if len(calls) == 3:               # the header and one row are written
            raise exc
        return real(obj, **kwargs)
    return dumps


@pytest.mark.parametrize("exc", [RuntimeError("disk gone"), KeyboardInterrupt()],
                         ids=["exception", "keyboard_interrupt"])
@pytest.mark.parametrize("writer, target, patch", [
    (write_trace_npz, (np, "savez"), _savez_then_raise),
    (write_trace, (json, "dumps"), _dumps_then_raise),
], ids=["npz", "jsonl"])
def test_failed_write_leaves_target_and_no_temp_file(tmp_path, monkeypatch, exc,
                                                     writer, target, patch):
    path = tmp_path / "t"
    path.write_bytes(b"the earlier trace")
    monkeypatch.setattr(*target, patch(exc))
    with pytest.raises(type(exc)):
        writer(str(path), _header(), _norms(_header()))
    assert path.read_bytes() == b"the earlier trace"
    assert _temp_files(tmp_path) == []


@pytest.mark.parametrize("data", ["caf\u00e9\n", b"\x00\xffbytes"], ids=["text", "bytes"])
def test_atomic_write_replaces_target_and_leaves_no_temp_file(tmp_path, data):
    path = tmp_path / "out"
    path.write_bytes(b"the earlier file")
    atomic_write(str(path), data)
    assert path.read_bytes() == (data.encode("utf-8") if isinstance(data, str) else data)
    assert _temp_files(tmp_path) == []


# ----------------------------------------------------------- validation ---

def test_header_validation():
    with pytest.raises(ValueError):
        _header(n=0)
    with pytest.raises(ValueError):
        _header(steps=0)
    with pytest.raises(ValueError):
        _header(noise_std=-1.0)
    with pytest.raises(ValueError):
        _header(sampling_prob=2.0)
    for name, value in [("n", 2.0), ("steps", 2.5), ("frequency", 2.0),
                        ("n", True), ("frequency", True)]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            _header(**{name: value})


def test_future_version_rejected(tmp_path):
    header = _header()
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, _norms(header))
    lines = Path(path).read_text().splitlines()
    doc = json.loads(lines[0])
    doc["version"] = TRACE_VERSION + 1
    lines[0] = json.dumps(doc)
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="version"):
        read_trace(path)


def test_v1_trace_rejected(tmp_path):
    # the earlier layout: one {"step", "id", "norm"} object per example and refresh
    header = _header()
    doc = dict(header.to_dict(), version=1)
    records = [json.dumps({"step": int(t), "id": i, "norm": float(v)})
               for t, row in zip(header.refresh_steps(), _norms(header))
               for i, v in enumerate(row)]
    path = tmp_path / "t.jsonl"
    path.write_text("\n".join([json.dumps(doc), *records]) + "\n")
    with pytest.raises(TraceFormatError, match="version 1.*re-create") as err:
        read_trace(str(path))
    assert err.value.line == 1
    assert main(["account", str(path)]) == EXIT_VALIDATION


def test_unknown_header_field_rejected(tmp_path):
    header = _header()
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, _norms(header))
    lines = Path(path).read_text().splitlines()
    doc = json.loads(lines[0])
    doc["surprise"] = 1
    lines[0] = json.dumps(doc)
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError):
        read_trace(path)


@pytest.mark.parametrize("field, value, message", [
    ("n", 2.0, "n must be an integer"),
    ("steps", 2.5, "steps must be an integer"),
    ("frequency", True, "frequency must be an integer"),
])
def test_non_integer_header_count_rejected(tmp_path, field, value, message):
    header = _header()
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, _norms(header))
    lines = Path(path).read_text().splitlines()
    doc = json.loads(lines[0])
    doc[field] = value
    lines[0] = json.dumps(doc)
    Path(path).write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match=message) as err:
        read_trace(path)
    assert err.value.line == 1


def _tamper(tmp_path, line_index, new_line):
    # the header line is followed by one row per refresh step: 3 rows here
    header = _header()
    path = str(tmp_path / "t.jsonl")
    write_trace(path, header, _norms(header))
    lines = Path(path).read_text().splitlines()
    if new_line is None:
        del lines[line_index]
    elif line_index == len(lines):
        lines.append(new_line)
    else:
        lines[line_index] = new_line
    Path(path).write_text("\n".join(lines) + "\n")
    return path


def test_malformed_json_reports_line_number(tmp_path):
    path = _tamper(tmp_path, 2, "[0.5, 0.25")
    with pytest.raises(TraceFormatError) as err:
        read_trace(path)
    assert err.value.line == 3


def test_wrong_record_keys_rejected(tmp_path):
    # an object where a row belongs, such as a record of the earlier layout
    path = _tamper(tmp_path, 2, '{"step": 2, "id": 1, "norm": 0.5}')
    with pytest.raises(TraceFormatError, match="array") as err:
        read_trace(path)
    assert err.value.line == 3


def test_negative_norm_rejected(tmp_path):
    path = _tamper(tmp_path, 2, "[0.5, -0.5, 0.5]")
    with pytest.raises(TraceFormatError, match="example 1 .*-0.5") as err:
        read_trace(path)
    assert err.value.line == 3


def test_nan_norm_rejected(tmp_path):
    path = _tamper(tmp_path, 2, "[0.5, 0.5, NaN]")
    with pytest.raises(TraceFormatError, match="example 2 .*nan") as err:
        read_trace(path)
    assert err.value.line == 3


def test_non_refresh_step_rejected(tmp_path):
    # a header whose steps imply 2 refresh rows, above 3 rows written for 6 steps
    path = _tamper(tmp_path, 0, json.dumps(_header(steps=4).to_dict()))
    with pytest.raises(TraceFormatError, match="2 refresh steps") as err:
        read_trace(path)
    assert err.value.line == 4


def test_out_of_range_id_rejected(tmp_path):
    # a row one value short or one value long, i.e. with an example id beyond n
    for row in ("[0.5, 0.5]", "[0.5, 0.5, 0.5, 0.5]"):
        path = _tamper(tmp_path, 2, row)
        with pytest.raises(TraceFormatError, match="header implies n = 3") as err:
            read_trace(path)
        assert err.value.line == 3


def test_duplicate_record_rejected(tmp_path):
    path = _tamper(tmp_path, 4, "[0.5, 0.5, 0.5]")
    with pytest.raises(TraceFormatError, match="more rows") as err:
        read_trace(path)
    assert err.value.line == 5


def test_missing_record_rejected(tmp_path):
    path = _tamper(tmp_path, 2, None)
    with pytest.raises(TraceFormatError, match="missing refresh row for step 4"):
        read_trace(path)


@pytest.mark.parametrize("row, message", [
    ("[0.5, true, 0.5]", "array of numbers"),
    ("[0.5, null, 0.5]", "array of numbers"),
    ('[0.5, "0.5", 0.5]', "array of numbers"),
    ("[0.5, [0.5], 0.5]", "array of numbers"),
    ("[0.5, " + "9" * 400 + ", 0.5]", "too large"),       # used to exit 2
    ("[0.5, " + "9" * 5000 + ", 0.5]", "not valid JSON"),   # over int's 4300 digits
    ("", "blank line"),
], ids=["true", "null", "string", "nested", "huge_int", "huge_int_literal", "blank"])
def test_bad_row_rejected(tmp_path, capsys, row, message):
    path = _tamper(tmp_path, 2, row)
    with pytest.raises(TraceFormatError, match=message) as err:
        read_trace(path)
    assert err.value.line == 3
    assert main(["account", path]) == EXIT_VALIDATION
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize("record", [
    '{"step": false, "id": 1, "norm": 0.5}',
    '{"step": 0, "id": true, "norm": 0.5}',
])
def test_boolean_step_or_id_rejected(tmp_path, record):
    # a record of the earlier layout with a boolean step or id, where a row belongs
    path = _tamper(tmp_path, 2, record)
    with pytest.raises(TraceFormatError, match="array of numbers") as err:
        read_trace(path)
    assert err.value.line == 3
    assert main(["account", path]) == EXIT_VALIDATION
    # the same boolean where a norm belongs in a row
    flag = next(v for v in json.loads(record).values() if type(v) is bool)
    path = _tamper(tmp_path, 2, json.dumps([0.5, flag, 0.5]))
    with pytest.raises(TraceFormatError, match="array of numbers") as err:
        read_trace(path)
    assert err.value.line == 3


def _npz_with(tmp_path, **replace):
    header = _header()
    path = str(tmp_path / "t.npz")
    write_trace_npz(path, header, _norms(header))
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    for name, fix in replace.items():
        arrays[name] = fix(arrays[name])
    np.savez(path, **arrays)
    return path


@pytest.mark.parametrize("column", ["norm"])
def test_npz_column_of_wrong_length_rejected(tmp_path, column):
    path = _npz_with(tmp_path, **{column: lambda a: a[:-1]})
    with pytest.raises(TraceFormatError, match=f"column '{column}' has shape"):
        read_trace_npz(path)
    assert main(["account", path]) == EXIT_VALIDATION


def test_npz_short_norm_member_rejected(tmp_path):
    # a .npy header that promises one row more than the member holds
    header = _header()
    norms = _norms(header)
    npy = io.BytesIO()
    np.lib.format.write_array_header_1_0(npy, {"descr": "<f8", "fortran_order": False,
                                               "shape": norms.shape})
    npy.write(norms[:-1].tobytes())
    path = str(tmp_path / "t.npz")
    np.savez(path, header=np.frombuffer(json.dumps(header.to_dict()).encode(), dtype=np.uint8))
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("norm.npy", npy.getvalue())
    with pytest.raises(TraceFormatError, match="unreadable array in binary trace"):
        read_trace_npz(path)
    assert main(["account", path]) == EXIT_VALIDATION


def test_npz_old_layout_rejected(tmp_path):
    # the earlier layout: flat step/id/norm columns next to the header
    header = _header()
    refresh = header.refresh_steps()
    path = str(tmp_path / "t.npz")
    np.savez(path, header=np.frombuffer(json.dumps(header.to_dict()).encode(),
                                        dtype=np.uint8),
             step=np.repeat(refresh, header.n),
             id=np.tile(np.arange(header.n), len(refresh)),
             norm=_norms(header).ravel())
    with pytest.raises(TraceFormatError, match="step") as err:
        read_trace_npz(path)
    assert "simulate --binary-trace" in str(err.value)
    assert main(["account", path]) == EXIT_VALIDATION


def test_npz_non_archive_rejected(tmp_path):
    path = str(tmp_path / "t.npz")
    write_trace(path, _header(), _norms(_header()))     # JSON-Lines under .npz
    with pytest.raises(TraceFormatError, match="npz archive"):
        read_trace_npz(path)
    assert main(["account", path]) == EXIT_VALIDATION


# --------------------------------------------------------------- replay ---

def test_replay_matches_direct_ledger():
    header = _header(n=4, steps=10, frequency=3)
    norms = _norms(header, seed=2)
    replayed = replay_trace(header, norms)
    direct = IndividualLedger(4, header.to_config())
    row = 0
    for t in range(10):
        if t % 3 == 0:
            direct.update_assignments(norms[row], step=t)
            row += 1
        direct.record_step(t)
    a, _ = replayed.epsilons()
    b, _ = direct.epsilons()
    assert np.array_equal(a, b)


def test_hand_written_trace_matches_manual_composition(tmp_path):
    # 3 examples, 4 steps, refresh every step, no rounding: epsilon must
    # equal composing the per-step curves for each example's clipped norm
    header = TraceHeader(n=3, clip=1.0, noise_std=1.0, sampling_prob=0.1,
                         frequency=1, rounding=0.0, steps=4)
    norms = np.asarray([
        [0.2, 0.9, 1.7],
        [0.4, 0.9, 1.2],
        [0.2, 0.9, 0.3],
        [0.8, 0.9, 2.6],
    ])
    path = str(tmp_path / "hand.jsonl")
    write_trace(path, header, norms)
    got_header, got_norms = read_trace(path)
    ledger = replay_trace(got_header, got_norms, delta=1e-5)
    eps, _ = ledger.epsilons()
    cfg = header.to_config()
    for i in range(3):
        total = np.zeros(cfg.orders.shape)
        for t in range(4):
            z = min(norms[t, i], 1.0)
            total = total + sgm_rdp_curve(0.1, 1.0 / z, cfg.orders).values
        expected, _ = rdp_to_dp(RdpCurve(cfg.orders, total), 1e-5)
        assert eps[i] == pytest.approx(expected, rel=1e-12, abs=0.0)


# --------------------------------------------------------------- losses ---

def _losses_csv_by_row(losses, groups=None) -> str:
    # the row-at-a-time writer that write_losses_csv replaced
    losses = np.asarray(losses, dtype=np.float64)
    out = "example_id,group,final_loss\n"
    for i in range(losses.size):
        g = "" if groups is None else int(groups[i])
        out += f"{i},{g},{repr(float(losses[i]))}\n"
    return out


@pytest.mark.parametrize("with_groups", [False, True], ids=["no_groups", "groups"])
def test_losses_csv_matches_row_writer(tmp_path, with_groups):
    rng = np.random.default_rng(5)
    losses = np.concatenate([rng.exponential(size=200), [0.0, 1e-300, 5e-324, 1e300]])
    groups = rng.integers(0, 7, losses.size) if with_groups else None
    path = tmp_path / "l.csv"
    write_losses_csv(str(path), losses, groups)
    assert path.read_bytes() == _losses_csv_by_row(losses, groups).encode()


def test_losses_csv_round_trip(tmp_path):
    losses = np.asarray([0.25, 0.5, 0.125])
    groups = np.asarray([0, 1, 0])
    path = str(tmp_path / "l.csv")
    write_losses_csv(path, losses, groups)
    got_losses, got_groups = read_losses_csv(path)
    assert np.array_equal(got_losses, losses)
    assert np.array_equal(got_groups, groups)


def test_losses_csv_without_groups(tmp_path):
    path = str(tmp_path / "l.csv")
    write_losses_csv(path, [0.5, 0.75])
    losses, groups = read_losses_csv(path)
    assert np.array_equal(losses, [0.5, 0.75])
    assert groups is None


@pytest.mark.parametrize("rows, message", [
    ("1,0,0.25\n0,1,0.5\n", "line 2: example_id '1', expected 0"),   # sorted by loss
    ("0,x,0.25\n", "line 2: group 'x' is not an integer"),
    ("0,0,0.25\n1,0,low\n", "line 3: final_loss 'low' is not a number"),
    # a mixed group column used to read as a fake group -1
    ("0,0,0.25\n1,,0.5\n2,1,0.75\n", "line 3: group column mixes blank and labelled"),
    ("0,,0.25\n1,1,0.5\n", "line 3: group column mixes blank and labelled"),
    # -inf used to reach analysis.json as -Infinity; nan failed in a least-squares fit
    ("0,0,0.25\n1,0,-inf\n", "line 3: final_loss '-inf' is not finite"),
    ("0,0,nan\n", "line 2: final_loss 'nan' is not finite"),
    # a fourth field used to be dropped silently, a missing third to read as None
    ("0,0,0.25\n1,0,0.5,9\n", "line 3: 4 fields, expected 3"),
    ("0,0.25\n", "line 2: 2 fields, expected 3"),
], ids=["example_order", "group", "loss", "blank_among_labels", "label_after_blank",
        "loss_minus_inf", "loss_nan", "extra_field", "missing_field"])
def test_losses_csv_rejects_bad_rows(tmp_path, rows, message):
    path = tmp_path / "l.csv"
    path.write_text("example_id,group,final_loss\n" + rows)
    with pytest.raises(ValueError, match=message) as err:
        read_losses_csv(str(path))
    assert str(path) in str(err.value)


def test_losses_csv_skips_blank_lines(tmp_path):
    # blank lines are skipped but still counted in the line numbers of errors
    path = tmp_path / "l.csv"
    path.write_text("example_id,group,final_loss\n0,0,0.25\n\n1,1,0.5\n\n")
    losses, groups = read_losses_csv(str(path))
    assert np.array_equal(losses, [0.25, 0.5])
    assert np.array_equal(groups, [0, 1])
    path.write_text("example_id,group,final_loss\n0,0,0.25\n\n1,0,low\n")
    with pytest.raises(ValueError, match="line 4: final_loss 'low' is not a number"):
        read_losses_csv(str(path))


def test_losses_csv_keeps_group_minus_one(tmp_path):
    # -1 is a label like any other; it used to read as "no groups"
    path = str(tmp_path / "l.csv")
    write_losses_csv(path, [0.5, 0.75], [-1, -1])
    _, groups = read_losses_csv(path)
    assert np.array_equal(groups, [-1, -1])
