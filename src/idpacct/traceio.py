"""Gradient-norm trace files: the on-disk hand-off between a trainer and
the accountant.

A trace is JSON-Lines: the first line is a header object
(version, n, clip, noise_std, sampling_prob, frequency, rounding, steps);
every following line is one record ``{"step": t, "id": i, "norm": v}``,
sorted by (step, id).  Records exist exactly at assignment-refresh steps
(t mod frequency == 0), n per such step.

The binary ``.npz`` variant holds exactly two members: ``header``, the same
header JSON as bytes, and ``norm``, the (refresh steps x n) float64 matrix.
Row r is refresh step r * frequency and column i is example i, so the
header fixes every value's step and id.  An archive with any other members
(such as an older layout with flat ``step``/``id``/``norm`` columns) is
rejected; re-create it with ``idpacct simulate --binary-trace``.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_write_bytes, atomic_write_text
from .accountant import AccountantConfig, IndividualLedger

TRACE_VERSION = 1
_HEADER_KEYS = {"version", "n", "clip", "noise_std", "sampling_prob",
                "frequency", "rounding", "steps"}
_RECORD_KEYS = {"step", "id", "norm"}


class TraceFormatError(ValueError):
    """Malformed trace file; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass
class TraceHeader:
    n: int
    clip: float
    noise_std: float
    sampling_prob: float
    frequency: int
    rounding: float
    steps: int
    version: int = TRACE_VERSION

    def __post_init__(self):
        for name in ("n", "steps", "frequency"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        # delegates range checks on the shared fields
        self.to_config()

    def to_config(self, delta: float = 1e-5, orders=None) -> AccountantConfig:
        kwargs = {}
        if orders is not None:
            kwargs["orders"] = orders
        return AccountantConfig(
            noise_std=self.noise_std, max_clip=self.clip,
            sampling_prob=self.sampling_prob, rounding=self.rounding,
            frequency=self.frequency, delta=delta, **kwargs)

    def refresh_steps(self) -> np.ndarray:
        return np.arange(0, self.steps, self.frequency, dtype=np.int64)

    def to_dict(self) -> dict:
        return {
            "version": self.version, "n": self.n, "clip": self.clip,
            "noise_std": self.noise_std, "sampling_prob": self.sampling_prob,
            "frequency": self.frequency, "rounding": self.rounding,
            "steps": self.steps,
        }


def _check_matrix(header: TraceHeader, norms: np.ndarray) -> np.ndarray:
    norms = np.asarray(norms, dtype=np.float64)
    expected = (len(header.refresh_steps()), header.n)
    if norms.shape != expected:
        raise ValueError(f"column 'norm' has shape {norms.shape}, header implies {expected}")
    if not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise ValueError("norms must be finite and >= 0")
    return norms


def write_trace(path: str, header: TraceHeader, norms: np.ndarray) -> None:
    """``norms`` has one row per refresh step, one column per example."""
    norms = _check_matrix(header, norms)
    buf = io.StringIO()
    buf.write(json.dumps(header.to_dict()) + "\n")
    for row, step in zip(norms, header.refresh_steps()):
        for i in range(header.n):
            buf.write('{"step": %d, "id": %d, "norm": %s}\n'
                      % (step, i, repr(float(row[i]))))
    atomic_write_text(path, buf.getvalue())


def _parse_header(line: str) -> TraceHeader:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"header is not valid JSON: {exc}", line=1)
    if not isinstance(doc, dict) or "version" not in doc:
        raise TraceFormatError("first line must be a header object with a version",
                               line=1)
    if doc["version"] != TRACE_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {doc['version']!r} "
            f"(this build reads version {TRACE_VERSION})", line=1)
    extra = set(doc) - _HEADER_KEYS
    missing = _HEADER_KEYS - set(doc)
    if extra or missing:
        raise TraceFormatError(
            f"bad header fields (unknown: {sorted(extra)}, missing: {sorted(missing)})",
            line=1)
    try:
        return TraceHeader(**{k: doc[k] for k in doc if k != "version"})
    except (TypeError, ValueError) as exc:
        raise TraceFormatError(f"invalid header values: {exc}", line=1)


def read_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Parse and validate a JSON-Lines trace.

    Returns the header and the (refresh steps x n) norm matrix.  Any
    malformed record raises TraceFormatError with its line number;
    out-of-order, duplicate, or missing (step, id) pairs are rejected.
    """
    with open(path) as f:
        first = f.readline()
        if not first.strip():
            raise TraceFormatError("empty trace file", line=1)
        header = _parse_header(first)
        refresh = header.refresh_steps()
        step_row = {int(t): r for r, t in enumerate(refresh)}
        norms = np.full((len(refresh), header.n), np.nan)
        prev = (-1, -1)
        lineno = 1
        for raw in f:
            lineno += 1
            if not raw.strip():
                raise TraceFormatError("blank line inside trace", line=lineno)
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"not valid JSON: {exc}", line=lineno)
            if not isinstance(rec, dict) or set(rec) != _RECORD_KEYS:
                raise TraceFormatError(
                    "record must be an object with exactly step/id/norm",
                    line=lineno)
            step, ex, norm = rec["step"], rec["id"], rec["norm"]
            if type(step) is not int or type(ex) is not int:     # bool is an int subclass
                raise TraceFormatError("step and id must be integers", line=lineno)
            if not isinstance(norm, (int, float)) or isinstance(norm, bool) \
                    or not math.isfinite(norm) or norm < 0:
                raise TraceFormatError(f"norm must be finite and >= 0, got {norm!r}",
                                       line=lineno)
            if step not in step_row:
                raise TraceFormatError(
                    f"step {step} is not an assignment-refresh step of this header "
                    f"(steps={header.steps}, frequency={header.frequency})",
                    line=lineno)
            if not 0 <= ex < header.n:
                raise TraceFormatError(f"example id {ex} outside [0, {header.n})",
                                       line=lineno)
            if (step, ex) <= prev:
                raise TraceFormatError(
                    f"records out of order or duplicated at (step={step}, id={ex})",
                    line=lineno)
            prev = (step, ex)
            norms[step_row[step], ex] = norm
    hole = np.argwhere(np.isnan(norms))
    if hole.size:
        r, c = hole[0]
        raise TraceFormatError(
            f"missing record for step {int(refresh[r])}, example {int(c)}")
    return header, norms


def write_trace_npz(path: str, header: TraceHeader, norms: np.ndarray) -> None:
    """Binary variant: the header as JSON bytes plus the norm matrix."""
    norms = _check_matrix(header, norms)
    buf = io.BytesIO()
    np.savez_compressed(buf, header=np.frombuffer(
        json.dumps(header.to_dict()).encode(), dtype=np.uint8), norm=norms)
    atomic_write_bytes(path, buf.getvalue())


def read_trace_npz(path: str) -> tuple[TraceHeader, np.ndarray]:
    try:
        z = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise TraceFormatError(f"not an .npz archive: {exc}")
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise TraceFormatError("not an .npz archive")
    with z:
        members = sorted(z.files)
        if members != ["header", "norm"]:
            raise TraceFormatError(
                f"binary trace holds arrays {members}, expected exactly "
                "['header', 'norm']; re-create it with `idpacct simulate --binary-trace`")
        try:
            header_col, norms = z["header"], z["norm"]
        except (ValueError, zipfile.BadZipFile) as exc:
            raise TraceFormatError(f"unreadable array in binary trace: {exc}")
    header = _parse_header(bytes(header_col).decode())
    try:
        return header, _check_matrix(header, norms)
    except ValueError as exc:
        raise TraceFormatError(f"binary trace {exc}")


def read_any_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    if path.endswith(".npz"):
        return read_trace_npz(path)
    return read_trace(path)


def replay_trace(header: TraceHeader, norms: np.ndarray, delta: float = 1e-5,
                 orders=None) -> IndividualLedger:
    """Drive a fresh ledger through the recorded run: an assignment refresh
    at every row's step, one charged step per training step."""
    norms = _check_matrix(header, norms)
    ledger = IndividualLedger(header.n, header.to_config(delta=delta, orders=orders))
    for row, start in zip(norms, header.refresh_steps().tolist()):
        ledger.update_assignments(row, step=start)
        for t in range(start, min(start + header.frequency, header.steps)):
            ledger.record_step(t)
    return ledger


def write_losses_csv(path: str, losses, groups=None) -> None:
    losses = np.asarray(losses, dtype=np.float64)
    buf = io.StringIO()
    buf.write("example_id,group,final_loss\n")
    for i in range(losses.size):
        g = "" if groups is None else int(groups[i])
        buf.write(f"{i},{g},{repr(float(losses[i]))}\n")
    atomic_write_text(path, buf.getvalue())


def read_losses_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Losses and group labels (None when no row has one) from a file as
    written by ``write_losses_csv``: row i must carry example_id i."""
    import csv

    losses, groups = [], []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != ["example_id", "group", "final_loss"]:
            raise ValueError(f"{path}: unexpected losses columns {reader.fieldnames}")
        for i, row in enumerate(reader):
            where = f"{path}: line {reader.line_num}"
            if row["example_id"] != str(i):
                raise ValueError(f"{where}: example_id {row['example_id']!r}, expected {i} "
                                 "(rows must be in example order)")
            try:
                losses.append(float(row["final_loss"]))
            except (TypeError, ValueError):
                raise ValueError(f"{where}: final_loss {row['final_loss']!r} is not a number")
            try:
                groups.append(int(row["group"]) if row["group"] != "" else -1)
            except (TypeError, ValueError):
                raise ValueError(f"{where}: group {row['group']!r} is not an integer")
    groups_arr = np.asarray(groups, dtype=np.int64)
    return (np.asarray(losses, dtype=np.float64),
            None if np.all(groups_arr == -1) else groups_arr)
