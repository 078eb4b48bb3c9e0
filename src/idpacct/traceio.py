"""Gradient-norm trace files: the on-disk hand-off between a trainer and
the accountant.

A trace is JSON-Lines.  Line 1 is a header object
(version, n, clip, noise_std, sampling_prob, frequency, rounding, steps);
line 2 + r is one JSON array of the n norms recorded at refresh row r,
i.e. at training step r * frequency, with element i the norm of example i.
Nothing else goes in the file, so a trainer writes one
``json.dumps(list_of_norms)`` line per assignment refresh.  The header
fixes every value's step and id.

The binary ``.npz`` variant holds exactly two members: ``header``, the same
header JSON as bytes, and ``norm``, the (refresh steps x n) float64 matrix
with the same rows and columns.  The writer stores both uncompressed, with
``norm`` in C order; archives written compressed by earlier versions still
load.  An archive with any other members (such as an older layout with flat
``step``/``id``/``norm`` columns) is rejected; re-create it with
``idpacct simulate --binary-trace``.  Both formats share the header's
version: a trace written under another version is rejected, and is
re-created with ``idpacct simulate``.

Both writers stream into ``atomic_open``'s temp file, which is renamed over
the target only when complete.  ``write_trace`` encodes one row at a time,
and ``write_trace_npz`` hands the file to ``np.savez``, which copies the
matrix out in chunks of at most 16 MiB; neither builds the file in memory.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from ._fileio import atomic_open, atomic_write
from .accountant import AccountantConfig, IndividualLedger
from .rdp_math import _check_fields

TRACE_VERSION = 2
_HEADER_KEYS = {"version", "n", "clip", "noise_std", "sampling_prob",
                "frequency", "rounding", "steps"}


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

    def __post_init__(self):
        _check_fields(self, integers=("n", "steps", "frequency"))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        # delegates range checks on the shared fields
        self.to_config()

    def to_config(self, delta: float = 1e-5) -> AccountantConfig:
        return AccountantConfig(
            noise_std=self.noise_std, max_clip=self.clip,
            sampling_prob=self.sampling_prob, rounding=self.rounding,
            frequency=self.frequency, delta=delta)

    def refresh_steps(self) -> np.ndarray:
        return np.arange(0, self.steps, self.frequency, dtype=np.int64)

    def to_dict(self) -> dict:
        return {
            "version": TRACE_VERSION, "n": self.n, "clip": self.clip,
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
    with atomic_open(path) as f:
        f.write(json.dumps(header.to_dict()).encode() + b"\n")
        for row in norms:
            f.write(json.dumps(row.tolist()).encode() + b"\n")


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
            f"(this build reads version {TRACE_VERSION}); "
            "re-create it with `idpacct simulate`", line=1)
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


def _parse_row(raw: str, n: int, lineno: int) -> np.ndarray:
    try:
        row = json.loads(raw)
    except ValueError as exc:        # also an integer literal of over 4300 digits
        raise TraceFormatError("blank line inside trace" if not raw.strip()
                               else f"not valid JSON: {exc}", line=lineno)
    # bool is an int subclass, so compare exact types
    if type(row) is not list or not set(map(type, row)) <= {int, float}:
        raise TraceFormatError("refresh row must be a JSON array of numbers", line=lineno)
    if len(row) != n:
        raise TraceFormatError(f"refresh row holds {len(row)} norms, header implies n = {n}",
                               line=lineno)
    try:
        values = np.array(row, dtype=np.float64)
    except OverflowError:
        raise TraceFormatError("norm too large for a float64", line=lineno)
    bad = np.flatnonzero(~(np.isfinite(values) & (values >= 0)))
    if bad.size:
        i = int(bad[0])
        raise TraceFormatError(f"norm of example {i} must be finite and >= 0, got {row[i]!r}",
                               line=lineno)
    return values


def read_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Parse and validate a JSON-Lines trace.

    Returns the header and the (refresh steps x n) norm matrix.  Any
    malformed row, and any row beyond the header's count, raises
    TraceFormatError with its line number; a missing row raises it with
    the row's step.
    """
    with open(path) as f:
        first = f.readline()
        if not first.strip():
            raise TraceFormatError("empty trace file", line=1)
        header = _parse_header(first)
        refresh = header.refresh_steps()
        norms = np.empty((len(refresh), header.n))
        rows = 0
        for rows, raw in enumerate(f, start=1):
            if rows > len(refresh):
                raise TraceFormatError(f"more rows than the header's {len(refresh)} "
                                       "refresh steps", line=rows + 1)
            norms[rows - 1] = _parse_row(raw, header.n, rows + 1)
    if rows < len(refresh):
        raise TraceFormatError(f"missing refresh row for step {int(refresh[rows])}")
    return header, norms


def write_trace_npz(path: str, header: TraceHeader, norms: np.ndarray) -> None:
    """Binary variant: the header as JSON bytes plus the norm matrix, both
    stored uncompressed."""
    norms = _check_matrix(header, norms)
    with atomic_open(path) as f:
        np.savez(f, header=np.frombuffer(json.dumps(header.to_dict()).encode(), dtype=np.uint8),
                 norm=np.ascontiguousarray(norms))


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


def replay_trace(header: TraceHeader, norms: np.ndarray,
                 delta: float = 1e-5) -> IndividualLedger:
    """Drive a fresh ledger through the recorded run: an assignment refresh
    at every row's step, one charged step per training step."""
    norms = _check_matrix(header, norms)
    ledger = IndividualLedger(header.n, header.to_config(delta=delta))
    for row, start in zip(norms, header.refresh_steps().tolist()):
        ledger.update_assignments(row, step=start)
        for t in range(start, min(start + header.frequency, header.steps)):
            ledger.record_step(t)
    return ledger


def write_losses_csv(path: str, losses, groups=None) -> None:
    losses = np.asarray(losses, dtype=np.float64).tolist()
    gs = [""] * len(losses) if groups is None else np.asarray(groups, dtype=np.int64).tolist()
    rows = zip(range(len(losses)), gs, losses, strict=True)
    atomic_write(path, "example_id,group,final_loss\n"
                 + "".join([f"{i},{g},{x!r}\n" for i, g, x in rows]))


def read_losses_csv(path: str) -> tuple[np.ndarray, np.ndarray | None]:
    """Losses and group labels (None when every group cell is blank) from a
    file as written by ``write_losses_csv``: row i must carry example_id i,
    every loss must be finite, and the group column is all blank or all
    labelled."""
    import csv

    columns = ["example_id", "group", "final_loss"]
    losses, groups = [], []
    blank = False                # some row has a blank group cell
    with open(path, newline="") as f:
        reader = csv.reader(f)
        first = next(reader, None)
        if first != columns:
            raise ValueError(f"{path}: unexpected losses columns {first}")

        def bad(message: str) -> ValueError:
            return ValueError(f"{path}: line {reader.line_num}: {message}")

        # blank lines are skipped, as csv.DictReader does
        for i, row in enumerate(filter(None, reader)):
            if len(row) != len(columns):
                raise bad(f"{len(row)} fields, expected {len(columns)} ({','.join(columns)})")
            example_id, group, final_loss = row
            if example_id != str(i):
                raise bad(f"example_id {example_id!r}, expected {i} "
                          "(rows must be in example order)")
            try:
                loss = float(final_loss)
            except ValueError:
                raise bad(f"final_loss {final_loss!r} is not a number")
            if not math.isfinite(loss):
                raise bad(f"final_loss {final_loss!r} is not finite")
            losses.append(loss)
            if group == "":
                blank = True
            else:
                try:
                    groups.append(int(group))
                except ValueError:
                    raise bad(f"group {group!r} is not an integer")
            if blank and groups:
                raise bad("group column mixes blank and labelled cells; label every row or none")
    return (np.asarray(losses, dtype=np.float64),
            np.asarray(groups, dtype=np.int64) if groups else None)
