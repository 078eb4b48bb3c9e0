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
load.  Before allocating a member, the reader checks that its ``.npy``
header declares exactly the bytes the member holds, as a 1-D ``|u1``
``header`` and a C-order ``<f8`` ``norm`` of the trace header's shape.  An
archive with any other members (such as an older layout with flat
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
import os
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from ._fileio import atomic_open, atomic_write
from .accountant import (DEFAULT_DELTA, AccountantConfig, IndividualLedger, _check_norms,
                         worst_case_epsilon)
from .rdp_math import _check_fields, _from_json

TRACE_VERSION = 2


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
        # delegates range checks on the shared fields; a report states the
        # worst case, so one that is not finite is refused before any work
        config = self.to_config()
        try:
            worst = worst_case_epsilon(config, self.steps)
        except OverflowError:        # steps past the float64 range
            worst = math.inf
        if not math.isfinite(worst):
            raise ValueError(f"the worst-case epsilon of {self.steps} steps at noise "
                             f"multiplier noise_std / clip = {self.noise_std / self.clip!r} "
                             "is not finite")

    def to_config(self, delta: float = DEFAULT_DELTA) -> AccountantConfig:
        return AccountantConfig(
            noise_std=self.noise_std, max_clip=self.clip,
            sampling_prob=self.sampling_prob, rounding=self.rounding,
            frequency=self.frequency, delta=delta)

    @property
    def n_refreshes(self) -> int:
        """Rows of the norm matrix, counted without building the steps."""
        return -(-self.steps // self.frequency)

    def refresh_steps(self) -> np.ndarray:
        return np.arange(0, self.steps, self.frequency, dtype=np.int64)

    def to_dict(self) -> dict:
        return {"version": TRACE_VERSION, **asdict(self)}


def _check_shape(header: TraceHeader, norms: np.ndarray) -> np.ndarray:
    norms = np.asarray(norms, dtype=np.float64)
    expected = (header.n_refreshes, header.n)
    if norms.shape != expected:
        raise ValueError(f"column 'norm' has shape {norms.shape}, header implies {expected}")
    return norms


def _check_matrix(header: TraceHeader, norms: np.ndarray) -> np.ndarray:
    norms = _check_shape(header, norms)
    _check_norms(norms)
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
    try:
        return _from_json(TraceHeader, {k: doc[k] for k in doc if k != "version"}, "header")
    except ValueError as exc:
        raise TraceFormatError(str(exc), line=1)


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
        _check_norms(values)
    except OverflowError:
        raise TraceFormatError("norm too large for a float64", line=lineno)
    except ValueError as exc:
        raise TraceFormatError(str(exc), line=lineno)
    return values


def read_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Parse and validate a JSON-Lines trace.

    Returns the header and the (refresh steps x n) norm matrix.  Any
    malformed row, and any row beyond the header's count, raises
    TraceFormatError with its line number; a missing row raises it with
    the row's step.  A header whose matrix cannot fit in the rest of the
    file (every norm takes at least two bytes: a digit and a comma or
    bracket) is refused before the matrix is allocated.

    Memory bound: beyond the matrix, a read holds one row's text and the
    Python floats it parses to, about 62 bytes per example, plus a few
    tens of KB of file buffers.
    """
    with open(path) as f:
        first = f.readline()
        if not first.strip():
            raise TraceFormatError("empty trace file", line=1)
        header = _parse_header(first)
        shape = (header.n_refreshes, header.n)
        rest = os.fstat(f.fileno()).st_size - len(first.encode())
        if 2 * shape[0] * shape[1] > rest:
            raise TraceFormatError(
                f"header implies a {shape[0]} x {shape[1]} norm matrix, which needs at "
                f"least {2 * shape[0] * shape[1]} bytes, but {rest} follow it", line=1)
        norms = np.empty(shape)
        rows = 0
        for rows, raw in enumerate(f, start=1):
            if rows > shape[0]:
                raise TraceFormatError(f"more rows than the header's {shape[0]} "
                                       "refresh steps", line=rows + 1)
            norms[rows - 1] = _parse_row(raw, header.n, rows + 1)
    if rows < shape[0]:
        raise TraceFormatError(f"missing refresh row for step {rows * header.frequency}")
    return header, norms


def write_trace_npz(path: str, header: TraceHeader, norms: np.ndarray) -> None:
    """Binary variant: the header as JSON bytes plus the norm matrix, both
    stored uncompressed."""
    norms = _check_matrix(header, norms)
    with atomic_open(path) as f:
        np.savez(f, header=np.frombuffer(json.dumps(header.to_dict()).encode(), dtype=np.uint8),
                 norm=np.ascontiguousarray(norms))


# bytes a member may expand to per stored byte: deflate's limit
_EXPANSION = {zipfile.ZIP_STORED: 1, zipfile.ZIP_DEFLATED: 1032}


def _load_member(z: np.lib.npyio.NpzFile, key: str, dtype: str,
                 shape: tuple | None = None) -> np.ndarray:
    """Archive member ``key``, allocated only once its ``.npy`` header shows
    a C-order ``dtype`` array of ``shape`` (else 1-D) whose declared bytes
    are the bytes the member holds, and those at most what its stored bytes
    can expand to."""
    info = z.zip.getinfo(key + ".npy")
    stored = min(info.compress_size, os.fstat(z.zip.fp.fileno()).st_size)
    if info.file_size > _EXPANSION.get(info.compress_type, 0) * stored:
        raise TraceFormatError(
            f"unreadable array in binary trace: member '{info.filename}' claims "
            f"{info.file_size} bytes from {info.compress_size} stored bytes")
    with z.zip.open(info) as f:
        read = np.lib.format.read_array_header_1_0 if np.lib.format.read_magic(f) == (1, 0) \
            else np.lib.format.read_array_header_2_0
        got, fortran, got_dtype = read(f)
        declared = f.tell() + math.prod(got) * got_dtype.itemsize
    if got_dtype != dtype or fortran:
        raise TraceFormatError(f"binary trace column '{key}' is {'Fortran' if fortran else 'C'}"
                               f"-order {got_dtype.str}, expected C-order {dtype}")
    if (got != shape) if shape else (len(got) != 1):
        raise TraceFormatError(f"binary trace column '{key}' has shape {got}, header implies "
                               f"{shape or '1-D'}")
    if declared != info.file_size:
        raise TraceFormatError(
            f"unreadable array in binary trace: column '{key}' declares shape {got} of "
            f"{dtype} ({declared} bytes with its header), but its member holds "
            f"{info.file_size} bytes")
    return z[key]


def read_trace_npz(path: str) -> tuple[TraceHeader, np.ndarray]:
    """Parse and validate a binary trace, as ``read_trace`` does a
    JSON-Lines one; each member is checked before it is allocated
    (``_load_member``).

    Memory bound: beyond the matrix, a read allocates under 1 MB, since
    numpy reads an archive member in chunks of 256 KB, each copied into
    the matrix.
    """
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
            header = _parse_header(bytes(_load_member(z, "header", "|u1")).decode())
            norms = _load_member(z, "norm", "<f8", (header.n_refreshes, header.n))
        except TraceFormatError:
            raise
        except (ValueError, KeyError, NotImplementedError, zipfile.BadZipFile) as exc:
            raise TraceFormatError(f"unreadable array in binary trace: {exc}")
    try:
        return header, _check_matrix(header, norms)
    except ValueError as exc:
        raise TraceFormatError(f"binary trace {exc}")


def read_any_trace(path: str) -> tuple[TraceHeader, np.ndarray]:
    if path.endswith(".npz"):
        return read_trace_npz(path)
    return read_trace(path)


def replay_trace(header: TraceHeader, norms: np.ndarray,
                 delta: float = DEFAULT_DELTA) -> IndividualLedger:
    """Drive a fresh ledger through the recorded run: an assignment refresh
    at every row's step, then one call that charges the steps up to the
    next.  Each refresh checks its own row's values; a bad norm is reported
    with its row."""
    norms = _check_shape(header, norms)      # zip would silently cut a short matrix
    ledger = IndividualLedger(header.n, header.to_config(delta=delta))
    for row, start in zip(norms, header.refresh_steps().tolist()):
        try:
            ledger.update_assignments(row, step=start)
        except ValueError:
            _check_norms(norms)              # the rows before this one passed
            raise
        ledger.record_steps(start, min(header.frequency, header.steps - start))
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
