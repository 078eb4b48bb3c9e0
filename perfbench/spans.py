"""In-memory spans around idpacct's public entry points, for the traced run.

``traced()`` wraps the functions listed in ``_TARGETS`` wherever the package
binds them (several modules import ``sgm_rdp_matrix``, ``calibrate_noise``
and ``rdp_to_dp`` by name, so each binding is wrapped), records one span per
call, and restores the originals on exit.  Nothing inside ``src/`` is
changed.  A span's layer is the module that defines the wrapped function.

``layer_metrics()`` turns the spans of one iteration into per-layer counts,
times and self times.  A layer's self time is the time its spans cover minus
the time their child spans cover.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

from idpacct import accountant, analysis, cli, dpsgd_sim, rdp_math, release, traceio

# layers in report order; "bench" is the benchmark's own iteration span
LAYERS = ("kernel", "rdp_math", "accountant", "dpsgd_sim", "traceio",
          "release", "analysis", "cli", "bench")

# count metrics that must repeat exactly for the same inputs
EXACT_COUNTS = ("kernel.calls", "kernel.rows", "accountant.refreshes",
                "accountant.buckets", "traceio.records", "traceio.bytes",
                "dpsgd_sim.steps", "rdp_math.calibrate_calls", "release.queries")


class Span:
    __slots__ = ("sid", "parent", "layer", "name", "t0", "t1", "counts")

    def __init__(self, sid, parent, layer, name, t0):
        self.sid, self.parent, self.layer, self.name = sid, parent, layer, name
        self.t0, self.t1 = t0, t0
        self.counts = {}

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def to_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "layer": self.layer,
                "name": self.name, "start": self.t0, "end": self.t1,
                "counts": self.counts}


class Tracer:
    """Spans kept in memory; ``span()`` nests by call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, layer: str, name: str):
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), parent, layer, name, time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            self._stack.pop()


# --- count hooks: (span, call args, result) -> None ------------------------

def _kernel_rows(sp, args, result):
    sp.counts["rows"] = int(result.shape[0])


def _trace_read(sp, args, result):
    sp.counts["records"] = int(result[1].size)
    sp.counts["bytes"] = os.path.getsize(args[0])


def _trace_write(sp, args, result):
    sp.counts["records"] = int(args[2].size)
    sp.counts["bytes"] = os.path.getsize(args[0])


def _train_steps(sp, args, result):
    sp.counts["steps"] = int(result.steps)


def _exact_cells(sp, args, result):
    sp.counts["cells"] = int(args[0].size)


def _ledger_state(sp, args, result):
    ledger = args[0]
    sp.counts["buckets"] = len(ledger.cache)
    sp.counts["counts_bytes"] = int(ledger.counts().nbytes)


def _release_queries(sp, args, result):
    sp.counts["queries"] = 1 + len(result.quantiles)


_TARGETS = [
    # (owner, attribute, count hook)
    (accountant, "sgm_rdp_matrix", _kernel_rows),
    (rdp_math, "sgm_rdp_matrix", _kernel_rows),
    (dpsgd_sim, "sgm_rdp_matrix", _kernel_rows),
    (rdp_math, "calibrate_noise", None),
    (release, "calibrate_noise", None),
    (rdp_math, "rdp_to_dp", None),
    (accountant, "rdp_to_dp", None),
    (release, "rdp_to_dp", None),
    (accountant.BucketCache, "indices_for", None),
    (accountant.IndividualLedger, "update_assignments", None),
    (accountant.IndividualLedger, "epsilons", _ledger_state),
    (accountant.IndividualLedger, "report", None),
    (accountant, "worst_case_epsilon", None),
    (accountant.PrivacyReport, "to_json", None),
    (accountant.PrivacyReport, "from_json", None),
    (dpsgd_sim, "generate_synthetic", None),
    (dpsgd_sim, "train", _train_steps),
    (dpsgd_sim, "exact_reference_accounting", _exact_cells),
    (traceio, "write_trace", _trace_write),
    (traceio, "write_trace_npz", _trace_write),
    (traceio, "read_trace", _trace_read),
    (traceio, "read_trace_npz", _trace_read),
    (traceio, "read_any_trace", None),
    (traceio, "replay_trace", None),
    (traceio, "write_losses_csv", None),
    (traceio, "read_losses_csv", None),
    (release, "release_all", _release_queries),
    (release.ReleasedStats, "to_json", None),
    (analysis, "eps_loss_correlation", None),
    (analysis, "group_summary", None),
    (analysis, "histogram", None),
    (analysis, "write_analysis_json", None),
    (analysis, "write_histogram_csv", None),
    (analysis, "write_scatter_csv", None),
    (cli, "main", None),
    (cli, "cmd_simulate", None),
    (cli, "cmd_account", None),
    (cli, "cmd_release", None),
]


def _wrap(tracer: Tracer, fn, hook):
    layer = fn.__module__.rsplit(".", 1)[-1]
    name = f"{layer}.{fn.__qualname__}"

    def wrapper(*args, **kwargs):
        with tracer.span(layer, name) as sp:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(sp, args, result)
            return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Wrap every target for the duration of the block."""
    saved = []
    try:
        for owner, attr, hook in _TARGETS:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, raw.__func__, hook))
            else:
                new = _wrap(tracer, raw, hook)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# --- per-iteration metrics -------------------------------------------------

def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for sp in spans:
        if sp.name not in names:
            continue
        p = sp.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(sp)
    return out


def _total(spans, names) -> float:
    return sum(sp.dur for sp in _outermost(spans, set(names)))


def _count(spans, key, names=None) -> int:
    return sum(sp.counts.get(key, 0) for sp in spans
               if names is None or sp.name in names)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer numbers for the spans of one iteration (``spans[0]`` is the
    iteration's root span)."""
    wall = spans[0].dur
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.dur
    self_s = dict.fromkeys(LAYERS, 0.0)
    for sp in spans:
        self_s[sp.layer] += sp.dur - child_time[sp.sid]

    kernel_spans = [sp for sp in spans if sp.layer == "kernel"]
    by_caller: dict[str, dict] = {}
    for sp in kernel_spans:
        caller = spans[sp.parent].name if sp.parent is not None else "-"
        c = by_caller.setdefault(caller, {"calls": 0, "rows": 0, "s": 0.0})
        c["calls"] += 1
        c["rows"] += sp.counts["rows"]
        c["s"] += sp.dur
    exact_names = {"dpsgd_sim.exact_reference_accounting"}
    exact_rows = sum(sp.counts["rows"] for sp in kernel_spans
                     if spans[sp.parent].name in exact_names)
    exact_cells = _count(spans, "cells")

    kernel_s = sum(sp.dur for sp in kernel_spans)
    kernel_rows = sum(sp.counts["rows"] for sp in kernel_spans)
    refreshes = [sp.dur for sp in spans
                 if sp.name == "accountant.IndividualLedger.update_assignments"]
    ledgers = [sp.counts for sp in spans if "buckets" in sp.counts]
    readers = {"traceio.read_trace", "traceio.read_trace_npz"}
    writers = {"traceio.write_trace", "traceio.write_trace_npz"}
    read_s = _total(spans, readers)
    read_records = _count(spans, "records", readers)

    m = {
        "kernel.calls": len(kernel_spans),
        "kernel.rows": kernel_rows,
        "kernel.s": kernel_s,
        "kernel.rows_per_s": kernel_rows / kernel_s if kernel_s > 0 else 0.0,
        "rdp_math.calibrate_calls": len(_outermost(spans, {"rdp_math.calibrate_noise"})),
        "rdp_math.calibrate_s": _total(spans, {"rdp_math.calibrate_noise"}),
        "accountant.refreshes": len(refreshes),
        "accountant.refresh_s": statistics.median(refreshes) if refreshes else 0.0,
        "accountant.report_s": _total(spans, {"accountant.IndividualLedger.report",
                                              "accountant.IndividualLedger.epsilons"}),
        "accountant.buckets": max((c["buckets"] for c in ledgers), default=0),
        "accountant.counts_mb": max((c["counts_bytes"] for c in ledgers), default=0) / 1e6,
        "dpsgd_sim.steps": _count(spans, "steps"),
        "dpsgd_sim.train_s": _total(spans, {"dpsgd_sim.train"}),
        "dpsgd_sim.exact_reference_s": _total(spans, exact_names),
        "dpsgd_sim.exact_unique_ratio": exact_rows / exact_cells if exact_cells else 0.0,
        "traceio.records": _count(spans, "records"),
        "traceio.bytes": _count(spans, "bytes"),
        "traceio.write_s": _total(spans, writers),
        "traceio.read_s": read_s,
        "traceio.read_records_per_s": read_records / read_s if read_s > 0 else 0.0,
        "traceio.replay_s": _total(spans, {"traceio.replay_trace"}),
        "release.s": _total(spans, {"release.release_all"}),
        "release.queries": _count(spans, "queries"),
        "cli.simulate_s": _total(spans, {"cli.cmd_simulate"}),
        "cli.account_s": _total(spans, {"cli.cmd_account"}),
        "cli.release_s": _total(spans, {"cli.cmd_release"}),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
        m[f"{layer}.self_pct"] = 100.0 * self_s[layer] / wall
    m["kernel.by_caller"] = by_caller
    return m
