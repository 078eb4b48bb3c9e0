from __future__ import annotations

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import idpacct
from idpacct import accountant, kernel


def max_rel_diff(a, b) -> float:
    """Worst relative disagreement, treating matched zeros/infinities as 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    same = ((a == 0) & (b == 0)) | (np.isinf(a) & np.isinf(b))
    denom = np.where(same, 1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.where(same, 0.0, np.abs(a - b) / denom)))


def run_child(argv, cwd=None, timeout=None):
    """``python argv`` in a child process, for checks of a process property
    (peak RSS, CPU affinity, wall time) that this process would share.  The
    child imports the same package as this process, installed or not."""
    src = os.path.dirname(os.path.dirname(idpacct.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=cwd, env={**os.environ, "PYTHONPATH": path}, timeout=timeout)


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under tracemalloc: its result, and the peak
    of traced bytes above what was traced on entry."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def kernel_call_bound(q, orders, n) -> int:
    """Bytes one kernel call over n distinct multipliers may allocate beyond
    its output, as the ``kernel`` module docstring states: one chunk's
    workspace, a few (rows x orders in a group) arrays while a group is
    summed, and per-row vectors."""
    groups = kernel._order_tables(q, tuple(np.asarray(orders).tolist())).groups
    n_k = max(orders) - 1
    rows = kernel._CHUNK_CELLS // n_k
    workspace = rows * (2 * n_k * 8 + len(orders) * 8 + n_k
                        + max((j1 - j0) * (c_hi + 1) for j0, j1, c_hi in groups) * 8)
    return workspace + 8 * rows * kernel._GROUP_SPAN * 8 + 4 * 8 * n


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def two_workers(monkeypatch):
    """Split every ledger summing pass that has two blocks or more across
    two threads, whatever the machine's core count.  Returns the list of
    runs summed since, as (lo, hi, thread id)."""
    monkeypatch.setattr(accountant, "_WORKER_ROWS", 1)
    monkeypatch.setattr(accountant, "_cores", lambda: 2)
    runs = []
    split = accountant.IndividualLedger._pass

    def record(ledger, work):
        def run(lo, hi):
            runs.append((lo, hi, threading.get_ident()))
            work(lo, hi)

        split(ledger, run)

    monkeypatch.setattr(accountant.IndividualLedger, "_pass", record)
    return runs
