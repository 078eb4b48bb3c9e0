from __future__ import annotations

import threading

import numpy as np
import pytest

from idpacct import accountant


def max_rel_diff(a, b) -> float:
    """Worst relative disagreement, treating matched zeros/infinities as 0."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    same = ((a == 0) & (b == 0)) | (np.isinf(a) & np.isinf(b))
    denom = np.where(same, 1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.where(same, 0.0, np.abs(a - b) / denom)))


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
    sum_rows = accountant.IndividualLedger._sum_rows

    def record(ledger, lo, hi, visit, into):
        runs.append((lo, hi, threading.get_ident()))
        sum_rows(ledger, lo, hi, visit, into)

    monkeypatch.setattr(accountant.IndividualLedger, "_sum_rows", record)
    return runs
