"""Per-example privacy ledger for DP-SGD.

Each example's accumulated RDP is a running sum: every step charges it the
single-step curve of its current sensitivity bucket, and RDP composes by
addition.  Buckets are clipped gradient norms rounded to the nearest point
of the grid {r, 2r, ..., C} (ties round up, zero maps to r), or the raw
clipped norms with rounding disabled.  The grid's ceil(C/r) curves, at most
MAX_BUCKETS (10,000), are computed once when the ledger is built, so a
refresh is array indexing only.  Every example is charged at every step,
sampled or not, using its most recent bucket assignment; assignments
refresh only when the caller supplies fresh norms.  Charging is lazy too: a
refresh only records the steps since the previous one with that
assignment, and the sums are formed when queried.  A query changes
nothing: it sums the recorded charges, then the steps since the last
refresh, so no result depends on when or how often the ledger was
queried.  Only a refresh folds the recorded charges into an (n, orders)
state: once they reach a quarter of its size, after a full query, or once
the state exists.  Conversion to per-example (epsilon, delta) happens at
query time.  Each example's row is summed and converted without reading
any other row, so the pass that queries and folds splits large ledgers'
rows across the cores the process may use, with the same results bit for
bit.  In the package only ``traceio.replay_trace`` drives a ledger, for
both CLI paths.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._fileio import atomic_write
from .kernel import sgm_rdp_matrix
from .rdp_math import (RdpCurve, _check_fields, _check_orders, _eps_from_rdp,
                       default_orders, rdp_to_dp)


MAX_BUCKETS = 10_000      # ceil(C/r) bound: the grid's curves are built up front
_BLOCK = 1_024            # rows per summing block: keeps the gathered curves in cache
_WORKER_ROWS = 65_536     # rows per summing thread: smaller ledgers stay on one


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


class LedgerError(RuntimeError):
    """Ledger used out of protocol (uninitialized, bad step, ...)."""


@dataclass
class AccountantConfig:
    """Accounting parameters.

    noise_std is the absolute noise standard deviation, in the same units as
    gradient norms (the per-bucket noise multiplier is noise_std / Z).
    rounding == 0 disables bucket rounding: each distinct clipped norm
    becomes its own bucket (exactness mode; every refresh computes one curve
    per distinct norm, so meant for short runs and tests).  A positive
    rounding may make at most MAX_BUCKETS grid points.
    """

    noise_std: float
    max_clip: float
    sampling_prob: float
    rounding: float
    frequency: int = 1
    delta: float = 1e-5
    orders: np.ndarray = field(default_factory=default_orders)

    def __post_init__(self):
        _check_fields(self, numbers=("noise_std", "max_clip", "sampling_prob", "rounding",
                                     "delta", "frequency"),
                      finite=("noise_std", "max_clip", "rounding"))
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be > 0, got {self.noise_std}")
        if self.max_clip <= 0:
            raise ValueError(f"max_clip must be > 0, got {self.max_clip}")
        if not 0.0 < self.sampling_prob <= 1.0:
            raise ValueError(f"sampling_prob must be in (0, 1], got {self.sampling_prob}")
        if self.rounding < 0 or self.rounding > self.max_clip:
            raise ValueError(
                f"rounding must be 0 (disabled) or in (0, max_clip], got {self.rounding}")
        if self.rounding > 0 and self.max_clip / self.rounding > MAX_BUCKETS:
            raise ValueError(
                f"rounding={self.rounding} with max_clip={self.max_clip} makes more "
                f"than {MAX_BUCKETS} sensitivity buckets; use a coarser rounding, "
                f"or rounding=0 to disable bucketing")
        if int(self.frequency) != self.frequency or self.frequency < 1:
            raise ValueError(f"frequency must be an integer >= 1, got {self.frequency}")
        self.frequency = int(self.frequency)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        self.orders = _check_orders(self.orders)

    @property
    def n_buckets(self) -> Optional[int]:
        """ceil(C/r), or None with rounding disabled."""
        if self.rounding == 0:
            return None
        return int(math.ceil(self.max_clip / self.rounding))

    def to_dict(self) -> dict:
        return {
            "noise_std": self.noise_std,
            "max_clip": self.max_clip,
            "sampling_prob": self.sampling_prob,
            "rounding": self.rounding,
            "frequency": self.frequency,
            "delta": self.delta,
            "orders": [int(a) for a in self.orders],
        }


def _round_array(z: np.ndarray, rounding: float, max_clip: float) -> np.ndarray:
    """Vectorized nearest-grid rounding of z in [0, C] onto {r, 2r, ..., C};
    ties up, zero maps to r (the grid has no zero).

    With j = floor(z / r), z picks v[j + 1] over v[j], where
    v[i] = min(clip(i, 1, ceil(C/r)) * r, C), when v[j+1] - z <= z - v[j]
    in floating point.  That test is monotone in z, so it equals z >= t[j]
    for the least float t[j] that passes it.  v and t are built over the
    j present, leaving a few passes over z."""
    jmax = int(math.ceil(max_clip / rounding))
    j = (z / rounding).astype(np.intp)      # floor, as z >= 0
    if j.size == 0:
        return np.empty(z.shape)
    jlo = int(j.min())
    v = np.minimum(np.clip(np.arange(jlo, int(j.max()) + 2), 1, jmax) * rounding, max_clip)
    lo, hi = v[:-1], v[1:]
    # hi <= 2 lo, so both differences in the test are exact near the
    # midpoint, and t[j] is the least float >= (lo + hi) / 2: the rounded
    # midpoint, or the float after it
    t = lo + (hi - lo) * 0.5
    t = np.where(hi - t <= t - lo, t, np.nextafter(t, np.inf))
    j -= jlo
    j += z >= t.take(j)
    return v.take(j)


def sensitivity_buckets(norms: np.ndarray, max_clip: float, rounding: float) -> np.ndarray:
    """Norms clipped to C, then rounded onto the grid when r > 0; with
    rounding off a zero norm stays zero sensitivity, whose curve is zero.
    The ledger charges these buckets; individual clipping clips to them."""
    z = np.minimum(norms, max_clip)
    if rounding > 0:
        z = _round_array(z, rounding, max_clip)
    return z


class BucketCache:
    """Curve table: ``rows[j]`` is the single-step RDP curve of sensitivity
    ``bucket_values[j]``.  With rounding on, the whole grid {r, 2r, ..., C}
    is computed in one kernel call here and never changes; with rounding off
    (exactness mode) each refresh replaces the table with the curves of the
    distinct norms it brings, so the table never outgrows one refresh.
    """

    def __init__(self, config: AccountantConfig):
        self.config = config
        grid = np.arange(1, (config.n_buckets or 0) + 1) * config.rounding
        # np.unique: float rounding can make the last two grid points both C
        self.bucket_values = np.unique(np.minimum(grid, config.max_clip))
        self.rows = self._curves(self.bucket_values)
        self.misses = len(self)

    def _curves(self, values: np.ndarray) -> np.ndarray:
        # a zero or subnormal sensitivity makes the multiplier inf: a zero curve
        with np.errstate(divide="ignore", over="ignore"):
            mult = self.config.noise_std / values
        return sgm_rdp_matrix(self.config.sampling_prob, mult, self.config.orders)

    def __len__(self) -> int:
        return self.bucket_values.shape[0]

    def indices_for(self, buckets: np.ndarray) -> np.ndarray:
        """Row index of each bucket value.  Grid mode accepts only grid
        points (as made by ``_round_array``); exactness mode replaces the
        table with the curves of ``buckets``' distinct values."""
        if self.config.rounding > 0:
            last = len(self) - 1
            with np.errstate(invalid="ignore"):
                idx = np.rint(buckets / self.config.rounding).astype(np.intp) - 1
            np.clip(idx, 0, last, out=idx)
            # the last grid point is C, which need not be a multiple of r
            off = np.flatnonzero(self.bucket_values[idx] != buckets)
            if off.size:
                idx[off] = np.minimum(np.searchsorted(self.bucket_values, buckets[off]),
                                      last)
                if not np.array_equal(self.bucket_values[idx[off]], buckets[off]):
                    raise ValueError("bucket values must lie on the sensitivity grid")
            return idx
        values, inverse = np.unique(buckets, return_inverse=True)
        self.rows = self._curves(values)
        self.bucket_values = values
        self.misses += len(self)
        return inverse

    def corrupt_for_testing(self, factor: float = 1.02) -> None:
        """Negative-control hook: scale the last curve (bucket C in grid
        mode, the largest norm of the last refresh in exactness mode).  Every
        query charges the steps since the last refresh from this table, so
        corrupting it after training makes each later query's comparison
        against independent re-accounting fail."""
        if not len(self):
            raise LedgerError("nothing cached to corrupt")
        self.rows[-1] *= factor


class IndividualLedger:
    """Per-example accumulated RDP, charged lazily.

    Protocol: update_assignments(norms, t) at every step t with
    t mod frequency == 0 (including t = 0), record_step(t) at every step.
    Steps since the last refresh accumulate in a single pending counter, so
    per-step cost is O(1).  When assignments change, the pending steps
    close into a held charge: ``pending x`` the curve table plus each
    example's row index into it, in the smallest unsigned dtype that holds
    one (one or two bytes per example in grid mode).  Until the first fold
    a refresh therefore costs rounding and indexing, O(n).

    A query (``epsilons``, ``report``, ``counts``) changes nothing but the
    mark that a full query has run: it sums the held charges in refresh
    order, then the pending steps as a last charge that nothing keeps,
    block by block of rows.  So no result depends on when, or how often,
    the ledger was queried, bit for bit.

    Only a refresh folds the held charges into an (n, orders) float64
    state, which the first fold allocates: once they reach a quarter of its
    size (at large n, 2 x orders refreshes with up to 256 buckets and
    orders refreshes with more; in exactness mode, where one charge is
    about the state's size, usually the second refresh), at the first
    refresh after a full query (a ledger queried during training is being
    watched), and at every refresh once the state exists.  So a long or
    watched run costs what an eager ledger costs.  Ledger memory stays
    under 1.25 x n x orders x 8 bytes plus one refresh, the extra quarter
    only up to the first fold.  A ledger is not thread-safe: drive it from
    one thread.  Its query and fold pass splits a large ledger's rows
    across threads of its own, one per core the process may use, and joins
    them before it returns; every result is the same bit for bit as on one
    thread.
    """

    def __init__(self, n: int, config: AccountantConfig):
        self.n = n
        _check_fields(self, integers=("n",))
        if n < 1:
            raise ValueError(f"need at least one example, got n={n}")
        self.n = int(n)
        self.config = config
        self.cache = BucketCache(config)
        self.steps = 0
        self._assign: Optional[np.ndarray] = None
        self._pending = 0
        self._rdp: Optional[np.ndarray] = None    # folded state, from the first fold
        # held charges: (pending x curve table, each example's row in it)
        self._held: list[tuple[np.ndarray, np.ndarray]] = []
        self._queried = False                     # a full query has run

    def _charges(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The held charges, then the pending steps as a last charge that
        nothing keeps: what a query sums."""
        if not self._pending:
            return self._held
        return self._held + [(self._pending * self.cache.rows, self._assign)]

    def _pass(self, charges, visit=None, into: Optional[np.ndarray] = None) -> None:
        """Call ``visit(lo, rows)`` with the state plus ``charges`` of
        examples lo:lo + len(rows), block by block (see ``_sum_rows``).  A
        ledger of at least 2 x _WORKER_ROWS examples splits its blocks into
        contiguous runs, one per core the process may use (at most one per
        _WORKER_ROWS rows), each summed on its own thread, where ``visit``
        runs too and must touch only its block's rows.  Every row sees the
        same operations in the same order either way, so the results are the
        same bit for bit."""
        blocks = -(-self.n // _BLOCK)
        workers = max(1, min(_cores(), self.n // _WORKER_ROWS, blocks))
        cuts = [min(k * blocks // workers * _BLOCK, self.n) for k in range(workers + 1)]
        errors: list[BaseException] = []

        def run(lo: int, hi: int) -> None:
            try:
                self._sum_rows(lo, hi, charges, visit, into)
            except BaseException as err:
                errors.append(err)

        threads = [threading.Thread(target=run, args=cut) for cut in zip(cuts[1:-1], cuts[2:])]
        for thread in threads:
            thread.start()
        run(cuts[0], cuts[1])
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def _sum_rows(self, lo: int, hi: int, charges, visit, into: Optional[np.ndarray]) -> None:
        """``charges`` of rows lo:hi summed in order onto the state's or the
        first charge's rows, _BLOCK rows at a time so the gathered curves
        stay in cache, each block passed to ``visit``; in ``into``'s rows
        when given (the state, to fold into it, or a new array), else in a
        buffer of this call's own.  Besides ``visit`` only numpy's take and
        add run here, and both release the GIL."""
        orders = self.config.orders.size
        buf = np.empty((_BLOCK, orders)) if into is None else None
        scratch = np.empty((_BLOCK, orders))
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            out = buf[:stop - start] if into is None else into[start:stop]
            rest = charges
            if self._rdp is not None:
                if into is not self._rdp:
                    out[...] = self._rdp[start:stop]
            elif charges:
                table, assign = charges[0]
                np.take(table, assign[start:stop], axis=0, out=out, mode="clip")
                rest = charges[1:]
            else:
                out.fill(0.0)
            # mode="clip" writes to out unbuffered; every index is in range
            gathered = scratch[:stop - start]
            for table, assign in rest:
                np.take(table, assign[start:stop], axis=0, out=gathered, mode="clip")
                np.add(out, gathered, out=out)
            if visit is not None:
                visit(start, out)

    def update_assignments(self, norms: Sequence[float], step: Optional[int] = None) -> None:
        """Re-bucket every example from fresh gradient norms, closing the
        pending steps into a held charge and folding when a fold is due."""
        norms = np.asarray(norms, dtype=np.float64)
        if norms.shape != (self.n,):
            raise ValueError(f"expected {self.n} norms, got shape {norms.shape}")
        if np.any(norms < 0) or not np.all(np.isfinite(norms)):
            raise ValueError("norms must be finite and >= 0")
        if step is not None and step % self.config.frequency != 0:
            raise LedgerError(
                f"assignments may only change at steps divisible by "
                f"frequency={self.config.frequency}, got step {step}")
        # charge the old assignments before exactness mode replaces their curves
        self._held, self._pending = self._charges(), 0
        shape = (self.n, self.config.orders.size)
        held_bytes = sum(table.nbytes + assign.nbytes for table, assign in self._held)
        # fold once the state exists, after a full query, or at a quarter of its size
        if self._held and (self._rdp is not None or self._queried
                           or 4 * held_bytes >= 8 * shape[0] * shape[1]):
            state = np.empty(shape) if self._rdp is None else self._rdp
            self._pass(self._held, into=state)
            self._rdp, self._held = state, []
        idx = self.cache.indices_for(
            sensitivity_buckets(norms, self.config.max_clip, self.config.rounding))
        # the smallest dtype that indexes the table, as held charges keep it
        self._assign = idx.astype(np.min_scalar_type(max(len(self.cache) - 1, 0)))

    def record_step(self, step: Optional[int] = None) -> None:
        """Charge every example one step at its current bucket."""
        if self._assign is None:
            raise LedgerError("record_step before the first update_assignments")
        if step is not None and step != self.steps:
            raise LedgerError(f"expected step {self.steps}, got {step}")
        self._pending += 1
        self.steps += 1

    def counts(self) -> np.ndarray:
        """The (n, orders) accumulated RDP, every step charged, changing
        nothing: a read-only view of the folded state when nothing is held
        or pending, else a new array summed as a query sums.  Only the
        benchmark's ledger-size probe reads it, under this name; it stays
        until a benchmark-only change renames that probe."""
        if self._rdp is not None and not self._held and not self._pending:
            view = self._rdp.view()
            view.flags.writeable = False
            return view
        out = np.empty((self.n, self.config.orders.size))
        self._pass(self._charges(), into=out)
        return out

    def epsilons(self, delta: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """(epsilon, best order) for all examples, summed and converted in
        blocks of rows so the extra memory is O(block x orders), not
        O(n x orders).  Changes nothing but marking the ledger queried."""
        delta = self.config.delta if delta is None else delta
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        eps = np.empty(self.n)
        best = np.empty(self.n, dtype=np.int64)

        def convert(lo: int, rdp: np.ndarray) -> None:
            block = slice(lo, lo + rdp.shape[0])
            eps[block], best[block] = _eps_from_rdp(rdp, self.config.orders, delta)

        self._pass(self._charges(), convert)
        self._queried = True
        return eps, best

    def report(self, delta: Optional[float] = None,
               group_labels: Optional[Sequence[int]] = None) -> "PrivacyReport":
        delta = self.config.delta if delta is None else delta
        eps, orders = self.epsilons(delta)
        worst_eps, worst_order = worst_case_epsilon(self.config, self.steps, delta,
                                                   with_order=True)
        return PrivacyReport(
            epsilons=eps, best_orders=orders, worst_epsilon=worst_eps,
            worst_order=worst_order, delta=delta, steps=self.steps, n=self.n,
            config=self.config.to_dict(), group_labels=group_labels)


def worst_case_epsilon(config: AccountantConfig, steps: int,
                       delta: Optional[float] = None, with_order: bool = False):
    """Uniform DP-SGD guarantee: every example at sensitivity C for all
    steps."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    delta = config.delta if delta is None else delta
    mult = config.noise_std / config.max_clip
    row = sgm_rdp_matrix(config.sampling_prob, np.asarray([mult]), config.orders)[0]
    eps, order = rdp_to_dp(RdpCurve(config.orders, row * steps), delta)
    return (eps, order) if with_order else eps


# per-example fields of a report file: (element types, least value, rule);
# bool is an int subclass, so types compare exactly; the report checks eps >= 0
_PER_EXAMPLE = {
    "epsilons": ({int, float}, None, "per-example epsilon must be a number >= 0"),
    "best_orders": ({int}, 2, "an order must be an integer >= 2"),
    "group_labels": ({int}, None, "a group label must be an integer"),
}


@dataclass
class PrivacyReport:
    """Per-example (epsilon, delta) guarantees plus the worst-case bound.

    ``epsilons`` and ``best_orders`` are required, one value per example.
    ``summary`` (mean, min and max epsilon) and ``group_means`` (mean
    epsilon per group label, None without labels) are always derived from
    them; ``to_json`` writes both, and ``from_json`` recomputes them rather
    than reading them back.
    """

    epsilons: np.ndarray
    best_orders: np.ndarray
    worst_epsilon: float
    worst_order: int
    delta: float
    steps: int
    n: int
    config: dict
    group_labels: Optional[np.ndarray] = None
    summary: dict = field(init=False)
    group_means: Optional[dict] = field(init=False)

    def __post_init__(self):
        self.epsilons = np.asarray(self.epsilons, dtype=np.float64)
        if self.epsilons.shape != (self.n,):
            raise ValueError("epsilons length disagrees with n")
        if not np.all(self.epsilons >= 0):          # NaN fails too
            raise ValueError("per-example epsilon must be a number >= 0")
        if np.any(self.epsilons > self.worst_epsilon + 1e-9):
            raise ValueError("per-example epsilon exceeds the worst-case bound")
        self.best_orders = np.asarray(self.best_orders, dtype=np.int64)
        self.summary = {
            "mean": float(np.mean(self.epsilons)),
            "min": float(np.min(self.epsilons)),
            "max": float(np.max(self.epsilons)),
        }
        self.group_means = None
        if self.group_labels is not None:
            self.group_labels = np.asarray(self.group_labels, dtype=np.int64)
            if self.group_labels.shape != (self.n,):
                raise ValueError(f"expected {self.n} group labels, "
                                 f"got shape {self.group_labels.shape}")
            self.group_means = {
                int(g): float(np.mean(self.epsilons[self.group_labels == g]))
                for g in np.unique(self.group_labels)
            }

    def to_json(self, path: str, unsafe_export_per_example: bool = False) -> None:
        """Write the report.  Per-example epsilon values (and labels) are
        sensitive outputs: they leave the trusted curator only when
        ``unsafe_export_per_example`` is set."""
        doc = {
            "format": "idpacct-report",
            "version": 1,
            "delta": self.delta,
            "steps": self.steps,
            "n": self.n,
            "worst_case": {"epsilon": self.worst_epsilon, "order": int(self.worst_order)},
            "config": self.config,
            "summary": self.summary,
            "group_means": (None if self.group_means is None
                            else {str(k): v for k, v in self.group_means.items()}),
        }
        if unsafe_export_per_example:
            doc["epsilons"] = [float(e) for e in self.epsilons]
            doc["best_orders"] = [int(a) for a in self.best_orders]
            if self.group_labels is not None:
                doc["group_labels"] = [int(g) for g in self.group_labels]
        atomic_write(path, json.dumps(doc, indent=1) + "\n")

    @classmethod
    def from_json(cls, path: str) -> "PrivacyReport":
        """Load a report written with ``unsafe_export_per_example``; a
        report without per-example values is refused."""
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or doc.get("format") != "idpacct-report":
            raise ValueError(f"{path}: not a privacy report file")
        if doc.get("version") != 1:
            raise ValueError(f"{path}: unsupported report version {doc.get('version')!r}")
        worst = doc["worst_case"] if isinstance(doc.get("worst_case"), dict) else {}
        missing = [k for k in ("delta", "steps", "n", "config") if k not in doc]
        missing += [f"worst_case.{k}" for k in ("epsilon", "order") if k not in worst]
        if missing:
            raise ValueError(f"{path}: report is missing {', '.join(missing)}")
        if doc.get("epsilons") is None or doc.get("best_orders") is None:
            raise ValueError(f"{path}: report was exported without per-example values; "
                             "re-export it with --unsafe-export-per-example")
        for name, (types, least, rule) in _PER_EXAMPLE.items():
            values = doc.get(name)
            if values is None and name == "group_labels":
                continue
            if type(values) is not list or len(values) != doc["n"]:
                raise ValueError(f"{path}: {name} must be an array of n = {doc['n']} values")
            if not set(map(type, values)) <= types or least and values and min(values) < least:
                i = next(i for i, v in enumerate(values)
                         if type(v) not in types or least and v < least)
                raise ValueError(f"{path}: {name}[{i}]: {rule}, got {values[i]!r}")
        return cls(
            epsilons=doc["epsilons"], best_orders=doc["best_orders"],
            worst_epsilon=worst["epsilon"], worst_order=worst["order"],
            delta=doc["delta"], steps=doc["steps"], n=doc["n"],
            config=doc["config"], group_labels=doc.get("group_labels"))
