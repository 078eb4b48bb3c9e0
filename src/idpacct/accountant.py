"""Per-example privacy ledger for DP-SGD.

Each example's accumulated RDP is a running sum: every step charges it the
single-step curve of its current sensitivity bucket, and RDP composes by
addition.  Buckets are clipped gradient norms rounded to the nearest point
of the grid {r, 2r, ..., C} (ties round up, zero maps to r), or the raw
clipped norms with rounding disabled.  The grid's ceil(C/r) curves, at most
MAX_BUCKETS (10,000), are computed once when the ledger is built, so a
refresh is one grid lookup, the one that individual clipping rounds by.
Every example is charged at every step, sampled or not, using its most
recent bucket assignment; assignments refresh only when the caller supplies
fresh norms.  Charging is lazy too: a refresh only records the steps since
the previous one with that assignment, and queries form the sums.  A query
changes nothing: it sums the recorded charges, then the steps since the
last refresh, so no result depends on when or how often the ledger was
queried.  Only a refresh folds the recorded charges into an (n, orders)
state, by one rule: once they reach a quarter of its size.  Conversion to
per-example (epsilon, delta) happens at query time, in two passes that sum
only the orders that can win: a coarse pass bounds, from a dozen orders,
which orders between them can hold an example's minimum, and a second
pass sums just those for groups of examples with the same coarse best
order.  The bound holds because RDP is nondecreasing in the order, so the
ledger checks each curve table for that when it charges it, and a query
that sums one that dips sums every order.
Every order summed sees the same additions as in a full pass, so each
epsilon and best order is the same bit for bit.  Each example's row is
summed and converted without reading any other row, so the passes that
query and fold split large ledgers' rows across the cores the process may
use, with the same results bit for bit.  In the package only
``traceio.replay_trace`` drives a ledger, for both CLI paths.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._fileio import atomic_write
from .kernel import _check_orders, sgm_rdp_matrix
from .rdp_math import RdpCurve, _check_fields, _conversion_terms, default_orders, rdp_to_dp


MAX_BUCKETS = 10_000      # ceil(C/r) bound: the grid's curves are built up front
_BLOCK = 1_024            # rows per summing block: keeps the gathered curves in cache
_COARSE_BLOCK = 4_096     # rows per block of a query's coarse pass, about a dozen orders wide
_GROUP_CELLS = 32_768     # (rows x orders) per block of a query's grouped pass
_WORKER_ROWS = 65_536     # rows per summing thread: smaller ledgers stay on one
DEFAULT_DELTA = 1e-5      # the accounting delta of a config, a trace replay or a run


def _coarse_orders(orders: np.ndarray) -> np.ndarray:
    """Indices of a query's coarse orders: the first and last orders, and
    each order at least 1.4 x the last one kept (2, 3, 5, 7, 10, 14, 20, 28,
    40, 56, 128, 256 on the default grid), at most 52 before the last, so a
    row's gaps between them are bits of one float64 sum, exact."""
    alphas, kept = orders.tolist(), [0]
    for i in range(1, len(alphas) - 1):
        if len(kept) < 52 and 5 * alphas[i] >= 7 * alphas[kept[-1]]:
            kept.append(i)
    return np.unique(kept + [len(alphas) - 1])


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
    delta: float = DEFAULT_DELTA
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

    def to_dict(self) -> dict:
        return dict(asdict(self), orders=[int(a) for a in self.orders])


@functools.lru_cache(maxsize=32)
def _grid_tables(rounding: float, max_clip: float) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-grid rounding onto {r, 2r, ..., C}, ties up, zero to r, as
    read-only tables over j = floor(z / r), j = 0..ceil(C/r), that every
    rounding reads: z in [0, C] picks v[j + 1] over v[j], where v[i] =
    min(clip(i, 1, ceil(C/r)) * r, C), when v[j+1] - z <= z - v[j] in
    floating point.  That test is monotone in z, so it equals z >= t[j] for
    the least float t[j] that passes it.  Returns (v, t)."""
    jmax = int(math.ceil(max_clip / rounding))
    values = np.minimum(np.clip(np.arange(jmax + 2), 1, jmax) * rounding, max_clip)
    lo, hi = values[:-1], values[1:]
    # hi <= 2 lo, so both differences in the test are exact near the
    # midpoint, and t[j] is the least float >= (lo + hi) / 2: the rounded
    # midpoint, or the float after it
    t = lo + (hi - lo) * 0.5
    t = np.where(hi - t <= t - lo, t, np.nextafter(t, np.inf))
    values.flags.writeable = t.flags.writeable = False
    return values, t


def _grid_index(z: np.ndarray, rounding: float, max_clip: float, table: np.ndarray) -> np.ndarray:
    """``table`` at each z's index into ``_grid_tables``' values, z in [0, C]:
    j = floor(z / r), plus one where z >= t[j].  Clipping and charging both
    read it, so an example is clipped to the bucket it is charged for."""
    t = np.divide(z, rounding, out=np.empty(np.shape(z)))
    j = t.astype(np.intp)                   # floor, as z >= 0
    # t: float64 even for a scalar or float32 z; mode="clip" writes to it unbuffered, j in range
    np.take(_grid_tables(rounding, max_clip)[1], j, out=t, mode="clip")
    j += z >= t
    # take before t and j are freed, or glibc trims the heap top and refaults it per refresh
    return table.take(j)


def _round_array(z: np.ndarray, rounding: float, max_clip: float) -> np.ndarray:
    """z in [0, C] rounded onto the grid: the values whose rows ``indices_for`` returns."""
    return _grid_index(z, rounding, max_clip, _grid_tables(rounding, max_clip)[0])


def sensitivity_buckets(norms: np.ndarray, max_clip: float, rounding: float) -> np.ndarray:
    """Norms clipped to C, then rounded onto the grid when r > 0; with
    rounding off a zero norm stays zero sensitivity, whose curve is zero.
    The ledger charges these values' rows; individual clipping clips to them."""
    z = np.minimum(norms, max_clip)
    if rounding > 0:
        z = _round_array(z, rounding, max_clip)
    return z


def _check_norms(norms: np.ndarray) -> None:
    """Refuse NaN, infinite or negative norms (-0.0 passes), naming the first
    bad one's example (and row): two reductions, no temporaries, if all pass."""
    if norms.size and not (norms.min() >= 0 and norms.max() < np.inf):
        at = np.unravel_index(np.argmin(np.isfinite(norms) & (norms >= 0)), norms.shape)
        where = f"example {at[1]} in row {at[0]}" if norms.ndim > 1 else f"example {at[0]}"
        raise ValueError(f"norms must be finite and >= 0: {where} is {float(norms[at])!r}")


class BucketCache:
    """Curve table: ``rows[j]`` is the single-step RDP curve of sensitivity
    ``bucket_values[j]``.  With rounding on, the whole grid {r, 2r, ..., C}
    is computed in one kernel call here and never changes, and so is
    ``_row_of``, the row of each of ``_grid_tables``' values, in the held
    charges' index dtype.  With rounding off (exactness mode) each refresh
    replaces the table with the curves of the distinct norms it brings, so
    the table never outgrows one refresh.
    """

    def __init__(self, config: AccountantConfig):
        self.config = config
        self.bucket_values = np.empty(0)
        if config.rounding > 0:
            values = _grid_tables(config.rounding, config.max_clip)[0]
            # np.unique: float rounding can make the last two grid points both C
            self.bucket_values, row_of = np.unique(values, return_inverse=True)
            self._row_of = row_of.astype(np.min_scalar_type(len(self) - 1))
        self.rows = self._curves(self.bucket_values)
        self.misses = len(self)

    def _curves(self, values: np.ndarray) -> np.ndarray:
        # a zero or subnormal sensitivity makes the multiplier inf: a zero
        # curve; abs gives -0.0 the +0.0 curve, not a multiplier of -inf
        with np.errstate(divide="ignore", over="ignore"):
            mult = self.config.noise_std / np.abs(values)
        return sgm_rdp_matrix(self.config.sampling_prob, mult, self.config.orders)

    def __len__(self) -> int:
        return self.bucket_values.shape[0]

    def indices_for(self, z: np.ndarray) -> np.ndarray:
        """The row of each clipped norm z (in [0, C]), in the smallest
        unsigned dtype that indexes the table, as held charges keep it.
        Grid mode reads ``_row_of`` through ``_grid_index``, the lookup
        that rounding reads too; exactness mode replaces the table with the
        curves of z's distinct values."""
        if self.config.rounding > 0:
            return _grid_index(z, self.config.rounding, self.config.max_clip, self._row_of)
        values, inverse = np.unique(z, return_inverse=True)
        self.rows = self._curves(values)
        self.bucket_values = values
        self.misses += len(self)
        return inverse.astype(np.min_scalar_type(len(self) - 1))

    def corrupt_for_testing(self, factor: float = 1.02) -> None:
        """Negative-control hook: scale the last curve (bucket C in grid
        mode, the largest norm of the last refresh in exactness mode).  Every
        query charges the steps since the last refresh from this table, so
        corrupting it after training makes each later query's comparison
        against independent re-accounting fail."""
        if not len(self):
            raise LedgerError("nothing cached to corrupt")
        self.rows = self.rows.copy()
        self.rows[-1] *= factor


class IndividualLedger:
    """Per-example accumulated RDP, charged lazily.

    Protocol: update_assignments(norms, t) at every step t with
    t mod frequency == 0 (including t = 0), then record_steps(t, k) for the
    k steps up to the next refresh, or record_step at each.  Recorded steps
    only add to a pending counter, in O(1) however many.  A refresh closes
    them into a held charge: ``pending x`` the curve table, checked to be
    nondecreasing along the orders, and each example's row, in the smallest
    unsigned dtype that holds one (one or two bytes in grid mode).  A
    refresh that does not fold costs a compare and two lookups per example.

    A query (``epsilons``, ``report``, ``counts``) changes nothing: it sums
    the held charges in refresh order, then the pending steps as a last
    charge that nothing keeps, block by block of rows.  So no result
    depends on when, or how often, the ledger was queried, bit for bit.

    Only a refresh folds, by one rule: once the held charges reach a
    quarter of an (n, orders) float64 state's bytes (at large n, 2 x orders
    refreshes with up to 256 buckets and orders refreshes with more; in
    exactness mode, where one charge is about the state's size, usually
    every refresh), it adds them onto the state, which the first fold
    allocates.  Ledger memory stays under 1.25 x the state plus one
    refresh.  A ledger is not thread-safe: drive it from one thread.  Its
    query and fold pass splits a large ledger's rows across threads of its
    own, one per core the process may use, and joins them before it
    returns; every result is the same bit for bit as on one thread.
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
        self._monotone = True       # every table held or folded is nondecreasing
        self._coarse = _coarse_orders(config.orders)
        # each order's gap between coarse orders, or -1 for a coarse order
        gap = np.searchsorted(self._coarse, np.arange(config.orders.size)) - 1
        gap[self._coarse] = -1
        self._gap = gap

    def _charges(self) -> tuple[list[tuple[np.ndarray, np.ndarray]], bool]:
        """The held charges, then the pending steps as a last charge that
        nothing keeps: what a query sums, and whether every table it sums
        or the state folded is nondecreasing along the orders."""
        if not self._pending:
            return self._held, self._monotone
        table = self._pending * self.cache.rows
        return self._held + [(table, self._assign)], self._monotone and _nondecreasing(table)

    def _pass(self, work) -> None:
        """Call ``work(lo, hi)`` on runs of whole _BLOCK-row blocks that
        cover the examples.  A ledger of at least 2 x _WORKER_ROWS examples
        splits into contiguous runs, one per core the process may use (at
        most one per _WORKER_ROWS rows), each on its own thread, where
        ``work`` must touch only its run's rows.  Every row sees the same
        operations in the same order either way, so the results are the
        same bit for bit."""
        blocks = -(-self.n // _BLOCK)
        workers = max(1, min(_cores(), self.n // _WORKER_ROWS, blocks))
        cuts = [min(k * blocks // workers * _BLOCK, self.n) for k in range(workers + 1)]
        errors: list[BaseException] = []

        def run(lo: int, hi: int) -> None:
            try:
                work(lo, hi)
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

    def _sum_rows(self, lo: int, hi: int, charges, into: np.ndarray) -> None:
        """``charges`` of rows lo:hi summed in order onto the state's or the
        first charge's rows (see ``_sum``) into ``into``'s rows (the state,
        to fold into it, or a new array for ``counts``), _BLOCK rows at a
        time so the gathered curves stay in cache.  Only numpy's take and
        add run here, and both release the GIL."""
        scratch = np.empty((_BLOCK, self.config.orders.size))
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            self._sum(slice(start, stop), charges, into[start:stop], scratch[:stop - start],
                      onto_state=into is self._rdp)

    def _sum(self, rows, charges, out: np.ndarray, gathered: np.ndarray,
             cols: Optional[np.ndarray] = None, onto_state: bool = False) -> None:
        """The state (which ``out`` already holds when ``onto_state``) plus
        ``charges`` of ``rows``, a slice or an index array, at orders
        ``cols`` (every order when None) summed in order into ``out``;
        without a state the first charge starts the sum.  ``gathered`` is
        scratch of ``out``'s shape.  Each cell sees the same takes and adds,
        whichever rows and orders a call covers, so a cell's sum is the same
        bit for bit."""
        rest = charges
        state = self._rdp
        if state is not None:
            if onto_state:          # out is the state's own rows
                pass
            elif cols is None:
                out[...] = state[rows]
            elif isinstance(rows, slice):
                np.take(state[rows], cols, axis=1, out=out)
            else:
                np.take(state, rows[:, None] * state.shape[1] + cols, out=out)
        elif charges:
            table, assign = charges[0]
            np.take(table, assign[rows], axis=0, out=out, mode="clip")
            rest = charges[1:]
        else:
            out.fill(0.0)
        # mode="clip" writes to out unbuffered; every index is in range
        for table, assign in rest:
            np.take(table, assign[rows], axis=0, out=gathered, mode="clip")
            np.add(out, gathered, out=out)

    def update_assignments(self, norms: Sequence[float], step: Optional[int] = None) -> None:
        """Re-bucket every example from fresh gradient norms at ``step``,
        the next step to record, closing the pending steps into a held
        charge, and folding the held charges at a quarter of the state."""
        norms = np.asarray(norms, dtype=np.float64)
        if norms.shape != (self.n,):
            raise ValueError(f"expected {self.n} norms, got shape {norms.shape}")
        _check_norms(norms)
        if step is not None and (step != self.steps or step % self.config.frequency):
            raise LedgerError(
                f"assignments may only change at the next step to record ({self.steps}), "
                f"if divisible by frequency={self.config.frequency}; got step {step}")
        # charge the old assignments before exactness mode replaces their curves
        (self._held, self._monotone), self._pending = self._charges(), 0
        shape = (self.n, self.config.orders.size)
        held_bytes = sum(table.nbytes + assign.nbytes for table, assign in self._held)
        if 4 * held_bytes >= 8 * shape[0] * shape[1]:
            state = np.empty(shape) if self._rdp is None else self._rdp
            self._pass(lambda lo, hi: self._sum_rows(lo, hi, self._held, state))
            self._rdp, self._held = state, []
        self._assign = self.cache.indices_for(np.minimum(norms, self.config.max_clip))

    def record_step(self, step: Optional[int] = None) -> None:
        """Charge every example one step at its current bucket."""
        self.record_steps(step, 1)

    def record_steps(self, first: Optional[int], count: int) -> None:
        """Charge every example ``count`` steps, from step ``first`` on, at
        its current bucket, in O(1) however large ``count`` is."""
        if self._assign is None:
            raise LedgerError("record_step before the first update_assignments")
        if first is not None and first != self.steps:
            raise LedgerError(f"expected step {self.steps}, got {first}")
        if not isinstance(count, (int, np.integer)) or count < 1:
            raise ValueError(f"count must be an integer >= 1, got {count!r}")
        self._pending += int(count)
        self.steps += int(count)

    def counts(self) -> np.ndarray:
        """The (n, orders) accumulated RDP, every step charged, changing
        nothing: a new array, summed as a query sums.  Only the benchmark's
        ledger-size probe reads it, under this name; it stays until a
        benchmark-only change renames that probe."""
        out = np.empty((self.n, self.config.orders.size))
        charges = self._charges()[0]
        self._pass(lambda lo, hi: self._sum_rows(lo, hi, charges, out))
        return out

    def epsilons(self) -> tuple[np.ndarray, np.ndarray]:
        """(epsilon, best order) at the config's delta for all examples,
        summed and converted in blocks of rows so the extra memory is
        O(block x orders), not O(n x orders).  Changes nothing.

        A query sums only the orders that can win.  A first pass sums and
        converts each row at the coarse orders a_m (``_coarse_orders``) and
        finds its coarse minimum.  While every table summed, folded or not,
        is nondecreasing along the orders, as RDP is (van Erven and Harremoes
        2014), so is their float sum; log(1/delta)/(alpha - 1) decreases in
        alpha; so for a_m < alpha < a_{m+1}, epsilon at alpha is at least
        rho(a_m) + log(1/delta)/(a_{m+1} - 1), and where that is above the
        coarse minimum no order of the gap can win, not even on a tie.  A
        query that sums a table that dips keeps every gap.  A second
        pass groups rows by their coarse best order and sums, for each
        group, that order and every gap some row of it kept.  Every cell
        summed sees the same takes and adds as in a full pass, and the
        smallest order wins ties, so each row's result is the same bit for
        bit and depends only on its own charges, though which orders are
        summed depends on its group.

        Memory bound.  Beyond its two n-length outputs, a query allocates
        once each summed table cut to the coarse orders, the pending steps'
        table, and the conversion terms tiled over one coarse block
        ((coarse orders + 1) x _COARSE_BLOCK float64).  Each worker adds
        its three float64 block buffers and its bool buffer (max(coarse
        orders x _COARSE_BLOCK, _GROUP_CELLS) cells each, the third
        _GROUP_CELLS), each summed table cut to one group's orders (two
        groups' while the next cut is made), and row indices and per-block
        vectors of at most _GROUP_CELLS + 8 x _COARSE_BLOCK int64 or
        float64.  In grid mode,
        where a table has a row per bucket, none of it grows with n: at
        n = 50,000 with 100 buckets a query allocates 1.9 MB with 3 tables
        summed and 2.5 MB with 41."""
        eps = np.empty(self.n)
        best = np.empty(self.n, dtype=np.int64)
        charges, monotone = self._charges()
        terms = _conversion_terms(self.config.orders, self.config.delta)
        coarse = self._coarse
        narrow = [(table[:, coarse], assign) for table, assign in charges]
        # the terms at the coarse orders, then inf, in one column per row of
        # a block: a same-shape add is faster than a broadcast one
        tile = np.tile(np.append(terms[coarse], np.inf)[:, None],
                       (1, min(_COARSE_BLOCK, self.n)))
        self._pass(lambda lo, hi: self._query(lo, hi, charges, monotone, narrow, tile, terms,
                                              eps, best))
        return eps, best

    def _query(self, lo: int, hi: int, charges, monotone: bool, narrow, tile: np.ndarray,
               terms: np.ndarray, eps: np.ndarray, best: np.ndarray) -> None:
        """Both passes of a query (see ``epsilons``) over rows lo:hi, every
        gap kept unless ``monotone`` says that every table summed, and the
        folded state, is nondecreasing.  ``narrow`` is ``charges`` cut
        to the coarse orders; ``tile`` holds the conversion terms there,
        then inf, one column per row of a block; ``terms`` holds them at
        every order.  Each block is summed by rows and converted transposed,
        where a reduction over the orders is elementwise.  Every block of
        both passes works in the same few buffers, viewed at its shape."""
        orders, coarse = self.config.orders, self._coarse
        block = min(_COARSE_BLOCK, hi - lo)
        # at least a row of every order, at most what the run's rows need
        group_cells = max(min(_GROUP_CELLS, (hi - lo) * orders.size), orders.size)
        cells = max(block * coarse.size, group_cells)
        bufs = np.empty(cells), np.empty(cells), np.empty(group_cells)
        flags = np.empty(cells, dtype=bool)
        rows_of, gaps_of = self._coarse_pass(lo, hi, block, narrow, tile, best, bufs, flags)
        if not monotone:          # the bound does not hold: keep every gap
            gaps_of[:] = ~np.uint64(0)
        shifts = np.arange(coarse.size - 1, dtype=np.uint64)
        for g in np.flatnonzero(rows_of):
            kept = np.append((gaps_of[g] >> shifts) & np.uint64(1) != 0, False)
            chosen = kept[self._gap]
            chosen[coarse[g]] = True
            cols = np.flatnonzero(chosen)
            width, group_orders = cols.size, orders[cols]
            cut = [(table[:, cols], assign) for table, assign in charges]
            per = min(group_cells // width, rows_of[g])
            out, gathered = _view(bufs[0], (per, width)), _view(bufs[1], (per, width))
            total = _view(bufs[1], (width, per))        # once the sum is done
            group_tile = _view(bufs[2], (width, per))
            np.copyto(group_tile, terms[cols][:, None])
            group_flags, rank = _view(flags, (width, per)), _ranks(width)
            # scan stretches expected to hold about ``per`` of the group's rows
            stretch = max(per, min(per * (hi - lo) // rows_of[g], group_cells))
            for c0 in range(lo, hi, stretch):
                found = np.flatnonzero(best[c0:min(c0 + stretch, hi)] == ~g)
                found += c0
                for p in range(0, found.size, per):
                    rows = found[p:p + per]
                    k = rows.size
                    self._sum(rows, cut, out[:k], gathered[:k], cols)
                    np.add(out[:k].T, group_tile[:, :k], out=total[:, :k])
                    eps[rows], low = _first_min(total[:, :k], group_flags[:, :k], rank)
                    best[rows] = group_orders[low]

    def _coarse_pass(self, lo: int, hi: int, block: int, narrow, tile: np.ndarray,
                     best: np.ndarray, bufs, flags: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A pruned query's first pass over rows lo:hi, ``block`` rows at a
        time (see ``_query``): leaves each row's coarse best order in
        ``best`` as ~index, and returns, per coarse order, how many rows
        have it as their best and a bit for each gap that some such row
        keeps."""
        size = self._coarse.size
        out, gathered = _view(bufs[0], (block, size)), _view(bufs[1], (block, size))
        rho, total = _view(bufs[1], (size, block)), _view(bufs[0], (size, block))
        flags, rank = _view(flags, (size, block)), _ranks(size)
        bit = 2.0 ** np.arange(size - 1)      # gap j's bit, exact in a float64 sum
        rows_of = np.zeros(size, dtype=np.intp)
        gaps_of = np.zeros(size, dtype=np.uint64)
        for start in range(lo, hi, block):
            k = min(block, hi - start)
            self._sum(slice(start, start + k), narrow, out[:k], gathered[:k], self._coarse)
            np.copyto(rho[:, :k], out[:k].T)
            floor, low = _first_min(np.add(rho[:, :k], tile[:-1, :k], out=total[:, :k]),
                                    flags[:, :k], rank)
            # each gap's bound (inf after the last order), then whether it
            # can hold the winner, as 1.0 or 0.0 in rho's place
            np.add(rho[:, :k], tile[1:, :k], out=total[:, :k])
            np.less_equal(total[:, :k], floor, out=rho[:, :k], casting="unsafe")
            np.bitwise_or.at(gaps_of, low, np.dot(bit, rho[:-1, :k]).astype(np.uint64))
            rows_of += np.bincount(low, minlength=size)
            # no order is negative, so ~index cannot be mistaken for one
            np.invert(low, out=best[start:start + k])
        return rows_of, gaps_of

    def report(self, group_labels: Optional[Sequence[int]] = None) -> "PrivacyReport":
        eps, orders = self.epsilons()
        worst_eps, worst_order = worst_case_epsilon(self.config, self.steps, with_order=True)
        return PrivacyReport(
            epsilons=eps, best_orders=orders, worst_epsilon=worst_eps,
            worst_order=worst_order, delta=self.config.delta, steps=self.steps, n=self.n,
            config=self.config.to_dict(), group_labels=group_labels)


def _nondecreasing(table: np.ndarray) -> bool:
    """Whether every row of a curve table is nondecreasing along the orders,
    as RDP is: the premise of a query's pruning bound."""
    return bool(np.all(table[:, 1:] >= table[:, :-1]))


def _view(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The start of the flat buffer ``buf`` as an array of ``shape``."""
    return buf[:shape[0] * shape[1]].reshape(shape)


def _ranks(width: int) -> np.ndarray:
    """width - 1 - j for each order j of a transposed block, as a column in
    the smallest unsigned dtype that holds it (see ``_first_min``)."""
    return np.arange(width - 1, -1, -1).astype(np.min_scalar_type(width))[:, None]


def _first_min(total: np.ndarray, flags: np.ndarray,
               rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's minimum over the rows of ``total`` and the first row
    that attains it, as argmin picks it; ``flags`` is scratch of its shape.
    A sum of a term > 0 is never -0.0, so minimum and the value at the
    argmin agree bit for bit."""
    floor = total.min(axis=0)
    np.equal(total, floor, out=flags)
    last = rank.shape[0] - 1
    return floor, last - np.multiply(flags, rank).max(axis=0).astype(np.intp)


def worst_case_epsilon(config: AccountantConfig, steps: int, with_order: bool = False):
    """Uniform DP-SGD guarantee at the config's delta: every example at
    sensitivity C for all steps."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    mult = config.noise_std / config.max_clip
    row = sgm_rdp_matrix(config.sampling_prob, np.asarray([mult]), config.orders)[0]
    eps, order = rdp_to_dp(RdpCurve(config.orders, row * steps), config.delta)
    return (eps, order) if with_order else eps


def _indented(values: list) -> str:
    """A list of numbers as ``json.dumps(doc, indent=1)`` writes it as a
    member of a top-level object."""
    if not values:
        return "[]"
    return "[\n  " + json.dumps(values)[1:-1].replace(", ", ",\n  ") + "\n ]"


# scalar fields of a report file, in the order a missing one is named:
# (test, rule); types compare exactly, as for _PER_EXAMPLE; NaN fails each test
_SCALARS = {
    "delta": (lambda v: type(v) in (int, float) and 0 < v < 1, "a number in (0, 1)"),
    "steps": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "n": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "config": (lambda v: type(v) is dict, "an object"),
    "worst_case.epsilon": (lambda v: type(v) in (int, float) and 0 < v < math.inf,
                           "a finite number > 0"),
    "worst_case.order": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
}

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
        if self.best_orders.shape != (self.n,):
            raise ValueError(f"expected {self.n} best orders, got shape {self.best_orders.shape}")
        if not np.all(self.best_orders >= 2):
            raise ValueError("an order must be an integer >= 2")
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
        text = json.dumps(doc, indent=1)
        if unsafe_export_per_example:
            # the n-length lists close the document; json.dumps(doc, indent=1)
            # would encode them in pure Python, so they are encoded by the C
            # encoder and laid out as it would, byte for byte
            lists = [("epsilons", self.epsilons), ("best_orders", self.best_orders),
                     ("group_labels", self.group_labels)]
            text = text[:-2] + "".join(f',\n "{name}": {_indented(values.tolist())}'
                                       for name, values in lists if values is not None) + "\n}"
        atomic_write(path, text + "\n")

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
        scalars = {**doc, **{f"worst_case.{k}": v for k, v in worst.items()}}
        missing = [name for name in _SCALARS if name not in scalars]
        if missing:
            raise ValueError(f"{path}: report is missing {', '.join(missing)}")
        for name, (valid, rule) in _SCALARS.items():
            if not valid(scalars[name]):
                raise ValueError(f"{path}: {name} must be {rule}, got {scalars[name]!r}")
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
