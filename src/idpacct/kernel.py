"""Subsampled-Gaussian RDP over a multiplier x order grid.

With e_k = k(k-1)/(2 s^2) and binomial weights w_k = C(a,k)(1-q)^(a-k) q^k
the divergence at integer order a is

    rho = log1p( sum_{k=2..a} w_k * expm1(e_k) ) / (a - 1),

cancellation-free because the k<2 terms fold into the leading 1.

log C(a, k) is lf[a] - lf[k] - lf[a - k], indexed from one vector of
log-factorials lf[m] = log m! for m = 0..largest order, so the kernel needs
numpy alone.  lf starts from math.lgamma, which is up to 3 ulp off (at
log 2!).  Each step lf[m] - lf[m-1] should be log m and is computed exactly
for m >= 4, so the running sum of the steps' misses is lgamma's own error;
taking it off leaves every lf[m] within 1 ulp of log m! (checked against
60-digit values up to m = 2^21 + 1).  Against math.log(math.comb(a, k)) the
log-binomials are then off by at most 2.1e-13 on the default grid and
1.4e-12 on 2..1024, where scipy's gammaln, used before, was off by 4.1e-13
and 2.4e-12.  Against the gammaln table the output moves by at most
1.06e-12 relative on the 14,978,700-cell sweep in CHANGES.md.

Everything that depends only on (q, orders) is built once per (q, orders)
and cached read-only: the half-products k(k-1)/2, the (orders x K)
log-weight table, which is -inf where k > a, its exponent, the per-column
cutoff (below) and the groups of orders.  The grid is strictly increasing
(``_check_orders``), so a group is a run of at most _GROUP_SPAN orders whose
last, which sets its highest k = a column, lies under _GROUP_SPAN above its
first.  The default grid makes eight groups over 2..64, then 128 and 256
alone.

The terms e_k depend only on the row and k, so each chunk of rows computes
them once for k = 2..max(orders).  A term with e_k at most its column's
cutoff is summed directly through expm1, one matrix product per group over
the columns up to the group's largest order, which skips most of the zero
weights past k = a.  Larger terms are combined in log space and merged
with log-add-exp.  The cutoff is 600 nats: every weight is at most 1 and a
table has under 2^22 columns, so a direct sum stays below
2^22 * e^600 < 1.7e267 and cannot overflow (any cutoff up to about 694
would keep it finite).  From the first column that holds a subnormal or
flushed weight (log w_k below log(tiny) + 1 for an order with k <= a) on,
the cutoff is 36 nats (below).  The cutoff never rises with k while e_k
does, so the large terms form a suffix of each row, and a row holds a
large term exactly when its last column does.  Rows are sorted by 1/s^2,
largest first, so within a chunk those rows are a prefix of p rows, and
only they are masked: the rows from p on take one plain expm1.  All
groups' sums take one log1p per chunk.  The log-space pass, skipped when
p = 0, runs once per group over the first p rows at most, in one (rows x
orders x columns) slab of e_k + log w_k, where the -inf weights cut each
order off at k = a.  Any finite multiplier is handled without overflow.

Each (row, order) sum of large terms is shifted by its largest term, which
then contributes exactly 1, and every shifted term below -700 is raised to
-700 before exp: numpy's exp is several times slower on -inf and on
results that underflow, and about 120 times slower on subnormal results.
A raised term adds at most e^-700 < 1e-304, so even the 2^22 columns the
table cap allows add under 1e-297 to a sum >= 1, far below one ulp.  A
(row, order) pair with no large term keeps l_big = -inf; the raised cells
would otherwise be log-added onto its small-term sum.

The weights w_k = exp(log w_k) keep subnormal values down to 5e-324 (q =
0.01 has 7 of them in the default table) and flush smaller ones to zero.
Either way a weight is off by at most 2.5e-324 absolute.  Its column sums
directly only terms up to 36 nats, so such a term is off by under
2.5e-324 * e^36 < 1.1e-308, far below anything the accountant can
observe; a larger term goes through log space, which reads log w_k itself.
(At 600 nats, q = 1e-150 would lose rho_3 = 1.9e-190 at s^2 = 1/200, where
w_3 = q^3 flushes to zero and e_3 = 600.)  A normal weight is within a few
ulp of w_k relative, and so is its direct term at any e_k up to 600.

A table holds orders x (largest order - 1) cells per (q, orders).  A grid
over 2^22 cells (32 MB per table) is rejected with ValueError; q = 0 and
q = 1 need no table and take any grid.

Memory bound.  Beyond its output, one call allocates one chunk's
workspace, which every chunk reuses: e_k and its expm1, each rows x
(largest order - 1) float64, with rows = min(live rows, 2^17 / (largest
order - 1)); the rows x orders sums; one float64 slab of rows x the
largest (orders in a group x (its largest order - 1)); and the bool mask
of the first p rows.  On the default grid that is 514 rows and 4.3 MB.
Add O(n) per-row vectors (1/s^2, the row order) and a few rows x (orders
in a group) arrays while a group is summed.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

_EXPM1_CUTOFF = 36.0      # columns with a subnormal or flushed weight
_DIRECT_CUTOFF = 600.0    # every other column (module docstring)
_LOG_FLOOR = -700.0      # shifted log-space terms are raised to this before exp
_CHUNK_CELLS = 1 << 17
_MAX_TABLE_CELLS = 1 << 22   # orders x (largest order - 1), per (q, orders) table
_GROUP_SPAN = 8          # orders per group, and the span of their k = a columns


class _OrderTables(NamedTuple):
    kk: np.ndarray          # k(k-1)/2 for k = 2..K
    log_w: np.ndarray       # (orders, K-1) log binomial weights, -inf where k > a
    w_t: np.ndarray         # exp(log_w).T: zero where k > a
    cut: np.ndarray         # per column, the largest e_k summed directly
    denom: np.ndarray       # a - 1
    groups: tuple           # (first order, stop order, highest k = a column)


def _check_orders(orders) -> np.ndarray:
    """A non-empty, strictly increasing 1-D grid of integers >= 2, as int64."""
    a = np.asarray(orders)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("order grid must be a non-empty 1-D sequence")
    # a non-finite order, or one outside int64, is refused here rather than
    # by the cast to int64
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all((a == np.floor(a)) & (np.abs(a) < 2.0 ** 63)):
            raise ValueError("order grid must contain integers")
    a = a.astype(np.int64)
    if np.any(a < 2):
        raise ValueError("orders must be integers >= 2")
    if np.any(np.diff(a) <= 0):
        raise ValueError("orders must be strictly increasing")
    return a


@functools.lru_cache(maxsize=32)
def _order_tables(q: float, orders: tuple) -> _OrderTables:
    """Tables for a grid that ``_check_orders`` accepts."""
    alphas = np.asarray(orders, dtype=np.int64)
    a_max = int(orders[-1])
    lf = np.fromiter(map(math.lgamma, range(1, a_max + 2)), np.float64, a_max + 1)
    # lf[m] = log m!.  Each step lf[m] - lf[m-1] should be log m, so the
    # running sum of the steps' misses is lgamma's own error (module docstring)
    lf[1:] -= np.cumsum(np.diff(lf) - np.log(np.arange(1, a_max + 1)))
    k = np.arange(2, a_max + 1)
    a = alphas[:, None]
    log_w = (lf[a] - lf[k] - lf[np.maximum(a - k, 0)]
             + (a - k) * np.log1p(-q) + k * np.log(q))
    log_w[k > a] = -np.inf
    last = alphas - 2                       # column of k = a
    groups = []
    j0 = 0
    for j in range(1, alphas.shape[0] + 1):
        if (j == alphas.shape[0] or j - j0 == _GROUP_SPAN
                or last[j] - last[j0] >= _GROUP_SPAN):
            groups.append((j0, j, int(last[j - 1])))
            j0 = j
    kk = 0.5 * k * (k - 1.0)
    w_t = np.exp(log_w).T
    # terms up to 600 nats are summed directly, but only up to 36 from the
    # first column holding a subnormal or flushed weight on (module
    # docstring; -inf past k = a is no weight).  The cut never rises, so
    # the large terms stay a suffix of each row
    low_w = math.log(np.finfo(np.float64).tiny) + 1.0
    low = np.any((log_w > -np.inf) & (log_w < low_w), axis=0)
    cut = np.where(np.logical_or.accumulate(low), _EXPM1_CUTOFF, _DIRECT_CUTOFF)
    denom = alphas - 1.0
    for arr in (kk, log_w, w_t, cut, denom):
        arr.flags.writeable = False
    return _OrderTables(kk, log_w, w_t, cut, denom, tuple(groups))


def sgm_rdp_matrix(q: float, noise_multipliers, orders) -> np.ndarray:
    """Batched subsampled-Gaussian RDP: one row per noise multiplier, one
    column per integer order. Multipliers must be > 0 (+inf allowed and
    yields zero cost); orders must pass ``_check_orders``."""
    if np.ndim(q) != 0 or np.asarray(q).dtype == bool:
        raise ValueError(f"sampling probability must be a real scalar, got {q!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling probability must be in [0, 1], got {q}")
    sig = np.asarray(noise_multipliers, dtype=np.float64)
    if sig.ndim != 1:
        raise ValueError("noise_multipliers must be one-dimensional")
    if np.any(np.isnan(sig)) or np.any(sig <= 0.0):
        raise ValueError("noise multipliers must be positive (inf allowed)")
    alphas = _check_orders(orders)
    q = float(q)

    out = np.zeros((sig.shape[0], alphas.shape[0]))
    if out.size == 0 or q == 0.0:
        return out
    with np.errstate(divide="ignore", over="ignore"):
        x = 1.0 / (sig * sig)           # s = inf -> x = 0 -> rho = 0; tiny s -> x = inf
    if q == 1.0:
        return 0.5 * x[:, None] * alphas[None, :].astype(np.float64)
    n_cols = int(alphas[-1]) - 1
    if alphas.shape[0] * n_cols > _MAX_TABLE_CELLS:
        raise ValueError(
            f"order grid too large: {alphas.shape[0]} orders x {n_cols} binomial terms "
            f"(largest order {n_cols + 1}) = {alphas.shape[0] * n_cols} table cells, "
            f"over the limit of {_MAX_TABLE_CELLS}")
    live = np.flatnonzero(x > 0.0)
    if live.size == 0:
        return out
    # largest x first: within a chunk the rows with a large term then form
    # a prefix
    live = live[np.argsort(-x[live], kind="stable")]
    kk, log_w, w_t, cut, denom, groups = _order_tables(q, tuple(alphas.tolist()))

    # one workspace per call, sized to one chunk (module docstring)
    rows = min(live.shape[0], max(1, _CHUNK_CELLS // kk.shape[0]))
    e_buf = np.empty((rows, kk.shape[0]))
    em_buf = np.empty((rows, kk.shape[0]))
    res_buf = np.empty((rows, denom.shape[0]))
    slab_buf = np.empty(rows * max((j1 - j0) * (c_hi + 1) for j0, j1, c_hi in groups))
    c_his = np.asarray([c_hi for _, _, c_hi in groups])
    # e overflowing to inf, inf - inf and log(0) below all have their intended limits
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, live.shape[0], rows):
            idx = live[lo:lo + rows]
            n_rows = idx.shape[0]
            e, em, res = e_buf[:n_rows], em_buf[:n_rows], res_buf[:n_rows]
            np.multiply(x[idx, None], kk, out=e)
            # a row holds a large term exactly when its last column does
            # (the large terms are a suffix), and those rows come first
            p = int(np.count_nonzero(e[:, -1] > cut[-1]))
            np.expm1(e[p:], out=em[p:])
            nbs = ()                                    # p = 0: no log-space pass
            if p:
                small = e[:p] <= cut
                n_small = np.count_nonzero(small, axis=1)   # e rises with k
                em[:p] = 0.0
                np.expm1(e[:p], out=em[:p], where=small)
                k0 = int(n_small[0])
                has_inf = e[0, -1] == np.inf            # the chunk's largest term
                np.copyto(e[:p], -np.inf, where=small)  # e[:p] now holds the large terms only
                # rows from p on have no large term, so every nb <= p
                nbs = np.searchsorted(n_small, c_his, side="right").tolist()
            for j0, j1, c_hi in groups:
                np.matmul(em[:, :c_hi + 1], w_t[:c_hi + 1, j0:j1], out=res[:, j0:j1])
            np.log1p(res, out=res)
            for (j0, j1, c_hi), nb in zip(groups, nbs):
                if nb == 0:
                    continue
                r = res[:nb, j0:j1]
                log_t = slab_buf[:nb * (j1 - j0) * (c_hi + 1 - k0)].reshape(
                    nb, j1 - j0, c_hi + 1 - k0)
                np.add(e[:nb, None, k0:c_hi + 1], log_w[j0:j1, k0:c_hi + 1], out=log_t)
                if has_inf:
                    # e = +inf past k = a gives inf + (-inf) = nan: no term
                    # there.  fmax turns nan into -inf and keeps every other value
                    np.fmax(log_t, -np.inf, out=log_t)
                # the max is -inf for an order with no large term in the row,
                # or +inf where e overflowed; shifting by 0 there instead
                # gives l_big = -inf (set below), or log(inf) = +inf
                m = np.max(log_t, axis=2, keepdims=True)
                no_large = m[:, :, 0] == -np.inf
                m[~np.isfinite(m)] = 0.0
                log_t -= m
                # keep exp on its fast path (module docstring)
                np.maximum(log_t, _LOG_FLOOR, out=log_t)
                np.exp(log_t, out=log_t)
                l_big = m[:, :, 0] + np.log(np.sum(log_t, axis=2))
                l_big[no_large] = -np.inf
                np.logaddexp(r, l_big, out=r)
            np.divide(res, denom, out=res)
            out[idx] = res
    return out
