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
log-weight table, which is -inf where k > a, its exponent and the groups
of orders.  A group is a run of at most _GROUP_SPAN consecutive orders
whose k = a columns lie within _GROUP_SPAN of each other; the default grid
makes eight groups over 2..64, then 128 and 256 alone.

The terms e_k depend only on the row and k, so each chunk of rows computes
them once for k = 2..max(orders).  Terms with e_k <= 36 are summed directly
through expm1, one matrix product per group over the columns up to the
group's largest order, which skips most of the zero weights past k = a.
Larger terms (where the -1 is below one ulp) are combined in log space and
merged with log-add-exp.  Since e_k rises with k they form a suffix of each
row; rows are sorted by 1/s^2, so within a chunk the rows with a large term
at k = a form a prefix.  The log-space pass runs once per group, over one
(rows x orders x columns) slab of e_k + log w_k, where the -inf weights cut
each order off at k = a.  Any finite multiplier is handled without
overflow.

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
Either way a weight is off by at most 2.5e-324 absolute, so a small term
is off by under 2.5e-324 * e^36 < 1.1e-308, far below anything the
accountant can observe.

A table holds orders x (largest order - 1) cells per (q, orders).  A grid
over 2^22 cells (32 MB per table) is rejected with ValueError; q = 0 and
q = 1 need no table and take any grid.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

BACKEND = "numpy"

_EXPM1_CUTOFF = 36.0
_LOG_FLOOR = -700.0      # shifted log-space terms are raised to this before exp
_CHUNK_CELLS = 1 << 17
_MAX_TABLE_CELLS = 1 << 22   # orders x (largest order - 1), per (q, orders) table
_GROUP_SPAN = 8          # orders per group, and the span of their k = a columns


class _OrderTables(NamedTuple):
    kk: np.ndarray          # k(k-1)/2 for k = 2..K
    log_w: np.ndarray       # (orders, K-1) log binomial weights, -inf where k > a
    w_t: np.ndarray         # exp(log_w).T: zero where k > a
    denom: np.ndarray       # a - 1
    groups: tuple           # (first order, stop order, highest k = a column)


@functools.lru_cache(maxsize=32)
def _order_tables(q: float, orders: tuple) -> _OrderTables:
    alphas = np.asarray(orders, dtype=np.int64)
    a_max = int(alphas.max())
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
                or np.ptp(last[j0:j + 1]) >= _GROUP_SPAN):
            groups.append((j0, j, int(last[j0:j].max())))
            j0 = j
    kk = 0.5 * k * (k - 1.0)
    w_t = np.exp(log_w).T
    denom = alphas - 1.0
    for arr in (kk, log_w, w_t, denom):
        arr.flags.writeable = False
    return _OrderTables(kk, log_w, w_t, denom, tuple(groups))


def sgm_rdp_matrix(q: float, noise_multipliers, orders) -> np.ndarray:
    """Batched subsampled-Gaussian RDP: one row per noise multiplier, one
    column per integer order. Multipliers must be > 0 (+inf allowed and
    yields zero cost); orders must be integers >= 2."""
    if np.ndim(q) != 0 or np.asarray(q).dtype == bool:
        raise ValueError(f"sampling probability must be a real scalar, got {q!r}")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"sampling probability must be in [0, 1], got {q}")
    sig = np.asarray(noise_multipliers, dtype=np.float64)
    if sig.ndim != 1:
        raise ValueError("noise_multipliers must be one-dimensional")
    if np.any(np.isnan(sig)) or np.any(sig <= 0.0):
        raise ValueError("noise multipliers must be positive (inf allowed)")
    alphas = np.asarray(orders)
    if alphas.ndim != 1:
        raise ValueError("orders must be one-dimensional")
    if not np.issubdtype(alphas.dtype, np.integer):
        if not np.all(alphas == np.floor(alphas)):
            raise ValueError("orders must be integers")
        alphas = alphas.astype(np.int64)
    if np.any(alphas < 2):
        raise ValueError("orders must be >= 2")
    q = float(q)
    alphas = alphas.astype(np.int64)

    out = np.zeros((sig.shape[0], alphas.shape[0]))
    if out.size == 0 or q == 0.0:
        return out
    with np.errstate(divide="ignore", over="ignore"):
        x = 1.0 / (sig * sig)           # s = inf -> x = 0 -> rho = 0; tiny s -> x = inf
    if q == 1.0:
        return 0.5 * x[:, None] * alphas[None, :].astype(np.float64)
    n_cols = int(alphas.max()) - 1
    if alphas.shape[0] * n_cols > _MAX_TABLE_CELLS:
        raise ValueError(
            f"order grid too large: {alphas.shape[0]} orders x {n_cols} binomial terms "
            f"(largest order {n_cols + 1}) = {alphas.shape[0] * n_cols} table cells, "
            f"over the limit of {_MAX_TABLE_CELLS}")
    live = np.flatnonzero(x > 0.0)
    if live.size == 0:
        return out
    # largest x first: within a chunk the rows with a large term at k = a
    # then form a prefix
    live = live[np.argsort(-x[live], kind="stable")]
    kk, log_w, w_t, denom, groups = _order_tables(q, tuple(alphas.tolist()))

    rows = max(1, _CHUNK_CELLS // kk.shape[0])
    # e overflowing to inf, inf - inf and log(0) below all have their intended limits
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, live.shape[0], rows):
            idx = live[lo:lo + rows]
            e = x[idx, None] * kk
            small = e <= _EXPM1_CUTOFF
            n_small = np.count_nonzero(small, axis=1)   # e rises with k
            em = np.expm1(e, out=np.zeros_like(e), where=small)
            k0 = int(n_small[0])
            has_inf = e[0, -1] == np.inf                # the chunk's largest term
            np.copyto(e, -np.inf, where=small)          # e now holds the large terms only
            res = np.empty((idx.shape[0], denom.shape[0]))
            for j0, j1, c_hi in groups:
                r = res[:, j0:j1]
                np.matmul(em[:, :c_hi + 1], w_t[:c_hi + 1, j0:j1], out=r)
                np.log1p(r, out=r)
                nb = int(np.searchsorted(n_small, c_hi, side="right"))
                if nb == 0:
                    continue
                # e = +inf past k = a gives inf + (-inf) = nan: no term there
                log_t = e[:nb, None, k0:c_hi + 1] + log_w[j0:j1, k0:c_hi + 1]
                if has_inf:
                    log_t[np.isnan(log_t)] = -np.inf
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
                r[:nb] = np.logaddexp(r[:nb], l_big)
            out[idx] = res / denom
    return out
