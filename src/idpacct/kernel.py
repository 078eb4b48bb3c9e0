"""Subsampled-Gaussian RDP over a multiplier x order grid.

With e_k = k(k-1)/(2 s^2) and binomial weights w_k = C(a,k)(1-q)^(a-k) q^k
the divergence at integer order a is

    rho = log1p( sum_{k=2..a} w_k * expm1(e_k) ) / (a - 1),

cancellation-free because the k<2 terms fold into the leading 1.  The terms
e_k depend only on the row and k, not on the order, so each chunk of rows
computes them once for k = 2..max(orders).  Terms with e_k <= 36 are summed
directly through expm1, for every order at once, as one matrix product with
the (orders x K) weight matrix, which is zero where k > a.  Larger terms
(where the -1 is below one ulp) are combined per order in log space and
merged with log-add-exp.  Since e_k rises with k they form a suffix of each
row, and only the rows with a large term at k = a and only the columns of
that suffix enter the order's log-space pass.  Any finite multiplier is
handled without overflow.  Weights below about 1e-308 flush to zero; the
lost mass is bounded by 1e-292 absolute, far below anything the accountant
can observe.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

BACKEND = "numpy"

_EXPM1_CUTOFF = 36.0
_CHUNK_CELLS = 1 << 17


def sgm_rdp_matrix(q: float, noise_multipliers, orders) -> np.ndarray:
    """Batched subsampled-Gaussian RDP: one row per noise multiplier, one
    column per integer order. Multipliers must be > 0 (+inf allowed and
    yields zero cost); orders must be integers >= 2."""
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
    live = np.flatnonzero(x > 0.0)
    if live.size == 0:
        return out
    # largest x first: within a chunk the rows with a large term at order a
    # then form a prefix, and the per-order suffixes are views
    live = live[np.argsort(-x[live], kind="stable")]

    K = int(alphas.max())
    k = np.arange(2, K + 1, dtype=np.float64)
    kk = 0.5 * k * (k - 1.0)
    a = alphas[:, None].astype(np.float64)
    log_w = (gammaln(a + 1.0) - gammaln(k + 1.0) - gammaln(a - k + 1.0)
             + (a - k) * np.log1p(-q) + k * np.log(q))
    log_w[k[None, :] > a] = -np.inf
    w = np.exp(log_w)                       # zero where k > a
    last = alphas - 2                       # column of k = a

    rows = max(1, _CHUNK_CELLS // k.shape[0])
    for lo in range(0, live.shape[0], rows):
        idx = live[lo:lo + rows]
        with np.errstate(over="ignore"):
            e = x[idx, None] * kk
        small = e <= _EXPM1_CUTOFF
        n_small = np.count_nonzero(small, axis=1)   # e rises with k
        res = np.log1p(np.expm1(np.where(small, e, 0.0)) @ w.T)
        for j, c in enumerate(last):
            nb = int(np.searchsorted(n_small, c, side="right"))
            if nb == 0:
                continue
            k0 = int(n_small[0])
            log_t = e[:nb, k0:c + 1] + log_w[j, k0:c + 1]
            log_t[small[:nb, k0:c + 1]] = -np.inf
            m = np.max(log_t, axis=1, keepdims=True)    # finite or +inf
            with np.errstate(invalid="ignore"):
                log_t -= m
            np.exp(log_t, out=log_t)
            l_big = m[:, 0] + np.log(np.sum(log_t, axis=1))
            l_big[np.isinf(m[:, 0])] = np.inf
            res[:nb, j] = np.logaddexp(res[:nb, j], l_big)
        out[idx] = res / (alphas - 1.0)
    return out
