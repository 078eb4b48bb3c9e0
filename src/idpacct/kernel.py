"""Subsampled-Gaussian RDP over a multiplier x order grid.

With e_k = k(k-1)/(2 s^2) and binomial weights w_k = C(a,k)(1-q)^(a-k) q^k
the divergence at integer order a is

    rho = log1p( sum_{k=2..a} w_k * expm1(e_k) ) / (a - 1),

cancellation-free because the k<2 terms fold into the leading 1.  Terms with
e_k <= 36 are summed directly through expm1; larger terms (where the -1 is
below one ulp) are combined in log space and merged with log-add-exp, so any
finite multiplier is handled without overflow.  Weights below about 1e-308
flush to zero; the lost mass is bounded by 1e-292 absolute, far below
anything the accountant can observe.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaln

BACKEND = "numpy"

_EXPM1_CUTOFF = 36.0
_CHUNK = 8192


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
    with np.errstate(divide="ignore"):
        x = 1.0 / (sig * sig)           # s = inf -> x = 0 -> rho = 0
    if q == 1.0:
        return 0.5 * x[:, None] * alphas[None, :].astype(np.float64)
    live = x > 0.0
    for j, a in enumerate(alphas):
        out[live, j] = _order_column(q, x[live], int(a))
    return out


def _order_column(q: float, x: np.ndarray, a: int) -> np.ndarray:
    """rho at integer order ``a`` for each 1/s^2 value in ``x``."""
    k = np.arange(2, a + 1, dtype=np.float64)
    log_w = (gammaln(a + 1.0) - gammaln(k + 1.0) - gammaln(a - k + 1.0)
             + (a - k) * np.log1p(-q) + k * np.log(q))
    kk = 0.5 * k * (k - 1.0)

    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], _CHUNK):
        xc = x[lo:lo + _CHUNK, None]
        e = xc * kk
        small = e <= _EXPM1_CUTOFF
        s_small = np.sum(np.where(small, np.exp(log_w) * np.expm1(np.where(small, e, 0.0)), 0.0),
                         axis=1)
        log_t = np.where(small, -np.inf, log_w + e)
        m = np.max(log_t, axis=1)
        finite = np.isfinite(m)
        l_big = np.full(m.shape, -np.inf)
        with np.errstate(over="ignore"):
            l_big[finite] = m[finite] + np.log(
                np.sum(np.exp(log_t[finite] - m[finite, None]), axis=1))
        l_big[m == np.inf] = np.inf
        out[lo:lo + _CHUNK] = np.logaddexp(np.log1p(s_small), l_big) / (a - 1.0)
    return out
