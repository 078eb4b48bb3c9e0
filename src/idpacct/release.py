"""Differentially private release of statistics of the per-example epsilon
values.

Adjacency is replace-one on the value vector with public length n and
public clamp bound B (the worst-case epsilon, derived from configuration,
not data).  The mean uses one Gaussian query of sensitivity B/n; each
quantile runs a fixed number of noisy below-threshold counting queries
(sensitivity 1) driving the geometric update
Q <- Q * exp(-eta * (fraction - target)).

Gaussian queries, adaptively chosen or not, compose exactly to one Gaussian
whose multiplier m satisfies 1/m^2 = sum_j 1/m_j^2 (Dong, Roth & Su 2019,
"Gaussian Differential Privacy", arXiv:1905.02383).  So the whole release
is calibrated once, as that one Gaussian, from its exact privacy profile
(Balle & Wang 2018, "Improving the Gaussian Mechanism for Differential
Privacy", arXiv:1805.06530), and 1/m^2 is split evenly between the mean and
the quantiles.  The realized budget is then recomputed from the noise
scales actually used, so the reported guarantee is measured, not assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._fileio import atomic_write
from .rdp_math import _SIGMA_CAP, _check_fields
# unused here, but perfbench/spans.py wraps these two names in this module
from .rdp_math import calibrate_noise, rdp_to_dp  # noqa: F401

_ULP = 2.0 ** -52
_SQRT_HALF = math.sqrt(0.5)
# calibration aims this far (relative) below delta, far above the last-bit
# change in m when release_all recomposes the scales it derived from m
_AIM = 1e-8


class BudgetInfeasibleError(RuntimeError):
    """The requested budget cannot be met with usable noise levels."""


@dataclass
class ReleaseConfig:
    epsilon: float
    bound: float                       # B: public value cap, worst-case epsilon
    delta: float = 1e-5
    quantiles: Sequence[float] = (0.1, 0.3, 0.5, 0.7, 0.9)
    quantile_steps: int = 20
    quantile_lr: float = 0.2
    zero_noise: bool = False
    seed: int = 0

    def __post_init__(self):
        _check_fields(self, numbers=("epsilon", "bound", "delta", "quantile_steps",
                                     "quantile_lr", "seed"),
                      finite=("epsilon", "bound", "quantile_lr"),
                      integers=("quantile_steps", "seed"))
        if self.epsilon <= 0:
            raise ValueError("release budget epsilon must be > 0")
        if self.bound <= 0:
            raise ValueError("value bound must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        qs = list(self.quantiles)
        if any(not 0.0 < q < 1.0 for q in qs):
            raise ValueError("quantile targets must be in (0, 1)")
        if len(set(qs)) != len(qs):
            # release_all keys estimates by target: a repeat would spend
            # budget on an estimate it then drops
            raise ValueError(f"quantiles must be distinct, got {qs}")
        self.quantiles = tuple(qs)
        if self.quantile_steps < 1:
            raise ValueError("quantile_steps must be >= 1")
        if self.quantile_lr <= 0:
            raise ValueError("quantile_lr must be > 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def gaussian_delta(epsilon: float, multiplier: float) -> float:
    """Exact privacy profile of a Gaussian mechanism with noise multiplier
    m (noise std over sensitivity),
    delta(eps) = Phi(1/(2m) - eps m) - e^eps Phi(-1/(2m) - eps m),
    plus a bound on its own rounding error, so the value never falls below
    the exact delta.  The two terms cancel, more so as eps falls, and erfc
    turns the rounding of its argument x into a relative error of about
    2 x^2 ulp.  For eps in [0.01, 10] and delta in [1e-12, 1e-3] the value
    exceeds the exact delta by at most 1e-9 relative."""
    h, u = 0.5 / multiplier, epsilon * multiplier
    a, b = (u - h) * _SQRT_HALF, (u + h) * _SQRT_HALF
    t1 = 0.5 * math.erfc(a)
    # past b = 26, erfc(b) nears underflow and e^eps may overflow; dropping
    # the subtracted term there only overstates delta
    t2 = 0.5 * math.erfc(b) * math.exp(epsilon) if b < 26.0 else 0.0
    # each term is off by at most (4 b^2 + 3 b + 7) ulp relative: the
    # argument's 2 ulp amplified by erfc, then erfc, exp and the products
    return t1 - t2 + 10 * _ULP * (1.0 + b * b) * (t1 + t2)


def _least(feasible, lo: float, hi: float) -> float:
    """Least x in (lo, hi] with feasible(x), by bisection to float
    precision; feasible(hi) must hold and feasible rise with x."""
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if feasible(mid) else (mid, hi)
    return hi


def calibrate_gaussian_scale(sensitivity: float, epsilon: float, delta: float) -> float:
    """Smallest noise std for a Gaussian query of the given sensitivity to
    satisfy (epsilon, delta)-DP: sensitivity times the least multiplier m
    with gaussian_delta(epsilon, m) <= delta, found by bisection."""
    if sensitivity <= 0:
        raise ValueError("sensitivity must be > 0")
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be > 0 and finite, got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")

    def feasible(m):
        return gaussian_delta(epsilon, m) <= delta * (1.0 - _AIM)

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        if hi >= _SIGMA_CAP:
            raise BudgetInfeasibleError(
                f"no noise multiplier up to {_SIGMA_CAP:g} meets "
                f"epsilon {epsilon} at delta {delta}")
        lo, hi = hi, 2.0 * hi
    return _least(feasible, lo, hi) * sensitivity


def _clamped(values, bound: float) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if bound <= 0:
        raise ValueError("bound must be > 0")
    return np.clip(v, 0.0, bound)


def _noisy_mean(v: np.ndarray, std: float, rng) -> float:
    """Mean of the clamped values plus Gaussian noise of std `std`."""
    mean = float(np.mean(v))
    if std > 0.0:
        rng = np.random.default_rng() if rng is None else rng
        mean += std * float(rng.standard_normal())
    return mean


def _noisy_quantile(v: np.ndarray, target: float, bound: float, std: float,
                    steps: int, lr: float, rng) -> float:
    """Geometric quantile update over `steps` below-threshold counts of the
    clamped values, each plus Gaussian noise of std `std`."""
    n = v.size
    if std > n / 4:
        raise BudgetInfeasibleError(
            f"count noise scale {std:.1f} exceeds n/4 = {n / 4:.1f}; "
            f"the noisy fractions would be meaningless")
    floor = 1e-6 * bound
    q = bound / 2.0
    for _ in range(steps):
        count = float(np.sum(v <= q))
        if std > 0.0:
            count += std * float(rng.standard_normal())
        frac = count / n
        q = min(max(q * math.exp(-lr * (frac - target)), floor), bound)
    return float(q)


def dp_mean(values: Sequence[float], bound: float, epsilon: float, delta: float,
            rng: Optional[np.random.Generator] = None,
            zero_noise: bool = False) -> float:
    """Clamped mean plus Gaussian noise calibrated to (epsilon, delta)
    on its own (sensitivity B/n)."""
    v = _clamped(values, bound)
    std = 0.0 if zero_noise or epsilon == math.inf \
        else calibrate_gaussian_scale(bound / v.size, epsilon, delta)
    return _noisy_mean(v, std, rng)


@dataclass
class ReleasedStats:
    mean: float
    quantiles: dict
    budget: dict
    zero_noise: bool

    def to_json(self, path: str) -> None:
        doc = {
            "format": "idpacct-release",
            "version": 3,
            "mean": self.mean,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "budget": self.budget,
            "zero_noise": self.zero_noise,
        }
        atomic_write(path, json.dumps(doc, indent=1) + "\n")


def release_all(values: Sequence[float], config: ReleaseConfig) -> ReleasedStats:
    """Release the clamped mean and the configured quantiles as one
    Gaussian mechanism of multiplier m, calibrated once.  The mean and each
    quantile get an even 1/(1 + Q) share of 1/m^2, a quantile's share spread
    over its `quantile_steps` counting queries."""
    v = _clamped(values, config.bound)
    n, steps = v.size, config.quantile_steps
    shares = 1 + len(config.quantiles)
    if config.zero_noise:
        mean_scale = count_scale = realized_eps = 0.0
    else:
        m = calibrate_gaussian_scale(1.0, config.epsilon, config.delta)
        mean_scale = m * math.sqrt(shares) * config.bound / n
        count_scale = m * math.sqrt(shares * steps)
        # recompose the scales actually used: 1/m^2 = sum_j 1/m_j^2
        inv_sq = ((config.bound / n) / mean_scale) ** 2 \
            + len(config.quantiles) * steps / count_scale ** 2
        m_used = 1.0 / math.sqrt(inv_sq)

        def feasible(eps):
            return gaussian_delta(eps, m_used) <= config.delta

        if not feasible(config.epsilon):
            raise BudgetInfeasibleError(
                f"composed multiplier {m_used:.6g} does not meet the configured "
                f"epsilon {config.epsilon:.6f} at delta {config.delta:g}")
        realized_eps = _least(feasible, 0.0, config.epsilon)

    rng = np.random.default_rng(config.seed)
    mean = _noisy_mean(v, mean_scale, rng)
    quantiles = {t: _noisy_quantile(v, t, config.bound, count_scale, steps,
                                    config.quantile_lr, rng)
                 for t in config.quantiles}
    budget = {
        "configured_epsilon": config.epsilon,
        "delta": config.delta,
        "mean_noise_scale": mean_scale,
        "count_noise_scale": count_scale,
        "realized_epsilon": realized_eps,
    }
    return ReleasedStats(mean=mean, quantiles=quantiles, budget=budget,
                         zero_noise=config.zero_noise)
