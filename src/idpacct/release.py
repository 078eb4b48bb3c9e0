"""Differentially private release of statistics of the per-example epsilon
values.

Adjacency is replace-one on the value vector with public length n and
public clamp bound B (the worst-case epsilon, derived from configuration,
not data).  The mean uses one Gaussian query of sensitivity B/n; each
quantile runs a fixed number of noisy below-threshold counting queries
(sensitivity 1) driving the geometric update
Q <- Q * exp(-eta * (fraction - target)).

Gaussian queries compose to one Gaussian whose multiplier m satisfies
1/m^2 = sum_j 1/m_j^2 (Mironov 2017, "Renyi Differential Privacy").  So the
whole release is calibrated once, as that one Gaussian, and 1/m^2 is split
evenly between the mean and the quantiles.  The realized budget is then
recomputed from the noise scales actually used, so the reported guarantee
is measured, not assumed.

Small budgets minimize at Renyi orders far beyond the accountant's default
grid, hence the wider grid here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._fileio import atomic_write
from .rdp_math import (_check_fields, _check_orders, calibrate_noise,
                       gaussian_rdp_curve, rdp_to_dp)


class BudgetInfeasibleError(RuntimeError):
    """The requested budget cannot be met with usable noise levels."""


def release_orders() -> np.ndarray:
    """Order grid for release accounting: {2..64} plus powers of two up to
    16384 (tiny budgets minimize at orders in the thousands)."""
    return np.concatenate([np.arange(2, 65), 2 ** np.arange(7, 15)])


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
    orders: np.ndarray = field(default_factory=release_orders)

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
        self.orders = _check_orders(self.orders)


def calibrate_gaussian_scale(sensitivity: float, epsilon: float, delta: float,
                             queries: int = 1, orders=None) -> float:
    """Smallest noise std for `queries` composed Gaussian queries of the
    given sensitivity to satisfy (epsilon, delta)-DP."""
    if sensitivity <= 0:
        raise ValueError("sensitivity must be > 0")
    orders = release_orders() if orders is None else orders
    # a Gaussian query is the q=1 edge of the subsampled mechanism
    mult = calibrate_noise(epsilon, delta, q=1.0, steps=queries, orders=orders)
    return mult * sensitivity


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
    rng = np.random.default_rng() if rng is None else rng
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


def dp_quantile(values: Sequence[float], target: float, bound: float,
                epsilon: float, delta: float, steps: int = 20, lr: float = 0.2,
                rng: Optional[np.random.Generator] = None,
                zero_noise: bool = False) -> float:
    """Iterative DP quantile from noisy below-threshold fractions, its
    `steps` counting queries calibrated to (epsilon, delta) on their own."""
    v = _clamped(values, bound)
    if not 0.0 < target < 1.0:
        raise ValueError("quantile target must be in (0, 1)")
    std = 0.0 if zero_noise or epsilon == math.inf \
        else calibrate_gaussian_scale(1.0, epsilon, delta, queries=steps)
    return _noisy_quantile(v, target, bound, std, steps, lr, rng)


@dataclass
class ReleasedStats:
    mean: float
    quantiles: dict
    budget: dict
    zero_noise: bool

    def to_json(self, path: str) -> None:
        doc = {
            "format": "idpacct-release",
            "version": 2,
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
        mean_scale = count_scale = 0.0
        realized_eps, realized_order = 0.0, 0
    else:
        m = calibrate_gaussian_scale(1.0, config.epsilon, config.delta,
                                     orders=config.orders)
        mean_scale = m * math.sqrt(shares) * config.bound / n
        count_scale = m * math.sqrt(shares * steps)
        # recompose the scales actually used: 1/m^2 = sum_j 1/m_j^2
        inv_sq = ((config.bound / n) / mean_scale) ** 2 \
            + len(config.quantiles) * steps / count_scale ** 2
        realized_eps, realized_order = rdp_to_dp(
            gaussian_rdp_curve(1.0 / math.sqrt(inv_sq), config.orders), config.delta)
        if realized_eps > config.epsilon:
            raise BudgetInfeasibleError(
                f"composed budget {realized_eps:.6f} exceeds configured "
                f"{config.epsilon:.6f}")

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
        "realized_order": int(realized_order),
    }
    return ReleasedStats(mean=mean, quantiles=quantiles, budget=budget,
                         zero_noise=config.zero_noise)
