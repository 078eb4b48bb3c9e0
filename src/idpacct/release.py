"""Differentially private release of statistics of the per-example epsilon
values.

Adjacency is replace-one on the value vector with public length n and
public clamp bound B (the worst-case epsilon, derived from configuration,
not data).  The mean uses one Gaussian query of sensitivity B/n; each
quantile runs a fixed number of noisy below-threshold counting queries
(sensitivity 1) driving the geometric update
Q <- Q * exp(-eta * (fraction - target)).  Every query's noise scale is
calibrated against an even share of the total budget, and the realized
budget is recomputed by composing all constituent Gaussian RDP curves and
converting once — so the reported guarantee is measured, not assumed.

Shares of a small total budget need Renyi orders far beyond the
accountant's default grid, hence the wider grid here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._fileio import atomic_write_text
from .rdp_math import (RdpCurve, _check_orders, calibrate_noise, compose,
                       gaussian_rdp_curve, rdp_to_dp)


class BudgetInfeasibleError(RuntimeError):
    """The requested budget cannot be met with usable noise levels."""


def release_orders() -> np.ndarray:
    """Order grid for release accounting: {2..64} plus powers of two up to
    16384 (tiny per-query budgets minimize at orders in the thousands)."""
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
        for name in ("epsilon", "bound", "delta", "quantile_steps", "quantile_lr", "seed"):
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        for name in ("epsilon", "bound", "quantile_lr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("quantile_steps", "seed"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.epsilon <= 0:
            raise ValueError("release budget epsilon must be > 0")
        if self.bound <= 0:
            raise ValueError("value bound must be > 0")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        qs = list(self.quantiles)
        if any(not 0.0 < q < 1.0 for q in qs):
            raise ValueError("quantile targets must be in (0, 1)")
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


def dp_mean(values: Sequence[float], bound: float, epsilon: float, delta: float,
            rng: Optional[np.random.Generator] = None,
            zero_noise: bool = False) -> float:
    """Clamped mean plus calibrated Gaussian noise (sensitivity B/n)."""
    released, _ = _dp_mean_with_scale(values, bound, epsilon, delta, rng, zero_noise)
    return released


def _dp_mean_with_scale(values, bound, epsilon, delta, rng=None, zero_noise=False):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if bound <= 0:
        raise ValueError("bound must be > 0")
    clamped = float(np.mean(np.clip(v, 0.0, bound)))
    if zero_noise or epsilon == math.inf:
        return clamped, 0.0
    scale = calibrate_gaussian_scale(bound / v.size, epsilon, delta)
    rng = np.random.default_rng() if rng is None else rng
    return clamped + scale * float(rng.standard_normal()), scale


def dp_quantile(values: Sequence[float], target: float, bound: float,
                epsilon: float, delta: float, steps: int = 20, lr: float = 0.2,
                rng: Optional[np.random.Generator] = None,
                zero_noise: bool = False) -> float:
    """Iterative DP quantile from noisy below-threshold fractions."""
    q, _ = _dp_quantile_with_scale(values, target, bound, epsilon, delta,
                                   steps, lr, rng, zero_noise)
    return q


def _dp_quantile_with_scale(values, target, bound, epsilon, delta,
                            steps=20, lr=0.2, rng=None, zero_noise=False):
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    if not 0.0 < target < 1.0:
        raise ValueError("quantile target must be in (0, 1)")
    if bound <= 0:
        raise ValueError("bound must be > 0")
    n = v.size
    v = np.clip(v, 0.0, bound)
    if zero_noise or epsilon == math.inf:
        scale = 0.0
    else:
        scale = calibrate_gaussian_scale(1.0, epsilon, delta, queries=steps)
        if scale > n / 4:
            raise BudgetInfeasibleError(
                f"count noise scale {scale:.1f} exceeds n/4 = {n / 4:.1f}; "
                f"the noisy fractions would be meaningless")
    rng = np.random.default_rng() if rng is None else rng
    floor = 1e-6 * bound
    q = bound / 2.0
    for _ in range(steps):
        count = float(np.sum(v <= q))
        if scale > 0.0:
            count += scale * float(rng.standard_normal())
        frac = count / n
        q = min(max(q * math.exp(-lr * (frac - target)), floor), bound)
    return float(q), scale


@dataclass
class ReleasedStats:
    mean: float
    quantiles: dict
    budget: dict
    zero_noise: bool

    def to_json(self, path: str) -> None:
        doc = {
            "format": "idpacct-release",
            "version": 1,
            "mean": self.mean,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "budget": self.budget,
            "zero_noise": self.zero_noise,
        }
        atomic_write_text(path, json.dumps(doc, indent=1) + "\n")

    @classmethod
    def from_json(cls, path: str) -> "ReleasedStats":
        with open(path) as f:
            doc = json.load(f)
        if doc.get("format") != "idpacct-release":
            raise ValueError(f"{path}: not a release file")
        if doc.get("version") != 1:
            raise ValueError(f"{path}: unsupported release version {doc.get('version')!r}")
        return cls(mean=doc["mean"],
                   quantiles={float(k): v for k, v in doc["quantiles"].items()},
                   budget=doc["budget"], zero_noise=doc["zero_noise"])


def release_all(values: Sequence[float], config: ReleaseConfig) -> ReleasedStats:
    """Release the clamped mean and the configured quantiles, splitting the
    budget evenly across the 1 + len(quantiles) releases, then recompute
    the realized budget by composing every constituent query's RDP curve."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("values must be a non-empty 1-D sequence")
    rng = np.random.default_rng(config.seed)
    shares = 1 + len(config.quantiles)
    share = config.epsilon / shares

    mean, mean_scale = _dp_mean_with_scale(
        v, config.bound, share, config.delta, rng, config.zero_noise)
    quantiles = {}
    count_scale = 0.0
    for t in config.quantiles:
        quantiles[t], count_scale = _dp_quantile_with_scale(
            v, t, config.bound, share, config.delta, config.quantile_steps,
            config.quantile_lr, rng, config.zero_noise)

    if config.zero_noise:
        realized_eps, realized_order = 0.0, 0
    else:
        mean_mult = mean_scale / (config.bound / v.size)
        total = gaussian_rdp_curve(mean_mult, config.orders)
        per_quantile = gaussian_rdp_curve(count_scale, config.orders) \
            .scaled(config.quantile_steps)
        for _ in config.quantiles:
            total = compose(total, per_quantile)
        realized_eps, realized_order = rdp_to_dp(total, config.delta)
        if realized_eps > config.epsilon + 1e-9:
            raise BudgetInfeasibleError(
                f"composed budget {realized_eps:.6f} exceeds configured "
                f"{config.epsilon:.6f}")

    budget = {
        "configured_epsilon": config.epsilon,
        "delta": config.delta,
        "per_release_epsilon": share,
        "mean_noise_scale": mean_scale,
        "count_noise_scale": count_scale,
        "realized_epsilon": realized_eps,
        "realized_order": int(realized_order),
    }
    return ReleasedStats(mean=mean, quantiles=quantiles, budget=budget,
                         zero_noise=config.zero_noise)
