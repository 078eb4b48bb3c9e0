"""Tests for the private release of epsilon statistics: Gaussian mean,
iterative quantiles, budget self-accounting, and the released-stats file."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from idpacct import release
from idpacct.release import (
    BudgetInfeasibleError,
    ReleaseConfig,
    calibrate_gaussian_scale,
    dp_mean,
    dp_quantile,
    release_all,
)


# -------------------------------------------------------------- dp_mean ---

def test_dp_mean_zero_noise_exact():
    assert dp_mean([1.0, 2.0, 3.0], bound=8.0, epsilon=0.5, delta=1e-5,
                   zero_noise=True) == 2.0


def test_dp_mean_clamps_above_bound():
    got = dp_mean([9.0, 12.0, 100.0], bound=8.0, epsilon=0.5, delta=1e-5,
                  zero_noise=True)
    assert got == 8.0


def test_dp_mean_clamps_below_zero():
    got = dp_mean([-3.0, -1.0], bound=8.0, epsilon=0.5, delta=1e-5,
                  zero_noise=True)
    assert got == 0.0


def test_dp_mean_rejects_empty():
    with pytest.raises(ValueError):
        dp_mean([], bound=8.0, epsilon=0.5, delta=1e-5)


def test_dp_mean_error_within_three_sigma_in_95_of_100_trials():
    values = np.random.default_rng(0).uniform(0, 8, 10_000)
    true = float(np.mean(values))
    scale = calibrate_gaussian_scale(8.0 / values.size, 0.05, 1e-5)
    hits = 0
    for seed in range(100):
        released = dp_mean(values, 8.0, 0.05, 1e-5, rng=np.random.default_rng(1000 + seed))
        if abs(released - true) <= 3 * scale:
            hits += 1
    assert scale > 0
    assert hits >= 95


# ---------------------------------------------------------- dp_quantile ---

def test_dp_quantile_zero_noise_median_of_1_to_100():
    values = np.arange(1, 101, dtype=float)
    got = dp_quantile(values, 0.5, bound=100.0, epsilon=0.5, delta=1e-5,
                      zero_noise=True)
    assert abs(got - np.median(values)) <= 5.0


@pytest.mark.parametrize("v", [4.0, 6.0])
def test_dp_quantile_degenerate_distribution(v):
    # every value equal: within 10% for every default target (zero noise);
    # convergence of the 20-step geometric update from B/2 limits how far
    # from mid-range this holds, hence the mid-range choices of v
    values = np.full(500, v)
    for target in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = dp_quantile(values, target, bound=8.0, epsilon=0.5, delta=1e-5,
                          zero_noise=True)
        assert abs(got - v) <= 0.1 * v


def test_dp_quantile_uniform_tail_accuracy_over_trials():
    values = np.random.default_rng(7).uniform(0, 8, 10_000)
    true = float(np.quantile(values, 0.9))
    hits = 0
    for seed in range(100):
        got = dp_quantile(values, 0.9, bound=8.0, epsilon=0.05, delta=1e-5,
                          rng=np.random.default_rng(2000 + seed))
        if abs(got - true) <= 0.5:
            hits += 1
    assert hits >= 90


def test_dp_quantile_budget_infeasible_for_tiny_population():
    with pytest.raises(BudgetInfeasibleError):
        dp_quantile(np.arange(20.0), 0.5, bound=8.0, epsilon=0.01, delta=1e-5)


def test_dp_quantile_rejects_bad_target():
    with pytest.raises(ValueError):
        dp_quantile(np.arange(100.0), 0.0, bound=8.0, epsilon=0.5, delta=1e-5)


# ---------------------------------------------------------- calibration ---

def test_gaussian_scale_monotone_in_budget():
    tight = calibrate_gaussian_scale(1.0, 0.05, 1e-5)
    loose = calibrate_gaussian_scale(1.0, 1.0, 1e-5)
    assert tight > loose > 0


def test_gaussian_scale_proportional_to_sensitivity():
    a = calibrate_gaussian_scale(1.0, 0.3, 1e-5)
    b = calibrate_gaussian_scale(2.5, 0.3, 1e-5)
    assert b == pytest.approx(2.5 * a, rel=1e-12, abs=0.0)


def test_gaussian_scale_grows_with_query_count():
    one = calibrate_gaussian_scale(1.0, 0.3, 1e-5, queries=1)
    twenty = calibrate_gaussian_scale(1.0, 0.3, 1e-5, queries=20)
    assert twenty > one


# ------------------------------------------------------------ release_all ---

def _mid_range_values(n=10_000, seed=0) -> np.ndarray:
    return np.random.default_rng(seed).uniform(2.5, 6.0, n)


def test_release_all_zero_noise_near_exact():
    v = _mid_range_values()
    stats = release_all(v, ReleaseConfig(epsilon=0.5, bound=8.0, zero_noise=True))
    assert stats.mean == float(np.mean(np.clip(v, 0, 8)))
    for frac, est in stats.quantiles.items():
        assert abs(est - float(np.quantile(v, float(frac)))) <= 0.05


def test_release_all_zero_noise_monotone_targets():
    v = _mid_range_values()
    stats = release_all(v, ReleaseConfig(epsilon=0.5, bound=8.0, zero_noise=True))
    estimates = [stats.quantiles[k] for k in sorted(stats.quantiles, key=float)]
    assert all(a <= b + 1e-12 for a, b in zip(estimates, estimates[1:]))


def test_release_all_realized_budget_never_exceeds_configured():
    v = _mid_range_values(2000, 3)
    for eps in (0.3, 1.0, 4.0):
        stats = release_all(v, ReleaseConfig(epsilon=eps, bound=8.0, seed=11))
        assert stats.budget["realized_epsilon"] <= eps + 1e-9


@pytest.mark.parametrize("eps", [0.1, 0.3, 1.0, 4.0])
def test_release_all_spends_the_configured_budget(eps):
    # the whole release is one calibrated Gaussian, so the realized budget
    # lands in the calibration window just below the configured one (n is
    # large enough that the count noise at eps = 0.1 stays under n/4)
    stats = release_all(_mid_range_values(), ReleaseConfig(epsilon=eps, bound=8.0))
    assert eps - 1e-3 <= stats.budget["realized_epsilon"] <= eps


def test_release_all_calibrates_once(monkeypatch):
    calls = []
    calibrate = release.calibrate_noise

    def counted(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(release, "calibrate_noise", counted)
    release_all(_mid_range_values(2000, 3), ReleaseConfig(epsilon=1.0, bound=8.0))
    assert len(calls) == 1    # one per release, not one per statistic


def test_release_all_splits_one_multiplier_evenly():
    # mean std = m sqrt(1+Q) B/n, count std = m sqrt((1+Q) S) for one m
    v = _mid_range_values(2000, 3)
    cfg = ReleaseConfig(epsilon=1.0, bound=8.0)
    budget = release_all(v, cfg).budget
    shares, steps = 1 + len(cfg.quantiles), cfg.quantile_steps
    m = calibrate_gaussian_scale(1.0, 1.0, cfg.delta)
    assert budget["mean_noise_scale"] == pytest.approx(
        m * math.sqrt(shares) * 8.0 / v.size, rel=1e-12, abs=0.0)
    assert budget["count_noise_scale"] == pytest.approx(
        m * math.sqrt(shares * steps), rel=1e-12, abs=0.0)
    assert "per_release_epsilon" not in budget


def test_release_all_estimates_stay_in_bounds():
    v = np.random.default_rng(5).uniform(0, 20, 5000)       # above the cap
    stats = release_all(v, ReleaseConfig(epsilon=1.0, bound=8.0, seed=2))
    assert 0.0 <= stats.mean <= 8.0 + 5 * stats.budget["mean_noise_scale"]
    for est in stats.quantiles.values():
        assert 0.0 <= est <= 8.0


def test_release_all_seeded_reproducibility():
    v = _mid_range_values(2000, 4)
    cfg = ReleaseConfig(epsilon=0.8, bound=8.0, seed=42)
    a = release_all(v, cfg)
    b = release_all(v, cfg)
    c = release_all(v, ReleaseConfig(epsilon=0.8, bound=8.0, seed=43))
    assert a.mean == b.mean and a.quantiles == b.quantiles
    assert c.mean != a.mean


def test_release_all_table_style_synthetic():
    # right-skewed value population with known quantiles (piecewise-linear
    # inverse CDF), released under a 0.1 total budget: the mean comes back
    # within a few percent; quantiles are directionally right but limited
    # by the 20-step estimator
    qs = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]
    vals = [0.0, 0.236, 0.318, 0.431, 0.697, 1.682, 2.0]
    u = np.random.default_rng(1).uniform(0, 1, 60_000)
    population = np.interp(u, qs, vals)
    stats = release_all(population, ReleaseConfig(epsilon=0.1, bound=2.0, seed=3))
    true_mean = float(np.mean(population))
    assert abs(stats.mean - true_mean) / true_mean <= 0.05
    for frac, est in stats.quantiles.items():
        true = float(np.quantile(population, float(frac)))
        assert abs(est - true) <= max(0.25 * true, 0.1)
    assert stats.budget["realized_epsilon"] <= 0.1


def test_released_stats_json_round_trip(tmp_path):
    v = _mid_range_values(1000, 6)
    stats = release_all(v, ReleaseConfig(epsilon=0.7, bound=8.0, seed=9))
    path = tmp_path / "release.json"
    stats.to_json(str(path))
    doc = json.loads(path.read_text())
    assert (doc["format"], doc["version"]) == ("idpacct-release", 2)
    assert doc["mean"] == stats.mean
    assert {float(k): v for k, v in doc["quantiles"].items()} == stats.quantiles
    assert doc["budget"] == stats.budget
    assert doc["zero_noise"] is stats.zero_noise


def test_release_config_validation():
    with pytest.raises(ValueError):
        ReleaseConfig(epsilon=0.0, bound=8.0)
    with pytest.raises(ValueError):
        ReleaseConfig(epsilon=1.0, bound=-1.0)
    with pytest.raises(ValueError):
        ReleaseConfig(epsilon=1.0, bound=8.0, quantiles=(0.5, 1.5))
    base = dict(epsilon=1.0, bound=8.0)
    for name, value, message in [
        ("epsilon", True, "epsilon must be a number"),
        ("bound", True, "bound must be a number"),
        ("delta", True, "delta must be a number"),
        ("quantile_lr", True, "quantile_lr must be a number"),
        ("quantile_steps", True, "quantile_steps must be a number"),
        ("seed", False, "seed must be a number"),
        ("epsilon", math.inf, "epsilon must be finite"),
        ("epsilon", math.nan, "epsilon must be finite"),
        ("bound", math.nan, "bound must be finite"),
        ("quantile_lr", math.nan, "quantile_lr must be finite"),
        ("quantile_lr", math.inf, "quantile_lr must be finite"),
        ("quantile_steps", 2.0, "quantile_steps must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("quantiles", (0.1, 0.5, 0.5), "quantiles must be distinct"),
    ]:
        with pytest.raises(ValueError, match=message):
            ReleaseConfig(**dict(base, **{name: value}))
