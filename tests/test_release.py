"""Tests for the private release of epsilon statistics: Gaussian mean,
iterative quantiles, budget self-accounting, and the released-stats file."""

from __future__ import annotations

import json
import math
import re
from decimal import Decimal

import numpy as np
import pytest

from idpacct import release
from idpacct.rdp_math import calibrate_noise
from idpacct.release import (
    BudgetInfeasibleError,
    ReleaseConfig,
    calibrate_gaussian_scale,
    dp_mean,
    gaussian_delta,
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


# ----------------------------------------- DP quantiles (release_all) ---

def _quantile(values, target, epsilon, bound, **kwargs) -> tuple[float, dict]:
    """One released quantile and the release's budget record."""
    stats = release_all(values, ReleaseConfig(epsilon=epsilon, bound=bound,
                                              quantiles=(target,), **kwargs))
    return stats.quantiles[target], stats.budget


def test_dp_quantile_zero_noise_median_of_1_to_100():
    values = np.arange(1, 101, dtype=float)
    got, _ = _quantile(values, 0.5, 0.5, 100.0, zero_noise=True)
    assert abs(got - np.median(values)) <= 5.0


@pytest.mark.parametrize("v", [4.0, 6.0])
def test_dp_quantile_degenerate_distribution(v):
    # every value equal: within 10% for every default target (zero noise);
    # convergence of the 20-step geometric update from B/2 limits how far
    # from mid-range this holds, hence the mid-range choices of v
    values = np.full(500, v)
    stats = release_all(values, ReleaseConfig(epsilon=0.5, bound=8.0, zero_noise=True))
    assert sorted(stats.quantiles) == [0.1, 0.3, 0.5, 0.7, 0.9]
    for got in stats.quantiles.values():
        assert abs(got - v) <= 0.1 * v


def test_dp_quantile_uniform_tail_accuracy_over_trials():
    # at least as much count noise as the quantile once had calibrated on
    # its own (258.36 at epsilon 0.05 over 20 steps): the mean's share of
    # the one Gaussian costs the rest of epsilon 0.07
    values = np.random.default_rng(7).uniform(0, 8, 10_000)
    true = float(np.quantile(values, 0.9))
    hits = 0
    for seed in range(100):
        got, budget = _quantile(values, 0.9, 0.07, 8.0, seed=2000 + seed)
        assert budget["count_noise_scale"] == pytest.approx(269.19, abs=0.01)
        if abs(got - true) <= 0.5:
            hits += 1
    assert hits >= 90


def test_dp_quantile_budget_infeasible_for_tiny_population():
    with pytest.raises(BudgetInfeasibleError, match="exceeds n/4"):
        _quantile(np.arange(20.0), 0.5, 0.01, 8.0)


def test_dp_quantile_rejects_bad_target():
    with pytest.raises(ValueError, match=re.escape("quantile targets must be in (0, 1)")):
        _quantile(np.arange(100.0), 0.0, 0.5, 8.0)


# ---------------------------------------------------------- calibration ---

# (epsilon, m, exact delta to 40 digits): Phi(1/(2m) - eps m)
# - e^eps Phi(-1/(2m) - eps m) at the exact binary values of the float
# literals, computed once with mpmath at 60 digits.  Each m is the calibrated
# multiplier for delta 1e-3, 1e-5, 1e-9 or 1e-12, rounded to 6 digits.
_PROFILE = [
    (0.01, 93.9074, "1.000000580390874068174159564689204752891e-3"),
    (0.01, 243.785, "1.000015124654842517167273503735952177709e-5"),
    (0.01, 458.508, "1.000025828265933627313622971132106878048e-9"),
    (0.01, 578.998, "9.999916484988341592613111706173124671521e-13"),
    (0.1, 17.4044, "9.999988444274735070904364219000107970802e-4"),
    (0.1, 30.7496, "9.999867116348835862207416955230831641891e-6"),
    (0.1, 50.2098, "1.000010192072709581646485319006729957225e-9"),
    (0.1, 61.5391, "9.999708211111286203015070157336638194089e-13"),
    (1.0, 2.57466, "9.999894463338613001521801625441382837642e-4"),
    (1.0, 3.73063, "1.000007275975547058569341855377070896516e-5"),
    (1.0, 5.49527, "9.999769049367758655386640787589738959604e-10"),
    (1.0, 6.55782, "1.000014464119385693423663660148278547958e-12"),
    (10.0, 0.40606, "9.99980459424822016926589802299879154079e-4"),
    (10.0, 0.499889, "9.999795241941801532221873148495060845056e-6"),
    (10.0, 0.650247, "9.999944397179424468486095770704059543022e-10"),
    (10.0, 0.744612, "1.000025121087133552472266626772166226345e-12"),
]


@pytest.mark.parametrize("eps, m, exact", _PROFILE)
def test_gaussian_delta_matches_exact_profile(eps, m, exact):
    # never below the exact delta, and above it by at most the 1e-9
    # relative that the docstring states
    got = gaussian_delta(eps, m)
    assert Decimal(got) >= Decimal(exact)
    assert got == pytest.approx(float(exact), rel=1e-9, abs=0.0)


def test_gaussian_delta_large_epsilon_overstates_only():
    # e^700 * Phi(-26.6) is past the subtracted term's cutoff: dropping it
    # must not overflow, and may only overstate delta (exact value from
    # mpmath as above)
    got = gaussian_delta(700.0, 0.03)
    assert Decimal(got) >= Decimal("6.45809486953753960398102582837744284556e-6")
    assert got <= 1.2 * 6.458094869537540e-6
    assert 0.0 < calibrate_gaussian_scale(1.0, 1000.0, 1e-5) < math.inf


@pytest.mark.parametrize("eps", [0.01, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("delta", [1e-12, 1e-5, 1e-3])
def test_gaussian_scale_is_least_multiplier_meeting_delta(eps, delta):
    m = calibrate_gaussian_scale(1.0, eps, delta)
    assert gaussian_delta(eps, m) <= delta < gaussian_delta(eps, m * (1 - 1e-7))


def test_exact_calibration_needs_no_more_noise_than_rdp():
    # the RDP route: a Gaussian query as the q = 1 edge of the subsampled
    # mechanism, converted over orders 2..64 and powers of two up to 16384
    orders = np.concatenate([np.arange(2, 65), 2 ** np.arange(7, 15)])
    for eps in np.geomspace(0.01, 10.0, 7):
        for delta in np.geomspace(1e-12, 1e-3, 4):
            rdp = calibrate_noise(eps, delta, q=1.0, steps=1, orders=orders,
                                  tol=1e-4 * eps)
            assert calibrate_gaussian_scale(1.0, eps, delta) <= rdp
    assert calibrate_gaussian_scale(1.0, 1.0, 1e-5) == pytest.approx(3.7306, abs=1e-4)
    assert calibrate_noise(1.0, 1e-5, q=1.0, steps=1, orders=orders) \
        == pytest.approx(4.9016, abs=1e-4)

def test_gaussian_scale_monotone_in_budget():
    tight = calibrate_gaussian_scale(1.0, 0.05, 1e-5)
    loose = calibrate_gaussian_scale(1.0, 1.0, 1e-5)
    assert tight > loose > 0


def test_gaussian_scale_proportional_to_sensitivity():
    a = calibrate_gaussian_scale(1.0, 0.3, 1e-5)
    b = calibrate_gaussian_scale(2.5, 0.3, 1e-5)
    assert b == pytest.approx(2.5 * a, rel=1e-12, abs=0.0)


def test_gaussian_scale_grows_with_query_count():
    # the counting queries of a release share its one multiplier, so the
    # count noise grows with their number
    v = _mid_range_values(2000, 3)
    one, twenty = (release_all(v, ReleaseConfig(epsilon=0.3, bound=8.0, quantile_steps=steps))
                   .budget["count_noise_scale"] for steps in (1, 20))
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
    calibrate = release.calibrate_gaussian_scale

    def counted(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(release, "calibrate_gaussian_scale", counted)
    release_all(_mid_range_values(2000, 3), ReleaseConfig(epsilon=1.0, bound=8.0))
    assert len(calls) == 1    # one per release, not one per statistic


def test_release_defaults_count_noise():
    # epsilon 1, 5 quantiles x 20 steps, n = 5,000, B = 8: the count std is
    # m sqrt(6 x 20) with m = 3.7306 (53.7 through the RDP bound)
    stats = release_all(_mid_range_values(5000), ReleaseConfig(epsilon=1.0, bound=8.0))
    assert stats.budget["count_noise_scale"] == pytest.approx(40.87, abs=0.01)
    assert stats.budget["mean_noise_scale"] == pytest.approx(
        3.7306 * math.sqrt(6) * 8.0 / 5000, rel=1e-4)


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
    assert (doc["format"], doc["version"]) == ("idpacct-release", 3)
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
        ("seed", -1, "seed must be >= 0, got -1"),        # used to fail in numpy
        ("quantiles", (0.1, 0.5, 0.5), "quantiles must be distinct"),
    ]:
        with pytest.raises(ValueError, match=message):
            ReleaseConfig(**dict(base, **{name: value}))
