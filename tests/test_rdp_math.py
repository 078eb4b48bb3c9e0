"""Tests for RDP curves, composition, the DP conversion, noise calibration,
and the independent quadrature oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpacct import rdp_math
from idpacct.rdp_math import (
    CalibrationError,
    GridMismatchError,
    InfeasibleTargetError,
    RdpCurve,
    calibrate_noise,
    compose,
    default_orders,
    gaussian_rdp,
    gaussian_rdp_curve,
    rdp_to_dp,
    sgm_rdp_curve,
    sgm_rdp_int,
    sgm_rdp_quadrature_oracle,
)

from conftest import max_rel_diff


# ------------------------------------------------------------ gaussian ---

def test_gaussian_rdp_examples():
    assert gaussian_rdp(2.0, 3) == pytest.approx(0.375, abs=0)
    assert gaussian_rdp(1.0, 2) == pytest.approx(1.0, abs=0)
    assert gaussian_rdp(10.0, 2) == pytest.approx(0.01, rel=1e-15, abs=0.0)


def test_gaussian_rdp_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gaussian_rdp(0.0, 2)
    with pytest.raises(ValueError):
        gaussian_rdp(1.0, 1)


# ------------------------------------------------------- closed form ---

def test_sgm_rdp_int_zero_sampling():
    assert sgm_rdp_int(0.0, 1.0, 2) == 0.0


def test_sgm_rdp_int_full_sampling_is_gaussian():
    assert sgm_rdp_int(1.0, 2.0, 3) == pytest.approx(0.375, rel=1e-15, abs=0.0)


def test_sgm_rdp_int_hand_evaluated_three_term_sum():
    # alpha=2: A = (1-q)^2 + 2(1-q)q + q^2 e^{1/sigma^2} = 1 + q^2 (e - 1),
    # rho = ln A, taken through log1p because ln of a sum near 1 cancels
    q = 0.01
    expected = math.log1p(q * q * math.expm1(1.0))
    assert sgm_rdp_int(q, 1.0, 2) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert expected == pytest.approx(1.718e-4, rel=1e-3, abs=0.0)


def test_sgm_rdp_curve_zero_sampling_all_zero():
    curve = sgm_rdp_curve(0.0, 1.0, np.asarray([2, 3, 4]))
    assert np.all(curve.values == 0.0)


def test_sgm_rdp_curve_full_sampling_matches_gaussian_curve():
    curve = sgm_rdp_curve(1.0, 1.0, np.asarray([2, 4]))
    assert curve.values == pytest.approx([1.0, 2.0], rel=1e-15, abs=0.0)
    gauss = gaussian_rdp_curve(1.0, np.asarray([2, 4]))
    assert np.array_equal(curve.values, gauss.values)


def test_sgm_rdp_curve_matches_quadrature_on_default_grid():
    curve = sgm_rdp_curve(0.01, 0.5, default_orders())
    for alpha, rho in zip(curve.orders, curve.values):
        if alpha > 40:       # oracle integrand underflows usefully far out
            continue
        oracle = sgm_rdp_quadrature_oracle(0.01, 0.5, int(alpha))
        assert rho == pytest.approx(oracle, rel=1e-6, abs=0.0)


# ------------------------------------------------------------- curves ---

def test_curve_validation():
    orders = np.asarray([2, 3])
    with pytest.raises(ValueError):
        RdpCurve(orders, np.asarray([0.1]))          # length mismatch
    with pytest.raises(ValueError):
        RdpCurve(orders, np.asarray([-0.5, 0.1]))    # genuinely negative
    with pytest.raises(ValueError):
        RdpCurve(np.asarray([2, 2]), np.asarray([0.1, 0.1]))  # not increasing
    c = RdpCurve(orders, np.asarray([-1e-12, 0.1]))  # tiny negative clamps
    assert c.values[0] == 0.0


def test_compose_identity_and_doubling():
    orders = np.asarray([2, 5, 16])
    zero = RdpCurve.zero(orders)
    c = RdpCurve(orders, np.asarray([0.25, 0.5, 1.5]))
    assert np.array_equal(compose(zero, c).values, c.values)
    assert np.array_equal(compose(c, c).values, 2 * c.values)


def test_compose_associative_on_dyadic_values():
    orders = np.asarray([2, 3])
    a = RdpCurve(orders, np.asarray([0.25, 0.5]))
    b = RdpCurve(orders, np.asarray([0.125, 1.0]))
    c = RdpCurve(orders, np.asarray([2.0, 0.0625]))
    left = compose(compose(a, b), c)
    right = compose(a, compose(b, c))
    assert np.array_equal(left.values, right.values)


def test_compose_grid_mismatch():
    a = RdpCurve(np.asarray([2, 3]), np.asarray([0.1, 0.1]))
    b = RdpCurve(np.asarray([2, 4]), np.asarray([0.1, 0.1]))
    with pytest.raises(GridMismatchError):
        compose(a, b)


def test_scaled_matches_repeated_compose():
    c = RdpCurve(np.asarray([2, 8]), np.asarray([0.3, 0.7]))
    assert np.allclose(c.scaled(5).values, compose(compose(c, c),
                                                   compose(c, compose(c, c))).values,
                       rtol=1e-15)


# --------------------------------------------------------- conversion ---

def test_rdp_to_dp_single_order():
    eps, order = rdp_to_dp(RdpCurve(np.asarray([2]), np.asarray([0.1])), 1e-5)
    assert order == 2
    assert eps == pytest.approx(0.1 + math.log(1e5), rel=1e-12, abs=0.0)
    assert eps == pytest.approx(11.6129, abs=5e-5)


def test_rdp_to_dp_order_33():
    eps, order = rdp_to_dp(RdpCurve(np.asarray([33]), np.asarray([1.0])), 1e-5)
    assert eps == pytest.approx(1.0 + math.log(1e5) / 32, rel=1e-12, abs=0.0)
    assert eps == pytest.approx(1.3598, abs=5e-5)


def test_rdp_to_dp_zero_curve_minimized_at_largest_order():
    orders = default_orders()
    eps, order = rdp_to_dp(RdpCurve.zero(orders), 1e-5)
    assert order == orders[-1]
    assert eps == pytest.approx(math.log(1e5) / (orders[-1] - 1), rel=1e-12, abs=0.0)


def test_rdp_to_dp_tie_prefers_smallest_order():
    # craft totals that are equal at every order: rho = K - log(1/d)/(a-1)
    orders = np.asarray([2, 4, 8])
    delta = 1e-5
    k = 15.0        # large enough that rho stays positive at every order
    rho = k - math.log(1 / delta) / (orders - 1.0)
    eps, order = rdp_to_dp(RdpCurve(orders, rho), delta)
    assert order == 2
    assert eps == pytest.approx(k, rel=1e-12, abs=0.0)


def test_rdp_to_dp_rejects_bad_delta():
    c = RdpCurve(np.asarray([2]), np.asarray([0.1]))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            rdp_to_dp(c, bad)


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(1.001, 10.0), rho0=st.floats(1e-6, 5.0))
def test_rdp_to_dp_monotone_in_curve(scale, rho0):
    orders = default_orders()
    base = RdpCurve(orders, rho0 * np.sqrt(orders.astype(float)))
    bigger = RdpCurve(orders, base.values * scale)
    assert rdp_to_dp(bigger, 1e-5)[0] >= rdp_to_dp(base, 1e-5)[0]


# -------------------------------------------------------- calibration ---

@pytest.mark.parametrize("target", [1.0, 3.0, 8.0])
def test_calibration_round_trip(target):
    sigma = calibrate_noise(target, 1e-5, q=0.01, steps=1000)
    curve = sgm_rdp_curve(0.01, sigma, default_orders()).scaled(1000)
    eps, _ = rdp_to_dp(curve, 1e-5)
    assert target - 1e-3 <= eps <= target


@pytest.mark.parametrize("target,q,steps", [
    (1.0, 0.01, 1000), (3.0, 0.01, 1000), (8.0, 0.01, 1000),
    (8.0, 0.05, 400), (8.0, 4096 / 50000, 3600), (0.5, 1.0, 6),
])
def test_calibration_batches_kernel_calls(monkeypatch, target, q, steps):
    calls = []
    kernel = rdp_math.sgm_rdp_matrix

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(rdp_math, "sgm_rdp_matrix", counted)
    sigma = calibrate_noise(target, 1e-5, q=q, steps=steps)
    assert len(calls) <= 5
    curve = sgm_rdp_curve(q, sigma, default_orders()).scaled(steps)
    eps, _ = rdp_to_dp(curve, 1e-5)
    assert target - 1e-3 <= eps <= target


def test_calibration_monotone_in_target():
    s_small = calibrate_noise(1.0, 1e-5, q=0.02, steps=500)
    s_big = calibrate_noise(8.0, 1e-5, q=0.02, steps=500)
    assert s_big < s_small


def test_calibration_large_scale_round_trip():
    q = 4096 / 50000
    sigma = calibrate_noise(8.0, 1e-5, q=q, steps=3600)
    eps, _ = rdp_to_dp(sgm_rdp_curve(q, sigma, default_orders()).scaled(3600), 1e-5)
    assert 8.0 - 1e-3 <= eps <= 8.0


def test_calibration_infeasible_target():
    with pytest.raises(InfeasibleTargetError):
        calibrate_noise(1e-9, 1e-5, q=0.5, steps=10 ** 6)


def test_calibration_rejects_bad_inputs():
    with pytest.raises(ValueError):
        calibrate_noise(-1.0, 1e-5, q=0.1, steps=10)
    with pytest.raises(ValueError):
        calibrate_noise(1.0, 1e-5, q=0.1, steps=0)
    with pytest.raises(ValueError):
        calibrate_noise(1.0, 1e-5, q=0.1, steps=10, tol=0.0)


# --------------------------------------------------------- quadrature ---

def test_quadrature_gaussian_edge_both_directions():
    for direction in ("mixture_vs_base", "base_vs_mixture"):
        val = sgm_rdp_quadrature_oracle(1.0, 1.0, 2, direction=direction)
        assert val == pytest.approx(1.0, rel=1e-9, abs=0.0)


def test_quadrature_zero_sampling_both_directions():
    for direction in ("mixture_vs_base", "base_vs_mixture"):
        assert sgm_rdp_quadrature_oracle(0.0, 1.0, 2, direction=direction) == 0.0


def test_quadrature_matches_closed_form():
    got = sgm_rdp_quadrature_oracle(0.01, 1.0, 2, direction="mixture_vs_base")
    assert got == pytest.approx(sgm_rdp_int(0.01, 1.0, 2), rel=1e-6, abs=0.0)


def test_quadrature_rejects_unknown_direction():
    with pytest.raises(ValueError):
        sgm_rdp_quadrature_oracle(0.1, 1.0, 2, direction="sideways")


@pytest.mark.parametrize("q,sigma,alpha", [
    (0.01, 1.0, 3), (0.1, 2.0, 5), (0.3, 1.0, 8), (0.05, 0.7, 16),
])
def test_closed_form_dominates_reverse_direction(q, sigma, alpha):
    # the reported value is the mixture-vs-base direction, which is the
    # larger of the two divergences for this mechanism
    forward = sgm_rdp_int(q, sigma, alpha)
    reverse = sgm_rdp_quadrature_oracle(q, sigma, alpha, direction="base_vs_mixture")
    assert forward >= reverse - 1e-9 * max(1.0, forward)
