"""Tests for sensitivity bucketing, the cached per-example ledger, report
invariants, and the adaptive-vs-fixed enumeration oracle."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpacct import accountant
from idpacct.accountant import (
    AccountantConfig,
    BucketCache,
    IndividualLedger,
    LedgerError,
    PrivacyReport,
    _round_array,
    round_to_bucket,
    worst_case_epsilon,
)
from idpacct.adaptive_oracle import (
    AdaptiveSpec,
    NonStochasticSpecError,
    coin_chain_spec,
    deterministic_spec,
    enumerate_adaptive_vs_fixed,
    random_spec,
)
from idpacct.dpsgd_sim import exact_reference_accounting
from idpacct.kernel import sgm_rdp_matrix
from idpacct.rdp_math import (
    RdpCurve,
    _eps_from_rdp,
    calibrate_noise,
    compose,
    rdp_to_dp,
    sgm_rdp_curve,
)


def _config(**overrides) -> AccountantConfig:
    base = dict(noise_std=1.0, max_clip=1.0, sampling_prob=0.1, rounding=0.01)
    base.update(overrides)
    return AccountantConfig(**base)


def _assert_matches_stepwise(ledger, buckets):
    """The ledger's accumulated RDP equals sum_t sgm_rdp_curve(q, sigma / z_t)
    over each example's per-step assigned buckets ((steps, n) ``buckets``),
    at 1e-12 relative."""
    cfg = ledger.config
    values, inverse = np.unique(np.asarray(buckets, dtype=np.float64), return_inverse=True)
    with np.errstate(divide="ignore"):
        curves = np.stack([sgm_rdp_curve(cfg.sampling_prob, cfg.noise_std / z,
                                         cfg.orders).values for z in values])
    want = curves[inverse.reshape(np.shape(buckets))].sum(axis=0)
    got = np.stack([ledger.accumulated_rdp(i).values for i in range(ledger.n)])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# ----------------------------------------------------------- rounding ---

def test_round_to_bucket_examples():
    assert round_to_bucket(0.444, 0.01, 1.0) == pytest.approx(0.44, abs=1e-12)
    assert round_to_bucket(0.445, 0.01, 1.0) == pytest.approx(0.45, abs=1e-12)
    assert round_to_bucket(0.0, 0.01, 1.0) == pytest.approx(0.01, abs=1e-12)


def test_round_to_bucket_caps_at_clip():
    # grid is {r, 2r, ..., C}; values at/near C stay on the grid
    assert round_to_bucket(1.0, 0.03, 1.0) == pytest.approx(1.0)
    assert round_to_bucket(0.999, 0.03, 1.0) == pytest.approx(1.0)


def test_round_to_bucket_rejects_out_of_range():
    with pytest.raises(ValueError):
        round_to_bucket(1.5, 0.01, 1.0)
    with pytest.raises(ValueError):
        round_to_bucket(0.5, 0.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(z=st.floats(0.0, 1.0), r=st.sampled_from([0.01, 0.05, 0.13, 1.0]))
def test_round_to_bucket_within_half_step(z, r):
    b = round_to_bucket(z, r, 1.0)
    grid = np.arange(1, math.ceil(1.0 / r) + 1) * r
    grid = np.minimum(grid, 1.0)
    assert any(abs(b - g) < 1e-12 for g in grid)
    # never further than one full step, and within half a step off the ends
    assert abs(b - z) <= r / 2 + 1e-12 or b in (grid[0], grid[-1])


def _round_array_reference(z, rounding, max_clip):
    """The neighbour-by-neighbour formula that _round_array must reproduce
    bit for bit."""
    jmax = int(math.ceil(max_clip / rounding))
    j = np.floor(z / rounding)
    lo = np.clip(j, 1, jmax)
    hi = np.clip(j + 1, 1, jmax)
    vlo = np.minimum(lo * rounding, max_clip)
    vhi = np.minimum(hi * rounding, max_clip)
    return np.where(vhi - z <= z - vlo, vhi, vlo)


@settings(max_examples=200, deadline=None)
@given(c=st.floats(1e-3, 1e3), steps=st.integers(1, accountant.MAX_BUCKETS),
       stretch=st.floats(1.0, 1.5),
       js=st.lists(st.integers(0, accountant.MAX_BUCKETS + 1), min_size=1, max_size=30),
       extra=st.lists(st.floats(0.0, 1.0), max_size=30))
def test_round_array_matches_reference_formula(c, steps, stretch, js, extra):
    # r = C / steps, sometimes nudged off so C is not a grid multiple
    r = min(c, c / steps * stretch)
    grid = np.asarray(js, dtype=np.float64) * r
    ties = (np.asarray(js, dtype=np.float64) + 0.5) * r
    z = np.concatenate([grid, ties, np.asarray(extra) * c, [0.0, c, r, c - r]])
    z = np.concatenate([z, np.nextafter(z, np.inf), np.nextafter(z, -np.inf)])
    z = np.clip(z, 0.0, c)
    got = _round_array(z, r, c)
    assert np.array_equal(got, _round_array_reference(z, r, c))
    assert got.dtype == np.float64
    # without the small values the intervals present start above j = 0
    upper = z[z >= c / 2]
    assert np.array_equal(_round_array(upper, r, c), _round_array_reference(upper, r, c))


# ------------------------------------------------------------- config ---

def test_config_validation():
    with pytest.raises(ValueError):
        _config(noise_std=0.0)
    with pytest.raises(ValueError):
        _config(sampling_prob=0.0)
    with pytest.raises(ValueError):
        _config(sampling_prob=1.5)
    with pytest.raises(ValueError):
        _config(rounding=-0.1)
    with pytest.raises(ValueError):
        _config(rounding=2.0)        # above max_clip
    with pytest.raises(ValueError):
        _config(frequency=0)
    for name, value in [("noise_std", math.inf), ("noise_std", math.nan),
                        ("max_clip", math.inf), ("max_clip", math.nan),
                        ("rounding", math.nan), ("rounding", math.inf)]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _config(**{name: value})
    for name in ("noise_std", "max_clip", "sampling_prob", "rounding", "delta", "frequency"):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            _config(**{name: True})
    assert _config(rounding=0.01).n_buckets == 100
    assert _config(rounding=0.0).n_buckets is None


def test_config_dict_round_trip():
    cfg = _config(frequency=7, delta=1e-6)
    again = AccountantConfig(**cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


# -------------------------------------------------------- assignments ---

def test_assignments_all_above_clip_map_to_clip():
    ledger = IndividualLedger(4, _config())
    ledger.update_assignments([1.0, 1.7, 55.0, 2.0])
    assert np.all(ledger.assigned_buckets() == 1.0)


def test_assignments_exact_mode_keeps_raw_norms():
    ledger = IndividualLedger(2, _config(rounding=0.0))
    ledger.update_assignments([0.2, 0.7])
    assert np.array_equal(ledger.assigned_buckets(), [0.2, 0.7])


def test_cache_bounded_by_grid_size(rng, monkeypatch):
    calls = []

    def counting(q, multipliers, orders):
        calls.append(len(multipliers))
        return sgm_rdp_matrix(q, multipliers, orders)

    monkeypatch.setattr(accountant, "sgm_rdp_matrix", counting)
    cfg = _config(rounding=0.01, frequency=2)
    ledger = IndividualLedger(10_000, cfg)
    buckets = []
    for t in range(6):
        if t % 2 == 0:
            # the first refresh reaches only half the grid
            ledger.update_assignments(rng.uniform(0.0, 0.5 * (t + 1), 10_000), step=t)
        buckets.append(ledger.assigned_buckets())
        ledger.record_step(t)
    ledger.epsilons()
    assert calls == [100]                      # the whole grid, once
    assert len(ledger.cache) == ledger.cache.misses == 100
    assert ledger.counts().shape == (10_000, cfg.orders.size)
    _assert_matches_stepwise(ledger, buckets)

    # the grid is built with _round_array's own expression, so indexing by
    # search finds exactly the rounded value, for any spacing and clip
    caches = {(r, c): BucketCache(_config(rounding=r, max_clip=c))
              for r in (0.007, 0.01, 0.03, 0.05, 0.13, 1.0) for c in (1.0, 2.5, 7.0)}

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(sorted(caches)), u=st.floats(0.0, 1.0))
    def index_round_trip(key, u):
        r, c = key
        z = np.asarray([u * c])
        cache = caches[key]
        got = cache.bucket_values[cache.indices_for(_round_array(z, r, c))]
        assert got[0] == round_to_bucket(z[0], r, c)

    index_round_trip()
    with pytest.raises(ValueError, match="grid"):
        caches[(0.01, 1.0)].indices_for(np.asarray([0.015]))

    with pytest.raises(ValueError, match="rounding=0"):
        _config(rounding=1e-9)                # 10^9 curves
    assert _config(rounding=1 / 8192).n_buckets == 8192


# ----------------------------------------------------------- counting ---

def test_static_assignments_count_every_step():
    ledger = IndividualLedger(3, _config())
    ledger.update_assignments([0.5, 0.7, 1.0])
    for t in range(7):
        ledger.record_step(t)
    _assert_matches_stepwise(ledger, [[0.5, 0.7, 1.0]] * 7)


def test_same_bucket_identical_curves():
    ledger = IndividualLedger(2, _config())
    ledger.update_assignments([0.41, 0.44])   # both round to 0.44? no: 0.41, 0.44
    ledger.update_assignments([0.4401, 0.4399])   # both round to 0.44
    for _ in range(5):
        ledger.record_step()
    a = ledger.accumulated_rdp(0)
    b = ledger.accumulated_rdp(1)
    assert np.array_equal(a.values, b.values)


def test_assignment_change_splits_counts():
    cfg = _config(frequency=2)
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([0.2], step=0)
    ledger.record_step(0)
    ledger.record_step(1)
    ledger.update_assignments([0.9], step=2)
    ledger.record_step(2)
    ledger.record_step(3)
    _assert_matches_stepwise(ledger, [[0.2], [0.2], [0.9], [0.9]])


def test_protocol_errors():
    ledger = IndividualLedger(1, _config(frequency=2))
    with pytest.raises(LedgerError):
        ledger.record_step()
    with pytest.raises(LedgerError):
        ledger.update_assignments([0.5], step=1)   # not a refresh step
    ledger.update_assignments([0.5], step=0)
    with pytest.raises(LedgerError):
        ledger.record_step(5)                      # wrong step index


def test_rejects_bad_norms():
    ledger = IndividualLedger(2, _config())
    with pytest.raises(ValueError):
        ledger.update_assignments([0.5])           # wrong length
    with pytest.raises(ValueError):
        ledger.update_assignments([-0.5, 0.1])
    with pytest.raises(ValueError):
        ledger.update_assignments([np.nan, 0.1])


# -------------------------------------------------------- accumulation ---

def test_zero_steps_zero_curve():
    ledger = IndividualLedger(1, _config())
    ledger.update_assignments([0.5])
    assert np.all(ledger.accumulated_rdp(0).values == 0.0)


def test_single_bucket_scales_single_step_curve():
    cfg = _config()
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([0.5])
    for _ in range(9):
        ledger.record_step()
    single = sgm_rdp_curve(cfg.sampling_prob, cfg.noise_std / 0.5, cfg.orders)
    assert np.allclose(ledger.accumulated_rdp(0).values, 9 * single.values,
                       rtol=1e-12)


def test_accumulation_matches_stepwise_compose():
    # 5-step toy run with a different sensitivity every step, no rounding
    cfg = _config(rounding=0.0, frequency=1)
    norms = [0.2, 0.9, 0.5, 1.0, 0.35]
    ledger = IndividualLedger(1, cfg)
    oracle = RdpCurve.zero(cfg.orders)
    for t, z in enumerate(norms):
        ledger.update_assignments([z], step=t)
        ledger.record_step(t)
        oracle = compose(oracle, sgm_rdp_curve(cfg.sampling_prob,
                                               cfg.noise_std / z, cfg.orders))
    got = ledger.accumulated_rdp(0)
    assert np.allclose(got.values, oracle.values, rtol=1e-12)


def test_zero_norm_without_rounding_costs_nothing():
    ledger = IndividualLedger(2, _config(rounding=0.0))
    ledger.update_assignments([0.0, 1.0])
    for _ in range(3):
        ledger.record_step()
    assert np.all(ledger.accumulated_rdp(0).values == 0.0)
    assert np.all(ledger.accumulated_rdp(1).values > 0.0)


def test_exactness_mode_state_does_not_grow_with_distinct_norms():
    n, refreshes = 2_000, 20
    cfg = _config(rounding=0.0, frequency=1)
    ledger = IndividualLedger(n, cfg)
    rng = np.random.default_rng(3)
    norms = rng.uniform(0.05, 1.0, (refreshes, n))
    assert np.unique(norms).size == refreshes * n          # all distinct
    for t in range(refreshes):
        ledger.update_assignments(norms[t], step=t)
        ledger.record_step(t)
    eps, _ = ledger.epsilons()
    assert ledger.counts().nbytes == n * cfg.orders.size * 8 < 5_000_000
    assert len(ledger.cache) == n                          # one refresh's curves
    assert ledger.cache.misses == refreshes * n
    want, _ = exact_reference_accounting(norms[:, :50], cfg)
    np.testing.assert_allclose(eps[:50], want, rtol=1e-12)


@pytest.mark.parametrize("rounding", [0.01, 0.0])
def test_cache_corrupted_after_last_refresh_changes_epsilons(rounding):
    # the steps since the last refresh are charged at the first query, so a
    # fault planted in the curve table after training must reach the result,
    # and only through the examples last assigned to the corrupted curve:
    # charges closed earlier, held or folded, keep their clean curves
    runs = [(50, 3), (2_000, 3), (2_000, 40)] if rounding else [(50, 3), (50, 12)]
    for n, refreshes in runs:
        ledgers = [IndividualLedger(n, _config(rounding=rounding, frequency=3))
                   for _ in range(2)]
        rng = np.random.default_rng(4)
        for t in range(3 * refreshes):
            norms = rng.uniform(0.0, 1.5, n) if t % 3 == 0 else None
            for ledger in ledgers:
                if norms is not None:
                    ledger.update_assignments(norms, step=t)
                ledger.record_step(t)
        clean, corrupt = ledgers
        if (n, refreshes) == (2_000, 3):
            assert corrupt._rdp is None         # every charge still held
        elif refreshes > 3:
            assert corrupt._rdp is not None     # past the fold point
        corrupt.cache.corrupt_for_testing()
        hit = corrupt.assigned_buckets() == corrupt.cache.bucket_values[-1]
        eps_clean, _ = clean.epsilons()
        eps_corrupt, _ = corrupt.epsilons()
        assert hit.any()
        assert np.all(eps_corrupt[hit] > eps_clean[hit])
        assert np.array_equal(eps_corrupt[~hit], eps_clean[~hit])


def _ledger_and_reference(n, refreshes, rounding, frequency=3, seed=6):
    """A ledger driven through ``refreshes`` refreshes, and the accumulated
    RDP summed directly: steps x the example's curve, refresh by refresh."""
    cfg = _config(rounding=rounding, frequency=frequency)
    ledger = IndividualLedger(n, cfg)
    rng = np.random.default_rng(seed)
    want = np.zeros((n, cfg.orders.size))
    for r in range(refreshes):
        ledger.update_assignments(rng.uniform(0.0, 1.5, n), step=r * frequency)
        rows = ledger.cache.rows.copy()
        idx = np.searchsorted(ledger.cache.bucket_values, ledger.assigned_buckets())
        for t in range(r * frequency, (r + 1) * frequency):
            ledger.record_step(t)
        want += frequency * rows[idx]
    return ledger, want


@pytest.mark.parametrize("rounding, refreshes, folded", [
    (0.01, 5, False), (0.01, 40, True), (0.0, 6, True)],
    ids=["grid-held", "grid-folded", "exactness"])
def test_lazy_charges_equal_refresh_order_sum(rounding, refreshes, folded):
    # held charges are summed in refresh order, onto the folded state or the
    # first charge, which is the order of a running sum: equal bit for bit
    n = 3_000 if rounding else 600
    ledger, want = _ledger_and_reference(n, refreshes, rounding)
    assert (ledger._rdp is not None) == folded
    assert not folded or ledger._held == []      # past the fold, refreshes fold
    # the benchmark's probe reads counts(): it closes the pending steps
    # into one more held charge and folds nothing
    state, held = ledger._rdp, len(ledger._held)
    assert np.array_equal(ledger.counts(), want)
    assert ledger._rdp is state and len(ledger._held) == held + 1
    eps, best = ledger.epsilons()
    want_eps, want_best = _eps_from_rdp(want, ledger.config.orders, ledger.config.delta)
    assert np.array_equal(eps, want_eps)
    assert np.array_equal(best, want_best)
    for i in (0, accountant._BLOCK - 1, accountant._BLOCK, n - 1):
        assert np.array_equal(ledger.accumulated_rdp(i).values, want[i])


def test_repeated_queries_fold_held_charges_once():
    # a ledger queried again is watched during training: its second full
    # query folds, and from then on refreshes and queries fold at once, so
    # no query sums more than the one charge closed since the last fold
    n, frequency = 3_000, 3
    ledger, want = _ledger_and_reference(n, 5, 0.01, frequency=frequency)
    orders, delta = ledger.config.orders, ledger.config.delta
    summed = []
    sum_rows = ledger._sum_rows
    ledger._sum_rows = lambda lo, out, scratch: (
        summed.append(len(ledger._held) if lo == 0 else None), sum_rows(lo, out, scratch))

    def query():
        summed.clear()
        eps, best = ledger.epsilons()
        want_eps, want_best = _eps_from_rdp(want, orders, delta)
        assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)
        return summed[0]

    assert query() == 5 and ledger._rdp is None       # one query: charges held
    assert query() == 5 and ledger._held == []        # the second folds them
    assert query() == 0                               # and the third sums none
    rng = np.random.default_rng(8)
    for r in range(5, 8):
        ledger.update_assignments(rng.uniform(0.0, 1.5, n), step=r * frequency)
        assert ledger._held == []                     # the refresh folded
        rows = ledger.cache.rows.copy()
        idx = np.searchsorted(ledger.cache.bucket_values, ledger.assigned_buckets())
        for t in range(r * frequency, (r + 1) * frequency):
            ledger.record_step(t)
        want += frequency * rows[idx]
        # a bad delta is refused before the pass that folds in place
        with pytest.raises(ValueError, match="delta"):
            ledger.epsilons(1.5)
        assert query() == 1 and ledger._held == []    # the steps since the refresh


@pytest.mark.parametrize("rounding, n, refreshes", [(0.01, 50_000, 70), (0.0, 4_000, 6)],
                         ids=["grid", "exactness"])
def test_ledger_memory_bounded_by_fold_point(rounding, n, refreshes):
    cfg = _config(rounding=rounding, frequency=2)
    state = n * cfg.orders.size * 8
    norms = np.random.default_rng(7).uniform(0.0, 1.5, (refreshes, n))
    if not rounding:
        assert np.unique(norms).size == norms.size        # all distinct

    def peak_bytes(refreshes):
        ledger = IndividualLedger(n, cfg)
        tracemalloc.start()
        try:
            for r in range(refreshes):
                ledger.update_assignments(norms[r], step=2 * r)
                ledger.record_step(2 * r)
                ledger.record_step(2 * r + 1)
            ledger.epsilons()
            return tracemalloc.get_traced_memory()[1], ledger._rdp is not None
        finally:
            tracemalloc.stop()

    one, _ = peak_bytes(1)
    if rounding:
        short, folded = peak_bytes(10)
        assert not folded and short < state      # no (n, orders) array at all
        long, folded = peak_bytes(refreshes)
        assert folded and long <= 1.25 * state + one
    else:
        # a charge is about the state's size, so every refresh folds: past
        # one refresh's peak, only the state and the curve table the refresh
        # replaces remain, where each charge left held would add another
        long, folded = peak_bytes(refreshes)
        assert folded and long <= 2 * state + one


# ------------------------------------------------------------ epsilon ---

def test_all_clip_example_equals_worst_case():
    cfg = _config()
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([5.0])        # clips to C = 1.0
    for t in range(20):
        ledger.record_step(t)
    eps, order = ledger.epsilon_of(0)
    worst, worst_order = worst_case_epsilon(cfg, 20, with_order=True)
    assert eps == worst
    assert order == worst_order


def test_smaller_bucket_strictly_cheaper():
    cfg = _config()
    big = IndividualLedger(1, cfg)
    small = IndividualLedger(1, cfg)
    big.update_assignments([1.0])
    small.update_assignments([0.3])
    for _ in range(10):
        big.record_step()
        small.record_step()
    assert small.epsilon_of(0)[0] < big.epsilon_of(0)[0]


def test_toy_epsilon_matches_hand_composition():
    cfg = AccountantConfig(noise_std=1.0, max_clip=1.0, sampling_prob=0.1,
                           rounding=0.01, delta=1e-5)
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([1.0])
    for t in range(10):
        ledger.record_step(t)
    hand = sgm_rdp_curve(0.1, 1.0, cfg.orders).scaled(10)
    expected, _ = rdp_to_dp(hand, 1e-5)
    assert ledger.epsilon_of(0)[0] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_worst_case_strictly_increasing_in_steps():
    cfg = _config()
    values = [worst_case_epsilon(cfg, t) for t in (1, 5, 25, 125)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_worst_case_calibration_round_trip():
    sigma = calibrate_noise(8.0, 1e-5, q=0.05, steps=400)
    cfg = AccountantConfig(noise_std=sigma, max_clip=1.0, sampling_prob=0.05,
                           rounding=0.01)
    eps = worst_case_epsilon(cfg, 400, delta=1e-5)
    assert 8.0 - 1e-3 <= eps <= 8.0


# ------------------------------------------------------------- report ---

def _small_report(norms, steps=6, **overrides) -> PrivacyReport:
    cfg = _config(**overrides)
    ledger = IndividualLedger(len(norms), cfg)
    ledger.update_assignments(norms)
    for t in range(steps):
        ledger.record_step(t)
    return ledger.report()


def test_report_uniform_buckets_equal_epsilons():
    report = _small_report([0.432, 0.4321, 0.4322])
    assert np.all(report.epsilons == report.epsilons[0])


@pytest.mark.parametrize("rounding", [0.01, 0.0])
def test_epsilons_blocks_match_epsilon_of(rounding):
    block = accountant._BLOCK
    n = 2 * block + 3
    ledger = IndividualLedger(n, _config(rounding=rounding, frequency=2))
    rng = np.random.default_rng(0)
    for t in range(6):
        if t % 2 == 0:
            ledger.update_assignments(rng.uniform(0, 1.5, n), step=t)
        ledger.record_step(t)
    eps, orders = ledger.epsilons()
    for i in (0, block - 1, block, 2 * block - 1, 2 * block, n - 1):
        want_eps, want_order = ledger.epsilon_of(i)
        assert eps[i] == pytest.approx(want_eps, rel=1e-12, abs=0.0)
        assert orders[i] == want_order


def test_report_bounded_by_worst_case():
    report = _small_report([0.1, 0.5, 0.9, 3.0])
    assert np.max(report.epsilons) <= report.worst_epsilon + 1e-9


def test_report_group_means_recompute_exactly():
    cfg = _config()
    ledger = IndividualLedger(4, cfg)
    ledger.update_assignments([0.1, 0.5, 0.9, 3.0])
    for _ in range(6):
        ledger.record_step()
    labels = [0, 1, 0, 1]
    report = ledger.report(group_labels=labels)
    for g in (0, 1):
        mask = np.asarray(labels) == g
        assert report.group_means[g] == float(np.mean(report.epsilons[mask]))


def test_report_json_round_trip_with_per_example(tmp_path):
    report = _small_report([0.1, 0.5, 0.9])
    path = tmp_path / "report.json"
    report.to_json(str(path), unsafe_export_per_example=True)
    again = PrivacyReport.from_json(str(path))
    assert np.array_equal(again.epsilons, report.epsilons)
    assert again.worst_epsilon == report.worst_epsilon
    assert again.summary == report.summary


def test_report_json_redacts_by_default(tmp_path):
    report = _small_report([0.1, 0.5, 0.9])
    path = tmp_path / "report.json"
    report.to_json(str(path))
    doc = json.loads(path.read_text())
    assert doc["summary"] == report.summary      # aggregates are written
    assert "epsilons" not in doc and "best_orders" not in doc
    with pytest.raises(ValueError, match="report was exported without per-example values"):
        PrivacyReport.from_json(str(path))


def test_report_rejects_future_version(tmp_path):
    report = _small_report([0.1])
    path = tmp_path / "report.json"
    report.to_json(str(path))
    doc = path.read_text().replace('"version": 1', '"version": 99')
    path.write_text(doc)
    with pytest.raises(ValueError):
        PrivacyReport.from_json(str(path))


def test_report_rejects_epsilon_above_worst_case():
    with pytest.raises(ValueError):
        PrivacyReport(epsilons=np.asarray([5.0]), best_orders=np.asarray([2]),
                      worst_epsilon=1.0, worst_order=2, delta=1e-5, steps=3,
                      n=1, config={})


# ----------------------------------------------------- property tests ---

@settings(max_examples=25, deadline=None)
@given(st.data())
def test_counts_conserved_under_any_refresh_pattern(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(1, 4))
    steps = data.draw(st.integers(1, 30))
    rounding = data.draw(st.sampled_from([0.01, 0.07, 0.0]))
    cfg = _config(frequency=k, rounding=rounding)
    ledger = IndividualLedger(n, cfg)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    buckets = []
    for t in range(steps):
        if t % k == 0:
            norms = rng.uniform(0, 2, n)
            z = np.minimum(norms, cfg.max_clip)
            if rounding:
                z = _round_array(z, rounding, cfg.max_clip)
            ledger.update_assignments(norms, step=t)
        buckets.append(z)
        ledger.record_step(t)
    _assert_matches_stepwise(ledger, buckets)
    eps, _ = ledger.epsilons()
    assert np.all(eps <= worst_case_epsilon(cfg, steps) + 1e-9)


# ----------------------------------------------------------- adaptive ---

def test_adaptive_deterministic_spec_exact():
    assert enumerate_adaptive_vs_fixed(deterministic_spec()) == 0.0


def test_adaptive_coin_chain_exact():
    assert enumerate_adaptive_vs_fixed(coin_chain_spec()) <= 1e-15


def test_adaptive_random_spec_bounded():
    for seed in range(3):
        diff = enumerate_adaptive_vs_fixed(random_spec(seed))
        assert diff <= 1e-12


def test_adaptive_rejects_non_stochastic_kernel():
    with pytest.raises(NonStochasticSpecError):
        AdaptiveSpec(n_outcomes=[2],
                     kernels=[lambda prefix, d: [0.7, 0.7]])
