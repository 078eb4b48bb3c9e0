"""Tests for sensitivity bucketing, the cached per-example ledger, report
invariants, and the adaptive-vs-fixed enumeration oracle."""

from __future__ import annotations

import json
import math
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from idpacct import accountant
from idpacct.accountant import (
    AccountantConfig,
    BucketCache,
    IndividualLedger,
    LedgerError,
    PrivacyReport,
    _round_array,
    sensitivity_buckets,
    worst_case_epsilon,
)
from idpacct.adaptive_oracle import (
    AdaptiveSpec,
    NonStochasticSpecError,
    coin_chain_spec,
    enumerate_adaptive_vs_fixed,
    random_spec,
)
from idpacct.dpsgd_sim import exact_reference_accounting
from idpacct.kernel import sgm_rdp_matrix
from idpacct.rdp_math import (
    RdpCurve,
    _eps_from_rdp,
    calibrate_noise,
    rdp_to_dp,
    sgm_rdp_curve,
)
from idpacct.traceio import TraceHeader, replay_trace

from conftest import traced_peak


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
    with np.errstate(divide="ignore", over="ignore"):     # 0 or subnormal z: inf
        curves = np.stack([sgm_rdp_curve(cfg.sampling_prob, cfg.noise_std / z,
                                         cfg.orders).values for z in values])
    want = curves[inverse.reshape(np.shape(buckets))].sum(axis=0)
    np.testing.assert_allclose(ledger.counts(), want, rtol=1e-12, atol=0)


# ----------------------------------------------------------- rounding ---

def test_round_to_bucket_examples():
    got = _round_array(np.asarray([0.444, 0.445, 0.0]), 0.01, 1.0)
    assert got == pytest.approx([0.44, 0.45, 0.01], abs=1e-12)
    # a scalar rounds as the same value in an array does
    for z in (0.444, 0.445, 0.0, 1.0):
        assert sensitivity_buckets(z, 1.0, 0.01) == sensitivity_buckets(np.asarray([z]), 1.0, 0.01)


def test_round_to_bucket_caps_at_clip():
    # grid is {r, 2r, ..., C}; values at/near C stay on the grid
    assert _round_array(np.asarray([1.0, 0.999]), 0.03, 1.0) == pytest.approx([1.0, 1.0])


def test_round_to_bucket_rejects_out_of_range():
    # the ledger keeps _round_array's inputs in its domain: the spacing must
    # lie in (0, C] (0 turns rounding off) and norms must be >= 0; a norm
    # above C is clipped to C before it is rounded
    with pytest.raises(ValueError, match="rounding must be 0"):
        _config(rounding=1.5)
    with pytest.raises(ValueError, match="rounding must be 0"):
        _config(rounding=-0.01)
    ledger = IndividualLedger(2, _config())
    with pytest.raises(ValueError, match="norms must be finite and >= 0"):
        ledger.update_assignments([-0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(z=st.floats(0.0, 1.0), r=st.sampled_from([0.01, 0.05, 0.13, 1.0]))
def test_round_to_bucket_within_half_step(z, r):
    b = float(_round_array(np.asarray([z]), r, 1.0)[0])
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
    want = _round_array_reference(z, r, c)
    got = _round_array(z, r, c)
    assert np.array_equal(got, want)
    assert got.dtype == np.float64
    # without the small values the intervals present start above j = 0
    upper = z[z >= c / 2]
    assert np.array_equal(_round_array(upper, r, c), _round_array_reference(upper, r, c))
    # the ledger's rows, found from the norms without rounding them, hold
    # the same values; the curves are not under test, so none is computed
    assume(c / r <= accountant.MAX_BUCKETS)
    with mock.patch.object(accountant, "sgm_rdp_matrix",
                           lambda q, mult, orders: np.zeros((mult.size, orders.size))):
        cache = BucketCache(_config(rounding=r, max_clip=c))
    rows = cache.indices_for(z)
    assert rows.dtype == np.min_scalar_type(len(cache) - 1)
    assert np.array_equal(cache.bucket_values[rows], want)


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
    for delta in (0.0, 1.0, 1.5):        # a ledger answers at this delta only
        with pytest.raises(ValueError, match=f"delta must be in \\(0, 1\\), got {delta}"):
            _config(delta=delta)
    for name, value in [("noise_std", math.inf), ("noise_std", math.nan),
                        ("max_clip", math.inf), ("max_clip", math.nan),
                        ("rounding", math.nan), ("rounding", math.inf)]:
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            _config(**{name: value})
    for name in ("noise_std", "max_clip", "sampling_prob", "rounding", "delta", "frequency"):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            _config(**{name: True})
    assert len(BucketCache(_config(rounding=0.01))) == 100
    assert len(BucketCache(_config(rounding=0.0))) == 0


@pytest.mark.parametrize("orders", [[2, 2 ** 70], [2.0, math.inf], [2.0, 1e20]],
                         ids=["2**70", "inf", "1e20"])
def test_config_rejects_orders_beyond_int64(orders):
    # refused before the cast to int64, which would overflow or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="order grid must contain integers"):
            _config(orders=orders)


def test_config_dict_round_trip():
    cfg = _config(frequency=7, delta=1e-6)
    again = AccountantConfig(**cfg.to_dict())
    assert again.to_dict() == cfg.to_dict()


# -------------------------------------------------------- assignments ---

def test_assignments_all_above_clip_map_to_clip():
    norms = np.asarray([1.0, 1.7, 55.0, 2.0])
    assert np.all(sensitivity_buckets(norms, 1.0, 0.01) == 1.0)
    ledger = IndividualLedger(4, _config())
    ledger.update_assignments(norms)
    ledger.record_step()
    _assert_matches_stepwise(ledger, [[1.0] * 4])


def test_assignments_exact_mode_keeps_raw_norms():
    norms = np.asarray([0.2, 0.7])
    assert np.array_equal(sensitivity_buckets(norms, 1.0, 0.0), [0.2, 0.7])
    ledger = IndividualLedger(2, _config(rounding=0.0))
    ledger.update_assignments(norms)
    ledger.record_step()
    _assert_matches_stepwise(ledger, [[0.2, 0.7]])


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
            norms = rng.uniform(0.0, 0.5 * (t + 1), 10_000)
            ledger.update_assignments(norms, step=t)
            z = sensitivity_buckets(norms, cfg.max_clip, cfg.rounding)
        buckets.append(z)
        ledger.record_step(t)
    ledger.epsilons()
    assert calls == [100]                      # the whole grid, once
    assert len(ledger.cache) == ledger.cache.misses == 100
    assert ledger.counts().shape == (10_000, cfg.orders.size)
    _assert_matches_stepwise(ledger, buckets)

    # the rows come from the tables _round_array reads, so a clipped norm's
    # row holds exactly its rounded value, for any spacing and clip
    caches = {(r, c): BucketCache(_config(rounding=r, max_clip=c))
              for r in (0.007, 0.01, 0.03, 0.05, 0.13, 1.0) for c in (1.0, 2.5, 7.0)}

    @settings(max_examples=200, deadline=None)
    @given(key=st.sampled_from(sorted(caches)), u=st.floats(0.0, 1.0))
    def index_round_trip(key, u):
        r, c = key
        z = np.asarray([u * c])
        cache = caches[key]
        got = cache.bucket_values[cache.indices_for(z)]
        assert got[0] == _round_array(z, r, c)[0]

    index_round_trip()

    with pytest.raises(ValueError, match="rounding=0"):
        _config(rounding=1e-9)                # 10^9 curves
    cfg = _config(rounding=1 / 8192)          # 8192 curves are allowed
    assert accountant._grid_tables(cfg.rounding, cfg.max_clip)[0].size == 8192 + 2


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
    a, b = ledger.counts()
    assert np.array_equal(a, b)


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
    for n in (3.5, True, "3"):
        with pytest.raises(ValueError, match="n must be an integer"):
            IndividualLedger(n, _config())
    with pytest.raises(ValueError, match="n=0"):
        IndividualLedger(0, _config())
    assert IndividualLedger(np.int32(3), _config()).n == 3
    ledger = IndividualLedger(1, _config(frequency=2))
    with pytest.raises(LedgerError):
        ledger.record_step()
    with pytest.raises(LedgerError, match="divisible by frequency=2; got step 1"):
        ledger.update_assignments([0.5], step=1)   # not a refresh step
    ledger.update_assignments([0.5], step=0)
    with pytest.raises(LedgerError):
        ledger.record_step(5)                      # wrong step index
    with pytest.raises(LedgerError, match="expected step 0, got 1"):
        ledger.record_steps(1, 4)
    for count in (0, -1, 2.5, "4", None):
        with pytest.raises(ValueError, match="count must be an integer >= 1"):
            ledger.record_steps(0, count)
    assert ledger.steps == 0 and ledger._pending == 0
    ledger.record_steps(0, 4)
    # a refresh may change assignments only at the next step to record
    for step in (0, 100):                          # behind, then ahead of it
        message = f"next step to record (4), if divisible by frequency=2; got step {step}"
        with pytest.raises(LedgerError, match=re.escape(message)):
            ledger.update_assignments([0.5], step=step)
    assert ledger.steps == 4 and ledger._pending == 4
    ledger.update_assignments([0.5], step=4)


def test_rejects_bad_norms():
    ledger = IndividualLedger(2, _config())
    with pytest.raises(ValueError):
        ledger.update_assignments([0.5])           # wrong length
    for bad in (-0.5, -5e-324, np.nan, np.inf, -np.inf):
        for i, norms in enumerate(([bad, 0.1], [0.1, bad])):
            with pytest.raises(ValueError, match=re.escape(
                    f"norms must be finite and >= 0: example {i} is {bad!r}")):
                ledger.update_assignments(norms)
    # a matrix names the first bad norm's row too
    with pytest.raises(ValueError, match=re.escape(
            "norms must be finite and >= 0: example 1 in row 0 is nan")):
        accountant._check_norms(np.asarray([[0.1, np.nan, 0.2], [-1.0, 0.3, 0.4]]))
    # -0.0 and subnormal norms pass: on the grid both round to r, and with
    # rounding off -0.0 gets +0.0's zero curve (not a multiplier of -inf)
    # and a subnormal sensitivity's curve is zero too
    ledger = IndividualLedger(3, _config())
    ledger.update_assignments([-0.0, 5e-324, 0.5])
    ledger.record_step()
    _assert_matches_stepwise(ledger, [[0.01, 0.01, 0.5]])
    ledger = IndividualLedger(3, _config(rounding=0.0))
    ledger.update_assignments([-0.0, 5e-324, 0.5])
    ledger.record_step()
    _assert_matches_stepwise(ledger, [[0.0, 5e-324, 0.5]])
    assert np.all(ledger.counts()[0] == 0.0)


# -------------------------------------------------------- accumulation ---

def test_zero_steps_zero_curve():
    ledger = IndividualLedger(1, _config())
    ledger.update_assignments([0.5])
    assert np.all(ledger.counts()[0] == 0.0)


def test_single_bucket_scales_single_step_curve():
    cfg = _config()
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([0.5])
    for _ in range(9):
        ledger.record_step()
    single = sgm_rdp_curve(cfg.sampling_prob, cfg.noise_std / 0.5, cfg.orders)
    assert np.allclose(ledger.counts()[0], 9 * single.values, rtol=1e-12)


def test_accumulation_matches_stepwise_compose():
    # 5-step toy run with a different sensitivity every step, no rounding
    cfg = _config(rounding=0.0, frequency=1)
    norms = [0.2, 0.9, 0.5, 1.0, 0.35]
    ledger = IndividualLedger(1, cfg)
    oracle = np.zeros(cfg.orders.shape)
    for t, z in enumerate(norms):
        ledger.update_assignments([z], step=t)
        ledger.record_step(t)
        oracle = oracle + sgm_rdp_curve(cfg.sampling_prob, cfg.noise_std / z,
                                        cfg.orders).values
    got = ledger.counts()[0]
    assert np.allclose(got, oracle, rtol=1e-12)


def test_zero_norm_without_rounding_costs_nothing():
    ledger = IndividualLedger(2, _config(rounding=0.0))
    ledger.update_assignments([0.0, 1.0])
    for _ in range(3):
        ledger.record_step()
    counts = ledger.counts()
    assert np.all(counts[0] == 0.0)
    assert np.all(counts[1] > 0.0)


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
    # every query charges the steps since the last refresh from the curve
    # table, so a fault planted in it after training must reach the result,
    # and only through the examples last assigned to the corrupted curve:
    # charges closed earlier, held or folded, keep their clean curves
    runs = [(50, 3), (2_000, 3), (2_000, 40)] if rounding else [(50, 3), (50, 12)]
    for n, refreshes in runs:
        ledgers = [IndividualLedger(n, _config(rounding=rounding, frequency=3))
                   for _ in range(2)]
        rng = np.random.default_rng(4)
        for t in range(3 * refreshes):
            if t % 3 == 0:
                norms = rng.uniform(0.0, 1.5, n)
                for ledger in ledgers:
                    ledger.update_assignments(norms, step=t)
            for ledger in ledgers:
                ledger.record_step(t)
        clean, corrupt = ledgers
        if (n, refreshes) == (2_000, 3):
            assert corrupt._rdp is None         # every charge still held
        elif refreshes > 3:
            assert corrupt._rdp is not None     # past the fold point
        corrupt.cache.corrupt_for_testing()
        hit = (sensitivity_buckets(norms, 1.0, rounding)
               == corrupt.cache.bucket_values[-1])
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
        norms = rng.uniform(0.0, 1.5, n)
        ledger.update_assignments(norms, step=r * frequency)
        rows = ledger.cache.rows.copy()
        idx = np.searchsorted(ledger.cache.bucket_values,
                              sensitivity_buckets(norms, cfg.max_clip, rounding))
        for t in range(r * frequency, (r + 1) * frequency):
            ledger.record_step(t)
        want += frequency * rows[idx]
    return ledger, want


@pytest.mark.parametrize("rounding, refreshes, folded, held, split", [
    (0.01, 5, False, 4, False), (0.01, 40, True, 7, False), (0.0, 6, True, 0, False),
    (0.01, 5, False, 4, True), (0.01, 40, True, 7, True), (0.0, 6, True, 0, True)],
    ids=["grid-held", "grid-folded", "exactness",
         "grid-held-split", "grid-folded-split", "exactness-split"])
def test_lazy_charges_equal_refresh_order_sum(rounding, refreshes, folded, held, split,
                                               request):
    # held charges are summed in refresh order, onto the folded state or the
    # first charge, which is the order of a running sum: equal bit for bit,
    # also with the rows split across two threads.  One rule folds: in grid
    # mode every eighth 55,000-byte charge reaches a quarter of the
    # 1,560,000-byte state, so of 39 charges the last 7 stay held; in
    # exactness mode each charge is about the state's size and folds
    block = accountant._BLOCK
    n = 3_000 if rounding else 1_200
    runs = request.getfixturevalue("two_workers") if split else None
    ledger, want = _ledger_and_reference(n, refreshes, rounding)
    assert (ledger._rdp is not None) == folded and len(ledger._held) == held
    # the benchmark's probe reads counts(): it adds the pending steps
    # without closing them, and folds nothing
    state, held, pending = ledger._rdp, len(ledger._held), ledger._pending
    assert pending and np.array_equal(ledger.counts(), want)
    assert ledger._rdp is state and len(ledger._held) == held
    assert ledger._pending == pending
    eps, best = ledger.epsilons()
    want_eps, want_best = _eps_from_rdp(want, ledger.config.orders, ledger.config.delta)
    assert np.array_equal(eps, want_eps)
    assert np.array_equal(best, want_best)
    counts = ledger.counts()
    rows = [0, block - 1, block, n - 1]
    if split:
        # every pass (fold, counts, epsilons) ran as the same two runs of
        # whole blocks, on two threads; n is not a multiple of the block
        cut = -(-n // block) // 2 * block
        assert n % block and {run[:2] for run in runs} == {(0, cut), (cut, n)}
        assert len({run[2] for run in runs}) >= 2
        rows += [cut - 1, cut]
    for i in rows:
        assert np.array_equal(counts[i], want[i])
        assert eps[i] == want_eps[i] and best[i] == want_best[i]


@pytest.mark.parametrize("rounding", [0.01, 0.0], ids=["grid", "exactness"])
def test_results_do_not_depend_on_when_the_ledger_was_queried(rounding, two_workers):
    # a query changes nothing, so the same refreshes queried after any
    # steps, or never, end in the same accumulated RDP and epsilons, bit for
    # bit; every pass runs as two runs of whole blocks on two threads
    n, frequency, steps = (3_000 if rounding else 1_200), 3, 60
    norms = np.random.default_rng(9).uniform(0.0, 1.5, (steps // frequency, n))
    results = []
    for queried in [set(), {3}, {3, 4, 5}, {20, 50}]:
        ledger = IndividualLedger(n, _config(rounding=rounding, frequency=frequency))
        for t in range(steps):
            if t % frequency == 0:
                ledger.update_assignments(norms[t // frequency], step=t)
            ledger.record_step(t)
            if t in queried:
                ledger.epsilons()
        results.append((ledger.counts(), *ledger.epsilons()))
    for counts, eps, best in results[1:]:
        assert np.array_equal(counts, results[0][0])
        assert np.array_equal(eps, results[0][1]) and np.array_equal(best, results[0][2])
    cut = -(-n // accountant._BLOCK) // 2 * accountant._BLOCK
    assert {run[:2] for run in two_workers} == {(0, cut), (cut, n)}


def test_counts_cannot_change_the_ledger():
    # counts() returns a new array even when it equals the folded state, with
    # nothing held or pending, so writing into it changes no later result;
    # each charge is a 100 x 65 table and a byte per example, 55,000 bytes
    # against a 1,560,000-byte state, so the eighth charge folds
    n, frequency = 3_000, 3
    ledger, want = _ledger_and_reference(n, 8, 0.01, frequency=frequency)
    assert ledger._rdp is None and len(ledger._held) == 7
    ledger.update_assignments(np.full(n, 0.5), step=8 * frequency)
    assert ledger._rdp is not None and not ledger._held and not ledger._pending
    before = ledger.epsilons()
    counts = ledger.counts()
    assert np.array_equal(counts, want) and np.array_equal(ledger._rdp, want)
    assert counts.flags.writeable and not np.shares_memory(counts, ledger._rdp)
    counts[:] = 0.0
    assert np.array_equal(ledger._rdp, want) and np.array_equal(ledger.counts(), want)
    after = ledger.epsilons()
    assert np.array_equal(after[0], before[0]) and np.array_equal(after[1], before[1])


def test_repeated_queries_fold_held_charges_once():
    # a ledger queried after every refresh: its queries change and fold
    # nothing, and each sums the held charges and the pending steps again;
    # only the refresh whose charges reach a quarter of the state folds
    # them, once (55,000-byte charges against a 1,560,000-byte state, so
    # the eighth charge folds, and the sixteenth would fold again)
    n, frequency = 3_000, 3
    ledger, want = _ledger_and_reference(n, 5, 0.01, frequency=frequency)
    orders, delta = ledger.config.orders, ledger.config.delta
    summed = []          # the charges each query sums
    charges = ledger._charges
    ledger._charges = lambda: (summed.append(len((pair := charges())[0])), pair)[1]

    def state():
        # the state, its values, the held charges and the pending steps
        rdp = ledger._rdp
        return (id(rdp), None if rdp is None else rdp.tobytes(),
                [id(charge) for charge in ledger._held], ledger._pending)

    def query():
        summed.clear()
        before = state()
        eps, best = ledger.epsilons()
        want_eps, want_best = _eps_from_rdp(want, orders, delta)
        assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)
        assert state() == before and len(summed) == 1
        return summed[0]

    assert len(ledger._held) == 4 and ledger._pending == frequency
    assert query() == 5 and ledger._rdp is None       # four held, one pending
    assert query() == 5 and ledger._rdp is None       # summed again, not folded
    rng = np.random.default_rng(8)
    folded = None
    for r in range(5, 12):
        norms = rng.uniform(0.0, 1.5, n)
        ledger.update_assignments(norms, step=r * frequency)
        assert len(ledger._held) == r % 8 and (ledger._rdp is None) == (r < 8)
        folded = ledger._rdp if r == 8 else folded
        assert ledger._rdp is folded                  # folded at the eighth charge only
        rows = ledger.cache.rows.copy()
        idx = np.searchsorted(ledger.cache.bucket_values,
                              sensitivity_buckets(norms, 1.0, 0.01))
        for t in range(r * frequency, (r + 1) * frequency):
            ledger.record_step(t)
        want += frequency * rows[idx]
        assert query() == query() == len(ledger._held) + 1


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

        def run():
            for r in range(refreshes):
                ledger.update_assignments(norms[r], step=2 * r)
                ledger.record_step(2 * r)
                ledger.record_step(2 * r + 1)
            ledger.epsilons()
            return ledger._rdp is not None

        folded, peak = traced_peak(run)
        return peak, folded

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


@pytest.mark.parametrize("held", [2, 40])
def test_query_memory_bounded_by_block_buffers_and_tables(held):
    # the bound the epsilons() docstring states for a grid-mode query: its
    # buffers and the summed tables' cuts, whatever n; a sum of all rows at
    # every order, as counts() makes, would take 26 MB here
    n, cfg = 50_000, _config()
    norms = np.random.default_rng(7).uniform(0.0, 1.5, (held + 1, n))
    ledger = IndividualLedger(n, cfg)
    for r in range(held + 1):
        ledger.update_assignments(norms[r], step=r)
        ledger.record_step(r)
    charges, _ = ledger._charges()          # the held tables, then the pending one
    assert len(charges) == held + 1 and ledger._rdp is None
    assert n < 2 * accountant._WORKER_ROWS    # one worker
    (eps, best), peak = traced_peak(ledger.epsilons)
    orders, coarse = cfg.orders.size, ledger._coarse.size
    block, group = accountant._COARSE_BLOCK, accountant._GROUP_CELLS
    cells = max(coarse * block, group)
    # each table cut to the coarse orders, and to two groups' orders at most
    tables = sum(table.shape[0] for table, _ in charges) * (coarse + 2 * orders) * 8
    pending = charges[-1][0].nbytes
    tile = (coarse + 1) * block * 8
    worker = (2 * cells + group) * 8 + cells + (group + 8 * block) * 8
    assert peak - eps.nbytes - best.nbytes <= tables + pending + tile + worker


# ------------------------------------------------------------ epsilon ---

def test_all_clip_example_equals_worst_case():
    cfg = _config()
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([5.0])        # clips to C = 1.0
    for t in range(20):
        ledger.record_step(t)
    eps, order = ledger.epsilons()
    worst, worst_order = worst_case_epsilon(cfg, 20, with_order=True)
    assert eps[0] == worst
    assert order[0] == worst_order


def test_ceil_rule_planted_in_the_grid_tables_reaches_the_ledger(monkeypatch):
    # a replay with a 1% slice above C at every refresh, as the benchmark's
    # account_large plants, under a ceil rule (z > j r picks v[j + 1])
    # planted in the one place the rounding tables come from
    rng = np.random.default_rng(3)
    header = TraceHeader(n=2_000, clip=1.0, noise_std=1.0, sampling_prob=0.05,
                         frequency=4, rounding=0.01, steps=12)
    norms = rng.gamma(2.0, 0.25, (header.n_refreshes, header.n))
    planted = rng.choice(header.n, header.n // 100, replace=False)
    norms[:, planted] = 1.5 + rng.random((header.n_refreshes, planted.size))
    nearest = replay_trace(header, norms)._assign
    tables = accountant._grid_tables

    def ceil_tables(rounding, max_clip):
        values, _ = tables(rounding, max_clip)
        return values, np.nextafter(np.arange(values.size - 1) * rounding, np.inf)

    monkeypatch.setattr(accountant, "_grid_tables", ceil_tables)
    ledger = replay_trace(header, norms)
    assert np.any(ledger._assign != nearest)
    eps, _ = ledger.epsilons()
    worst = worst_case_epsilon(ledger.config, header.steps)
    assert np.max(np.abs(eps[planted] - worst)) <= 1e-9 * worst
    assert eps.min() >= 0 and eps.max() <= worst


def test_smaller_bucket_strictly_cheaper():
    cfg = _config()
    big = IndividualLedger(1, cfg)
    small = IndividualLedger(1, cfg)
    big.update_assignments([1.0])
    small.update_assignments([0.3])
    for _ in range(10):
        big.record_step()
        small.record_step()
    assert small.epsilons()[0][0] < big.epsilons()[0][0]


def test_toy_epsilon_matches_hand_composition():
    cfg = AccountantConfig(noise_std=1.0, max_clip=1.0, sampling_prob=0.1,
                           rounding=0.01, delta=1e-5)
    ledger = IndividualLedger(1, cfg)
    ledger.update_assignments([1.0])
    for t in range(10):
        ledger.record_step(t)
    hand = sgm_rdp_curve(0.1, 1.0, cfg.orders).scaled(10)
    expected, _ = rdp_to_dp(hand, 1e-5)
    assert ledger.epsilons()[0][0] == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_worst_case_strictly_increasing_in_steps():
    cfg = _config()
    values = [worst_case_epsilon(cfg, t) for t in (1, 5, 25, 125)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_worst_case_calibration_round_trip():
    sigma = calibrate_noise(8.0, 1e-5, q=0.05, steps=400)
    cfg = AccountantConfig(noise_std=sigma, max_clip=1.0, sampling_prob=0.05,
                           rounding=0.01, delta=1e-5)
    eps = worst_case_epsilon(cfg, 400)
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


@pytest.mark.parametrize("rounding, split", [(0.01, False), (0.0, False),
                                             (0.01, True), (0.0, True)],
                         ids=["0.01", "0.0", "0.01-split", "0.0-split"])
def test_epsilons_blocks_match_rdp_to_dp(rounding, split, request):
    block = accountant._BLOCK
    n = 2 * block + 3
    runs = request.getfixturevalue("two_workers") if split else None
    ledger = IndividualLedger(n, _config(rounding=rounding, frequency=2))
    rng = np.random.default_rng(0)
    for t in range(6):
        if t % 2 == 0:
            ledger.update_assignments(rng.uniform(0, 1.5, n), step=t)
        ledger.record_step(t)
    counts = ledger.counts()
    eps, orders = ledger.epsilons()
    for i in (0, block - 1, block, 2 * block - 1, 2 * block, n - 1):
        want_eps, want_order = rdp_to_dp(RdpCurve(ledger.config.orders, counts[i]),
                                         ledger.config.delta)
        assert eps[i] == pytest.approx(want_eps, rel=1e-12, abs=0.0)
        assert orders[i] == want_order
    if split:
        # two runs of whole blocks; the rows either side of the cut convert
        # as a one-row conversion does, bit for bit
        cut = -(-n // block) // 2 * block
        assert {run[:2] for run in runs} == {(0, cut), (cut, n)}
        for i in (cut - 1, cut):
            assert (eps[i], orders[i]) == rdp_to_dp(
                RdpCurve(ledger.config.orders, counts[i]), ledger.config.delta)


def test_coarse_orders_of_the_default_grid():
    coarse = accountant._coarse_orders(_config().orders)
    assert _config().orders[coarse].tolist() == [2, 3, 5, 7, 10, 14, 20, 28, 40, 56, 128, 256]
    assert accountant._coarse_orders(np.array([7])).tolist() == [0]
    assert accountant._coarse_orders(np.array([2, 3, 100, 256])).tolist() == [0, 1, 2, 3]
    # at most 52 before the last, so a row's kept gaps fit one float64 bit sum
    powers = 2 ** np.arange(1, 61)
    assert accountant._coarse_orders(powers).tolist() == list(range(52)) + [59]


def _count_queries(monkeypatch) -> list:
    """The row ranges that ``IndividualLedger._query`` runs on, from now on."""
    queries = []
    query = accountant.IndividualLedger._query
    monkeypatch.setattr(accountant.IndividualLedger, "_query",
                        lambda self, *args: (queries.append(args[:2]), query(self, *args))[1])
    return queries


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(orders=st.one_of(
           st.sampled_from([[2], [5], [2, 3], [2, 3, 4], [2, 3, 100, 256], [2, 256],
                            list(range(2, 65)) + [128, 256]]),
           st.lists(st.integers(2, 400), min_size=1, max_size=40, unique=True).map(sorted)),
       delta=st.floats(1e-12, 0.5),
       rounding=st.sampled_from([0.05, 0.0]),
       q=st.sampled_from([0.01, 0.3, 1.0]),
       noise=st.sampled_from([0.4, 1.0, 4.0]),
       n=st.integers(1, 150),
       refreshes=st.integers(1, 5),
       seed=st.integers(0, 2**16))
def test_epsilons_equal_the_full_pass_bit_for_bit(two_workers, monkeypatch, orders, delta,
                                                 rounding, q, noise, n, refreshes, seed):
    # a query sums only the orders that can win, yet every example's epsilon
    # and best order equal the conversion of its whole accumulated RDP, bit
    # for bit: on any grid and delta, in both modes, before and after the
    # first fold, with small blocks so that rows split over two threads and
    # both passes cross several blocks and groups
    monkeypatch.setattr(accountant, "_BLOCK", 16)
    monkeypatch.setattr(accountant, "_COARSE_BLOCK", 8)
    monkeypatch.setattr(accountant, "_GROUP_CELLS", 24)
    cfg = AccountantConfig(noise_std=noise, max_clip=1.0, sampling_prob=q, rounding=rounding,
                           frequency=2, delta=delta, orders=orders)
    ledger = IndividualLedger(n, cfg)
    rng = np.random.default_rng(seed)
    queries = _count_queries(monkeypatch)

    def check():
        queries.clear()
        eps, best = ledger.epsilons()
        assert queries          # the one query path, on every grid
        want_eps, want_best = _eps_from_rdp(ledger.counts(), cfg.orders, delta)
        assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)

    # a grid charge is 20 x orders x 8 bytes and a byte per example, so with
    # n <= 150 three charges reach a quarter of the state and fold; an
    # exactness charge holds one curve per distinct norm, so it folds sooner
    for r in range(refreshes + 3):
        ledger.update_assignments(rng.gamma(2.0, 0.3, n), step=2 * r)
        ledger.record_step(2 * r)
        if r == refreshes - 1:
            check()         # only pending steps, or held charges, or a folded state
        ledger.record_step(2 * r + 1)
    assert ledger._rdp is not None
    check()


def test_ties_go_to_the_smallest_order_as_in_a_full_pass(monkeypatch):
    # rho = 2^55 at every order, where floats are 8 apart: the conversion
    # rounds orders 4 to 8 to one epsilon, so the tie decides the best order,
    # and the bound of the gap between coarse orders 3 and 5 equals the
    # coarse minimum exactly, so only "at most" keeps order 4
    cfg = AccountantConfig(noise_std=1.0, max_clip=1.0, sampling_prob=0.01, rounding=0.5,
                           orders=list(range(2, 9)))
    assert cfg.orders[accountant._coarse_orders(cfg.orders)].tolist() == [2, 3, 5, 7, 8]
    ledger = IndividualLedger(300, cfg)
    monkeypatch.setattr(ledger.cache, "rows", np.full(ledger.cache.rows.shape, 2.0 ** 55))
    ledger.update_assignments(np.full(300, 0.3), step=0)
    ledger.record_step(0)
    eps, best = ledger.epsilons()
    want_eps, want_best = _eps_from_rdp(ledger.counts(), cfg.orders, cfg.delta)
    assert np.all(want_best == 4) and np.all(want_eps == 2.0 ** 55)
    assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)


def _account_large_ledger(n, ledger=None):
    """A ledger shaped like the ``account_large`` benchmark's, at n rows:
    100 buckets, 10 refreshes of drifting gamma norms, 1% above C.  Drives
    ``ledger`` when given, a new such ledger otherwise."""
    cfg = _config(noise_std=1.0, sampling_prob=0.01, rounding=0.01, frequency=24)
    ledger = IndividualLedger(n, cfg) if ledger is None else ledger
    rng = np.random.default_rng(2101)
    for r in range(10):
        norms = rng.gamma(2.0, 0.24 + 0.01 * r, n)
        norms[: n // 100] = 1.5
        ledger.update_assignments(norms, step=24 * r)
        for t in range(24 * r, 24 * (r + 1)):
            ledger.record_step(t)
    return ledger


def test_query_sums_fewer_orders_on_the_benchmark_shape(monkeypatch):
    # the pruned query runs, and sums well under half of a full pass's
    # (row, order) cells, so a silent fallback to the full pass shows here
    n = 20_000
    ledger = _account_large_ledger(n)
    cells = []
    sums = accountant.IndividualLedger._sum

    def count(self, rows, charges, out, *rest, **options):
        cells.append(out.size)
        sums(self, rows, charges, out, *rest, **options)

    monkeypatch.setattr(accountant.IndividualLedger, "_sum", count)
    eps, best = ledger.epsilons()
    summed = sum(cells)
    cells.clear()
    want_eps, want_best = _eps_from_rdp(ledger.counts(), ledger.config.orders,
                                        ledger.config.delta)
    assert sum(cells) == n * ledger.config.orders.size
    assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)
    assert summed < 0.4 * n * ledger.config.orders.size


def test_a_table_that_dips_takes_the_full_pass(monkeypatch):
    # a curve table that is not nondecreasing along the orders voids the
    # bound that prunes: the ledger sees the dip and its query keeps every
    # gap, so the second pass sums every order but the other coarse ones
    n = 3_000
    ledger = IndividualLedger(n, _config(sampling_prob=0.01, rounding=0.01, frequency=24))
    orders, delta = ledger.config.orders, ledger.config.delta
    dipped = ledger.cache.rows.copy()
    dipped[:, orders.tolist().index(64)] = 0.0      # order 64 lies between 56 and 128
    monkeypatch.setattr(ledger.cache, "rows", dipped)
    _account_large_ledger(n, ledger)
    counts = ledger.counts()
    want_eps, want_best = _eps_from_rdp(counts, orders, delta)
    coarse = accountant._coarse_orders(orders)
    coarse_best = coarse[np.searchsorted(orders[coarse], _eps_from_rdp(
        counts[:, coarse], orders[coarse], delta)[1])]
    assert not ledger._monotone
    queries = _count_queries(monkeypatch)
    second = []         # (rows, orders) of each second-pass sum, picked by index
    sums = accountant.IndividualLedger._sum

    def count(self, rows, charges, out, gathered, cols=None, **options):
        if not isinstance(rows, slice):
            second.append((rows.copy(), cols.copy()))
        sums(self, rows, charges, out, gathered, cols, **options)

    monkeypatch.setattr(accountant.IndividualLedger, "_sum", count)
    eps, best = ledger.epsilons()
    assert queries == [(0, n)] and not ledger._monotone
    rest = np.setdiff1d(np.arange(orders.size), coarse)
    assert sum(rows.size * cols.size for rows, cols in second) == n * (rest.size + 1)
    seen = np.zeros(n, dtype=int)
    for rows, cols in second:
        seen[rows] += 1
        assert np.all(coarse_best[rows] == coarse_best[rows[0]])
        assert cols.tolist() == sorted(rest.tolist() + [coarse_best[rows[0]]])
    assert np.all(seen == 1)
    assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)
    # the dip is real: a pruned query that trusted the table would differ
    monkeypatch.setattr(accountant, "_nondecreasing", lambda table: True)
    ledger._monotone = True
    pruned = ledger.epsilons()
    assert len(queries) == 2 and not np.array_equal(pruned[1], want_best)


def test_queries_of_a_ledger_whose_table_dips_change_nothing():
    # the premise of the pruning bound is checked on the tables a query
    # sums, not recorded by it: with a folded state, a held charge, the
    # current table dipped after the last refresh and steps pending,
    # epsilons, report and counts leave every attribute of the ledger and
    # its table as it was
    ledger = _account_large_ledger(3_000)
    orders = ledger.config.orders
    dipped = ledger.cache.rows.copy()
    dipped[:, orders.tolist().index(64)] = 0.0      # order 64 lies between 56 and 128
    ledger.cache.rows = dipped
    assert ledger._rdp is not None and ledger._held and ledger._pending and ledger._monotone

    def attributes():
        # each by identity and value; an array's value is its bytes, and a
        # list of charges' the identities of the arrays it holds
        seen = {}
        for owner, obj in [("ledger", ledger), ("cache", ledger.cache)]:
            for name, value in vars(obj).items():
                if isinstance(value, np.ndarray):
                    seen[owner, name] = id(value), value.tobytes()
                elif isinstance(value, list):
                    seen[owner, name] = id(value), [id(a) for charge in value for a in charge]
                else:
                    seen[owner, name] = id(value), value
        return seen

    before = attributes()
    eps, best = ledger.epsilons()
    assert attributes() == before
    report = ledger.report()
    assert attributes() == before
    counts = ledger.counts()
    assert attributes() == before
    want_eps, want_best = _eps_from_rdp(counts, orders, ledger.config.delta)
    assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)
    assert np.array_equal(report.epsilons, want_eps)
    assert np.array_equal(report.best_orders, want_best)


def test_a_grid_past_53_coarse_orders_takes_the_one_query(monkeypatch):
    # q = 1 on 70 orders 1.41 x apart up to 4e10 would make 66 coarse
    # orders; capped at 53, the one query path serves it, bit for bit
    orders = np.unique(np.round(np.geomspace(2, 4e10, 70)))
    assert orders.size == 70 and accountant._coarse_orders(orders).size == 53
    cfg = AccountantConfig(noise_std=1.0, max_clip=1.0, sampling_prob=1.0, rounding=0.05,
                           orders=orders)
    ledger = IndividualLedger(500, cfg)
    rng = np.random.default_rng(3)
    for t in range(3):
        ledger.update_assignments(rng.gamma(2.0, 0.3, 500), step=t)
        ledger.record_step(t)
    queries = _count_queries(monkeypatch)
    eps, best = ledger.epsilons()
    want_eps, want_best = _eps_from_rdp(ledger.counts(), cfg.orders, cfg.delta)
    assert queries == [(0, 500)] and ledger._monotone
    assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)


def test_readme_library_quickstart_runs(tmp_path, monkeypatch):
    # the documented quickstart must run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(blocks[0], "README.md", "exec"), scope)
    eps, report = scope["eps"], scope["report"]
    assert eps.shape == (10_000,) and np.array_equal(report.epsilons, eps)
    assert set(report.group_means) == {0, 1}
    assert "epsilons" not in json.loads((tmp_path / "report.json").read_text())


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


@pytest.mark.parametrize("n", [1, 20_000])
@pytest.mark.parametrize("labelled", [False, True], ids=["no-labels", "labels"])
def test_report_json_bytes_equal_indent_1(tmp_path, n, labelled):
    # the per-example lists are encoded apart from the rest of the document,
    # yet the file is json.dumps(doc, indent=1) byte for byte: the document
    # read back holds the report's own values, and re-encoding it whole
    # gives the same bytes
    rng = np.random.default_rng(n)
    eps = rng.exponential(1.0, n) * 10.0 ** rng.integers(-9, 3, n)
    labels = rng.integers(-3, 1_000, n) if labelled else None
    report = PrivacyReport(epsilons=eps, best_orders=rng.integers(2, 257, n),
                           worst_epsilon=float(eps.max()), worst_order=9, delta=1e-5,
                           steps=40, n=n, config=_config().to_dict(), group_labels=labels)
    path = tmp_path / "report.json"
    report.to_json(str(path), unsafe_export_per_example=True)
    text = path.read_text()
    doc = json.loads(text)
    assert doc["epsilons"] == report.epsilons.tolist()
    assert doc["best_orders"] == report.best_orders.tolist()
    assert doc.get("group_labels") == (None if labels is None else labels.tolist())
    assert text == json.dumps(doc, indent=1) + "\n"


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


@pytest.mark.parametrize("best_orders, message", [
    ([2, 2], "expected 3 best orders, got shape (2,)"),
    ([[2, 2, 2]], "expected 3 best orders, got shape (1, 3)"),
    ([2, 1, 2], "an order must be an integer >= 2"),
], ids=["short", "2-d", "order_1"])
def test_report_rejects_bad_best_orders(best_orders, message):
    # each used to be accepted; to_json then wrote a file that from_json refuses
    with pytest.raises(ValueError, match=re.escape(message)):
        PrivacyReport(epsilons=[1.0] * 3, best_orders=best_orders, worst_epsilon=2.0,
                      worst_order=2, delta=1e-5, steps=3, n=3, config={})


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
    # each step deterministically echoes a function of the prefix
    def step0(prefix, d):
        return (1.0, 0.0) if d == 0 else (0.0, 1.0)

    def step1(prefix, d):
        out = [0.0, 0.0, 0.0]
        out[(prefix[0] + d) % 3] = 1.0
        return out

    def step2(prefix, d):
        out = [0.0, 0.0]
        out[(prefix[0] + prefix[1]) % 2] = 1.0
        return out

    spec = AdaptiveSpec([2, 3, 2], [step0, step1, step2])
    assert enumerate_adaptive_vs_fixed(spec) == 0.0


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
