"""Tests for the synthetic-task DP-SGD trainer: data generation, analytic
per-example gradients, clipping, Poisson sampling, the training loop's
mechanics, and the exact reference accounting oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from idpacct import dpsgd_sim, kernel
from idpacct.accountant import AccountantConfig, IndividualLedger, worst_case_epsilon
from idpacct.rdp_math import RdpCurve, _eps_from_rdp, rdp_to_dp, sgm_rdp_curve
from idpacct.dpsgd_sim import (
    Dataset,
    LogisticModel,
    MlpModel,
    NanAbortError,
    SimConfig,
    _clip_rows,
    accuracy,
    exact_reference_accounting,
    generate_synthetic,
    make_model,
    poisson_sample,
    train,
)

from conftest import kernel_call_bound, max_rel_diff, run_child, traced_peak


# ----------------------------------------------------------- synthetic ---

def test_symmetric_blobs_have_near_equal_class_norms():
    cfg = SimConfig(n=2000, d=10, separation=4.0, seed=5)
    ds = generate_synthetic(cfg)
    model = LogisticModel(cfg.d)     # zeros: gradient is (0.5 - y) x
    norms = np.linalg.norm(model.per_example_grads(ds.x, ds.y), axis=1)
    m0 = float(np.mean(norms[ds.y == 0]))
    m1 = float(np.mean(norms[ds.y == 1]))
    assert abs(m0 - m1) / max(m0, m1) < 0.10


def test_zero_separation_is_unlearnable():
    cfg = SimConfig(n=400, d=6, separation=0.0, noise_std=0.0, clip=np.inf,
                    sampling_prob=1.0, epochs=5, lr=0.001, seed=2)
    out = train(cfg)
    assert abs(float(np.mean(out.losses)) - math.log(2)) < 0.05


def test_minority_group_has_higher_final_loss():
    cfg = SimConfig(n=1000, d=10, group_proportions=(0.9, 0.1), separation=4.0,
                    noise_std=1.0, sampling_prob=0.1, epochs=10, lr=0.05, seed=1)
    ds = generate_synthetic(cfg)
    out = train(cfg, ds)
    mean0 = float(np.mean(out.losses[ds.groups == 0]))
    mean1 = float(np.mean(out.losses[ds.groups == 1]))
    assert mean1 > mean0


def test_generate_synthetic_deterministic_and_counts():
    cfg = SimConfig(n=8, d=3, group_proportions=(0.25, 0.75), seed=9)
    a = generate_synthetic(cfg)
    b = generate_synthetic(cfg)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.groups, b.groups)
    assert np.sum(a.groups == 0) == 2 and np.sum(a.groups == 1) == 6
    assert np.array_equal(a.y, a.groups % 2)


def test_sim_config_track_ids_must_be_integers():
    # fractional ids used to be truncated (1.7 tracked example 1)
    for bad in ([1.7, 2.2], [True, False], np.asarray([0.0, 1.0]), 3):
        with pytest.raises(ValueError, match="track_ids"):
            SimConfig(n=20, track_ids=bad)
    for bad in ([20], [0, -1]):         # used to fail in train, with an IndexError
        with pytest.raises(ValueError, match=r"integers in \[0, n = 20\), got \["):
            SimConfig(n=20, track_ids=bad)
    assert SimConfig(n=20, track_ids=np.arange(3)).track_ids == (0, 1, 2)


def test_generate_synthetic_rejects_empty_group():
    with pytest.raises(ValueError):
        generate_synthetic(SimConfig(n=3, group_proportions=(0.999, 0.001)))


# ----------------------------------------------------------- gradients ---

def test_logistic_gradient_at_zero_params():
    ds = generate_synthetic(SimConfig(n=20, d=4, seed=0))
    model = LogisticModel(4)
    grads = model.per_example_grads(ds.x, ds.y)
    expected = (0.5 - ds.y)[:, None] * ds.x
    assert np.allclose(grads, expected, rtol=0, atol=0)


@pytest.mark.parametrize("model_name", ["logistic", "mlp"])
def test_gradients_match_central_differences(model_name):
    cfg = SimConfig(n=6, d=3, model=model_name, hidden=4, seed=11)
    ds = generate_synthetic(cfg)
    rng = np.random.default_rng(4)
    model = make_model(cfg, rng)
    model.params = model.params + 0.3 * rng.standard_normal(model.params.shape)
    grads = model.per_example_grads(ds.x, ds.y)
    h = 1e-5
    theta = model.params.copy()
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = h
        model.params = theta + bump
        up = model.losses(ds.x, ds.y)
        model.params = theta - bump
        down = model.losses(ds.x, ds.y)
        fd = (up - down) / (2 * h)
        assert np.allclose(grads[:, j], fd, rtol=1e-6, atol=1e-8)
    model.params = theta


def test_duplicate_examples_get_identical_gradients():
    x = np.vstack([[1.0, -2.0, 0.5]] * 3)
    ds = Dataset(x, np.asarray([1, 1, 1]), np.asarray([0, 0, 0]))
    cfg = SimConfig(n=3, d=3, model="mlp", hidden=5, seed=7)
    model = make_model(cfg, np.random.default_rng(7))
    grads = model.per_example_grads(ds.x, ds.y)
    assert np.array_equal(grads[0], grads[1]) and np.array_equal(grads[1], grads[2])


# ------------------------------------------------------------- clipping ---

def _clip(g, threshold):
    """One gradient clipped the way ``train`` clips each sampled row."""
    return _clip_rows(np.asarray([g], dtype=np.float64), np.asarray([threshold]))[0]


def test_clip_below_threshold_unchanged():
    g = np.asarray([0.3, 0.4])                 # norm 0.5
    assert np.array_equal(_clip(g, 1.0), g)


def test_clip_scales_to_threshold_same_direction():
    g = np.asarray([0.0, 4.0])
    c = _clip(g, 1.0)
    assert np.linalg.norm(c) == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert c[0] == 0.0 and c[1] > 0


def test_clip_boundary_unchanged():
    g = np.asarray([3.0, 4.0])                 # norm 5
    assert np.array_equal(_clip(g, 5.0), g)


def test_clip_zero_vector_and_bad_threshold():
    # a zero row passes through unchanged, with no 0/0 warning
    assert np.array_equal(_clip(np.zeros(3), 1.0), np.zeros(3))
    assert np.array_equal(_clip(np.zeros(3), 0.0), np.zeros(3))


def test_clip_rows_per_row_thresholds():
    # individual clipping: each sampled row is clipped to its own bucket
    g = np.asarray([[3.0, 4.0], [0.3, 0.4], [0.0, 0.0], [6.0, 8.0], [-3.0, 4.0]])
    thresholds = np.asarray([1.0, 1.0, 0.5, 10.0, 2.5])
    out = _clip_rows(g, thresholds)
    assert out.shape == g.shape
    norms = np.linalg.norm(out, axis=1)
    want = np.minimum(np.linalg.norm(g, axis=1), thresholds)
    np.testing.assert_allclose(norms, want, rtol=1e-15, atol=0)
    for row, thr, clipped in zip(g, thresholds, out):
        assert np.array_equal(clipped, _clip(row, thr))
        assert np.all(np.sign(clipped) == np.sign(row))     # same direction
    assert np.array_equal(out[[1, 2, 3]], g[[1, 2, 3]])     # at or under threshold


# ------------------------------------------------------------- sampling ---

def test_poisson_sample_edges():
    rng = np.random.default_rng(0)
    assert poisson_sample(100, 0.0, rng).size == 0
    assert np.array_equal(poisson_sample(100, 1.0, rng), np.arange(100))


def test_poisson_sample_concentration():
    rng = np.random.default_rng(3)
    n, p, draws = 10_000, 0.1, 100
    counts = [poisson_sample(n, p, rng).size for _ in range(draws)]
    assert abs(np.mean(counts) - n * p) <= 4 * math.sqrt(n * p * (1 - p))


# ----------------------------------------------------------- train loop ---

def test_matches_plain_gradient_descent_when_mechanism_off():
    cfg = SimConfig(n=60, d=5, noise_std=0.0, clip=np.inf, sampling_prob=1.0,
                    epochs=15, lr=0.01, seed=13)
    ds = generate_synthetic(cfg)
    out = train(cfg, ds)
    # reference: same update rule with the privacy machinery removed
    ref = LogisticModel(cfg.d)
    for _ in range(cfg.total_steps):
        grad_sum = np.sum(ref.per_example_grads(ds.x, ds.y), axis=0)
        ref.params = ref.params - cfg.lr * grad_sum
    assert np.max(np.abs(out.model.params - ref.params)) <= 1e-9
    assert out.ledger is None                  # mechanism off -> no accounting


def test_noiseless_training_reduces_loss():
    cfg = SimConfig(n=300, d=8, noise_std=0.0, clip=np.inf, sampling_prob=1.0,
                    epochs=10, lr=0.01, seed=21)
    out = train(cfg)
    assert float(np.mean(out.losses)) < math.log(2)    # zeros-init loss is ln 2
    assert accuracy(out.model, generate_synthetic(cfg)) > 0.9


def test_train_deterministic_under_seed():
    cfg = SimConfig(n=120, d=6, epochs=3, seed=31, track_ids=[0, 5, 7])
    a = train(cfg)
    b = train(cfg)
    assert np.array_equal(a.losses, b.losses)
    assert np.array_equal(a.trace_norms, b.trace_norms)
    assert np.array_equal(a.model.params, b.model.params)
    assert np.array_equal(a.tracked_norms, b.tracked_norms)


def test_trace_and_ledger_coupling():
    cfg = SimConfig(n=80, d=4, epochs=2, sampling_prob=0.1, gamma=2, seed=17)
    out = train(cfg)
    assert out.steps == cfg.total_steps
    assert out.ledger.steps == out.steps
    refresh_steps = range(0, out.steps, out.header.frequency)
    assert out.trace_norms.shape == (len(refresh_steps), cfg.n)



@pytest.mark.parametrize("model_name", ["logistic", "mlp"])
def test_train_makes_one_full_batch_pass_per_refresh(monkeypatch, model_name):
    # the t = 0 refresh reuses the pass that resolves the clip, as the
    # parameters have not moved yet; it used to make one more
    cfg = SimConfig(n=40, d=4, model=model_name, hidden=3, epochs=3, sampling_prob=0.1,
                    gamma=2, seed=3, track_ids=[1, 4])
    ds = generate_synthetic(cfg)
    full_passes = []

    def counted(config, rng):
        model = make_model(config, rng)
        grads = model.per_example_grads

        def per_example_grads(x, y):
            full_passes.append(x is ds.x)
            return grads(x, y)

        model.per_example_grads = per_example_grads
        return model

    monkeypatch.setattr(dpsgd_sim, "make_model", counted)
    out = train(cfg, ds)
    assert sum(full_passes) == out.header.n_refreshes == 6

def test_nan_abort_reports_step():
    cfg = SimConfig(n=50, d=4, model="mlp", hidden=8, lr=1e308, noise_std=0.0,
                    clip=np.inf, sampling_prob=1.0, epochs=3, seed=0)
    with pytest.raises(NanAbortError):
        train(cfg)


def test_individual_clipping_reaccounting_is_exact():
    cfg = SimConfig(n=100, d=6, epochs=4, sampling_prob=0.1, noise_std=1.0,
                    clip=1.0, rounding=0.05, gamma=2, clipping="individual",
                    seed=23, track_ids=range(100))
    out = train(cfg)
    eps_ledger, _ = out.ledger.epsilons()
    # realized sensitivity each step is the assigned bucket; re-account it
    # exactly (per-step curves, no rounding)
    eps_exact, _ = exact_reference_accounting(out.tracked_buckets,
                                              out.ledger.config)
    assert max_rel_diff(eps_ledger, eps_exact) <= 1e-12


# ------------------------------------------------- reference accounting ---

def test_exact_reference_static_norms_equals_ledger_any_frequency():
    cfg = AccountantConfig(noise_std=1.0, max_clip=1.0, sampling_prob=0.1,
                           rounding=0.0, frequency=3)
    norms = np.tile(np.asarray([[0.2, 0.8, 1.4]]), (12, 1))   # static
    eps_exact, _ = exact_reference_accounting(norms, cfg)
    ledger = IndividualLedger(3, cfg)
    for t in range(12):
        if t % 3 == 0:
            ledger.update_assignments(norms[t], step=t)
        ledger.record_step(t)
    eps_ledger, _ = ledger.epsilons()
    assert max_rel_diff(eps_exact, eps_ledger) <= 1e-12


def test_exact_reference_equals_composed_per_step_curves():
    cfg = AccountantConfig(noise_std=0.9, max_clip=1.0, sampling_prob=0.05,
                           rounding=0.0)
    norms = np.asarray([[0.5, 0.0, 1.7, 0.5],
                        [0.5, 0.3, 0.0, 0.0],
                        [0.2, 0.3, 2.5, 0.0],
                        [0.5, 0.0, 1.7, 0.9],
                        [0.0, 0.0, 0.0, 0.0]])      # repeated and zero norms
    eps, _ = exact_reference_accounting(norms, cfg)
    for i in range(norms.shape[1]):
        total = np.zeros(cfg.orders.shape)
        for z in np.minimum(norms[:, i], cfg.max_clip):
            mult = math.inf if z == 0.0 else cfg.noise_std / z
            total = total + sgm_rdp_curve(cfg.sampling_prob, mult, cfg.orders).values
        assert eps[i] == pytest.approx(rdp_to_dp(RdpCurve(cfg.orders, total), cfg.delta)[0],
                                       rel=1e-12, abs=0.0)


def test_exact_reference_negative_zero_norm_is_zero_sensitivity():
    # -0.0 would make the multiplier -inf, which the kernel refuses; it is
    # the zero sensitivity of +0.0, in a column alone and among other norms
    cfg = AccountantConfig(noise_std=0.9, max_clip=1.0, sampling_prob=0.05,
                           rounding=0.0)
    norms = np.asarray([[-0.0, 0.0, -0.0, 0.0],
                        [-0.0, 0.0, 0.5, 0.5],
                        [-0.0, 0.0, 0.7, 0.7]])
    eps, best = exact_reference_accounting(norms, cfg)
    assert eps[0] == eps[1] and eps[2] == eps[3]
    assert best[0] == best[1] and best[2] == best[3]
    assert eps[0] < eps[2]


def test_exact_reference_saturated_norms_equal_worst_case(rng):
    cfg = AccountantConfig(noise_std=1.2, max_clip=1.0, sampling_prob=0.05,
                           rounding=0.0)
    norms = 1.0 + rng.uniform(0, 5, (40, 6))     # everything clips to C
    eps, _ = exact_reference_accounting(norms, cfg)
    worst = worst_case_epsilon(cfg, 40)
    assert np.max(np.abs(eps - worst)) <= 1e-9


def _unblocked_reference(norms, cfg):
    """The reference composed in one piece: one np.unique over every cell,
    one kernel call, then each example's curves summed in step order."""
    z = np.minimum(norms, cfg.max_clip)
    with np.errstate(divide="ignore"):
        mult = cfg.noise_std / z
    uniq, inv = np.unique(mult, return_inverse=True)
    rows = kernel.sgm_rdp_matrix(cfg.sampling_prob, uniq, cfg.orders)
    rdp = np.zeros((norms.shape[1], cfg.orders.size))
    for step in inv.reshape(norms.shape):
        rdp += rows[step]
    return _eps_from_rdp(rdp, cfg.orders, cfg.delta)


@pytest.mark.parametrize("steps, m", [(4, 7), (1, 29), (20, 5), (3, 0)],
                         ids=["ragged-last-block", "one-step", "one-example-blocks",
                              "no-examples"])
def test_exact_reference_blocks_equal_one_unblocked_composition(monkeypatch, steps, m):
    cells = 12
    monkeypatch.setattr(dpsgd_sim, "_REFERENCE_BLOCK_CELLS", cells)
    calls = []
    kernel_rows = dpsgd_sim.sgm_rdp_matrix

    def counting(q, mult, orders):
        calls.append(mult.size)
        return kernel_rows(q, mult, orders)

    monkeypatch.setattr(dpsgd_sim, "sgm_rdp_matrix", counting)
    cfg = AccountantConfig(noise_std=0.9, max_clip=1.0, sampling_prob=0.05, rounding=0.0)
    # tenths up to 2C: repeats within and across blocks, some above C
    norms = np.random.default_rng(steps * 100 + m).uniform(0.0, 2.0, (steps, m)).round(1)
    norms[-1] = 1.5                     # above C, in every example and so every block
    norms[0, ::2] = 0.0                 # zero sensitivity: an infinite multiplier
    eps, best = exact_reference_accounting(norms, cfg)
    want_eps, want_best = _unblocked_reference(norms, cfg)
    width = max(1, cells // steps)
    assert len(calls) == -(-m // width)                 # one kernel call per block
    assert eps.shape == best.shape == (m,)
    np.testing.assert_allclose(eps, want_eps, rtol=1e-14, atol=0.0)
    assert np.array_equal(best, want_best)


def test_exact_reference_memory_bounded_by_block():
    # all-distinct norms: 100,000 curves, a 52 MB table if built at once
    cfg = AccountantConfig(noise_std=20.0, max_clip=1.0, sampling_prob=0.05, rounding=0.0)
    norms = np.random.default_rng(11).uniform(0.5, 1.0, (250, 400))
    orders = cfg.orders.size
    assert np.unique(norms).size == norms.size
    assert norms.size * orders * 8 >= 50e6
    _, peak = traced_peak(exact_reference_accounting, norms, cfg)
    cells = dpsgd_sim._REFERENCE_BLOCK_CELLS
    block = cells * orders * 8
    # the bound its docstring states: one block's curves, then the larger of
    # a kernel call's extra memory and the block's gathered rows, and the
    # (m, orders) total with the conversion's copies of it
    call = kernel_call_bound(cfg.sampling_prob, cfg.orders, cells)
    assert peak <= block + max(call, block) + 4 * norms.shape[1] * orders * 8


_RSS_PROBE = """
import numpy as np
from idpacct.accountant import AccountantConfig
from idpacct.dpsgd_sim import exact_reference_accounting
cfg = AccountantConfig(noise_std=20.0, max_clip=1.0, sampling_prob=0.05, rounding=0.0)
norms = np.random.default_rng(0).uniform(0.5, 1.0, (1000, 1000))
eps, _ = exact_reference_accounting(norms, cfg)
assert np.all(np.isfinite(eps))
with open("/proc/self/status") as f:
    print(next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")) / 1024)
"""


def test_exact_reference_peak_rss_bounded_at_a_million_distinct_cells():
    # 1,000 steps x 1,000 examples, every norm distinct: one curve table for
    # all 10^6 cells would take 520 MB on its own; run in a child, whose
    # peak RSS (Linux's VmHWM, in KiB) is this run's alone.  Its ru_maxrss is
    # not: exec carries over the peak of the process that started it, here
    # this test run's.  The norms are checked distinct here, since
    # np.unique's copies in the child would outgrow the reference's peak
    norms = np.random.default_rng(0).uniform(0.5, 1.0, (1000, 1000))
    assert np.unique(norms).size == norms.size
    out = run_child(["-c", _RSS_PROBE])
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) < 100


def test_exact_reference_rejects_bad_input():
    cfg = AccountantConfig(noise_std=1.0, max_clip=1.0, sampling_prob=0.1,
                           rounding=0.0)
    with pytest.raises(ValueError):
        exact_reference_accounting(np.asarray([0.5, 0.5]), cfg)     # 1-D
    with pytest.raises(ValueError):
        exact_reference_accounting(np.asarray([[-0.5]]), cfg)
    with pytest.raises(ValueError):
        exact_reference_accounting(np.asarray([[np.inf]]), cfg)
