"""Tests for the analytics layer: correlation, group aggregates, and the
epsilon histogram with quantile/worst-case markers."""

from __future__ import annotations

import csv
import io
import json

import numpy as np
import pytest

from idpacct.accountant import PrivacyReport
from idpacct.analysis import (
    LOSS_FLOOR,
    DegenerateVarianceError,
    eps_loss_correlation,
    group_summary,
    histogram,
    pearson,
    write_analysis_json,
    write_histogram_csv,
    write_scatter_csv,
)


def _report(epsilons, worst=None) -> PrivacyReport:
    eps = np.asarray(epsilons, dtype=np.float64)
    worst = float(eps.max()) if worst is None else worst
    return PrivacyReport(epsilons=eps, best_orders=np.full(eps.size, 2),
                         worst_epsilon=worst, worst_order=2, delta=1e-5,
                         steps=10, n=eps.size, config={})


# -------------------------------------------------------------- pearson ---

def test_pearson_perfect_linear():
    xs = np.linspace(0, 5, 40)
    assert pearson(xs, 2 * xs + 1) == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_anticorrelation():
    xs = np.linspace(-2, 7, 25)
    assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_independent_samples_near_zero():
    rng = np.random.default_rng(12)
    xs = rng.standard_normal(10_000)
    ys = rng.standard_normal(10_000)
    assert abs(pearson(xs, ys)) < 0.05


def test_pearson_degenerate_variance():
    with pytest.raises(DegenerateVarianceError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateVarianceError):
        pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_pearson_validates_shapes():
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])


# -------------------------------------------------- eps-loss correlation ---

def test_correlation_epsilon_equals_log_loss():
    rng = np.random.default_rng(8)
    losses = rng.uniform(0.01, 2.0, 200)
    report = _report(np.log(losses) + 10.0)     # shift keeps epsilon positive
    result = eps_loss_correlation(report, losses)
    assert result.pearson_r == pytest.approx(1.0, abs=1e-12)
    assert result.slope == pytest.approx(1.0, abs=1e-9)
    assert result.intercept == pytest.approx(10.0, abs=1e-9)
    assert result.n == 200


def test_correlation_uniform_epsilons_signals_degeneracy():
    losses = np.random.default_rng(9).uniform(0.1, 1.0, 50)
    report = _report(np.full(50, 2.5))
    with pytest.raises(DegenerateVarianceError):
        eps_loss_correlation(report, losses)


def test_correlation_floors_zero_losses():
    report = _report([1.0, 2.0, 3.0])
    result = eps_loss_correlation(report, [0.0, 0.5, 1.0])   # log(0) floored
    assert np.isfinite(result.pearson_r)


# ------------------------------------------------------------- groups ---

def test_group_summary_zero_disparity_for_identical_groups():
    report = _report([1.5, 1.5, 1.5, 1.5])
    summary = group_summary(report, [0.2, 0.2, 0.2, 0.2], [0, 0, 1, 1])
    assert summary.disparity == 0.0


def test_group_summary_recomputes_means_exactly():
    eps = np.asarray([1.0, 3.0, 2.0, 6.0, 1.5])
    losses = np.asarray([0.1, 0.3, 0.2, 0.9, 0.4])
    groups = np.asarray([0, 1, 0, 1, 2])
    report = _report(eps)
    summary = group_summary(report, losses, groups)
    for g in (0, 1, 2):
        row = summary.group(g)
        assert row["mean_epsilon"] == float(np.mean(eps[groups == g]))
        assert row["mean_loss"] == float(np.mean(losses[groups == g]))
        assert row["size"] == int(np.sum(groups == g))
    lo = min(r["mean_epsilon"] for r in summary.rows)
    hi = max(r["mean_epsilon"] for r in summary.rows)
    assert summary.disparity == pytest.approx((hi - lo) / lo)


def test_group_summary_sorted_by_mean_epsilon():
    report = _report([5.0, 1.0, 3.0])
    summary = group_summary(report, [0.1, 0.2, 0.3], [0, 1, 2])
    means = [r["mean_epsilon"] for r in summary.rows]
    assert means == sorted(means)


def test_group_summary_carries_accuracy():
    report = _report([1.0, 2.0])
    summary = group_summary(report, [0.1, 0.2], [0, 1],
                            accuracies={0: 0.9, 1: 0.7})
    assert summary.group(0)["accuracy"] == 0.9
    assert summary.group(1)["accuracy"] == 0.7


# ------------------------------------------------------------ histogram ---

def test_histogram_single_bin_counts_everything():
    report = _report([0.5, 1.0, 2.0, 3.0], worst=4.0)
    hist = histogram(report, bins=1)
    assert hist.counts.tolist() == [4]
    assert hist.edges[0] == 0.0 and hist.edges[-1] == 4.0


def test_histogram_all_at_worst_case_fills_last_bin():
    report = _report([4.0, 4.0, 4.0], worst=4.0)
    hist = histogram(report, bins=10)
    assert hist.counts[-1] == 3 and hist.counts[:-1].sum() == 0


def test_histogram_counts_sum_to_n():
    rng = np.random.default_rng(3)
    eps = rng.uniform(0, 7.5, 500)
    report = _report(eps, worst=8.0)
    hist = histogram(report, bins=30)
    assert int(hist.counts.sum()) == 500
    assert hist.worst_marker == 8.0


def test_histogram_counts_saturated_examples_above_worst_case():
    # a saturated example's summed charges can land a few ulps above the
    # worst case, which the histogram over [0, worst] used to drop
    worst = 4.2
    report = _report(worst + np.spacing(worst) * np.arange(1.0, 5.0), worst=worst)
    assert np.all(report.epsilons > report.worst_epsilon)
    hist = histogram(report)
    assert hist.counts.tolist() == [0] * 29 + [4]
    assert hist.worst_marker == report.worst_epsilon


def test_histogram_markers_are_empirical_quantiles():
    eps = np.asarray([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    report = _report(eps, worst=9.0)
    hist = histogram(report)
    for frac in (0.3, 0.5, 0.7):
        assert hist.quantile_markers[frac] == float(np.quantile(eps, frac))


def test_histogram_rejects_bad_bins():
    with pytest.raises(ValueError):
        histogram(_report([1.0]), bins=0)


# -------------------------------------------------------------- writers ---

def test_analysis_writers(tmp_path):
    rng = np.random.default_rng(6)
    losses = rng.uniform(0.05, 1.0, 60)
    eps = 1.0 + 2.0 * np.log(1.0 / losses)
    groups = np.asarray([i % 2 for i in range(60)])
    report = _report(eps)
    corr = eps_loss_correlation(report, losses)
    summary = group_summary(report, losses, groups)
    hist = histogram(report)

    jpath = tmp_path / "analysis.json"
    write_analysis_json(str(jpath), corr, summary, hist)
    doc = json.loads(jpath.read_text())
    assert doc["format"] == "idpacct-analysis"
    assert doc["correlation"]["n"] == 60
    assert len(doc["histogram"]["counts"]) == 30
    assert sum(doc["histogram"]["counts"]) == 60

    hpath = tmp_path / "hist.csv"
    write_histogram_csv(str(hpath), hist)
    rows = list(csv.DictReader(hpath.read_text().splitlines()))
    assert len(rows) == 30
    assert sum(int(r["count"]) for r in rows) == 60

    spath = tmp_path / "scatter.csv"
    write_scatter_csv(str(spath), report, losses, groups)
    rows = list(csv.DictReader(spath.read_text().splitlines()))
    assert len(rows) == 60
    assert float(rows[0]["epsilon"]) == eps[0]


def _scatter_csv_by_row(report, losses, groups=None) -> str:
    # the csv.writer loop that write_scatter_csv replaced
    log_loss = np.log(np.maximum(np.asarray(losses, dtype=np.float64), LOSS_FLOOR))
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["example_id", "epsilon", "log_loss", "group"])
    for i in range(report.n):
        g = "" if groups is None else int(groups[i])
        w.writerow([i, repr(float(report.epsilons[i])), repr(float(log_loss[i])), g])
    return buf.getvalue()


@pytest.mark.parametrize("with_groups", [False, True], ids=["no_groups", "groups"])
def test_scatter_csv_matches_csv_writer(tmp_path, with_groups):
    rng = np.random.default_rng(13)
    losses = np.concatenate([rng.exponential(size=300), [0.0, 1e-320, 1e300]])
    eps = np.concatenate([rng.gamma(2.0, 3.0, size=300), [0.0, 5e-324, 1e17]])
    groups = rng.integers(0, 5, eps.size) if with_groups else None
    report = _report(eps)
    path = tmp_path / "scatter.csv"
    write_scatter_csv(str(path), report, losses, groups)
    assert path.read_bytes() == _scatter_csv_by_row(report, losses, groups).encode()
