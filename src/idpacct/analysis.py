"""Post-hoc analytics over a privacy report: epsilon-vs-log-loss
correlation, per-group aggregates, and epsilon histograms with quantile and
worst-case markers."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._fileio import atomic_write
from .accountant import PrivacyReport

LOSS_FLOOR = 1e-12      # separable tasks drive losses to 0; log needs a floor


class DegenerateVarianceError(ValueError):
    """Correlation is undefined when either sample has zero variance."""


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length samples with at least 2 points")
    xc = x - np.mean(x)
    yc = y - np.mean(y)
    vx = float(np.dot(xc, xc))
    vy = float(np.dot(yc, yc))
    if vx == 0.0 or vy == 0.0:
        raise DegenerateVarianceError("zero variance in a correlation input")
    return float(np.dot(xc, yc) / math.sqrt(vx * vy))


@dataclass
class CorrelationResult:
    pearson_r: float
    slope: float          # epsilon ~ slope * log(loss) + intercept
    intercept: float
    n: int


def eps_loss_correlation(report: PrivacyReport, losses: Sequence[float]) -> CorrelationResult:
    """Pearson between per-example epsilon and log final loss, plus the
    least-squares line of epsilon on log-loss."""
    loss = np.asarray(losses, dtype=np.float64)
    if loss.shape != report.epsilons.shape:
        raise ValueError("losses are not aligned with the report's examples")
    log_loss = np.log(np.maximum(loss, LOSS_FLOOR))
    r = pearson(report.epsilons, log_loss)
    slope, intercept = np.polyfit(log_loss, report.epsilons, 1)
    return CorrelationResult(pearson_r=r, slope=float(slope),
                             intercept=float(intercept), n=int(loss.size))


@dataclass
class GroupSummary:
    """Rows sorted by mean epsilon (stable); disparity is
    (max group-mean epsilon - min) / min."""
    rows: list              # dicts: group, size, mean_epsilon, mean_loss, accuracy
    disparity: float

    def group(self, g: int) -> dict:
        for row in self.rows:
            if row["group"] == g:
                return row
        raise KeyError(f"no group {g}")


def group_summary(report: PrivacyReport, losses: Sequence[float],
                  groups: Sequence[int],
                  accuracies: Optional[dict] = None) -> GroupSummary:
    loss = np.asarray(losses, dtype=np.float64)
    gid = np.asarray(groups, dtype=np.int64)
    if loss.shape != report.epsilons.shape or gid.shape != report.epsilons.shape:
        raise ValueError("losses/groups are not aligned with the report's examples")
    if gid.size == 0:
        raise ValueError("empty group assignment")
    rows = []
    for g in np.unique(gid):
        mask = gid == g
        row = {
            "group": int(g),
            "size": int(np.sum(mask)),
            "mean_epsilon": float(np.mean(report.epsilons[mask])),
            "mean_loss": float(np.mean(loss[mask])),
        }
        if accuracies is not None:
            row["accuracy"] = accuracies.get(int(g))
        rows.append(row)
    means = np.asarray([r["mean_epsilon"] for r in rows])
    order = np.argsort(means, kind="stable")
    rows = [rows[i] for i in order]
    lo, hi = float(means.min()), float(means.max())
    return GroupSummary(rows=rows, disparity=(hi - lo) / lo if lo > 0 else 0.0)


@dataclass
class HistogramResult:
    edges: np.ndarray
    counts: np.ndarray
    quantile_markers: dict       # fraction -> epsilon position
    worst_marker: float


def histogram(report: PrivacyReport, bins: int = 30,
              marker_fractions: Sequence[float] = (0.3, 0.5, 0.7)) -> HistogramResult:
    """Counts of per-example epsilon over [0, worst-case epsilon], with
    empirical quantile markers and the worst-case position.  Values a few
    ulps above the worst case (summed charges of a saturated example) count
    in the last bin."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    worst = report.worst_epsilon
    counts, edges = np.histogram(np.minimum(report.epsilons, worst), bins=bins,
                                 range=(0.0, worst))
    markers = {float(f): float(np.quantile(report.epsilons, f))
               for f in marker_fractions}
    return HistogramResult(edges=edges, counts=counts,
                           quantile_markers=markers,
                           worst_marker=worst)


def write_analysis_json(path: str, corr: Optional[CorrelationResult],
                        summary: Optional[GroupSummary],
                        hist: HistogramResult) -> None:
    doc = {
        "format": "idpacct-analysis",
        "version": 1,
        "correlation": None if corr is None else {
            "pearson_r": corr.pearson_r, "slope": corr.slope,
            "intercept": corr.intercept, "n": corr.n,
        },
        "groups": None if summary is None else {
            "rows": summary.rows, "disparity": summary.disparity,
        },
        "histogram": {
            "edges": [float(e) for e in hist.edges],
            "counts": [int(c) for c in hist.counts],
            "quantile_markers": {str(k): v for k, v in hist.quantile_markers.items()},
            "worst_marker": hist.worst_marker,
        },
    }
    atomic_write(path, json.dumps(doc, indent=1) + "\n")


def write_histogram_csv(path: str, hist: HistogramResult) -> None:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["bin_left", "bin_right", "count"])
    for i, c in enumerate(hist.counts):
        w.writerow([repr(float(hist.edges[i])), repr(float(hist.edges[i + 1])), int(c)])
    atomic_write(path, buf.getvalue())


def write_scatter_csv(path: str, report: PrivacyReport, losses: Sequence[float],
                      groups: Optional[Sequence[int]] = None) -> None:
    """Per-example (epsilon, log-loss, group) table — sensitive output,
    export-gated by callers."""
    loss = np.asarray(losses, dtype=np.float64)
    log_loss = np.log(np.maximum(loss, LOSS_FLOOR))
    gs = [""] * report.n if groups is None else np.asarray(groups, dtype=np.int64).tolist()
    # the rows csv.writer writes: float repr, CRLF, no field needs quoting
    rows = zip(range(report.n), report.epsilons.tolist(), log_loss.tolist(), gs, strict=True)
    atomic_write(path, "example_id,epsilon,log_loss,group\r\n"
                 + "".join([f"{i},{e!r},{x!r},{g}\r\n" for i, e, x, g in rows]))
