"""Desk-scale DP-SGD simulator with analytic per-example gradients.

Synthetic Gaussian-blob tasks, logistic regression or a one-hidden-layer
tanh MLP, Poisson sampling, per-example clipping (to the shared threshold C
or, in individual mode, to each example's own rounded sensitivity bucket),
and Gaussian noise on the summed update.  Training drives an attached
per-example ledger: full-batch norms are recomputed whenever
t mod K == 0 and every example is charged at every step.  Everything is
deterministic under the config seed.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .accountant import AccountantConfig, IndividualLedger
from .kernel import sgm_rdp_matrix
from .rdp_math import _check_fields, _check_orders, _eps_from_rdp, default_orders


class NanAbortError(RuntimeError):
    """Parameters became non-finite during training."""

    def __init__(self, step: int):
        super().__init__(f"non-finite parameters after step {step}")
        self.step = step


@dataclass
class SimConfig:
    """Synthetic task + DP-SGD hyperparameters.

    Groups are Gaussian blobs; group g carries label g mod 2 and its class
    center sits at +/- separation/2 along a group-specific axis, so
    separation 0 makes labels unlearnable.  gamma is the number of
    full-batch norm refreshes per epoch and maps to the accountant's
    K = floor(steps_per_epoch / gamma) (floored at 1).  noise_std == 0 or an
    infinite clip disables the privacy mechanism (and the ledger).
    """

    n: int = 1000
    d: int = 20
    group_proportions: Sequence[float] = (0.5, 0.5)
    separation: float = 4.0
    group_noise_scales: Sequence[float] = (1.0, 1.0)
    model: str = "logistic"
    hidden: int = 16
    lr: float = 0.1
    clip: Optional[float] = None          # None: median of norms at init
    noise_std: float = 1.0
    sampling_prob: float = 0.05
    epochs: int = 10
    gamma: int = 3
    rounding: Optional[float] = None      # None: 0.01 * clip; 0 disables
    clipping: str = "max"
    delta: float = 1e-5
    seed: int = 0
    track_ids: Optional[Sequence[int]] = None
    orders: np.ndarray = field(default_factory=default_orders)

    def __post_init__(self):
        # clip and rounding may be None (resolved in train); clip may be inf
        optional = tuple(name for name in ("clip", "rounding")
                         if getattr(self, name) is not None)
        _check_fields(self, numbers=("separation", "lr", "noise_std", "sampling_prob",
                                     "delta") + optional,
                      finite=("separation", "lr", "noise_std")
                      + (("rounding",) if self.rounding is not None else ()),
                      integers=("n", "d", "hidden", "epochs", "gamma", "seed"))
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        props = np.asarray(self.group_proportions, dtype=np.float64)
        if props.ndim != 1 or props.size == 0 or not np.all(props > 0) \
                or not abs(float(np.sum(props)) - 1.0) <= 1e-9:
            raise ValueError("group proportions must be positive and sum to 1")
        scales = np.asarray(self.group_noise_scales, dtype=np.float64)
        if scales.shape != props.shape or not np.all(np.isfinite(scales) & (scales > 0)):
            raise ValueError("one positive finite noise scale per group required")
        if self.model not in ("logistic", "mlp"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.model == "mlp" and self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be > 0")
        if self.clip is not None and not self.clip > 0:
            raise ValueError("clip must be > 0 (or None for median-at-init)")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not 0.0 < self.sampling_prob <= 1.0:
            raise ValueError("sampling_prob must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.gamma < 1:
            raise ValueError("gamma must be an integer >= 1")
        if self.rounding is not None and self.rounding < 0:
            raise ValueError("rounding must be >= 0 (or None for 0.01*clip)")
        if self.clipping not in ("max", "individual"):
            raise ValueError(f"unknown clipping mode {self.clipping!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.track_ids is not None:
            ids = tuple(self.track_ids) if isinstance(self.track_ids, Iterable) else None
            if ids is None or not all(isinstance(i, (int, np.integer))
                                      and not isinstance(i, bool) for i in ids):
                raise ValueError(f"track_ids must be a sequence of integers, "
                                 f"got {self.track_ids!r}")
            self.track_ids = ids
        self.orders = _check_orders(self.orders)

    @property
    def steps_per_epoch(self) -> int:
        return max(1, int(round(1.0 / self.sampling_prob)))

    @property
    def total_steps(self) -> int:
        return self.epochs * self.steps_per_epoch

    @property
    def frequency(self) -> int:
        return max(1, self.steps_per_epoch // self.gamma)


@dataclass
class Dataset:
    x: np.ndarray
    y: np.ndarray
    groups: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64)
        self.groups = np.asarray(self.groups, dtype=np.int64)
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],) \
                or self.groups.shape != (self.x.shape[0],):
            raise ValueError("inconsistent dataset shapes")
        if self.x.shape[0] == 0:
            raise ValueError("dataset is empty")

    @property
    def n(self) -> int:
        return self.x.shape[0]


def generate_synthetic(config: SimConfig, seed: Optional[int] = None,
                       n: Optional[int] = None) -> Dataset:
    """Gaussian blobs: group g has label g mod 2, center
    separation * (label - 1/2) * u_g with u_g a distinct coordinate axis,
    and isotropic feature noise group_noise_scales[g]."""
    rng = np.random.default_rng(config.seed if seed is None else seed)
    n = config.n if n is None else int(n)
    props = np.asarray(config.group_proportions, dtype=np.float64)
    scales = np.asarray(config.group_noise_scales, dtype=np.float64)
    g_count = props.size

    counts = np.floor(props * n).astype(int)
    for i in range(n - int(np.sum(counts))):       # distribute the remainder
        counts[i % g_count] += 1
    if np.any(counts == 0):
        raise ValueError("a group received zero examples; increase n or proportions")

    groups = np.repeat(np.arange(g_count), counts)
    y = groups % 2
    centers = np.zeros((g_count, config.d))
    for g in range(g_count):
        axis = g % config.d
        centers[g, axis] = config.separation * ((g % 2) - 0.5)
    x = centers[groups] + scales[groups, None] * rng.standard_normal((n, config.d))

    perm = rng.permutation(n)
    return Dataset(x[perm], y[perm], groups[perm])


# --- models ----------------------------------------------------------------

def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _bce(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    # log(1 + e^z) - y z, computed stably
    return np.maximum(z, 0.0) - y * z + np.log1p(np.exp(-np.abs(z)))


class LogisticModel:
    """Bias-free logistic regression; gradient per example is
    (sigmoid(x . theta) - y) x."""

    def __init__(self, d: int):
        self.theta = np.zeros(d)

    @property
    def params(self) -> np.ndarray:
        return self.theta

    def set_params(self, p: np.ndarray) -> None:
        self.theta = np.asarray(p, dtype=np.float64).copy()

    def logits(self, x: np.ndarray) -> np.ndarray:
        return x @ self.theta

    def per_example_grads(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (_sigmoid(self.logits(x)) - y)[:, None] * x

    def losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _bce(self.logits(x), y)


class MlpModel:
    """One hidden tanh layer, scalar logit; manual per-example backprop."""

    def __init__(self, d: int, hidden: int, rng: np.random.Generator):
        self.d, self.h = d, hidden
        scale = 1.0 / math.sqrt(d)
        self.w1 = scale * rng.standard_normal((hidden, d))
        self.b1 = np.zeros(hidden)
        self.w2 = scale * rng.standard_normal(hidden)
        self.b2 = 0.0

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, [self.b2]])

    def set_params(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=np.float64)
        hd = self.h * self.d
        self.w1 = p[:hd].reshape(self.h, self.d).copy()
        self.b1 = p[hd:hd + self.h].copy()
        self.w2 = p[hd + self.h:hd + 2 * self.h].copy()
        self.b2 = float(p[-1])

    def _forward(self, x: np.ndarray):
        z1 = x @ self.w1.T + self.b1
        a1 = np.tanh(z1)
        z2 = a1 @ self.w2 + self.b2
        return a1, z2

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[1]

    def per_example_grads(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        a1, z2 = self._forward(x)
        dz2 = _sigmoid(z2) - y                       # (m,)
        dw2 = dz2[:, None] * a1                      # (m, h)
        db2 = dz2[:, None]                           # (m, 1)
        dz1 = (dz2[:, None] * self.w2[None, :]) * (1.0 - a1 * a1)   # (m, h)
        dw1 = dz1[:, :, None] * x[:, None, :]        # (m, h, d)
        m = x.shape[0]
        return np.concatenate([dw1.reshape(m, -1), dz1, dw2, db2], axis=1)

    def losses(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _bce(self.logits(x), y)


def make_model(config: SimConfig, rng: np.random.Generator):
    if config.model == "logistic":
        return LogisticModel(config.d)
    return MlpModel(config.d, config.hidden, rng)


def _clip_rows(g: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(g, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        factors = np.where(norms > 0, np.minimum(1.0, thresholds / norms), 1.0)
    return g * factors[:, None]


def poisson_sample(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each index included independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("sampling probability must be in [0, 1]")
    return np.flatnonzero(rng.random(n) < p)


@dataclass
class TrainOutput:
    model: object
    ledger: Optional[IndividualLedger]
    losses: np.ndarray                    # final per-example training loss
    trace_norms: np.ndarray               # (refreshes, n) norms at steps 0, K, 2K, ...
    steps: int
    clip_resolved: float
    rounding_resolved: float
    frequency: int
    tracked_ids: Optional[np.ndarray] = None
    tracked_norms: Optional[np.ndarray] = None      # (steps, m): every step
    tracked_buckets: Optional[np.ndarray] = None    # (steps, m): assigned Z


def train(config: SimConfig, dataset: Optional[Dataset] = None) -> TrainOutput:
    """Run DP-SGD per the config; returns the populated ledger, the norm
    trace at refresh steps, per-step norms for tracked ids, and final
    per-example losses."""
    rng = np.random.default_rng(config.seed)
    model = make_model(config, rng)
    if dataset is None:
        dataset = generate_synthetic(config)
    if dataset.n != config.n:
        raise ValueError("dataset size disagrees with config.n")
    x, y = dataset.x, dataset.y
    n, big_t, k_freq = config.n, config.total_steps, config.frequency

    init_norms = np.linalg.norm(model.per_example_grads(x, y), axis=1)
    c = float(config.clip) if config.clip is not None else float(np.median(init_norms))
    if not c > 0:
        raise ValueError("resolved clip threshold is not positive")
    accounting = config.noise_std > 0 and math.isfinite(c)
    r = config.rounding if config.rounding is not None else 0.01 * c
    ledger = None
    if accounting:
        ledger = IndividualLedger(n, AccountantConfig(
            noise_std=config.noise_std, max_clip=c, sampling_prob=config.sampling_prob,
            rounding=r, frequency=k_freq, delta=config.delta, orders=config.orders))

    tracked = None
    if config.track_ids is not None:
        tracked = np.asarray(config.track_ids, dtype=np.int64)
        if tracked.size and (tracked.min() < 0 or tracked.max() >= n):
            raise IndexError("tracked id out of range")
    tr_norms = np.zeros((big_t, tracked.size)) if tracked is not None else None
    tr_buckets = (np.zeros((big_t, tracked.size))
                  if tracked is not None and ledger is not None else None)

    trace_rows: list = []
    current_z = np.full(n, c)

    for t in range(big_t):
        full_norms = None
        if t % k_freq == 0:
            full_norms = np.linalg.norm(model.per_example_grads(x, y), axis=1)
            trace_rows.append(full_norms)
            if ledger is not None:
                ledger.update_assignments(full_norms, t)
                current_z = ledger.assigned_buckets()
            else:
                current_z = np.minimum(full_norms, c)
        if ledger is not None:
            ledger.record_step(t)
        if tracked is not None:
            if full_norms is not None:
                tr_norms[t] = full_norms[tracked]
            else:
                tr_norms[t] = np.linalg.norm(
                    model.per_example_grads(x[tracked], y[tracked]), axis=1)
            if tr_buckets is not None:
                tr_buckets[t] = current_z[tracked]

        idx = poisson_sample(n, config.sampling_prob, rng)
        noise = config.noise_std * rng.standard_normal(model.params.shape[0])
        if idx.size:
            grads = model.per_example_grads(x[idx], y[idx])
            thr = current_z[idx] if config.clipping == "individual" else np.full(idx.size, c)
            update = np.sum(_clip_rows(grads, thr), axis=0) + noise
        else:
            update = noise
        with np.errstate(over="ignore", invalid="ignore"):
            new_params = model.params - config.lr * update
        if not np.all(np.isfinite(new_params)):
            raise NanAbortError(t)
        model.set_params(new_params)

    return TrainOutput(
        model=model, ledger=ledger, losses=model.losses(x, y),
        trace_norms=np.asarray(trace_rows),
        steps=big_t, clip_resolved=c, rounding_resolved=r, frequency=k_freq,
        tracked_ids=tracked, tracked_norms=tr_norms, tracked_buckets=tr_buckets)


def exact_reference_accounting(norms: np.ndarray, config: AccountantConfig,
                               delta: Optional[float] = None):
    """Ground-truth per-example epsilon from per-step norms (K=1, no
    rounding): clip each norm to C, compose the exact per-step curves, and
    convert.

    ``norms`` is (steps, m): one row per training step, one column per
    tracked example (a missing step would make the guarantee unsound, hence
    the full-matrix input).  Each distinct noise multiplier's curve is
    computed once, and the (m, orders) RDP total gains one curve per example
    per step, so memory beyond the input is O(m x orders) plus the distinct
    curves.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if norms.ndim != 2 or norms.shape[0] < 1:
        raise ValueError("norms must be a (steps, examples) matrix with steps >= 1")
    if not np.all(np.isfinite(norms)) or np.any(norms < 0):
        raise ValueError("norms must be finite and >= 0")
    delta = config.delta if delta is None else delta

    z = np.minimum(norms, config.max_clip)
    with np.errstate(divide="ignore"):
        mult = config.noise_std / z          # zero sensitivity -> inf -> zero curve

    uniq, inv = np.unique(mult, return_inverse=True)
    rows = sgm_rdp_matrix(config.sampling_prob, uniq, config.orders)
    rdp = np.zeros((z.shape[1], rows.shape[1]))
    for step in inv.reshape(z.shape):
        rdp += rows[step]
    return _eps_from_rdp(rdp, config.orders, delta)


def accuracy(model, dataset: Dataset) -> float:
    """Fraction with correctly signed logit."""
    return float(np.mean((model.logits(dataset.x) > 0).astype(np.int64) == dataset.y))
