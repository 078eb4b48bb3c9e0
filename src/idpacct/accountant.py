"""Per-example privacy ledger for DP-SGD.

Each example's accumulated RDP is a running sum: every step charges it the
single-step curve of its current sensitivity bucket, and RDP composes by
addition.  Buckets are clipped gradient norms rounded to the nearest point
of the grid {r, 2r, ..., C} (ties round up, zero maps to r), or the raw
clipped norms with rounding disabled.  The grid's ceil(C/r) curves, at most
MAX_BUCKETS (10,000), are computed once when the ledger is built, so a
refresh is array indexing only.  Every example is charged at every step,
sampled or not, using its most recent bucket assignment; assignments
refresh only when the caller supplies fresh norms.  Conversion to
per-example (epsilon, delta) happens lazily at query time.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from itertools import product as _iter_product
from typing import Callable, Optional, Sequence

import numpy as np

from ._fileio import atomic_write
from .kernel import sgm_rdp_matrix
from .rdp_math import (RdpCurve, _check_fields, _check_orders, _eps_from_rdp,
                       default_orders, rdp_to_dp)


MAX_BUCKETS = 10_000      # ceil(C/r) bound: the grid's curves are built up front
_EPS_BLOCK = 4096         # rows per epsilons() block: bounds its float temporaries
_FLUSH_BLOCK = 8192       # rows per flush block: bounds the gathered-curve temporary


class LedgerError(RuntimeError):
    """Ledger used out of protocol (uninitialized, bad step, ...)."""


class NonStochasticSpecError(ValueError):
    """A toy mechanism's outcome probabilities do not sum to one."""


@dataclass
class AccountantConfig:
    """Accounting parameters.

    noise_std is the absolute noise standard deviation, in the same units as
    gradient norms (the per-bucket noise multiplier is noise_std / Z).
    rounding == 0 disables bucket rounding: each distinct clipped norm
    becomes its own bucket (exactness mode; every refresh computes one curve
    per distinct norm, so meant for short runs and tests).  A positive
    rounding may make at most MAX_BUCKETS grid points.
    """

    noise_std: float
    max_clip: float
    sampling_prob: float
    rounding: float
    frequency: int = 1
    delta: float = 1e-5
    orders: np.ndarray = field(default_factory=default_orders)

    def __post_init__(self):
        _check_fields(self, numbers=("noise_std", "max_clip", "sampling_prob", "rounding",
                                     "delta", "frequency"),
                      finite=("noise_std", "max_clip", "rounding"))
        if self.noise_std <= 0:
            raise ValueError(f"noise_std must be > 0, got {self.noise_std}")
        if self.max_clip <= 0:
            raise ValueError(f"max_clip must be > 0, got {self.max_clip}")
        if not 0.0 < self.sampling_prob <= 1.0:
            raise ValueError(f"sampling_prob must be in (0, 1], got {self.sampling_prob}")
        if self.rounding < 0 or self.rounding > self.max_clip:
            raise ValueError(
                f"rounding must be 0 (disabled) or in (0, max_clip], got {self.rounding}")
        if self.rounding > 0 and self.max_clip / self.rounding > MAX_BUCKETS:
            raise ValueError(
                f"rounding={self.rounding} with max_clip={self.max_clip} makes more "
                f"than {MAX_BUCKETS} sensitivity buckets; use a coarser rounding, "
                f"or rounding=0 to disable bucketing")
        if int(self.frequency) != self.frequency or self.frequency < 1:
            raise ValueError(f"frequency must be an integer >= 1, got {self.frequency}")
        self.frequency = int(self.frequency)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        self.orders = _check_orders(self.orders)

    @property
    def n_buckets(self) -> Optional[int]:
        """ceil(C/r), or None with rounding disabled."""
        if self.rounding == 0:
            return None
        return int(math.ceil(self.max_clip / self.rounding))

    def to_dict(self) -> dict:
        return {
            "noise_std": self.noise_std,
            "max_clip": self.max_clip,
            "sampling_prob": self.sampling_prob,
            "rounding": self.rounding,
            "frequency": self.frequency,
            "delta": self.delta,
            "orders": [int(a) for a in self.orders],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AccountantConfig":
        d = dict(d)
        if "orders" in d:
            d["orders"] = np.asarray(d["orders"])
        return cls(**d)


def clip_sensitivity(norm: float, max_clip: float) -> float:
    """min(norm, C)."""
    if norm < 0:
        raise ValueError(f"norm must be >= 0, got {norm}")
    if max_clip <= 0:
        raise ValueError(f"max_clip must be > 0, got {max_clip}")
    return min(float(norm), float(max_clip))


def _round_array(z: np.ndarray, rounding: float, max_clip: float) -> np.ndarray:
    """Vectorized nearest-grid rounding onto {r, 2r, ..., C}; ties up,
    zero maps to r (the grid has no zero)."""
    jmax = int(math.ceil(max_clip / rounding))
    j = np.floor(z / rounding)
    lo = np.clip(j, 1, jmax)
    hi = np.clip(j + 1, 1, jmax)
    vlo = np.minimum(lo * rounding, max_clip)
    vhi = np.minimum(hi * rounding, max_clip)
    return np.where(vhi - z <= z - vlo, vhi, vlo)


def round_to_bucket(z: float, rounding: float, max_clip: float) -> float:
    """Nearest value in the sensitivity grid {r, 2r, ..., C}."""
    if not 0 < rounding <= max_clip:
        raise ValueError(f"rounding must be in (0, max_clip], got {rounding}")
    if z < 0 or z > max_clip:
        raise ValueError(f"sensitivity must be in [0, {max_clip}], got {z}")
    return float(_round_array(np.asarray([float(z)]), rounding, max_clip)[0])


class BucketCache:
    """Curve table: ``rows[j]`` is the single-step RDP curve of sensitivity
    ``bucket_values[j]``.  With rounding on, the whole grid {r, 2r, ..., C}
    is computed in one kernel call here and never changes; with rounding off
    (exactness mode) each refresh replaces the table with the curves of the
    distinct norms it brings, so the table never outgrows one refresh.
    """

    def __init__(self, config: AccountantConfig):
        self.config = config
        grid = np.arange(1, (config.n_buckets or 0) + 1) * config.rounding
        # np.unique: float rounding can make the last two grid points both C
        self.bucket_values = np.unique(np.minimum(grid, config.max_clip))
        self.rows = self._curves(self.bucket_values)
        self.misses = len(self)

    def _curves(self, values: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return sgm_rdp_matrix(self.config.sampling_prob,
                                  self.config.noise_std / values, self.config.orders)

    def __len__(self) -> int:
        return self.bucket_values.shape[0]

    def indices_for(self, buckets: np.ndarray) -> np.ndarray:
        """Row index of each bucket value.  Grid mode accepts only grid
        points (as made by ``_round_array``); exactness mode replaces the
        table with the curves of ``buckets``' distinct values."""
        if self.config.rounding > 0:
            last = len(self) - 1
            with np.errstate(invalid="ignore"):
                idx = np.rint(buckets / self.config.rounding).astype(np.intp) - 1
            np.clip(idx, 0, last, out=idx)
            # the last grid point is C, which need not be a multiple of r
            off = np.flatnonzero(self.bucket_values[idx] != buckets)
            if off.size:
                idx[off] = np.minimum(np.searchsorted(self.bucket_values, buckets[off]),
                                      last)
                if not np.array_equal(self.bucket_values[idx[off]], buckets[off]):
                    raise ValueError("bucket values must lie on the sensitivity grid")
            return idx
        values, inverse = np.unique(buckets, return_inverse=True)
        self.rows = self._curves(values)
        self.bucket_values = values
        self.misses += len(self)
        return inverse

    def corrupt_for_testing(self, factor: float = 1.02) -> None:
        """Negative-control hook: scale the last curve (bucket C in grid
        mode, the largest norm of the last refresh in exactness mode).  The
        ledger charges the steps since the last refresh at its next query,
        so corrupting after training and before that query must make a
        downstream comparison against independent re-accounting fail."""
        if not len(self):
            raise LedgerError("nothing cached to corrupt")
        self.rows[-1] *= factor


class IndividualLedger:
    """Per-example accumulated RDP: an (n, orders) float64 array.

    Protocol: update_assignments(norms, t) at every step t with
    t mod frequency == 0 (including t = 0), record_step(t) at every step.
    Steps since the last refresh accumulate in a single pending counter and
    are flushed, as pending x each example's current curve, when
    assignments change or at query time, so per-step cost is O(1) and the
    state stays n x orders x 8 bytes in both modes.  A ledger is not
    thread-safe: drive it from one thread.
    """

    def __init__(self, n: int, config: AccountantConfig):
        if n < 1:
            raise ValueError(f"need at least one example, got n={n}")
        self.n = int(n)
        self.config = config
        self.cache = BucketCache(config)
        self.steps = 0
        self._assign: Optional[np.ndarray] = None
        self._rdp = np.zeros((self.n, len(config.orders)))
        self._pending = 0

    def _flush(self) -> None:
        if not self._pending:
            return
        scaled = self._pending * self.cache.rows
        for lo in range(0, self.n, _FLUSH_BLOCK):
            block = self._rdp[lo:lo + _FLUSH_BLOCK]
            np.add(block, scaled[self._assign[lo:lo + _FLUSH_BLOCK]], out=block)
        self._pending = 0

    def update_assignments(self, norms: Sequence[float], step: Optional[int] = None) -> None:
        """Re-bucket every example from fresh gradient norms."""
        norms = np.asarray(norms, dtype=np.float64)
        if norms.shape != (self.n,):
            raise ValueError(f"expected {self.n} norms, got shape {norms.shape}")
        if np.any(norms < 0) or not np.all(np.isfinite(norms)):
            raise ValueError("norms must be finite and >= 0")
        if step is not None and step % self.config.frequency != 0:
            raise LedgerError(
                f"assignments may only change at steps divisible by "
                f"frequency={self.config.frequency}, got step {step}")
        # charge the old assignments before exactness mode replaces their curves
        self._flush()
        z = np.minimum(norms, self.config.max_clip)
        if self.config.rounding > 0:
            z = _round_array(z, self.config.rounding, self.config.max_clip)
        # no-rounding mode keeps exact clipped norms; a zero norm means zero
        # sensitivity, whose multiplier is inf and whose curve is zero
        self._assign = self.cache.indices_for(z)

    def record_step(self, step: Optional[int] = None) -> None:
        """Charge every example one step at its current bucket."""
        if self._assign is None:
            raise LedgerError("record_step before the first update_assignments")
        if step is not None and step != self.steps:
            raise LedgerError(f"expected step {self.steps}, got {step}")
        self._pending += 1
        self.steps += 1

    def assigned_buckets(self) -> np.ndarray:
        """Current bucket value per example."""
        if self._assign is None:
            raise LedgerError("no assignments yet")
        return self.cache.bucket_values[self._assign]

    def counts(self) -> np.ndarray:
        """The (n, orders) accumulated-RDP state, every step charged.  Only
        the benchmark's ledger-size probe reads it, under this name; it
        stays until a benchmark-only change renames that probe."""
        self._flush()
        return self._rdp

    def accumulated_rdp(self, i: int) -> RdpCurve:
        """Sum of the charged single-step curves of example i."""
        if not 0 <= i < self.n:
            raise IndexError(f"example index {i} out of range [0, {self.n})")
        self._flush()
        return RdpCurve(self.config.orders, self._rdp[i].copy())

    def epsilon_of(self, i: int, delta: Optional[float] = None) -> tuple[float, int]:
        delta = self.config.delta if delta is None else delta
        return rdp_to_dp(self.accumulated_rdp(i), delta)

    def epsilons(self, delta: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """(epsilon, best order) for all examples, converted in blocks of
        rows so the extra memory is O(block x orders), not O(n x orders)."""
        delta = self.config.delta if delta is None else delta
        self._flush()
        eps = np.empty(self.n)
        best = np.empty(self.n, dtype=np.int64)
        for lo in range(0, self.n, _EPS_BLOCK):
            block = slice(lo, lo + _EPS_BLOCK)
            eps[block], best[block] = _eps_from_rdp(self._rdp[block],
                                                    self.config.orders, delta)
        return eps, best

    def report(self, delta: Optional[float] = None,
               group_labels: Optional[Sequence[int]] = None) -> "PrivacyReport":
        delta = self.config.delta if delta is None else delta
        eps, orders = self.epsilons(delta)
        worst_eps, worst_order = worst_case_epsilon(self.config, self.steps, delta,
                                                   with_order=True)
        labels = None
        if group_labels is not None:
            labels = np.asarray(group_labels, dtype=np.int64)
            if labels.shape != (self.n,):
                raise ValueError(f"expected {self.n} group labels, got shape {labels.shape}")
        return PrivacyReport(
            epsilons=eps, best_orders=orders, worst_epsilon=worst_eps,
            worst_order=worst_order, delta=delta, steps=self.steps, n=self.n,
            config=self.config.to_dict(), group_labels=labels)


def worst_case_epsilon(config: AccountantConfig, steps: int,
                       delta: Optional[float] = None, with_order: bool = False):
    """Uniform DP-SGD guarantee: every example at sensitivity C for all
    steps."""
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    delta = config.delta if delta is None else delta
    mult = config.noise_std / config.max_clip
    row = sgm_rdp_matrix(config.sampling_prob, np.asarray([mult]), config.orders)[0]
    eps, order = rdp_to_dp(RdpCurve(config.orders, row * steps), delta)
    return (eps, order) if with_order else eps


@dataclass
class PrivacyReport:
    """Per-example (epsilon, delta) guarantees plus the worst-case bound.

    ``epsilons`` may be None for a report loaded from a redacted file (one
    written without the per-example export flag); aggregate fields remain
    available.
    """

    epsilons: Optional[np.ndarray]
    best_orders: Optional[np.ndarray]
    worst_epsilon: float
    worst_order: int
    delta: float
    steps: int
    n: int
    config: dict
    group_labels: Optional[np.ndarray] = None
    summary: Optional[dict] = None
    group_means: Optional[dict] = None

    def __post_init__(self):
        if self.epsilons is not None:
            self.epsilons = np.asarray(self.epsilons, dtype=np.float64)
            if self.epsilons.shape != (self.n,):
                raise ValueError("epsilons length disagrees with n")
            if np.any(self.epsilons < 0):
                raise ValueError("negative per-example epsilon")
            if np.any(self.epsilons > self.worst_epsilon + 1e-9):
                raise ValueError("per-example epsilon exceeds the worst-case bound")
            if self.best_orders is not None:
                self.best_orders = np.asarray(self.best_orders, dtype=np.int64)
            if self.summary is None:
                self.summary = {
                    "mean": float(np.mean(self.epsilons)),
                    "min": float(np.min(self.epsilons)),
                    "max": float(np.max(self.epsilons)),
                }
            if self.group_labels is not None and self.group_means is None:
                self.group_labels = np.asarray(self.group_labels, dtype=np.int64)
                self.group_means = {
                    int(g): float(np.mean(self.epsilons[self.group_labels == g]))
                    for g in np.unique(self.group_labels)
                }

    def epsilon_for(self, i: int) -> float:
        if self.epsilons is None:
            raise LedgerError("report has no per-example values (redacted export)")
        return float(self.epsilons[i])

    def to_json(self, path: str, unsafe_export_per_example: bool = False) -> None:
        """Write the report.  Per-example epsilon values (and labels) are
        sensitive outputs: they leave the trusted curator only when
        ``unsafe_export_per_example`` is set."""
        doc = {
            "format": "idpacct-report",
            "version": 1,
            "delta": self.delta,
            "steps": self.steps,
            "n": self.n,
            "worst_case": {"epsilon": self.worst_epsilon, "order": int(self.worst_order)},
            "config": self.config,
            "summary": self.summary,
            "group_means": (None if self.group_means is None
                            else {str(k): v for k, v in self.group_means.items()}),
        }
        if unsafe_export_per_example:
            doc["epsilons"] = [float(e) for e in self.epsilons]
            doc["best_orders"] = [int(a) for a in self.best_orders]
            if self.group_labels is not None:
                doc["group_labels"] = [int(g) for g in self.group_labels]
        atomic_write(path, json.dumps(doc, indent=1) + "\n")

    @classmethod
    def from_json(cls, path: str) -> "PrivacyReport":
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict) or doc.get("format") != "idpacct-report":
            raise ValueError(f"{path}: not a privacy report file")
        if doc.get("version") != 1:
            raise ValueError(f"{path}: unsupported report version {doc.get('version')!r}")
        worst = doc["worst_case"] if isinstance(doc.get("worst_case"), dict) else {}
        missing = [k for k in ("delta", "steps", "n", "config") if k not in doc]
        missing += [f"worst_case.{k}" for k in ("epsilon", "order") if k not in worst]
        if missing:
            raise ValueError(f"{path}: report is missing {', '.join(missing)}")
        eps = doc.get("epsilons")
        gm = doc.get("group_means")
        if gm is not None and not (isinstance(gm, dict) and all(
                re.fullmatch(r"-?[0-9]+", k) and _finite_number(v)
                for k, v in gm.items())):
            raise ValueError(f"{path}: group_means must be null or an object "
                             "mapping integer keys to finite numbers")
        summary = doc.get("summary")
        if summary is not None and not (isinstance(summary, dict) and all(
                _finite_number(summary.get(k)) for k in ("mean", "min", "max"))):
            raise ValueError(f"{path}: summary must be null or an object with "
                             "finite numeric mean, min and max")
        return cls(
            epsilons=None if eps is None else np.asarray(eps),
            best_orders=(None if doc.get("best_orders") is None
                         else np.asarray(doc["best_orders"])),
            worst_epsilon=worst["epsilon"], worst_order=worst["order"],
            delta=doc["delta"], steps=doc["steps"], n=doc["n"],
            config=doc["config"],
            group_labels=(None if doc.get("group_labels") is None
                          else np.asarray(doc["group_labels"])),
            summary=summary,
            group_means=None if gm is None else {int(k): v for k, v in gm.items()})


def _finite_number(v) -> bool:
    """A JSON number other than NaN or +-Infinity (booleans excluded)."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


# --- adaptive-vs-fixed enumeration oracle ---------------------------------

@dataclass
class AdaptiveSpec:
    """Finite adaptive mechanism chain for exhaustive enumeration.

    ``n_outcomes[t]`` is the outcome-space size of step t; ``kernels[t]`` maps
    (prefix tuple of earlier outcomes, dataset bit d) to that step's outcome
    probabilities.  Dataset bit 0/1 stands for the two neighboring datasets.
    """

    n_outcomes: Sequence[int]
    kernels: Sequence[Callable[[tuple, int], Sequence[float]]]

    def __post_init__(self):
        if len(self.n_outcomes) != len(self.kernels):
            raise ValueError("one kernel per step required")
        if not 1 <= len(self.n_outcomes):
            raise ValueError("at least one step required")
        for m in self.n_outcomes:
            if not 1 <= m <= 8:
                raise ValueError("outcome spaces must have 1..8 outcomes")
        self.validate()

    def validate(self) -> None:
        for t in range(len(self.kernels)):
            for prefix in _iter_product(*(range(m) for m in self.n_outcomes[:t])):
                for d in (0, 1):
                    p = np.asarray(self.kernels[t](prefix, d), dtype=np.float64)
                    if p.shape != (self.n_outcomes[t],):
                        raise NonStochasticSpecError(
                            f"step {t}, prefix {prefix}, d={d}: wrong arity")
                    if np.any(p < 0) or abs(float(np.sum(p)) - 1.0) > 1e-9:
                        raise NonStochasticSpecError(
                            f"step {t}, prefix {prefix}, d={d}: probabilities "
                            f"must be non-negative and sum to 1")

    def trajectories(self):
        return _iter_product(*(range(m) for m in self.n_outcomes))


def _joint_adaptive(spec: AdaptiveSpec, d: int) -> dict[tuple, float]:
    """P[trajectory] by running the adaptive chain forward: depth-first over
    the outcome tree, multiplying conditional probabilities as they arise."""
    out: dict[tuple, float] = {}

    def walk(prefix: tuple, prob: float):
        t = len(prefix)
        if t == len(spec.kernels):
            out[prefix] = prob
            return
        p = spec.kernels[t](prefix, d)
        for theta in range(spec.n_outcomes[t]):
            walk(prefix + (theta,), prob * float(p[theta]))

    walk((), 1.0)
    return out


def _joint_fixed_prefix(spec: AdaptiveSpec, d: int) -> dict[tuple, float]:
    """P[trajectory] assembled from per-step mechanisms with the prefix held
    fixed at the trajectory's own outcomes, multiplied in reverse step order
    so float rounding is exercised differently from the adaptive walk."""
    out: dict[tuple, float] = {}
    for traj in spec.trajectories():
        prob = 1.0
        for t in reversed(range(len(spec.kernels))):
            prob *= float(spec.kernels[t](traj[:t], d)[traj[t]])
        out[traj] = prob
    return out


def enumerate_adaptive_vs_fixed(spec: AdaptiveSpec) -> float:
    """Max |P_adaptive - P_fixed-prefix| over all trajectories and both
    datasets.  The two factorizations are the same product, so the result
    must be 0 up to float round-off."""
    worst = 0.0
    for d in (0, 1):
        a = _joint_adaptive(spec, d)
        b = _joint_fixed_prefix(spec, d)
        for traj in spec.trajectories():
            worst = max(worst, abs(a[traj] - b[traj]))
        for dist in (a, b):
            total = math.fsum(dist.values())
            if abs(total - 1.0) > 1e-9:
                raise NonStochasticSpecError(f"trajectory masses sum to {total}")
    return worst


def coin_chain_spec() -> AdaptiveSpec:
    """2-step, 2-outcome chain: the second flip's bias depends on the first
    outcome and the dataset bit."""
    def step0(prefix, d):
        return (0.5, 0.5) if d == 0 else (0.625, 0.375)

    def step1(prefix, d):
        base = 0.25 if prefix[0] == 0 else 0.75
        if d == 1:
            base = min(base + 0.125, 1.0)
        return (base, 1.0 - base)

    return AdaptiveSpec([2, 2], [step0, step1])


def deterministic_spec() -> AdaptiveSpec:
    """Each step deterministically echoes a function of the prefix."""
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

    return AdaptiveSpec([2, 3, 2], [step0, step1, step2])


def random_spec(seed: int, steps: int = 3, max_outcomes: int = 8) -> AdaptiveSpec:
    """Randomized spec: every (step, prefix, dataset) row is an independent
    Dirichlet draw, materialized so lookups are pure."""
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(2, max_outcomes + 1)) for _ in range(steps)]
    tables: list[dict[tuple, np.ndarray]] = []
    for t in range(steps):
        table = {}
        for prefix in _iter_product(*(range(m) for m in sizes[:t])):
            for d in (0, 1):
                table[(prefix, d)] = rng.dirichlet(np.ones(sizes[t]))
        tables.append(table)

    def make_kernel(t):
        def kernel(prefix, d):
            return tables[t][(tuple(prefix), d)]
        return kernel

    return AdaptiveSpec(sizes, [make_kernel(t) for t in range(steps)])
