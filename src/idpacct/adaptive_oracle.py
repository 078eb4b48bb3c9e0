"""Adaptive-vs-fixed enumeration oracle.

A finite adaptive mechanism chain is enumerated exhaustively two ways: run
forward with each step conditioned on the outcomes so far, and assembled
from per-step mechanisms with the prefix held fixed.  The two trajectory
distributions must agree, which is what lets adaptive composition charge
each step's mechanism as if its inputs were fixed.  Used by ``verify`` and
the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as _iter_product
from typing import Callable, Sequence

import numpy as np


class NonStochasticSpecError(ValueError):
    """A toy mechanism's outcome probabilities do not sum to one."""


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
