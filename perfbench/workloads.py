"""The benchmark's three workloads, driven through idpacct's public API.

Each workload builds its inputs from a seed in ``setup()``, does one full
user-visible run in ``run()``, and checks that run's output in ``check()``,
which returns the list of problems found (empty when the output is right).
``run()`` returns only what ``check()`` needs, so an iteration's arrays are
freed before the next one starts.

Why these three: each puts a different layer on the critical path, so a
change to one layer has a workload where it should show and others where
the prediction is no change.

- ``account_large``: the accountant.  A packed trace of many examples is
  replayed into a ledger and reported; the kernel computes only the ~100
  bucket curves, and the int64 count matrix is larger than the L3 cache.
- ``exactness_sim``: the kernel.  Training with rounding disabled and a
  refresh every step, then the exact reference: tens of thousands of
  distinct noise multipliers, no trace I/O.
- ``cli_pipeline``: trace I/O.  calibrate -> simulate -> account -> release
  through ``idpacct.cli.main``, with a JSON-Lines trace written and read
  back; the ledger at this n is small.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

# modules, not names, so that the traced run's wrappers are the ones called
from idpacct import accountant, cli, dpsgd_sim, rdp_math, traceio

# Workload sizes.  "full" is what the benchmark measures; "smoke" runs every
# workload and its check in about a second, for the benchmark's own test.
SIZES = {
    "full": {
        "account_large": {"n": 400_000, "refreshes": 10, "frequency": 24},
        "exactness_sim": {"n": 400, "epochs": 6},
        "cli_pipeline": {"n": 20_000, "epochs": 3},
    },
    "smoke": {
        "account_large": {"n": 5_000, "refreshes": 3, "frequency": 4},
        "exactness_sim": {"n": 40, "epochs": 2},
        "cli_pipeline": {"n": 2_000, "epochs": 1},
    },
}

DELTA = 1e-5
CLIP = 1.0


class AccountLarge:
    """``idpacct account`` on a packed ``.npz`` trace, as library calls."""

    name = "account_large"
    noise_std = 1.0
    sampling_prob = 0.01
    rounding = 0.01 * CLIP          # 100 buckets

    def __init__(self, workdir: str, seed: int, n: int, refreshes: int, frequency: int):
        self.seed = seed
        self.n, self.refreshes, self.frequency = n, refreshes, frequency
        self.trace_path = os.path.join(workdir, "trace.npz")
        self.report_path = os.path.join(workdir, "report.json")

    def setup(self) -> None:
        """Gamma-distributed norms whose scale drifts up between refreshes
        (roughly 14% of them above C), plus a planted 1% slice of examples
        that sits above C at every refresh."""
        rng = np.random.default_rng(self.seed)
        scales = 0.24 + 0.01 * np.arange(self.refreshes)
        norms = rng.gamma(2.0, scales[:, None], size=(self.refreshes, self.n))
        self.planted = np.sort(rng.choice(self.n, size=max(1, self.n // 100),
                                          replace=False))
        norms[:, self.planted] = CLIP * (1.5 + rng.random((self.refreshes,
                                                           self.planted.size)))
        header = traceio.TraceHeader(
            n=self.n, clip=CLIP, noise_std=self.noise_std,
            sampling_prob=self.sampling_prob, frequency=self.frequency,
            rounding=self.rounding, steps=self.refreshes * self.frequency)
        traceio.write_trace_npz(self.trace_path, header, norms)
        self.worst = accountant.worst_case_epsilon(header.to_config(delta=DELTA),
                                                   header.steps)

    def run(self):
        header, norms = traceio.read_any_trace(self.trace_path)
        ledger = traceio.replay_trace(header, norms, delta=DELTA)
        report = ledger.report()
        report.to_json(self.report_path)
        return report

    def check(self, report) -> list[str]:
        eps = report.epsilons
        problems = []
        if not np.all(np.isfinite(eps)):
            problems.append("non-finite per-example epsilon")
        elif eps.min() < 0 or eps.max() > self.worst * (1 + 1e-9):
            problems.append(f"epsilon outside [0, {self.worst}]: "
                            f"[{eps.min()}, {eps.max()}]")
        planted_err = float(np.max(np.abs(eps[self.planted] - self.worst))) / self.worst
        if not planted_err <= 1e-9:
            problems.append(f"saturated slice differs from the worst case by "
                            f"{planted_err:.3e} (relative)")
        return problems


class ExactnessSim:
    """``idpacct verify --suite sim`` at desk scale: ledger vs exact reference."""

    name = "exactness_sim"

    def __init__(self, workdir: str, seed: int, n: int, epochs: int):
        self.config = dpsgd_sim.SimConfig(n=n, d=8, epochs=epochs, sampling_prob=0.1,
                                noise_std=0.8, clip=CLIP, rounding=0.0,
                                gamma=10 ** 9, seed=seed, track_ids=range(n))

    def setup(self) -> None:
        self.dataset = dpsgd_sim.generate_synthetic(self.config)

    def run(self):
        out = dpsgd_sim.train(self.config, self.dataset)
        eps_ledger, _ = out.ledger.epsilons()
        eps_exact, _ = dpsgd_sim.exact_reference_accounting(out.tracked_norms,
                                                            out.ledger.config)
        return eps_ledger, eps_exact

    def check(self, result) -> list[str]:
        eps_ledger, eps_exact = result
        if not (np.all(np.isfinite(eps_ledger)) and np.all(np.isfinite(eps_exact))):
            return ["non-finite epsilon"]
        worst = float(np.max(np.abs(eps_ledger - eps_exact)
                             / np.maximum(eps_exact, 1e-300)))
        if not worst <= 1e-9:
            return [f"ledger and exact reference differ by {worst:.3e} (relative)"]
        return []


class CliPipeline:
    """calibrate -> simulate -> account -> release, in-process via cli.main."""

    name = "cli_pipeline"
    sampling_prob = 0.01
    target_epsilon = 3.0            # the simulator's whole-run budget
    release_epsilon = 1.0

    def __init__(self, workdir: str, seed: int, n: int, epochs: int):
        self.seed, self.n, self.epochs = seed, n, epochs
        self.sim_config = os.path.join(workdir, "sim.json")
        self.release_config = os.path.join(workdir, "budget.json")
        self.sim_dir = os.path.join(workdir, "sim")
        self.account_dir = os.path.join(workdir, "account")
        self.release_dir = os.path.join(workdir, "release")

    def setup(self) -> None:
        # the worst-case epsilon is at most the calibration target, so the
        # target is a public bound on every per-example value
        with open(self.release_config, "w") as f:
            json.dump({"epsilon": self.release_epsilon, "bound": self.target_epsilon,
                       "seed": self.seed}, f)

    def run(self):
        steps = self.epochs * round(1 / self.sampling_prob)
        sigma = rdp_math.calibrate_noise(self.target_epsilon, DELTA,
                                         self.sampling_prob, steps)
        with open(self.sim_config, "w") as f:
            json.dump({"n": self.n, "epochs": self.epochs,
                       "sampling_prob": self.sampling_prob, "gamma": 3,
                       "clip": CLIP, "noise_std": sigma * CLIP, "delta": DELTA,
                       "seed": self.seed}, f)
        trace = os.path.join(self.sim_dir, "trace.jsonl")
        report = os.path.join(self.account_dir, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [
                cli.main(["simulate", "--config", self.sim_config, "--out", self.sim_dir,
                          "--unsafe-export-per-example"]),
                cli.main(["account", trace, "--losses",
                          os.path.join(self.sim_dir, "losses.csv"),
                          "--out", self.account_dir, "--unsafe-export-per-example"]),
                cli.main(["release", report, "--config", self.release_config,
                          "--out", self.release_dir]),
            ]
        return codes

    def check(self, codes) -> list[str]:
        if codes != [0, 0, 0]:
            return [f"exit codes {codes} (simulate, account, release)"]
        problems = []
        with open(os.path.join(self.sim_dir, "report.json")) as f:
            eps_sim = np.asarray(json.load(f)["epsilons"])
        with open(os.path.join(self.account_dir, "report.json")) as f:
            eps_account = np.asarray(json.load(f)["epsilons"])
        if not np.array_equal(eps_sim, eps_account):
            problems.append("account's per-example epsilon differs from simulate's")
        with open(os.path.join(self.release_dir, "release.json")) as f:
            budget = json.load(f)["budget"]
        if not (math.isfinite(budget["realized_epsilon"])
                and budget["realized_epsilon"] <= budget["configured_epsilon"]):
            problems.append(f"released {budget['realized_epsilon']} > configured "
                            f"{budget['configured_epsilon']}")
        return problems


WORKLOADS = {w.name: w for w in (AccountLarge, ExactnessSim, CliPipeline)}


def make(name: str, workdir: str, seed: int, size: str = "full"):
    return WORKLOADS[name](workdir, seed, **SIZES[size][name])
