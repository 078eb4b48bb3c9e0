"""Stateful and round-trip properties of the lazy ledger.

A ``hypothesis`` state machine drives an ``IndividualLedger`` through
refreshes, steps and reads in any order, next to an eager reference: a
float64 running sum that adds each charge (steps x the example's curve) at
the refresh that closes it, in refresh order.  A read adds the steps since
the last refresh last and closes nothing, so the reference does not depend
on when, or how often, the ledger was read, and every interleaving also
checks that reads do not change later results.  Steps come one at a time
(``record_step``) or several at once (``record_steps``).  Every read must
equal the reference bit for bit, and the ledger's held charges must stay
under a quarter of its state, the one rule that folds them.  A coarse grid
(r = C/2, so 2 buckets) at n = 50 makes one charge about 1.1 KB against a
26 KB state, so runs reach several held charges, the first fold at a
quarter of the state, more held charges, and a second fold onto the
existing state; exactness mode (r = 0), where one charge can be the
state's size, is drawn too.  A ledger answers at its config's delta, so
each run builds its ledger at one of three deltas.  Scripted runs show
both folds in both modes at each delta, and they and a shorter random run
are repeated with every summing pass split across two threads.

The trace properties check that both file formats read back what was
written, bit for bit, and that replaying a trace read back from disk gives
training's own ledger.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from idpacct import accountant, dpsgd_sim
from idpacct.accountant import AccountantConfig, IndividualLedger, sensitivity_buckets
from idpacct.rdp_math import _eps_from_rdp
from idpacct.traceio import (
    TraceHeader,
    read_any_trace,
    replay_trace,
    write_trace,
    write_trace_npz,
)

N = 50
CLIP = 1.0

# zero, subnormal (its multiplier overflows to inf, as zero's does), on a
# grid point, at C and above it
_SPECIAL = np.asarray([0.0, 5e-324, CLIP / 2, CLIP, 2.5 * CLIP, 1e300])
# a ledger answers at its config's delta, so each run builds at one of these
_DELTAS = (1e-5, 1e-3, 0.1)


class LedgerMachine(RuleBasedStateMachine):

    @initialize(exact=st.booleans(), frequency=st.integers(1, 2),
                delta=st.sampled_from(_DELTAS))
    def build(self, exact, frequency, delta):
        self.config = AccountantConfig(noise_std=1.0, max_clip=CLIP, sampling_prob=0.1,
                                       rounding=0.0 if exact else CLIP / 2,
                                       frequency=frequency, delta=delta)
        self.ledger = IndividualLedger(N, self.config)
        self.want = np.zeros((N, self.config.orders.size))   # closed charges
        self.rows = None          # each example's current curve
        self.pending = 0          # steps since the last refresh

    def _read(self):
        # what a read sums: the closed charges, then the pending steps
        return self.want + self.pending * self.rows if self.pending else self.want

    @precondition(lambda self: self.ledger.steps % self.config.frequency == 0)
    @rule(seed=st.integers(0, 2 ** 32 - 1), special=st.floats(0.0, 1.0))
    def refresh(self, seed, special):
        # drawn from a seed: 50 drawn floats a refresh would exhaust the
        # example's data before runs grew long enough to fold
        rng = np.random.default_rng(seed)
        norms = rng.uniform(0.0, 3 * CLIP, N)
        pick = rng.random(N) < special
        norms[pick] = rng.choice(_SPECIAL, int(pick.sum()))
        if self.pending:          # only a refresh closes the pending steps
            self.want += self.pending * self.rows
            self.pending = 0
        self.ledger.update_assignments(norms, step=self.ledger.steps)
        cache = self.ledger.cache
        z = sensitivity_buckets(norms, CLIP, self.config.rounding)
        idx = np.searchsorted(cache.bucket_values, z)
        assert np.array_equal(cache.bucket_values[idx], z)
        self.rows = cache.rows[idx]

    @precondition(lambda self: self.rows is not None)
    @rule()
    def step(self):
        self.ledger.record_step(self.ledger.steps)
        self.pending += 1

    @precondition(lambda self: self.rows is not None)
    @rule(k=st.integers(2, 6))
    def record_steps(self, k):
        # several steps in one call, so random runs reach pending charges
        # long enough that splitting them would round differently
        self.ledger.record_steps(self.ledger.steps, k)
        self.pending += k

    @rule()
    def epsilons(self):
        eps, best = self.ledger.epsilons()
        want_eps, want_best = _eps_from_rdp(self._read(), self.config.orders,
                                            self.config.delta)
        assert np.array_equal(eps, want_eps)
        assert np.array_equal(best, want_best)

    @rule()
    def counts(self):
        assert np.array_equal(self.ledger.counts(), self._read())

    @invariant()
    def memory_bounded(self):
        # the held charges stay under a quarter of the state: any more fold
        ledger = self.ledger
        held = sum(table.nbytes + assign.nbytes for table, assign in ledger._held)
        assert 4 * held < N * self.config.orders.size * 8

    def teardown(self):
        self.epsilons()


LedgerMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40,
                                           deadline=None)
test_ledger_matches_eager_running_sum = LedgerMachine.TestCase


def test_scripted_machine_folds_twice_in_both_modes():
    # random runs reach the grid's quarter-size fold only now and then, so
    # scripted runs of the same rules show a first fold and a second one
    # onto the existing state, in both modes
    _scripted_run()


def test_machine_on_two_workers(monkeypatch, two_workers):
    # the same rules with every summing pass split across two threads: 16-row
    # blocks make N = 50 four blocks, cut after the second
    monkeypatch.setattr(accountant, "_BLOCK", 16)
    _scripted_run()
    run_state_machine_as_test(LedgerMachine, settings=settings(
        max_examples=20, stateful_step_count=40, deadline=None))
    assert {run[:2] for run in two_workers} == {(0, 32), (32, N)}


def _scripted_run():
    for delta in _DELTAS:
        _scripted_folds(delta)


def _scripted_folds(delta):
    def run(machine, *calls):
        for call in calls:
            call()
            machine.memory_bounded()

    def refresh(machine, seed):
        return lambda: machine.refresh(seed=seed, special=0.3)

    # grid: five 1,090-byte charges stay held against a 26,000-byte state,
    # the sixth reaches a quarter of it and folds, and so on
    grid = LedgerMachine()
    grid.build(exact=False, frequency=1, delta=delta)
    ledger = grid.ledger
    for seed in range(6):
        run(grid, refresh(grid, seed), grid.step, grid.counts, grid.epsilons)
        assert ledger._rdp is None and len(ledger._held) == seed         # held charges
    run(grid, refresh(grid, 6))
    assert ledger._rdp is not None and ledger._held == []               # the first fold
    state = ledger._rdp
    for seed in range(7, 12):
        run(grid, lambda: grid.record_steps(2), refresh(grid, seed), grid.counts,
            grid.epsilons)
        assert ledger._rdp is state and len(ledger._held) == seed - 6    # held again
    run(grid, grid.step, refresh(grid, 12), grid.step)
    assert ledger._rdp is state and ledger._held == []                  # onto the state
    grid.teardown()

    # exactness: a charge holds a curve per distinct norm, so it is about the
    # state's size and folds at the refresh that closes it
    exact = LedgerMachine()
    exact.build(exact=True, frequency=2, delta=delta)
    ledger = exact.ledger
    run(exact, refresh(exact, 0), exact.step, exact.counts, exact.epsilons, exact.step)
    assert ledger._rdp is None and ledger._held == [] and ledger._pending == 2
    run(exact, refresh(exact, 1))
    assert ledger._rdp is not None and ledger._held == []               # the first fold
    state = ledger._rdp
    run(exact, lambda: exact.record_steps(2), exact.counts, refresh(exact, 2))
    assert ledger._rdp is state and ledger._held == []                  # onto the state
    run(exact, exact.step, exact.epsilons)
    exact.teardown()


# ------------------------------------------------------------- traces ---

@st.composite
def _traces(draw):
    frequency = draw(st.integers(1, 4))
    header = TraceHeader(n=draw(st.integers(1, 8)), clip=CLIP, noise_std=1.0,
                         sampling_prob=0.1, frequency=frequency,
                         rounding=draw(st.sampled_from([0.0, 0.01, CLIP / 2])),
                         steps=draw(st.integers(1, 12)))
    shape = (len(header.refresh_steps()), header.n)
    # any finite non-negative float, subnormals and huge values included
    norms = draw(hnp.arrays(np.float64, shape,
                            elements=st.floats(0.0, allow_infinity=False)))
    return header, norms


@settings(max_examples=40, deadline=None)
@given(trace=_traces(), name=st.sampled_from(["t.jsonl", "t.npz"]))
def test_trace_round_trip_bit_for_bit(trace, name):
    header, norms = trace
    writer = write_trace_npz if name.endswith(".npz") else write_trace
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        writer(path, header, norms)
        got_header, got = read_any_trace(path)
    assert got_header.to_dict() == header.to_dict()
    assert got.shape == norms.shape and got.tobytes() == norms.tobytes()


@settings(max_examples=8, deadline=None)
@given(rounding=st.sampled_from([None, 0.0, 0.3]),
       clipping=st.sampled_from(["max", "individual"]),
       gamma=st.integers(1, 5), seed=st.integers(0, 2 ** 16),
       name=st.sampled_from(["t.jsonl", "t.npz"]))
def test_replay_of_written_trace_equals_training_ledger(rounding, clipping, gamma,
                                                        seed, name):
    config = dpsgd_sim.SimConfig(n=30, d=4, epochs=1, sampling_prob=0.2, clip=1.0,
                                 rounding=rounding, clipping=clipping, gamma=gamma,
                                 seed=seed)
    out = dpsgd_sim.train(config)
    writer = write_trace_npz if name.endswith(".npz") else write_trace
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        writer(path, out.header, out.trace_norms)
        header, norms = read_any_trace(path)
    ledger = replay_trace(header, norms, delta=config.delta)
    assert np.array_equal(ledger.counts(), out.ledger.counts())
    eps, best = ledger.epsilons()
    want_eps, want_best = out.ledger.epsilons()
    assert np.array_equal(eps, want_eps) and np.array_equal(best, want_best)
    assert ledger.steps == out.ledger.steps == out.steps
