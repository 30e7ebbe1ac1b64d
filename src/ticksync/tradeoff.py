"""Frequency-range versus query-count tradeoff experiments.

The coherent protocol reads n bits of clock phase in one query because its
rate register spans tick multipliers 0..2**n-1.  This module probes what
happens when the available multiplier range F shrinks: rates outside the
range are synthesized by repeating capped queries, so the query count Q
grows as F falls.  Three regimes are covered:

* F = 2**n: the full protocol, Q = 1.
* 2 <= F = 2**m < 2**n: windowed phase estimation.  Each window runs the
  protocol's circuit on m qubits with 2**e queries (e the window's bit
  offset), made as one query at phase 2**e * phi mod 1.  The first window
  reads the lowest m bits; each later one reads the next bits up, with the
  already-known low bits cancelled by an in-circuit diagonal correction,
  and the windows merge as plain integers.  On the n-bit grid phases the
  sweep scores every window read is exact, so each estimate is one walk
  over the windows and each grid phase is scored once.  Each window's
  queried state is built once per grid phase.  Every run charges its 2**e
  queries and measures the photon; the register value is drawn, by
  `qsim.measure`'s rule, from a Born table built on the first run of its
  photon branch at that phase.
* F = 1: no usable quantum phase, only the fixed unit-rate observable.
  A two-quadrature sampling estimator draws from the fringes
  cos^2(2*pi*phi) and cos^2(2*pi*phi + pi/4), written in closed form, and
  inverts the outcome frequencies; the sample count doubles from 16 to
  2**18 until the target precision is reliably met.

Both share one scoring loop, `_scored_point`, which prepares each grid
phase once per effort, makes all of its trials on one spawned stream, and
grades the effort by its worst per-phase hit rate over the n-bit phase
grid against the module constant SUCCESS_THRESHOLD = 0.9.

Query accounting is uniform: every oracle invocation costs 1 regardless of
how many rate branches it carries, and a query made in superposition is
charged at its largest branch.  `nayak_wu_bound` gives the counting lower
bound that the measured F*Q products are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .clock import ClockModel, ResourceLedger, _frac, fixed_rate_query
from .protocol import _fold_conjugate, _queried_state, within_precision
from .qsim import StateVector, basis_state, diagonal_phase, hadamard, inverse_qft, measure
from .qsim import _born_table, _count, _draw

# the worst per-phase hit rate a point must reach, and the sample counts the
# F = 1 row tries in turn to reach it
SUCCESS_THRESHOLD = 0.9
SAMPLE_COUNTS = [16 << j for j in range(15)]  # 16, 32, ..., 2**18


@dataclass(frozen=True)
class LowerBoundParams:
    """Inputs to the counting lower bound: domain size N, tick count t, gap Delta."""

    N: int
    t: int
    Delta: float

    def __post_init__(self) -> None:
        N, t = _count("N", self.N, 1), _count("t", self.t, 0)
        if t > N:
            raise ValueError(f"t must lie in [0, N], got {self.t}")
        if not (math.isfinite(self.Delta) and self.Delta > 0):
            raise ValueError(f"Delta must be positive, got {self.Delta!r}")


def nayak_wu_bound(params: LowerBoundParams) -> float:
    """Counting lower bound sqrt(N/Delta) + sqrt(t*(N-t))/Delta.

    Returned without the suppressed constant factor, so it is a shape to
    compare against rather than a certified query count.
    """
    first = math.sqrt(params.N / params.Delta)
    second = math.sqrt(params.t * (params.N - params.t)) / params.Delta
    return first + second


def single_rate_state(clock: ClockModel) -> StateVector:
    """Photon after one unit-rate query between Hadamards.

    Measurement probabilities are (cos^2(2*pi*omega0*T), sin^2(2*pi*omega0*T)):
    the interference pattern a rate-1-only channel can expose.
    """
    state = basis_state(1, 0)
    state = hadamard(state, 0)
    state = fixed_rate_query(clock, state, 0, 1)
    return hadamard(state, 0)


def classical_estimate(
    clock: ClockModel, samples: int, rng: np.random.Generator, size: int | None = None
) -> tuple[float | np.ndarray, ResourceLedger]:
    """Estimate the offset from repeated unit-rate measurements.

    Draws `samples` shots from the direct fringe, p0 = cos^2(2*pi*phi), and
    `samples` from its quadrature, p0 = cos^2(2*pi*phi + pi/4), phi =
    clock.phi_star: `single_rate_state` and that circuit with an eighth-turn
    z_phase before the last Hadamard, in closed form.  It inverts (cos, sin)
    of 4*pi*phi via arccos, the sign of the sine picking the half-interval.
    The observable only determines omega0*T mod 1/2, so estimates live in
    [0, 1/2); callers with phases in the upper half see the folded value.

    Returns (T_hat, ledger), T_hat a float, or with size=k an array of k
    estimates from one (k, 2) binomial draw, the values of k scalar calls on
    the same stream; the ledger records 2*samples unit-rate queries per
    estimate.  samples and size must be positive integers; a bool or float
    raises ValueError.
    """
    samples = _count("samples", samples, 1)
    k = 1 if size is None else _count("size", size, 1)
    ledger = ResourceLedger()

    angle = 2.0 * math.pi * clock.phi_star
    p_direct = math.cos(angle) ** 2
    p_quad = math.cos(angle + math.pi / 4.0) ** 2
    # each shot is one independent query; a binomial draw aggregates them,
    # row by row direct then quadrature, as k scalar pairs would draw
    hits = rng.binomial(samples, (p_direct, p_quad), size=(k, 2))
    ledger.record_query(1, count=2 * k * samples)

    cos_hat = 2.0 * hits[:, 0] / samples - 1.0
    sin_hat = 1.0 - 2.0 * hits[:, 1] / samples
    # libm's acos per value: numpy's SIMD arccos differs in the last bits
    folded = np.array([math.acos(c) for c in cos_hat.tolist()]) / (4.0 * math.pi)
    t_hat = np.where(sin_hat >= 0.0, folded, 0.5 - folded) % 0.5 / clock.omega0
    return (float(t_hat[0]) if size is None else t_hat), ledger


def simulate_rate_k_with_unit_rate(
    clock: ClockModel,
    k: int,
    state: StateVector,
    photon: int,
    ledger: ResourceLedger | None = None,
) -> StateVector:
    """Reproduce one rate-k query as k consecutive unit-rate queries.

    The k phase kicks compose to the rate-k rotation exactly, at a cost of
    k queries of rate index 1 on the ledger.  k must be a positive integer;
    a bool or float raises ValueError.
    """
    k = _count("k", k, 1)
    out = state
    for _ in range(k):
        out = fixed_rate_query(clock, out, photon, 1, ledger)
    return out


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep row: range F, measured query cost Q, achieved precision."""

    F: int
    Q: int
    n_bits_achieved: int
    success_rate: float


def _window_exponents(n_bits: int, m: int) -> list[int]:
    """Bit offsets of the estimation windows, largest offset first; the first
    window holds the lowest bits."""
    return [*range(n_bits - m, 0, -m), 0]


class _Window:
    """One window at one grid phase: its queried state, 2**exponent queries
    made as one at phase 2**exponent * phi mod 1, and the Born table of each
    register read so far, keyed by (photon bit, known_turns), an exact dyadic."""

    def __init__(self, phi: float, m: int, exponent: int) -> None:
        self.queried = _queried_state(ClockModel(_frac(phi * (1 << exponent)), 1.0), m)
        self.tables: dict[tuple[int, float], tuple[np.ndarray, float]] = {}


def _measure_window(
    window: _Window,
    m: int,
    exponent: int,
    known_turns: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
) -> int:
    """Estimate one m-bit window of the phase at bit offset `exponent`.

    Each run charges the 2**exponent queries to `ledger` and measures the
    photon of `window.queried`.  On a branch's first run its register state is
    built: known_turns (the part of 2**exponent * phi the lower windows already
    read) cancelled by a diagonal rotation whose sign follows the photon, then
    the inverse QFT.  Its Born table is kept, and every run draws from it.
    """
    ledger.record_query((1 << m) - 1, count=1 << exponent)
    photon = measure(window.queried, [m], rng)
    key = (photon.value, known_turns)
    if key not in window.tables:
        reg = range(m)
        state = photon.collapsed
        if known_turns > 0:
            sign = -1.0 if photon.value == 0 else 1.0
            turns = _frac(np.arange(1 << m) * known_turns)
            state = diagonal_phase(state, reg, 2.0 * np.pi * sign * turns)
        # every qubit is read, so the (register, rest) block is one column
        window.tables[key] = _born_table(inverse_qft(state, reg).amps[:, None])[1:]
    value = _draw(*window.tables[key], rng)
    return _fold_conjugate(value, m) if photon.value == 1 else value


def _windowed_estimate(
    windows: Sequence[_Window], n_bits: int, m: int, exponents: Sequence[int],
    rng: np.random.Generator, trials: int,
) -> tuple[np.ndarray, ResourceLedger]:
    """`trials` multi-window estimates of a phase, made back to back on rng.

    windows[i] is `_Window(phi, m, exponents[i])`, shared by every run the
    caller makes at phi.  The window at offset e reads bits shift..shift+m-1
    of the n_bits-bit phase integer, shift = n_bits - e - m.  Each estimate
    walks the windows once, merging them from bit 0 upward into a running
    value whose low `known` bits are set; where two windows overlap, the
    earlier read wins.  Every estimate's queries are charged to the one ledger.
    """
    ledger = ResourceLedger()
    phases = np.empty(trials)
    for trial in range(trials):
        value = known = 0
        for window, exponent in zip(windows, exponents):
            shift = n_bits - exponent - m
            known_turns = (value & ((1 << shift) - 1)) / float(1 << (shift + m))
            read = _measure_window(window, m, exponent, known_turns, rng, ledger)
            value |= (read << shift) >> known << known
            known = shift + m
        phases[trial] = value / float(1 << n_bits)
    return phases, ledger


def _scored_point(
    F: int, n_bits: int, grid_size: int, efforts: Sequence,
    prepare: Callable[..., Callable[..., tuple[np.ndarray, ResourceLedger]]],
    trials: int, rng: np.random.Generator,
) -> TradeoffPoint:
    """Escalate effort until the worst per-phase hit rate meets SUCCESS_THRESHOLD.

    At each effort, for each of the first grid_size n_bits-bit phases phi,
    `prepare(phi, effort)` runs once, and the `estimate(stream, trials)` it
    returns makes all `trials` estimates on one spawned stream.  Every
    estimate at one effort costs the same, so Q is the batch ledger's query
    count over trials.  Only one phase is prepared at a time.
    """
    worst, queries = 0.0, 0
    for effort in efforts:
        worst = 1.0
        for g in range(grid_size):
            phi = g / float(1 << n_bits)
            phases, ledger = prepare(phi, effort)(rng.spawn(1)[0], trials)
            queries = ledger.queries_Q // trials
            worst = min(worst, float(np.mean(within_precision(phases, phi, n_bits))))
        if worst >= SUCCESS_THRESHOLD:
            break
    return TradeoffPoint(F=F, Q=queries, n_bits_achieved=n_bits, success_rate=worst)


def tradeoff_sweep(
    n_target: int, F_values: Sequence[int], trials: int, rng: np.random.Generator
) -> list[TradeoffPoint]:
    """Measure the queries needed for n_target bits at each range F.

    For every F (a power of two up to 2**n_target) the sweep scores the
    worst-case per-phase success rate over the n_target-bit phase grid
    against SUCCESS_THRESHOLD and records the per-estimate query count Q read
    off an actual run ledger.  F = 1 escalates through SAMPLE_COUNTS until
    the threshold is met, or stops at the last count; F >= 2 makes one walk
    over its windows per estimate and is scored once.  The reported
    success_rate is honest either way.  `trials` estimates are scored per
    grid phase, all drawn from one stream.
    """
    n_target, trials = _count("n_target", n_target, 1), _count("trials", trials, 1)
    points = []
    for F in F_values:
        F = _count("F", F, 1)
        if (F & (F - 1)) != 0 or F > (1 << n_target):
            raise ValueError(f"F must be a power of two in [1, 2**n_target], got {F}")
        m = F.bit_length() - 1
        if m == 0:
            # the estimator reads phases mod 1/2, so only that half of the grid is scored
            grid, efforts = 1 << (n_target - 1), SAMPLE_COUNTS
            prepare = lambda phi, samples: partial(classical_estimate, ClockModel(phi, 1.0), samples)
        else:
            # every window read on the grid is exact: one effort, no escalation
            exponents = _window_exponents(n_target, m)
            grid, efforts = 1 << n_target, [None]
            prepare = lambda phi, _: partial(_windowed_estimate, [_Window(phi, m, e) for e in exponents],
                                             n_target, m, exponents)
        points.append(_scored_point(F, n_target, grid, efforts, prepare, trials, rng))
    return points
