"""Frequency-range versus query-count tradeoff experiments.

The coherent protocol reads n bits of clock phase in one query because its
rate register spans tick multipliers 0..2**n-1.  This module probes what
happens when the available multiplier range F shrinks: rates outside the
range are synthesized by repeating capped queries, so the query count Q
grows as F falls.  Each point is graded by its worst per-phase success on
the n-bit phase grid against SUCCESS_THRESHOLD = 0.9.  Three regimes:

* F = 2**n: the full protocol, Q = 1.
* 2 <= F = 2**m < 2**n: windowed phase estimation.  Each window runs the
  protocol's circuit on m qubits with 2**e queries (e its bit offset), made
  as one query at phase 2**e * phi mod 1.  The first window reads the
  lowest m bits, each later one the next bits up, with the known low bits
  cancelled by a diagonal correction.  On the n-bit grid every read is
  exact, so an estimate is one walk over the windows.  A window's queried
  state, and the protocol's read-out of it under each correction, are built
  once per grid phase; every run charges its 2**e queries and draws through
  that read-out, and `trials` walks per grid phase give its hit rate.
* F = 1: only the fixed unit-rate observable.  `classical_estimate`
  inverts S binomial shots from each of the fringes cos^2(2*pi*phi) and
  cos^2(2*pi*phi + pi/4), so its chance of a hit is a finite sum over the
  two counts.  The row takes that sum exactly, on the phases below 1/2 it
  resolves, and draws nothing: Q = 2*S for the first S in SAMPLE_COUNTS
  whose worst chance meets the threshold.

Query accounting is uniform: every oracle invocation costs 1 regardless of
how many rate branches it carries, and a query made in superposition is
charged at its largest branch.  `nayak_wu_bound` gives the counting lower
bound that the measured F*Q products are compared against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clock import ClockModel, ResourceLedger, _frac, fixed_rate_query
from .protocol import _queried_state, _Readout, within_precision
from .qsim import StateVector, _count, basis_state, diagonal_phase, hadamard

# the worst per-phase success a point must reach; the F = 1 row's sample counts
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


def _fringes(phi: float) -> tuple[float, float]:
    """P(photon 0) of the fringes cos^2(2*pi*phi) and cos^2(2*pi*phi + pi/4)."""
    angle = 2.0 * math.pi * phi
    return math.cos(angle) ** 2, math.cos(angle + math.pi / 4.0) ** 2


def _fringe_phases(hits_direct: int, samples: int) -> tuple[float, float]:
    """The estimates of phi mod 1/2 from hits_direct of `samples` direct shots:
    arccos(2*hits_direct/samples - 1) / (4*pi) where at most samples/2
    quadrature shots hit (a non-negative sine), else 1/2 minus that."""
    # libm's acos: numpy's SIMD arccos differs in the last bits
    folded = math.acos(2.0 * hits_direct / samples - 1.0) / (4.0 * math.pi)
    return folded % 0.5, (0.5 - folded) % 0.5


def classical_estimate(
    clock: ClockModel, samples: int, rng: np.random.Generator
) -> tuple[float, ResourceLedger]:
    """Estimate the offset from repeated unit-rate measurements.

    Draws `samples` shots from each of `_fringes(clock.phi_star)`, direct
    then quadrature: `single_rate_state` and that circuit with an eighth-turn
    z_phase before the last Hadamard, in closed form; `_fringe_phases`
    inverts the hit counts.  The observable only determines omega0*T mod
    1/2, so estimates live in [0, 1/2); callers with phases in the upper
    half see the folded value.
    Returns (T_hat, ledger), the ledger holding 2*samples unit-rate queries.
    samples must be a positive integer; a bool or float raises ValueError.
    """
    samples = _count("samples", samples, 1)
    # each shot is one independent query; a binomial draw aggregates them
    hits_direct, hits_quad = rng.binomial(samples, _fringes(clock.phi_star)).tolist()
    ledger = ResourceLedger()
    ledger.record_query(1, count=2 * samples)
    lower, upper = _fringe_phases(hits_direct, samples)
    return (lower if 2 * hits_quad <= samples else upper) / clock.omega0, ledger


def _binomial_pmf(log_fact: np.ndarray, samples: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """(counts, pmf) of Bin(samples, p), log_fact[k] = log(k!), on the counts
    within 12 standard deviations plus 48 of the mean: Bernstein's inequality
    leaves at most 2*e**-72 of the mass outside."""
    if p in (0.0, 1.0):  # a certain outcome
        return np.array([int(p) * samples]), np.ones(1)
    mean, spread = samples * p, 12.0 * math.sqrt(samples * p * (1.0 - p)) + 48.0
    h = np.arange(max(0, math.ceil(mean - spread)), min(samples, math.floor(mean + spread)) + 1)
    log_pmf = log_fact[samples] - log_fact[h] - log_fact[samples - h]
    return h, np.exp(log_pmf + h * math.log(p) + (samples - h) * math.log1p(-p))


def _classical_success(n_bits: int, samples: int) -> np.ndarray:
    """Exact chance that `classical_estimate` (`samples` shots per fringe,
    omega0 = 1) is `within_precision` n_bits at each grid phase below 1/2:
    the sum over direct counts h of pmf(h) * (q * hit(lower) + (1 - q) *
    hit(upper)), (lower, upper) = `_fringe_phases(h, samples)` and q the
    chance of at most samples/2 quadrature hits, which picks lower."""
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(samples + 1)])
    lower, upper = np.array([_fringe_phases(h, samples) for h in range(samples + 1)]).T
    phis = np.arange(1 << (n_bits - 1)) / float(1 << n_bits)
    out = np.empty(phis.size)
    for i, phi in enumerate(phis.tolist()):
        p_direct, p_quad = _fringes(phi)
        h, pmf = _binomial_pmf(log_fact, samples, p_direct)
        h_quad, pmf_quad = _binomial_pmf(log_fact, samples, p_quad)
        q = pmf_quad[2 * h_quad <= samples].sum()
        hit = q * within_precision(lower[h], phi, n_bits) + (1.0 - q) * within_precision(upper[h], phi, n_bits)
        out[i] = (pmf * hit).sum()
    return out


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
    made as one at phase 2**exponent * phi mod 1, and a read-out per
    known_turns, the exact dyadic part of that phase the lower windows read.
    The receiver's local rotation cancels it, -known_turns per register unit
    on photon |0> and + on |1>, before the photon measurement it commutes with."""

    def __init__(self, phi: float, m: int, exponent: int) -> None:
        self.m = m
        self.queried = _queried_state(ClockModel(_frac(phi * (1 << exponent)), 1.0), m)
        self.readouts: dict[float, _Readout] = {}

    def readout(self, known_turns: float) -> _Readout:
        if known_turns not in self.readouts:
            state = self.queried
            if known_turns > 0:
                turns = 2.0 * np.pi * _frac(np.arange(1 << self.m) * known_turns)
                state = diagonal_phase(state, range(self.m + 1), np.concatenate((-turns, turns)))
            self.readouts[known_turns] = _Readout(state, self.m)
        return self.readouts[known_turns]


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
            ledger.record_query((1 << m) - 1, count=1 << exponent)
            read = window.readout(known_turns).draw(rng)[1]
            value |= (read << shift) >> known << known
            known = shift + m
        phases[trial] = value / float(1 << n_bits)
    return phases, ledger


def tradeoff_sweep(
    n_target: int, F_values: Sequence[int], trials: int, rng: np.random.Generator
) -> list[TradeoffPoint]:
    """Measure the queries needed for n_target bits at each range F.

    Every F (a power of two up to 2**n_target) is scored by its worst
    per-phase success on the n_target-bit phase grid against
    SUCCESS_THRESHOLD, reported honestly even where it misses.  F >= 2 makes
    `trials` window walks per grid phase on one stream spawned from rng and
    reads Q off their ledger; F = 1 is exact and uses neither trials nor rng.
    """
    n_target, trials = _count("n_target", n_target, 1), _count("trials", trials, 1)
    points = []
    for F in F_values:
        F = _count("F", F, 1)
        if (F & (F - 1)) != 0 or F > (1 << n_target):
            raise ValueError(f"F must be a power of two in [1, 2**n_target], got {F}")
        m = F.bit_length() - 1
        if m == 0:
            for samples in SAMPLE_COUNTS:
                worst = float(_classical_success(n_target, samples).min())
                if worst >= SUCCESS_THRESHOLD:
                    break
            Q = 2 * samples
        else:
            # every window read on the grid is exact: each grid phase is scored once
            exponents, worst = _window_exponents(n_target, m), 1.0
            for g in range(1 << n_target):
                phi = g / float(1 << n_target)
                windows = [_Window(phi, m, e) for e in exponents]
                phases, ledger = _windowed_estimate(windows, n_target, m, exponents, rng.spawn(1)[0], trials)
                worst = min(worst, float(np.mean(within_precision(phases, phi, n_target))))
            Q = ledger.queries_Q // trials
        points.append(TradeoffPoint(F=F, Q=Q, n_bits_achieved=n_target, success_rate=worst))
    return points
