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
  and the windows merge as plain integers.  Windows are re-run in passes
  (1, 3, ..., 15) with a per-window majority vote when one pass is not
  reliable enough.  Each window's queried state is built once per grid
  phase and effort; every run of the window still charges its 2**e
  queries and measures the photon and the register.
* F = 1: no usable quantum phase, only the fixed unit-rate observable.
  A two-quadrature sampling estimator draws from the fringes
  cos^2(2*pi*phi) and cos^2(2*pi*phi + pi/4), written in closed form, and
  inverts the outcome frequencies; the sample count doubles from 16 to
  2**15 until the target precision is reliably met.

Both escalations share one scoring loop, `_scored_point`, which prepares
each grid phase once per effort and grades the effort by its worst
per-phase hit rate over the n-bit phase grid against the module constant
SUCCESS_THRESHOLD = 0.9.

Query accounting is uniform: every oracle invocation costs 1 regardless of
how many rate branches it carries, and a query made in superposition is
charged at its largest branch.  `nayak_wu_bound` gives the counting lower
bound that the measured F*Q products are compared against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .clock import ClockModel, ResourceLedger, _count, _frac, fixed_rate_query
from .protocol import _fold_conjugate, _queried_state, within_precision
from .qsim import StateVector, basis_state, diagonal_phase, hadamard, inverse_qft, measure

# the worst per-phase hit rate a point must reach, and the efforts tried in
# turn to reach it: majority passes for F >= 2, sample counts for F = 1
SUCCESS_THRESHOLD = 0.9
PASS_COUNTS = range(1, 16, 2)
SAMPLE_COUNTS = [16 << j for j in range(12)]  # 16, 32, ..., 2**15


@dataclass(frozen=True)
class LowerBoundParams:
    """Inputs to the counting lower bound: domain size N, tick count t, gap Delta."""

    N: int
    t: int
    Delta: float

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("N must be positive")
        if not 0 <= self.t <= self.N:
            raise ValueError(f"t must lie in [0, N], got {self.t}")
        if not (math.isfinite(self.Delta) and self.Delta > 0):
            raise ValueError(f"Delta must be positive, got {self.Delta!r}")

    @property
    def a(self) -> float:
        """Fractional tick density t/N."""
        return self.t / self.N


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
    clock: ClockModel, samples: int, rng: np.random.Generator
) -> tuple[float, ResourceLedger]:
    """Estimate the offset from repeated unit-rate measurements.

    Draws `samples` shots from the direct fringe, p0 = cos^2(2*pi*phi), and
    `samples` from its quadrature, p0 = cos^2(2*pi*phi + pi/4), phi =
    clock.phi_star: `single_rate_state` and that circuit with an eighth-turn
    z_phase before the last Hadamard, in closed form.  It inverts (cos, sin)
    of 4*pi*phi via arccos, the sign of the sine picking the half-interval.
    The observable only determines omega0*T mod 1/2, so estimates live in
    [0, 1/2); callers with phases in the upper half see the folded value.

    Returns (T_hat, ledger); the ledger records 2*samples unit-rate queries.
    samples must be a positive integer; a bool or float raises ValueError.
    """
    samples = _count("samples", samples, 1)
    ledger = ResourceLedger()

    angle = 2.0 * math.pi * clock.phi_star
    p_direct = math.cos(angle) ** 2
    p_quad = math.cos(angle + math.pi / 4.0) ** 2
    # each shot is one independent query; a binomial draw aggregates them
    hits_direct = int(rng.binomial(samples, p_direct))
    hits_quad = int(rng.binomial(samples, p_quad))
    ledger.record_query(1, count=2 * samples)

    cos_hat = 2.0 * hits_direct / samples - 1.0
    sin_hat = 1.0 - 2.0 * hits_quad / samples
    folded = math.acos(min(1.0, max(-1.0, cos_hat))) / (4.0 * math.pi)
    phi_hat = folded if sin_hat >= 0.0 else 0.5 - folded
    phi_hat %= 0.5
    return phi_hat / clock.omega0, ledger


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


def _measure_window(
    queried: StateVector,
    m: int,
    exponent: int,
    known_turns: float,
    rng: np.random.Generator,
    ledger: ResourceLedger,
) -> int:
    """Estimate one m-bit window of the phase at bit offset `exponent`.

    `queried` is the protocol's circuit on an m-qubit register right after its
    2**exponent queries, built once per grid phase as one query at phase
    2**exponent * phi mod 1; each run charges the 2**exponent queries to
    `ledger`, measures the photon, cancels known_turns (the
    part of 2**exponent * phi the lower windows already read) with a diagonal
    rotation whose sign follows the photon branch, and measures the register.
    """
    reg = range(m)
    ledger.record_query((1 << m) - 1, count=1 << exponent)
    photon_out = measure(queried, [m], rng)
    state = photon_out.collapsed
    if known_turns > 0:
        sign = -1.0 if photon_out.value == 0 else 1.0
        turns = _frac(np.arange(1 << m) * known_turns)
        state = diagonal_phase(state, reg, 2.0 * np.pi * sign * turns)
    window = measure(inverse_qft(state, reg), reg, rng).value
    return _fold_conjugate(window, m) if photon_out.value == 1 else window


def _windowed_estimate(
    states: Sequence[StateVector],
    n_bits: int,
    m: int,
    exponents: Sequence[int],
    passes: int,
    rng: np.random.Generator,
) -> tuple[float, ResourceLedger]:
    """Full multi-window estimate of a phase with per-window majority voting.

    states[i] is `_queried_state(ClockModel(_frac(phi * 2**e), 1.0), m)`, e =
    exponents[i]: window i's 2**e queries made as one at 2**e * phi mod 1.
    The window at offset e reads bits shift..shift+m-1 of the n_bits-bit
    phase integer, shift = n_bits - e - m.  Windows are merged from bit 0
    upward into a running value whose low `known` bits are set; where two
    windows overlap, the earlier read wins.
    """
    ledger = ResourceLedger()
    votes: list[Counter] = [Counter() for _ in exponents]
    for _ in range(passes):
        value = known = 0
        for stage, exponent in enumerate(exponents):
            shift = n_bits - exponent - m
            known_turns = (value & ((1 << shift) - 1)) / float(1 << (shift + m))
            window = _measure_window(states[stage], m, exponent, known_turns, rng, ledger)
            votes[stage][window] += 1
            value |= (window << shift) >> known << known
            known = shift + m
    value = known = 0
    for exponent, counter in zip(exponents, votes):
        window = max(counter.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        shift = n_bits - exponent - m
        value |= (window << shift) >> known << known
        known = shift + m
    return value / float(1 << n_bits), ledger


def _scored_point(
    F: int, n_bits: int, grid_size: int, efforts: Sequence[int],
    prepare: Callable[[float], Callable[[int, np.random.Generator], tuple[float, ResourceLedger]]],
    trials: int, rng: np.random.Generator,
) -> TradeoffPoint:
    """Escalate effort until the worst per-phase hit rate meets SUCCESS_THRESHOLD.

    At each effort, for each of the first grid_size n_bits-bit phases phi,
    `prepare(phi)` runs once, and the `estimate(effort, stream)` it returns
    runs `trials` times, every run on its own spawned stream; Q is the query
    count of the last run's ledger.  Only one phase is prepared at a time.
    """
    worst, queries = 0.0, 0
    for effort in efforts:
        worst = 1.0
        for g in range(grid_size):
            phi = g / float(1 << n_bits)
            estimate = prepare(phi)
            hits = 0
            for _ in range(trials):
                phase, ledger = estimate(effort, rng.spawn(1)[0])
                queries = ledger.queries_Q
                hits += bool(within_precision(phase, phi, n_bits))
            worst = min(worst, hits / trials)
        if worst >= SUCCESS_THRESHOLD:
            break
    return TradeoffPoint(F=F, Q=queries, n_bits_achieved=n_bits, success_rate=worst)


def tradeoff_sweep(
    n_target: int, F_values: Sequence[int], trials: int, rng: np.random.Generator
) -> list[TradeoffPoint]:
    """Measure the queries needed for n_target bits at each range F.

    For every F (a power of two up to 2**n_target) the sweep escalates
    effort (PASS_COUNTS majority passes, or SAMPLE_COUNTS samples when
    F = 1) until the worst-case per-phase success rate over the
    n_target-bit phase grid reaches SUCCESS_THRESHOLD, then records the
    per-estimate query count Q read off an actual run ledger.  `trials`
    estimates are scored per grid phase.  Escalation stops at the last
    effort even if the threshold was not reached; the reported
    success_rate is honest either way.
    """
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial per grid phase")
    points = []
    for F in F_values:
        F = int(F)
        if F < 1 or (F & (F - 1)) != 0 or F > (1 << n_target):
            raise ValueError(
                f"F must be a power of two in [1, 2**n_target], got {F}"
            )
        m = F.bit_length() - 1
        if m == 0:
            # the estimator reads phases mod 1/2, so only that half of the grid is scored
            point = _scored_point(
                F, n_target, 1 << (n_target - 1), SAMPLE_COUNTS,
                lambda phi: partial(classical_estimate, ClockModel(phi, 1.0)),
                trials, rng,
            )
        else:
            exponents = _window_exponents(n_target, m)
            point = _scored_point(
                F, n_target, 1 << n_target, PASS_COUNTS,
                lambda phi: partial(_windowed_estimate, [
                    _queried_state(ClockModel(_frac(phi * (1 << e)), 1.0), m) for e in exponents
                ], n_target, m, exponents),
                trials, rng,
            )
        points.append(point)
    return points
