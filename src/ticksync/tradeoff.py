"""Frequency-range versus query-count tradeoff experiments.

The coherent protocol reads n bits of clock phase in one query because its
rate register spans tick multipliers 0..2**n-1.  This module probes what
happens when the available multiplier range F shrinks: rates outside the
range are synthesized by repeating capped queries, so the query count Q
grows as F falls.  Three regimes are covered:

* F = 2**n: the full protocol, Q = 1.
* 2 <= F = 2**m < 2**n: windowed phase estimation.  Each window estimates m
  bits using 2**e repeated queries (e the window's bit offset), with the
  already-known low bits cancelled by an in-circuit diagonal correction.
  Windows are re-run in passes with a per-window majority vote when one
  pass is not reliable enough.
* F = 1: no usable quantum phase, only the fixed unit-rate observable.
  A two-quadrature sampling estimator inverts the outcome frequencies;
  the sample count doubles until the target precision is reliably met.

Query accounting is uniform: every oracle invocation costs 1 regardless of
how many rate branches it carries, and a query made in superposition is
charged at its largest branch.  `nayak_wu_bound` gives the counting lower
bound that the measured F*Q products are compared against.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clock import ClockModel, ResourceLedger, fixed_rate_query, tqh_oracle
from .protocol import circular_distance
from .qsim import (
    StateVector,
    basis_state,
    diagonal_phase,
    hadamard,
    inverse_qft,
    measure,
    qft,
    z_phase,
)


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


def _quadrature_state(clock: ClockModel) -> StateVector:
    # extra eighth-turn rotation moves the fringe onto sin(4*pi*phi)
    state = basis_state(1, 0)
    state = hadamard(state, 0)
    state = fixed_rate_query(clock, state, 0, 1)
    state = z_phase(state, 0, np.pi / 4.0)
    return hadamard(state, 0)


def classical_estimate(
    clock: ClockModel, samples: int, rng: np.random.Generator
) -> tuple[float, ResourceLedger]:
    """Estimate the offset from repeated unit-rate measurements.

    Draws `samples` shots from the direct fringe and `samples` from its
    quadrature, inverting (cos, sin) of 4*pi*phi via arccos with the sign
    of the sine picking the half-interval.  The observable only determines
    omega0*T mod 1/2, so estimates live in [0, 1/2); callers with phases in
    the upper half see the folded value.

    Returns (T_hat, ledger); the ledger records 2*samples unit-rate queries.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError("need at least one sample")
    ledger = ResourceLedger()

    p_direct = float(single_rate_state(clock).probabilities()[0])
    p_quad = float(_quadrature_state(clock).probabilities()[0])
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
    k queries of rate index 1 on the ledger.  k must be at least 1.
    """
    k = int(k)
    if k < 1:
        raise ValueError("rate multiplier must be at least 1")
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
    """Bit offsets of the estimation windows, most significant first."""
    return [*range(n_bits - m, 0, -m), 0]


def _measure_window(
    clock: ClockModel,
    m: int,
    exponent: int,
    tail_value: int,
    tail_width: int,
    rng: np.random.Generator,
    ledger: ResourceLedger,
) -> int:
    """Estimate one m-bit window of the phase at bit offset `exponent`.

    Runs phase estimation on an m-qubit register driven by 2**exponent
    repeated queries, then cancels the already-known tail bits with a
    diagonal rotation whose sign follows the photon branch.
    """
    reg = range(m)
    photon = m
    state = basis_state(m + 1, 0)
    state = qft(state, reg)
    state = hadamard(state, photon)
    state = tqh_oracle(clock, state, reg, photon, ledger, repeats=1 << exponent)

    photon_out = measure(state, [photon], rng)
    state = photon_out.collapsed
    if tail_width > 0 and tail_value > 0:
        tail_fraction = tail_value / float(1 << (tail_width + m))
        sign = -1.0 if photon_out.value == 0 else 1.0
        turns = (np.arange(1 << m) * tail_fraction) % 1.0
        state = diagonal_phase(state, reg, 2.0 * np.pi * sign * turns)
    state = inverse_qft(state, reg)
    window = measure(state, reg, rng).value
    if photon_out.value == 1:
        window = ((1 << m) - window) % (1 << m)
    return window


def _assemble(
    n_bits: int, m: int, exponents: Sequence[int], windows: Sequence[int]
) -> tuple[int, int]:
    """Merge window values into an n_bits-bit phase integer.

    Earlier (more significant) windows win where windows overlap; returns
    (value, known_mask) so callers can extract tails mid-pass.
    """
    value = 0
    known = 0
    for exponent, window in zip(exponents, windows):
        tail_width = n_bits - exponent - m
        window_mask = ((1 << m) - 1) << tail_width
        write = window_mask & ~known
        value = (value & ~write) | ((window << tail_width) & write)
        known |= window_mask
    return value, known


def _windowed_estimate(
    phi: float,
    n_bits: int,
    m: int,
    exponents: Sequence[int],
    passes: int,
    rng: np.random.Generator,
) -> tuple[float, ResourceLedger]:
    """Full multi-window estimate of phi with per-window majority voting."""
    clock = ClockModel(offset_T=phi, omega0=1.0)
    ledger = ResourceLedger()
    votes: list[Counter] = [Counter() for _ in exponents]
    for _ in range(passes):
        seen: list[int] = []
        for stage, exponent in enumerate(exponents):
            tail_width = n_bits - exponent - m
            partial, _ = _assemble(n_bits, m, exponents[:stage], seen)
            tail_value = partial & ((1 << tail_width) - 1) if tail_width > 0 else 0
            window = _measure_window(
                clock, m, exponent, tail_value, tail_width, rng, ledger
            )
            votes[stage][window] += 1
            seen.append(window)
    elected = [
        max(counter.items(), key=lambda kv: (kv[1], -kv[0]))[0] for counter in votes
    ]
    value, _ = _assemble(n_bits, m, exponents, elected)
    return value / float(1 << n_bits), ledger


def _windowed_point(
    n_bits: int,
    m: int,
    trials: int,
    rng: np.random.Generator,
    success_threshold: float,
    max_passes: int,
) -> TradeoffPoint:
    exponents = _window_exponents(n_bits, m)
    tol = 2.0 ** (-n_bits)
    grid = [g / float(1 << n_bits) for g in range(1 << n_bits)]
    queries = 0
    worst = 0.0
    for passes in range(1, max_passes + 1, 2):
        worst = 1.0
        queries = 0
        for phi in grid:
            hits = 0
            for _ in range(trials):
                stream = rng.spawn(1)[0]
                estimate, ledger = _windowed_estimate(
                    phi, n_bits, m, exponents, passes, stream
                )
                queries = ledger.queries_Q
                hits += circular_distance(estimate, phi) < tol
            worst = min(worst, hits / trials)
        if worst >= success_threshold:
            break
    return TradeoffPoint(
        F=1 << m, Q=queries, n_bits_achieved=n_bits, success_rate=worst
    )


def _sampling_point(
    n_bits: int,
    trials: int,
    rng: np.random.Generator,
    success_threshold: float,
    max_samples: int,
) -> TradeoffPoint:
    # estimator domain is [0, 1/2), so only that half of the grid is probed
    tol = 2.0 ** (-n_bits)
    grid = [g / float(1 << n_bits) for g in range(max(1, 1 << (n_bits - 1)))]
    samples = 16
    queries = 0
    worst = 0.0
    while True:
        worst = 1.0
        for phi in grid:
            clock = ClockModel(offset_T=phi, omega0=1.0)
            hits = 0
            for _ in range(trials):
                stream = rng.spawn(1)[0]
                t_hat, ledger = classical_estimate(clock, samples, stream)
                queries = ledger.queries_Q
                hits += circular_distance(t_hat, phi) < tol
            worst = min(worst, hits / trials)
        if worst >= success_threshold or samples >= max_samples:
            break
        samples *= 2
    return TradeoffPoint(F=1, Q=queries, n_bits_achieved=n_bits, success_rate=worst)


def tradeoff_sweep(
    n_target: int,
    F_values: Sequence[int],
    trials: int,
    rng: np.random.Generator,
    success_threshold: float = 0.9,
    max_passes: int = 15,
    max_samples: int = 1 << 15,
) -> list[TradeoffPoint]:
    """Measure the queries needed for n_target bits at each range F.

    For every F (a power of two up to 2**n_target) the sweep escalates
    effort (majority passes, or sample count when F = 1) until the
    worst-case per-phase success rate over the n_target-bit phase grid
    reaches success_threshold, then records the per-estimate query count Q
    read off an actual run ledger.  `trials` estimates are scored per grid
    phase.  Escalation stops at max_passes or max_samples even if the
    threshold was not reached; the reported success_rate is honest either
    way.
    """
    if n_target < 1:
        raise ValueError("n_target must be at least 1")
    if trials < 1:
        raise ValueError("need at least one trial per grid phase")
    if not (0.0 < success_threshold <= 1.0):
        raise ValueError("success threshold must lie in (0, 1]")
    points = []
    for F in F_values:
        F = int(F)
        if F < 1 or (F & (F - 1)) != 0 or F > (1 << n_target):
            raise ValueError(
                f"F must be a power of two in [1, 2**n_target], got {F}"
            )
        m = F.bit_length() - 1
        if m == 0:
            points.append(
                _sampling_point(n_target, trials, rng, success_threshold, max_samples)
            )
        else:
            points.append(
                _windowed_point(n_target, m, trials, rng, success_threshold, max_passes)
            )
    return points
