"""Two-party clock world and the ticking-qubit oracle.

A world is a pair of ideal clocks sharing a reference frequency omega0 but
separated by an unknown offset T.  The only channel between them is a single
photon qubit whose internal clock ticks at an integer multiple k of omega0
while it travels.  The net effect of one exchange, after the receiver's
local correction, is the Z rotation e^{2*pi*i*k*omega0*T*Z} on the photon:
transit time cancels and only the clock offset survives.  `tqh_oracle`
applies that map coherently over a rate register; `handshake_simulate`
replays the same exchange with explicit timestamps so the cancellation can
be checked against the black-box form.

Every phase is reduced mod 1 by `_frac`, cycle counts before they are
multiplied by k, which keeps intermediate products small and the result
within a few ulps even at the top of the supported rate range.  2**e
back-to-back queries are one query at phase 2**e * phi mod 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qsim import StateVector, _count, indexed_phase, z_phase

# Slack allowed between t_B - t_A and t_tr + offset_T in a TransitRecord:
# TRANSIT_CONSISTENCY_TOL seconds plus TRANSIT_CONSISTENCY_ULPS float steps
# of the largest of the four times, since rounding them moves the gap by ulps.
TRANSIT_CONSISTENCY_TOL = 1e-9
TRANSIT_CONSISTENCY_ULPS = 4


@dataclass(frozen=True)
class ClockModel:
    """Hidden truth of a run: clock offset in seconds and tick frequency in Hz."""

    offset_T: float
    omega0: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.offset_T):
            raise ValueError("offset_T must be finite")
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ValueError(f"omega0 must be positive and finite, got {self.omega0!r}")

    @property
    def phi_star(self) -> float:
        """omega0 * offset_T mod 1: the phase fraction the channel can reveal."""
        phi = float(_frac(self.omega0 * self.offset_T))
        # a tiny negative product rounds up to 1.0, the same point as 0.0
        return 0.0 if phi == 1.0 else phi


@dataclass(frozen=True)
class TransitRecord:
    """Timestamps of one photon exchange: sent at t_A, received at t_B.

    t_A and t_B are local readings of the sender's and receiver's clocks;
    t_tr is the true transit duration.  Consistency with a given clock
    offset (t_B - t_A == t_tr + offset_T) is enforced where the record is
    consumed, not here.
    """

    t_A: float
    t_B: float
    t_tr: float

    def __post_init__(self) -> None:
        for name in ("t_A", "t_B", "t_tr"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t_tr < 0:
            raise ValueError(f"transit time must be nonnegative, got {self.t_tr!r}")


@dataclass
class ResourceLedger:
    """Running count of oracle queries and the largest rate index used."""

    queries_Q: int = 0
    max_rate_index: int = 0

    def record_query(self, rate_index: int, count: int = 1) -> None:
        """Charge `count` >= 1 queries at `rate_index` >= 0, both integers, not bools."""
        rate_index = _count("rate_index", rate_index, 0)
        self.queries_Q += _count("count", count, 1)
        if rate_index > self.max_rate_index:
            self.max_rate_index = rate_index


def _frac(t):
    """t mod 1, with the bits of t % 1.0 (signed zeros included): t - floor(t)
    is one rounding of the same exact value.  An array is reduced in place
    and returned."""
    t -= np.floor(t)
    return t


def _turns(k: int, cycles: float) -> float:
    """Fractional part of k*cycles, reducing cycles mod 1 before the product."""
    return _frac(k * _frac(cycles))


def tqh_oracle(
    clock: ClockModel,
    state: StateVector,
    register: "tuple[int, ...] | list[int] | range",
    photon: int,
    ledger: ResourceLedger | None = None,
) -> StateVector:
    """One coherent query: |k>|psi> -> |k> e^{2*pi*i*k*omega0*T*Z} |psi>.

    The register holds the tick-rate index k in superposition; the photon
    qubit absorbs the rotation.  The query costs one at rate
    2**len(register)-1 (the largest branch present), recorded on the ledger
    when one is given.  The turn table k * phi_star is reduced by `_frac` in
    place, so the query allocates no table beyond it.
    """
    count = 1 << len(register)
    turns = np.arange(count, dtype=np.float64)
    turns *= clock.phi_star
    turns = _frac(turns)
    turns *= 2.0 * np.pi
    out = indexed_phase(state, register, photon, turns)
    if ledger is not None:
        ledger.record_query(count - 1)
    return out


def fixed_rate_query(
    clock: ClockModel,
    state: StateVector,
    photon: int,
    rate_index: int,
    ledger: ResourceLedger | None = None,
) -> StateVector:
    """One oracle query with the rate register classically pinned to rate_index.

    rate_index must be a nonnegative integer; a bool or float raises ValueError.
    """
    rate_index = _count("rate_index", rate_index, 0)
    theta = 2.0 * np.pi * _turns(rate_index, clock.phi_star)
    out = z_phase(state, photon, theta)
    if ledger is not None:
        ledger.record_query(rate_index)
    return out


def handshake_simulate(
    clock: ClockModel,
    k: int,
    photon_state: StateVector,
    transit: TransitRecord,
) -> StateVector:
    """Replay one timed exchange at rate k and return the corrected photon.

    While in flight the photon accumulates e^{-2*pi*i*k*omega0*t_tr*Z}; on
    receipt the receiver applies e^{+2*pi*i*k*omega0*(t_B - t_A)*Z} from the
    two local timestamps.  For a consistent record the transit time cancels
    and the result equals the black-box tqh_oracle at fixed k, up to
    rounding: each amplitude differs from `fixed_rate_query` / `tqh_oracle` by
    at most 2*pi*k*(omega0*ulp(max |t|) + 2**-52), the max over t_A, t_B and
    t_tr.  The first term is the timestamps' rounding, which t_B - t_A keeps;
    the second, a floor that does not shrink with omega0, is the two turns'
    own rounding: each is k times a fraction below 1, rounded to a float below
    k, so off by at most k*2**-53.

    Raises ValueError if the record disagrees with the clock offset by more
    than TRANSIT_CONSISTENCY_TOL seconds plus TRANSIT_CONSISTENCY_ULPS ulps of
    the largest time involved, if the photon is not one qubit, or if k is
    not a nonnegative integer (a bool or float included).
    """
    if photon_state.num_qubits != 1:
        raise ValueError("handshake photon must be a single qubit")
    k = _count("k", k, 0)
    gap = (transit.t_B - transit.t_A) - (transit.t_tr + clock.offset_T)
    scale = max(abs(transit.t_A), abs(transit.t_B), transit.t_tr, abs(clock.offset_T))
    if abs(gap) > TRANSIT_CONSISTENCY_TOL + TRANSIT_CONSISTENCY_ULPS * math.ulp(scale):
        raise ValueError(
            f"transit record inconsistent with clock offset by {gap!r} s"
        )
    received = z_phase(photon_state, 0, -2.0 * np.pi * _turns(k, clock.omega0 * transit.t_tr))
    elapsed = transit.t_B - transit.t_A
    return z_phase(received, 0, 2.0 * np.pi * _turns(k, clock.omega0 * elapsed))


def make_world(
    T: float,
    omega0: float,
    rng: np.random.Generator,
    transit_interval: tuple[float, float] = (0.0, 10.0),
):
    """Build a hidden-offset world plus a seeded transit-time sampler.

    Returns (clock, sample_transit) where sample_transit() draws t_tr
    uniformly from transit_interval and emits a consistent TransitRecord.
    Send stamps sit at the sender's time origin so repeated exchanges differ
    only in transit time.
    """
    lo, hi = float(transit_interval[0]), float(transit_interval[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or hi < lo:
        raise ValueError(f"bad transit interval {transit_interval!r}")
    clock = ClockModel(offset_T=T, omega0=omega0)

    def sample_transit() -> TransitRecord:
        t_tr = float(rng.uniform(lo, hi))
        t_A = 0.0
        return TransitRecord(t_A=t_A, t_B=t_A + t_tr + T, t_tr=t_tr)

    return clock, sample_transit
