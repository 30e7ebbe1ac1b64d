"""Phase-estimation synchronization over the ticking-qubit channel.

One protocol run spends exactly one oracle query: prepare a uniform rate
register with a Fourier transform and put the photon on the equator (a
state that does not depend on the offset, so it is written directly), make
the single coherent query, measure the photon, then invert the Fourier
transform and read the register.  A photon outcome of 1 lands on the
conjugate phase branch, which post-processing folds back by negating the
register value mod 2**n'.  This module is the one place that circuit
(`_queried_state`) and that read-out (`_Readout`) are written, and
`tradeoff`'s windows reuse both; the exact analysis sums the run's Fejer kernel.

Success for a target precision of n bits means circular distance strictly
below 2**-n between the estimate and omega0*T mod 1.  On n-bit grid phases
the estimate is exact; off the grid a bare register succeeds with
probability at least 4/pi**2, and widening the register per
`boosted_register_size` pushes the failure rate below a chosen delta.  Every
caller, the harness too, meets the admission rules here: `ProtocolConfig`'s
delta range and MAX_REGISTER_QUBITS, and `run_sync`'s `loses_phase_bits`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock import ClockModel, ResourceLedger, _frac, tqh_oracle
from .qsim import _INV_SQRT2, StateVector, _born_table, _count, _draw, inverse_qft, measure

# Widest register n' simulated: with the photon, 2**25 amplitudes (512 MiB) at 24.
MAX_REGISTER_QUBITS = 24

# Bits that omega0 * offset_T must carry below the n' decoded ones, so that
# rounding the product moves the phase by under 2**-11 of a register bin.
PHASE_GUARD_BITS = 10

_WEIGHT_BLOCK = 1 << 20  # most kernel weights the exact analysis holds at once


def circular_distance(a, b):
    """Distance between phase fractions on the unit circle, in [0, 1/2];
    elementwise on arrays (integer ones too: np.fabs returns floats)."""
    d = _frac(np.fabs(a - b))
    return np.minimum(d, 1.0 - d)


def within_precision(phase_hat, phi, n_bits: int):
    """The success rule: phase_hat lies at circular distance strictly below
    2**-n_bits from phi.  Elementwise on arrays."""
    return circular_distance(phase_hat, phi) < 2.0 ** (-n_bits)


def loses_phase_bits(phase: float, n_prime: int) -> bool:
    """Whether the float omega0 * T keeps fewer than n' + PHASE_GUARD_BITS fractional bits."""
    return math.ulp(phase) > 2.0 ** -(n_prime + PHASE_GUARD_BITS)


def boosted_register_size(n_bits: int, delta: float) -> int:
    """Register width needed for n_bits of precision with failure rate <= delta.

    Computes n_bits + ceil(log2(2 + 1/(2*delta))).  A tiny guard is
    subtracted before the ceiling so dyadic deltas that land exactly on an
    integer boundary are not bumped a level by float rounding.
    """
    n_bits = _count("n_bits", n_bits, 1)
    if not (0.0 < delta < 0.5):
        raise ValueError(f"delta must lie in (0, 1/2), got {delta!r}")
    extra = math.ceil(math.log2(2.0 + 1.0 / (2.0 * delta)) - 1e-12)
    return n_bits + extra


@dataclass(frozen=True)
class ProtocolConfig:
    """Requested precision n_bits plus optional failure budget delta."""

    n_bits: int
    delta: float | None = None

    def __post_init__(self) -> None:
        _count("n_bits", self.n_bits, 1)
        if self.effective_register > MAX_REGISTER_QUBITS:
            raise ValueError(f"delta={self.delta!r} and n_bits={self.n_bits} need {self.effective_register} "
                             f"register qubits, more than the {MAX_REGISTER_QUBITS} simulated")

    @property
    def effective_register(self) -> int:
        """Register width actually used: n_bits, widened when delta is set."""
        if self.delta is None:
            return self.n_bits
        return boosted_register_size(self.n_bits, self.delta)


@dataclass(frozen=True)
class SyncEstimate:
    """Outcome of one run: raw register value and the decoded offset."""

    raw_m: int
    photon_bit: int
    phase_hat: float
    T_hat: float


def _nearest_grid_index(m: int, n_prime: int, n_bits: int) -> int:
    """Nearest n_bits-bit fraction to m/2**n_prime, ties toward the smaller.

    Pure integer arithmetic: shift out the d = n_prime - n_bits low bits
    with rounding, wrapping mod 2**n_bits.  m may be an integer array.
    """
    d = n_prime - n_bits
    if d == 0:
        return m % (1 << n_bits)
    half = 1 << (d - 1)
    return ((m + half - 1) >> d) % (1 << n_bits)


def _queried_state(clock: ClockModel, n_prime: int, ledger: ResourceLedger | None = None) -> StateVector:
    """Register and photon right after the oracle: the circuit of every run.

    The circuit Fourier-transforms register qubits 0..n_prime-1 from |0...0>
    and puts photon qubit n_prime on the equator, then makes one coherent
    query.  The clock enters only through the query, so the prepared state
    is written directly: every amplitude is (1/sqrt(2**n')) * _INV_SQRT2.
    That is exactly what `qft` and `hadamard` compute, bit for bit: the
    transform of |0...0> gives every register value the one amplitude 1
    times its orthonormal factor 1/sqrt(2**n'), and the Hadamard adds or
    subtracts a zero before scaling by _INV_SQRT2.
    """
    amp = (1.0 / math.sqrt(2**n_prime)) * _INV_SQRT2
    prepared = StateVector(n_prime + 1, np.full(2 << n_prime, amp, dtype=np.complex128), copy=False)
    return tqh_oracle(clock, prepared, range(n_prime), n_prime, ledger)


class _Readout:
    """A queried state's read-out: measure photon qubit n_prime, inverse-QFT
    and read register qubits 0..n_prime-1, fold the photon-1 branch.  Each
    branch's register Born table is built on its first draw and kept."""

    def __init__(self, state: StateVector, n_prime: int) -> None:
        self.state, self.n_prime = state, n_prime
        self.tables: dict[int, tuple[np.ndarray, float]] = {}  # photon bit -> (cumsum, total)

    def draw(self, rng: np.random.Generator) -> tuple[int, int]:
        """(photon bit, folded register value) of one read, on two uniforms of rng."""
        photon = measure(self.state, [self.n_prime], rng)
        if photon.value not in self.tables:
            # every register qubit is read, so the (register, rest) block is one column
            register = inverse_qft(photon.collapsed, range(self.n_prime))
            self.tables[photon.value] = _born_table(register.amps[:, None])[1:]
        value = _draw(*self.tables[photon.value], rng)
        # a photon-1 read lands on the conjugate phase: negate it mod 2**n'
        return photon.value, -value % (1 << self.n_prime) if photon.value else value


def _register_weights(n_prime: int, theta, m):
    """Probability of reading register value m (photon branches folded) at
    phase theta, from the Fejer kernel of Cleve, Ekert, Macchiavello and
    Mosca 1998: |sin(pi r) / (N sin(pi r / N))|**2, r = N*theta - m, N = 2**n'.

    Elementwise.  r, exact for integer m near N*theta, is reduced exactly: to
    r - round(r) for the numerator, into [-N/2, N/2] for the denominator.
    """
    size = 1 << n_prime
    r = theta * size - m
    r_den = r - size * np.round(r / size)
    peak = r_den == 0
    den = size * np.sin(np.pi * np.where(peak, 1.0, r_den) / size)
    return np.where(peak, 1.0, (np.sin(np.pi * (r - np.round(r))) / den) ** 2)


def run_sync(
    config: ProtocolConfig,
    clock: ClockModel,
    rng: np.random.Generator,
    ledger: ResourceLedger | None = None,
) -> SyncEstimate:
    """Execute one synchronization run and decode the clock offset.

    Spends exactly one oracle query on a register of config.effective_register
    qubits.  phase_hat is raw_m / 2**n' folded for the photon branch and
    rounded to the nearest n_bits-bit fraction; T_hat = phase_hat / omega0.
    Raises ValueError, naming offset_T, if omega0 * offset_T `loses_phase_bits`.
    """
    n_prime = config.effective_register
    if loses_phase_bits(clock.omega0 * clock.offset_T, n_prime):
        raise ValueError(f"offset_T={clock.offset_T!r} leaves omega0 * offset_T too few phase bits")
    photon_bit, m = _Readout(_queried_state(clock, n_prime, ledger), n_prime).draw(rng)
    phase_hat = _nearest_grid_index(m, n_prime, config.n_bits) / float(1 << config.n_bits)
    return SyncEstimate(
        raw_m=m,
        photon_bit=photon_bit,
        phase_hat=phase_hat,
        T_hat=phase_hat / clock.omega0,
    )


def _validated_phase(phi):
    phis = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(phis) & (phis >= 0.0) & (phis < 1.0)):
        raise ValueError(f"phase fraction must lie in [0, 1), got {phi!r}")
    return phis


def success_probability_exact(n_prime: int, phi, n_bits: int):
    """Exact probability that a run estimates phi to within 2**-n_bits.

    Elementwise over an array of phases; a float for a scalar phi.  Only the
    2**(n' - n_bits + 1) register values that round to floor(phi * 2**n_bits)
    or the next grid point can succeed: each is scored by `within_precision`
    and the kernel weights of the hits are summed, at most `_WEIGHT_BLOCK`
    weights at a time.  No sampling, no state.
    """
    n_prime, n_bits = _count("n_prime", n_prime, 1), _count("n_bits", n_bits, 1)
    if n_bits > n_prime:
        raise ValueError(f"n_bits must lie in [1, {n_prime}], got {n_bits}")
    phis = _validated_phase(phi)
    d = n_prime - n_bits
    width = 2 << d  # values from base on that round to g = floor(phi * 2**n_bits) or g + 1
    cols = min(width, _WEIGHT_BLOCK)
    flat, total = phis.ravel(), np.zeros(phis.size)
    for start in range(0, flat.size, _WEIGHT_BLOCK // cols):
        p = flat[start : start + _WEIGHT_BLOCK // cols, None]
        base = (np.floor(p * (1 << n_bits)).astype(np.int64) << d) - (((1 << d) - 1) >> 1)
        for lo in range(0, width, cols):
            m = base + np.arange(lo, lo + cols)
            hit = within_precision(_nearest_grid_index(m, n_prime, n_bits) / 2.0**n_bits, p, n_bits)
            total[start : start + len(p)] += np.where(hit, _register_weights(n_prime, p, m), 0).sum(1)
    return total.reshape(phis.shape) if phis.ndim else float(total[0])


def photon_zero_probability(n_prime: int, phi: float) -> float:
    """Exact probability of reading photon_bit = 0, 1/2 for every phi: row 0 of
    the Born table `run_sync` draws its photon from.  Refuses n_prime outside
    [1, MAX_REGISTER_QUBITS], or not an integer (a bool or float included),
    before building the state."""
    n_prime = _count("n_prime", n_prime, 1)
    if n_prime > MAX_REGISTER_QUBITS:
        raise ValueError(f"n_prime must lie in [1, {MAX_REGISTER_QUBITS}], got {n_prime!r}")
    state = _queried_state(ClockModel(float(_validated_phase(phi)), 1.0), n_prime)
    return float(_born_table(state.amps.reshape(2, -1))[0][0])


def min_success_on_grid(n_prime: int, n_bits: int, grid_points: int) -> tuple[float, float]:
    """Scan phi = g / grid_points and return (worst phi, worst probability),
    the first minimum on ties.  grid_points must be a positive integer; a
    bool or float raises ValueError."""
    grid_points = _count("grid_points", grid_points, 1)
    phis = np.arange(grid_points) / grid_points
    probs = success_probability_exact(n_prime, phis, n_bits)
    return float(phis[np.argmin(probs)]), float(probs.min())
