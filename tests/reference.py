"""Independent reference computations for the test suite.

Everything here is derived straight from the math with explicit matrices,
Fractions, or closed forms, never by calling into the package, so tests
compare two separately written derivations of the same quantity.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def dft_matrix(size: int, sign: int) -> np.ndarray:
    """Unitary DFT matrix with kernel e^{sign * 2*pi*i*j*k/size}."""
    j = np.arange(size)
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / size) / np.sqrt(size)


def fourier_on_register(
    amps: np.ndarray, num_qubits: int, register: tuple[int, ...], sign: int
) -> np.ndarray:
    """Apply the DFT matrix to a register inside a larger state, brute force.

    register[0] holds the least significant bit of the transformed value.
    """
    dim = len(amps)
    matrix = dft_matrix(1 << len(register), sign)
    rest = [q for q in range(num_qubits) if q not in register]
    out = np.zeros(dim, dtype=complex)
    for rest_bits in range(1 << len(rest)):
        base = 0
        for pos, q in enumerate(rest):
            base |= ((rest_bits >> pos) & 1) << q
        idx = []
        for k in range(1 << len(register)):
            full = base
            for pos, q in enumerate(register):
                full |= ((k >> pos) & 1) << q
            idx.append(full)
        out[idx] = matrix @ amps[idx]
    return out


def circular_distance(a: float, b: float) -> float:
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def nearest_fraction_index(m: int, n_prime: int, n_bits: int) -> int:
    """Nearest n_bits-bit grid index to m/2**n_prime via exact rationals.

    Ties go to the smaller index; the result wraps mod 2**n_bits.
    """
    scaled = Fraction(m, 1 << n_prime) * (1 << n_bits)
    lo = math.floor(scaled)
    hi = lo + 1
    choice = lo if (scaled - lo) <= (hi - scaled) else hi
    return choice % (1 << n_bits)


def fold_weight(n_prime: int, phi: float, m: int) -> float:
    """Total probability (both photon branches) of folded register value m.

    Closed form |sin(N*pi*d) / (N*sin(pi*d))|**2 with d = phi - m/N.
    """
    N = 1 << n_prime
    d = phi - m / N
    den = N * math.sin(math.pi * d)
    if abs(den) < 1e-12:
        return 1.0
    return (math.sin(math.pi * N * d) / den) ** 2


def closed_form_success(n_prime: int, phi: float, n_bits: int) -> float:
    """Success probability summed from the phase-estimation kernel."""
    N = 1 << n_prime
    tol = 2.0 ** (-n_bits)
    total = 0.0
    for m in range(N):
        j = nearest_fraction_index(m, n_prime, n_bits)
        if circular_distance(j / (1 << n_bits), phi) < tol:
            total += fold_weight(n_prime, phi, m)
    return total


def four_sigma(p: float, trials: int) -> float:
    """4-sigma binomial half-width for an empirical rate estimate."""
    return 4.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


def random_state(num_qubits: int, seed: int) -> np.ndarray:
    """Haar-ish random normalized amplitude vector from a fixed seed."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    # a plain numpy sum, not np.linalg.norm: a BLAS dot over many entries
    # rounds differently with the thread count
    return raw / math.sqrt(float((np.abs(raw) ** 2).sum()))


def key_values(num_qubits: int, qubits) -> np.ndarray:
    """Value of `qubits` (qubits[0] is the LSB) at every basis index, by bit arithmetic."""
    index = np.arange(1 << num_qubits)
    value = np.zeros_like(index)
    for pos, q in enumerate(qubits):
        value |= ((index >> q) & 1) << pos
    return value


def plain_phase(amps: np.ndarray, num_qubits: int, qubits, angles) -> np.ndarray:
    """Textbook diagonal: amps[i] * e^{i*angles[v]}, v = value of qubits at i."""
    # bound to a name, as in qsim: numpy may otherwise reuse the unnamed gather
    # as the output with the operands swapped, which rounds differently
    factors = np.exp(1j * np.asarray(angles, dtype=float))[key_values(num_qubits, qubits)]
    return amps * factors


def plain_oracle(amps, num_qubits, register, photon, phi) -> np.ndarray:
    """One query at phase phi: turns (k * phi) % 1.0, photon |1> rotated by the negated angle."""
    turns = (np.arange(1 << len(register)) * phi) % 1.0
    angles = 2.0 * np.pi * turns
    return plain_phase(amps, num_qubits, (*register, photon), np.concatenate([angles, -angles]))


def block_indices(num_qubits: int, qubits) -> np.ndarray:
    """Basis index of row v (value of qubits), column c (value of the other
    qubits, ascending), by placing the bits one by one."""
    rest = [q for q in range(num_qubits) if q not in qubits]

    def place(values, positions):
        index = np.zeros_like(values)
        for pos, q in enumerate(positions):
            index |= ((values >> pos) & 1) << q
        return index

    rows = place(np.arange(1 << len(qubits)), list(qubits))
    return rows[:, None] | place(np.arange(1 << len(rest)), rest)[None, :]


def gather_fourier(amps, num_qubits, register, inverse) -> np.ndarray:
    """(Inverse) QFT on a register by gathering its block, transforming the rows and scattering back."""
    joint = block_indices(num_qubits, register)
    out = np.empty_like(amps)
    out[joint] = (np.fft.fft if inverse else np.fft.ifft)(amps[joint], axis=0, norm="ortho")
    return out


def gather_measure(amps, num_qubits, qubits, rng) -> tuple[int, np.ndarray]:
    """Measure qubits through a gathered block with qsim's sampling rule: one
    uniform scaled by the weight total against the cumsum.  Returns the value
    and the collapsed amplitudes, the drawn row scaled by its weight."""
    joint = block_indices(num_qubits, qubits)
    block = amps[joint]
    weights = (np.abs(block) ** 2).sum(axis=1)
    draw = rng.random() * float(weights.sum())
    value = min(int(weights.cumsum().searchsorted(draw, side="right")), weights.size - 1)
    if len(qubits) == num_qubits:
        collapsed = np.zeros_like(amps)
        index = joint[value, 0]
        collapsed[index] = amps[index] / abs(amps[index])
        return value, collapsed
    survivor = block[value]
    return value, survivor / math.sqrt(weights[value])


def gather_sync_draw(n_prime: int, phi: float, rng) -> tuple[int, int]:
    """(raw_m, photon_bit) of one protocol run, built from the plain oracle
    and the gather forms above: prepared state, one query, photon
    measurement, inverse QFT, register measurement, conjugate fold."""
    reg = range(n_prime)
    amps = np.full(2 << n_prime, (1.0 / math.sqrt(2**n_prime)) * (1.0 / math.sqrt(2.0)), dtype=complex)
    amps = plain_oracle(amps, n_prime + 1, reg, n_prime, phi)
    photon, amps = gather_measure(amps, n_prime + 1, [n_prime], rng)
    m, _ = gather_measure(gather_fourier(amps, n_prime, reg, inverse=True), n_prime, reg, rng)
    return ((1 << n_prime) - m) % (1 << n_prime) if photon else m, photon
