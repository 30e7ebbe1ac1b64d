"""Dense statevector simulator for small qubit registers.

Basis convention: qubit 0 is the least significant bit of the basis index,
so amplitude ``amps[i]`` belongs to the computational state whose qubit q
holds bit ``(i >> q) & 1``.  All operations are functional: they validate
their inputs, leave the argument untouched, and return a fresh state.
Measurement randomness always comes from an explicit ``numpy.random.Generator``
passed by the caller; nothing in this module reads a global stream.

Intended scale is a couple dozen qubits at most, as plain dense
``complex128`` vectors.  Small registers cost bookkeeping more than
arithmetic, so index maps are cached per (num_qubits, register) as
read-only arrays, Hadamards work on reshaped views, and the phase gates
share one kernel that exponentiates per register value, not per amplitude.
Every result still passes the constructor's checks, without a second copy.
Repeated oracle queries are fused one layer up, in `clock.tqh_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

# Norm drift allowed at construction; unitary ops keep states far inside this.
NORM_TOL = 1e-9

# theta_of_k may be a callable on register values or a precomputed sequence
PhaseMap = Callable[[int], float] | Sequence[float] | np.ndarray


class StateVector:
    """Normalized amplitudes over the 2**num_qubits computational basis.

    The constructor copies the amplitude buffer, checks the length, rejects
    non-finite entries, and rejects vectors whose squared norm strays more
    than NORM_TOL from 1.  Zero-qubit registers are rejected outright.
    copy=False adopts the buffer instead of copying it when it is already
    complex128; ops pass their freshly built results that way.  The checks
    run either way.
    """

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: Iterable[complex], *, copy: bool = True) -> None:
        if num_qubits < 1:
            raise ValueError("state needs at least one qubit")
        arr = (np.array if copy else np.asarray)(amps, dtype=np.complex128)
        dim = 1 << num_qubits
        if arr.shape != (dim,):
            raise ValueError(
                f"expected {dim} amplitudes for {num_qubits} qubits, got shape {arr.shape}"
            )
        # One pass covers both checks: a non-finite amplitude makes the squared
        # norm inf or nan, and neither satisfies the `<=` below.
        norm_sq = float(np.real(np.vdot(arr, arr)))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            if not np.all(np.isfinite(arr)):
                raise ValueError("amplitudes must be finite")
            raise ValueError(f"squared norm {norm_sq!r} is not within {NORM_TOL} of 1")
        self.num_qubits = num_qubits
        self.amps = arr

    def probabilities(self) -> np.ndarray:
        """Born weights of every basis state, in index order."""
        return np.abs(self.amps) ** 2

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of a projective measurement: sampled value plus collapsed state."""

    value: int
    collapsed: StateVector


def basis_state(num_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on num_qubits qubits."""
    if num_qubits < 1:
        raise ValueError("state needs at least one qubit")
    dim = 1 << num_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    arr = np.zeros(dim, dtype=np.complex128)
    arr[index] = 1.0
    return StateVector(num_qubits, arr, copy=False)


def _check_qubit(state: StateVector, qubit: int, role: str = "qubit") -> int:
    qubit = int(qubit)
    if not 0 <= qubit < state.num_qubits:
        raise ValueError(f"{role} index {qubit} out of range for {state.num_qubits} qubits")
    return qubit


def _check_register(
    state: StateVector, register: Sequence[int], allow_empty: bool = False
) -> tuple[int, ...]:
    reg = tuple(int(q) for q in register)
    if not reg and not allow_empty:
        raise ValueError("register must name at least one qubit")
    for q in reg:
        _check_qubit(state, q, role="register qubit")
    if len(set(reg)) != len(reg):
        raise ValueError(f"register qubits must be distinct, got {reg}")
    return reg


# index maps are kept per (num_qubits, register); a run touches a handful
@lru_cache(maxsize=32)
def _register_values(num_qubits: int, register: tuple[int, ...]) -> np.ndarray:
    """Register value carried by each basis index; register[0] is the LSB."""
    idx = np.arange(1 << num_qubits)
    k = np.zeros_like(idx)
    for pos, q in enumerate(register):
        k |= ((idx >> q) & 1) << pos
    k.flags.writeable = False
    return k


@lru_cache(maxsize=32)
def _gather_indices(num_qubits: int, register: tuple[int, ...]) -> np.ndarray:
    """2D view-index: row = register value, column = value of the other qubits."""
    rest = tuple(q for q in range(num_qubits) if q not in register)
    # inverse of the permutation taking each basis index to (register, rest)
    # order; that permutation is used once, so it bypasses the cache
    joint = np.argsort(_register_values.__wrapped__(num_qubits, rest + register))
    joint = joint.reshape(1 << len(register), 1 << len(rest))
    joint.flags.writeable = False
    return joint


def hadamard(state: StateVector, target: int) -> StateVector:
    """Apply a Hadamard to one qubit."""
    target = _check_qubit(state, target, role="target")
    # axes: higher qubits, target, lower qubits
    pairs = state.amps.reshape(-1, 2, 1 << target)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    new = np.empty_like(pairs)
    new[:, 0] = (pairs[:, 0] + pairs[:, 1]) * inv_sqrt2
    new[:, 1] = (pairs[:, 0] - pairs[:, 1]) * inv_sqrt2
    return StateVector(state.num_qubits, new.reshape(-1), copy=False)


def _diagonal(state: StateVector, qubits: tuple[int, ...], angles: np.ndarray) -> StateVector:
    """Shared phase kernel: amplitude i gains e^{i*angles[v]}, v = value of qubits at i."""
    phases = np.exp(1j * angles)[_register_values(state.num_qubits, qubits)]
    return StateVector(state.num_qubits, state.amps * phases, copy=False)


def z_phase(state: StateVector, target: int, theta: float) -> StateVector:
    """Z-axis rotation diag(e^{i*theta}, e^{-i*theta}) on one qubit.

    The |0> component picks up e^{+i*theta}; |1> picks up the conjugate.
    """
    target = _check_qubit(state, target, role="target")
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return _diagonal(state, (target,), np.array([theta, -theta]))


def _evaluate_phases(theta_of_k: PhaseMap, count: int) -> np.ndarray:
    if callable(theta_of_k):
        thetas = np.asarray([float(theta_of_k(k)) for k in range(count)], dtype=np.float64)
    else:
        thetas = np.asarray(theta_of_k, dtype=np.float64)
        if thetas.shape != (count,):
            raise ValueError(
                f"phase table has shape {thetas.shape}, expected ({count},)"
            )
    if not np.all(np.isfinite(thetas)):
        raise ValueError("phase map must be finite for every register value")
    return thetas


def indexed_phase(
    state: StateVector,
    register: Sequence[int],
    photon: int,
    theta_of_k: PhaseMap,
) -> StateVector:
    """Register-controlled Z rotation of the photon qubit.

    For each register value k the photon qubit is rotated by z_phase with
    angle theta_of_k(k), applied coherently across the superposition.  An
    empty register degenerates to a plain z_phase with angle theta_of_k(0).

    Args:
        register: qubit indices holding k; register[0] is the LSB of k.
        photon: qubit being rotated; must not appear in register.
        theta_of_k: callable on range(2**len(register)), or a same-length
            sequence of angles.
    """
    reg = _check_register(state, register, allow_empty=True)
    photon = _check_qubit(state, photon, role="photon")
    if photon in reg:
        raise ValueError(f"photon qubit {photon} overlaps the register {reg}")
    thetas = _evaluate_phases(theta_of_k, 1 << len(reg))
    # the photon is the top bit of the key: photon |1> reads the negated half
    return _diagonal(state, reg + (photon,), np.concatenate([thetas, -thetas]))


def diagonal_phase(
    state: StateVector, register: Sequence[int], theta_of_k: PhaseMap
) -> StateVector:
    """Diagonal rotation |k> -> e^{i*theta_of_k(k)} |k> on a register."""
    reg = _check_register(state, register)
    return _diagonal(state, reg, _evaluate_phases(theta_of_k, 1 << len(reg)))


def _fourier(state: StateVector, register: Sequence[int], inverse: bool) -> StateVector:
    reg = _check_register(state, register)
    joint = _gather_indices(state.num_qubits, reg)
    block = state.amps[joint]
    block = (np.fft.fft if inverse else np.fft.ifft)(block, axis=0, norm="ortho")
    new = np.empty_like(state.amps)
    new[joint] = block
    return StateVector(state.num_qubits, new, copy=False)


def qft(state: StateVector, register: Sequence[int]) -> StateVector:
    """Fourier transform on a register.

    Convention: |k> maps to (1/sqrt(2**r)) * sum_j e^{+2*pi*i*j*k/2**r} |j>,
    with r = len(register).  Applied to |0...0> this yields the uniform
    superposition over register values.
    """
    return _fourier(state, register, inverse=False)


def inverse_qft(state: StateVector, register: Sequence[int]) -> StateVector:
    """Inverse of qft: e^{-2*pi*i*j*k/2**r} kernel.

    Feeding it amplitudes proportional to e^{+2*pi*i*k*m/2**r} over register
    values k returns the basis state |m> exactly.
    """
    return _fourier(state, register, inverse=True)


def measure(
    state: StateVector, qubits: Sequence[int], rng: np.random.Generator
) -> MeasurementOutcome:
    """Projective measurement of the named qubits in the computational basis.

    The sampled value reads qubits[0] as its LSB.  Measured qubits are
    removed from the collapsed state; the survivors keep their relative
    order and are renumbered from 0 in ascending original index.  When every
    qubit is measured the collapsed state keeps the full register width and
    is the basis state that was sampled.

    Args:
        qubits: distinct qubit indices; an empty selection is rejected.
        rng: explicit random stream used for the Born-rule draw.
    """
    reg = _check_register(state, qubits)
    joint = _gather_indices(state.num_qubits, reg)
    block = state.amps[joint]
    weights = np.sum(np.abs(block) ** 2, axis=1)
    # scale the draw by the realized total instead of renormalizing weights
    draw = rng.random() * float(weights.sum())
    value = int(np.searchsorted(np.cumsum(weights), draw, side="right"))
    value = min(value, weights.size - 1)

    if len(reg) == state.num_qubits:
        global_index = int(joint[value, 0])
        amp = state.amps[global_index]
        new = np.zeros_like(state.amps)
        new[global_index] = amp / abs(amp)
        return MeasurementOutcome(value, StateVector(state.num_qubits, new, copy=False))

    survivor = block[value, :]
    survivor = survivor / np.linalg.norm(survivor)
    collapsed = StateVector(state.num_qubits - len(reg), survivor, copy=False)
    return MeasurementOutcome(value, collapsed)
