"""Dense statevector simulator for small qubit registers.

Basis convention: qubit 0 is the least significant bit of the basis index,
so amplitude ``amps[i]`` belongs to the computational state whose qubit q
holds bit ``(i >> q) & 1``.  All operations are functional: they validate
their inputs, leave the argument untouched, and return a fresh state.
Measurement randomness always comes from an explicit ``numpy.random.Generator``
passed by the caller; nothing in this module reads a global stream.  Every
qubit count and index passes `_count`, the library's one integer rule, so a
float or bool is refused, never truncated.  A register names at least one
qubit, and a phase map is a table of one angle per register value.

Intended scale is a couple dozen qubits at most, as plain dense
``complex128`` vectors.  Small registers cost bookkeeping more than
arithmetic, so a register is validated once per (num_qubits, register),
and the phase gates share one kernel that multiplies by a table of unit
factors per register value, not per amplitude.  `indexed_phase` evaluates
one cosine and one sine per register value and gives the photon-|1> half
their conjugate.  The Fourier transforms and `measure` work on a
register's (register, rest) block: a reshape view when it is the top
qubits in ascending order, else the amplitudes with one axis per qubit,
transposed to (register, rest) order and copied, which one inverse
transpose undoes.  A phase key over every qubit in order is used as it is;
any other key's table is spread over its block the same way.  Each path
gives the same bits, and no op builds an index array.  Every result still
passes the constructor's checks, without a second copy.  `measure` draws
through `_born_table` and `_draw`, which `protocol` shares for the register
tables its read-out keeps and the photon's weight.  `measure` normalizes by
the drawn row's weight and the constructor checks a state of over 2**13
amplitudes with einsum, so no long dot goes to BLAS: a run uses one core,
and its bits do not depend on the thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

# Norm drift allowed at construction; unitary ops keep states far inside this.
NORM_TOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
# Longest state whose norm check is a BLAS dot, cheapest per call on small
# states.  OpenBLAS runs a dot of over 10,000 entries on a thread pool that
# spins between calls: a 2**15-amplitude run then kept a second core busy
# and slowed about threefold when that core was taken.  Longer states use einsum.
_BLAS_NORM_MAX = 1 << 13


def _count(name: str, value, minimum: int) -> int:
    """value as an int, if it is a Python or numpy integer (not a bool) of at
    least minimum; a float is refused, not truncated.  Raises ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


class StateVector:
    """Normalized amplitudes over the 2**num_qubits computational basis.

    The constructor copies the amplitude buffer, checks the length, rejects
    non-finite entries, and rejects vectors whose squared norm strays more
    than NORM_TOL from 1.  num_qubits passes `_count`: at least 1, never a
    bool or float.
    copy=False adopts the buffer instead of copying it when it is already
    contiguous complex128; ops pass their freshly built results that way.
    The checks run either way.
    """

    __slots__ = ("num_qubits", "amps")

    def __init__(self, num_qubits: int, amps: Iterable[complex], *, copy: bool = True) -> None:
        num_qubits = _count("num_qubits", num_qubits, 1)
        arr = (np.array if copy else np.asarray)(amps, dtype=np.complex128, order="C")
        dim = 1 << num_qubits
        if arr.shape != (dim,):
            raise ValueError(
                f"expected {dim} amplitudes for {num_qubits} qubits, got shape {arr.shape}"
            )
        # One pass covers both checks: a non-finite amplitude makes the squared
        # norm inf or nan, and neither satisfies the `<=` below.
        if dim <= _BLAS_NORM_MAX:
            norm_sq = float(np.vdot(arr, arr).real)
        else:
            flat = arr.view(np.float64)
            norm_sq = float(np.einsum("i,i->", flat, flat))
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            if not np.isfinite(arr).all():
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
    num_qubits, index = _count("num_qubits", num_qubits, 1), _count("index", index, 0)
    dim = 1 << num_qubits
    if index >= dim:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    arr = np.zeros(dim, dtype=np.complex128)
    arr[index] = 1.0
    return StateVector(num_qubits, arr, copy=False)


def _check_qubit(state: StateVector, qubit: int, role: str = "qubit") -> int:
    qubit = _count(role, qubit, 0)
    if qubit >= state.num_qubits:
        raise ValueError(f"{role} index {qubit} out of range for {state.num_qubits} qubits")
    return qubit


# callers unpack the register, so a list, tuple or range share one entry, and
# typed keys keep True or 1.0 off the entry of 1; a bad register raises again
# on every call, as lru_cache keeps no exceptions
@lru_cache(maxsize=64, typed=True)
def _check_register(num_qubits: int, *register) -> tuple:
    reg = tuple(_count("register qubit", q, 0) for q in register)
    if not reg:
        raise ValueError("register must name at least one qubit")
    for q in reg:
        if q >= num_qubits:
            raise ValueError(f"register qubit index {q} out of range for {num_qubits} qubits")
    if len(set(reg)) != len(reg):
        raise ValueError(f"register qubits must be distinct, got {reg}")
    return reg


def _axes(num_qubits: int, reg: tuple[int, ...]) -> list[int] | None:
    """Transpose of amps.reshape((2,) * num_qubits) into (register, rest) order.

    Axis a holds qubit num_qubits - 1 - a.  The register comes first, then
    the other qubits, each top bit first, so row v, column c of the block is
    where reg reads v and the other qubits, ascending, read c.  None when reg
    names the top qubits in ascending order, the reshape's own order.
    """
    n = num_qubits
    if reg == tuple(range(n - len(reg), n)):
        return None
    return [n - 1 - q for q in reversed(reg)] + [a for a in range(n) if n - 1 - a not in reg]


def _block(amps: np.ndarray, axes: list[int] | None, rows: int) -> np.ndarray:
    """(register, rest) block of the amplitudes: a view if axes is None, else a copy."""
    if axes is not None:
        amps = np.ascontiguousarray(amps.reshape((2,) * len(axes)).transpose(axes))
    return amps.reshape(rows, -1)


def _unblock(block: np.ndarray, axes: list[int] | None) -> np.ndarray:
    """Amplitudes in basis order from a (register, rest) block, undoing _block."""
    if axes is not None:
        block = block.reshape((2,) * len(axes)).transpose(np.argsort(axes))
    return block.reshape(-1)


def hadamard(state: StateVector, target: int) -> StateVector:
    """Apply a Hadamard to one qubit."""
    target = _check_qubit(state, target, role="target")
    # axes: higher qubits, target, lower qubits
    pairs = state.amps.reshape(-1, 2, 1 << target)
    a, b = pairs[:, 0], pairs[:, 1]
    new = np.stack((a + b, a - b), axis=1) * _INV_SQRT2
    return StateVector(state.num_qubits, new.reshape(-1), copy=False)


def _diagonal(state: StateVector, qubits: tuple[int, ...], factors: np.ndarray) -> StateVector:
    """Shared phase kernel: amplitude i gains factors[v], v = value of qubits at i.

    When qubits are all the qubits in ascending order, v is i itself and the
    table is used as it is.  Otherwise each factor is repeated along its row
    of the (qubits, rest) block and the block is put back in basis order.
    Callers pass a fresh complex128 table: the product is written into it
    (or into its spread copy), so an oracle query allocates one state, not two.
    """
    n = state.num_qubits
    if qubits != tuple(range(n)):
        factors = _unblock(np.repeat(factors, 1 << (n - len(qubits))), _axes(n, qubits))
    # amps first: a complex product rounds differently with the operands swapped
    return StateVector(n, np.multiply(state.amps, factors, out=factors), copy=False)


def z_phase(state: StateVector, target: int, theta: float) -> StateVector:
    """Z-axis rotation diag(e^{i*theta}, e^{-i*theta}) on one qubit.

    The |0> component picks up e^{+i*theta}; |1> picks up the conjugate.
    """
    target = _check_qubit(state, target, role="target")
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return _diagonal(state, (target,), np.exp(1j * np.array([theta, -theta])))


def _evaluate_phases(theta_of_k: Sequence[float] | np.ndarray, count: int) -> np.ndarray:
    thetas = np.asarray(theta_of_k, dtype=np.float64)
    if thetas.shape != (count,):
        raise ValueError(f"phase table has shape {thetas.shape}, expected ({count},)")
    if not np.isfinite(thetas).all():
        raise ValueError("phase map must be finite for every register value")
    return thetas


def indexed_phase(
    state: StateVector,
    register: Sequence[int],
    photon: int,
    theta_of_k: Sequence[float] | np.ndarray,
) -> StateVector:
    """Register-controlled Z rotation of the photon qubit.

    For each register value k the photon qubit is rotated by z_phase with
    angle theta_of_k[k], applied coherently across the superposition.

    Args:
        register: one or more qubit indices holding k; register[0] is the LSB of k.
        photon: qubit being rotated; must not appear in register.
        theta_of_k: table of 2**len(register) finite angles, indexed by k.
    """
    reg = _check_register(state.num_qubits, *register)
    photon = _check_qubit(state, photon, role="photon")
    if photon in reg:
        raise ValueError(f"photon qubit {photon} overlaps the register {reg}")
    thetas = _evaluate_phases(theta_of_k, 1 << len(reg))
    # the photon is the top bit of the key: photon |1> gains e^{-i*theta},
    # the conjugate of the |0> factor cos(theta) + i*sin(theta)
    factors = np.empty(2 * thetas.size, dtype=np.complex128)
    half = factors[: thetas.size]
    np.cos(thetas, out=half.real)
    np.sin(thetas, out=half.imag)
    np.conjugate(half, out=factors[thetas.size :])
    return _diagonal(state, reg + (photon,), factors)


def diagonal_phase(
    state: StateVector, register: Sequence[int], theta_of_k: Sequence[float] | np.ndarray
) -> StateVector:
    """Diagonal rotation |k> -> e^{i*theta_of_k[k]} |k> on a non-empty register,
    from a table of 2**len(register) finite angles; register[0] is the LSB of k."""
    reg = _check_register(state.num_qubits, *register)
    return _diagonal(state, reg, np.exp(1j * _evaluate_phases(theta_of_k, 1 << len(reg))))


def _fourier(state: StateVector, register: Sequence[int], inverse: bool) -> StateVector:
    reg = _check_register(state.num_qubits, *register)
    axes = _axes(state.num_qubits, reg)
    block = (np.fft.fft if inverse else np.fft.ifft)(
        _block(state.amps, axes, 1 << len(reg)), axis=0, norm="ortho"
    )
    return StateVector(state.num_qubits, _unblock(block, axes), copy=False)


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


def _born_table(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Born weight of each row of a (register, rest) block, running sum and total."""
    weights = (np.abs(block) ** 2).sum(axis=1)
    return weights, weights.cumsum(), float(weights.sum())


def _draw(cumsum: np.ndarray, total: float, rng: np.random.Generator) -> int:
    """First row whose running sum exceeds one uniform scaled by the realized total."""
    return min(int(cumsum.searchsorted(rng.random() * total, side="right")), cumsum.size - 1)


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
    reg = _check_register(state.num_qubits, *qubits)
    axes = _axes(state.num_qubits, reg)
    block = _block(state.amps, axes, 1 << len(reg))
    weights, cumsum, total = _born_table(block)
    value = _draw(cumsum, total, rng)

    if len(reg) == state.num_qubits:
        amp = block[value, 0]
        new = np.zeros_like(block)
        new[value, 0] = amp / abs(amp)
        collapsed = StateVector(state.num_qubits, _unblock(new, axes), copy=False)
        return MeasurementOutcome(value, collapsed)

    # the drawn row's own weight is its squared norm: no second pass, and no
    # BLAS dot, whose sums over 10,000 entries change with the thread count
    survivor = block[value, :] / math.sqrt(weights[value])
    collapsed = StateVector(state.num_qubits - len(reg), survivor, copy=False)
    return MeasurementOutcome(value, collapsed)
