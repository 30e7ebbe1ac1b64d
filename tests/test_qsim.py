import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticksync import (
    ClockModel,
    StateVector,
    basis_state,
    diagonal_phase,
    hadamard,
    indexed_phase,
    inverse_qft,
    measure,
    qft,
    tqh_oracle,
    z_phase,
)
from reference import (
    dft_matrix,
    fourier_on_register,
    gather_fourier,
    gather_measure,
    key_values,
    plain_oracle,
    plain_phase,
    random_state,
)

ATOL = 1e-12


def test_basis_state_amplitudes():
    state = basis_state(3, 5)
    expected = np.zeros(8)
    expected[5] = 1.0
    assert np.allclose(state.amps, expected, atol=ATOL)


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        basis_state(0, 0)
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)
    with pytest.raises(ValueError):
        StateVector(2, np.ones(3, dtype=complex))
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0]))  # unnormalized
    with pytest.raises(ValueError):
        StateVector(1, np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        StateVector(0, np.array([1.0]))


def test_constructor_copies_amplitudes():
    buf = np.array([1.0 + 0j, 0.0])
    state = StateVector(1, buf)
    buf[0] = 0.5
    assert state.amps[0] == 1.0


def test_writing_returned_amps_leaves_later_ops_unchanged():
    thetas = [0.3, 1.1, -0.4, 2.9]
    ops = [
        lambda s: hadamard(s, 1),
        lambda s: z_phase(s, 2, 0.7),
        lambda s: indexed_phase(s, (0, 1), 2, thetas),
        lambda s: diagonal_phase(s, (2, 0), thetas),
        lambda s: qft(s, (2, 0)),
        lambda s: inverse_qft(s, (1, 2)),
        lambda s: measure(s, (1,), np.random.default_rng(4)).collapsed,
        lambda s: measure(s, (0, 1, 2), np.random.default_rng(4)).collapsed,
    ]
    amps = random_state(3, 17)
    before = [op(StateVector(3, amps)).amps.copy() for op in ops]
    for op in ops:
        out = op(StateVector(3, amps))
        out.amps[:] = np.nan
    basis_state(3, 5).amps[:] = 7.0
    after = [op(StateVector(3, amps)).amps for op in ops]
    for old, new in zip(before, after):
        assert np.array_equal(old, new)
    assert np.array_equal(basis_state(3, 5).amps, np.eye(8)[5])


@pytest.mark.parametrize("copy", [True, False])
def test_one_pass_check_rejects_every_non_finite_or_overflowing_entry(copy):
    inv = 1 / np.sqrt(2)
    for bad in (np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf, complex(np.inf, np.nan), 1e200):
        with pytest.raises(ValueError):
            StateVector(2, np.array([inv, inv, bad, 0.0], dtype=complex), copy=copy)


def test_constructor_without_copy_adopts_the_buffer():
    buf = np.array([1.0 + 0j, 0.0])
    assert StateVector(1, buf, copy=False).amps is buf
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0 + 0j, 1.0]), copy=False)


def test_hadamard_zero_and_one():
    plus = hadamard(basis_state(1, 0), 0)
    minus = hadamard(basis_state(1, 1), 0)
    inv = 1 / np.sqrt(2)
    assert np.allclose(plus.amps, [inv, inv], atol=ATOL)
    assert np.allclose(minus.amps, [inv, -inv], atol=ATOL)


def test_hadamard_phase_hadamard_interference():
    # H, then Z rotation by pi/3, then H: amplitudes (cos(pi/3), i*sin(pi/3))
    state = hadamard(basis_state(1, 0), 0)
    state = z_phase(state, 0, np.pi / 3)
    state = hadamard(state, 0)
    expected = np.array([np.cos(np.pi / 3), 1j * np.sin(np.pi / 3)])
    assert np.allclose(state.amps, expected, atol=ATOL)


def test_z_phase_on_plus_state():
    state = z_phase(hadamard(basis_state(1, 0), 0), 0, np.pi / 2)
    inv = 1 / np.sqrt(2)
    assert np.allclose(state.amps, [1j * inv, -1j * inv], atol=ATOL)


def test_z_phase_zero_is_identity():
    amps = random_state(3, 11)
    state = z_phase(StateVector(3, amps), 1, 0.0)
    assert np.allclose(state.amps, amps, atol=ATOL)


def test_z_phase_rejects_bad_input():
    state = basis_state(2, 0)
    with pytest.raises(ValueError):
        z_phase(state, 2, 0.1)
    with pytest.raises(ValueError):
        z_phase(state, -1, 0.1)
    with pytest.raises(ValueError):
        z_phase(state, 0, np.inf)


def test_qft_of_zero_is_uniform():
    state = qft(basis_state(3, 0), range(3))
    assert np.allclose(state.amps, np.full(8, 1 / np.sqrt(8)), atol=ATOL)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_qft_matches_plus_kernel_matrix(num_qubits):
    amps = random_state(num_qubits, 100 + num_qubits)
    out = qft(StateVector(num_qubits, amps), range(num_qubits))
    expected = dft_matrix(1 << num_qubits, +1) @ amps
    assert np.allclose(out.amps, expected, atol=ATOL)


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_inverse_qft_matches_minus_kernel_matrix(num_qubits):
    amps = random_state(num_qubits, 200 + num_qubits)
    out = inverse_qft(StateVector(num_qubits, amps), range(num_qubits))
    expected = dft_matrix(1 << num_qubits, -1) @ amps
    assert np.allclose(out.amps, expected, atol=ATOL)


def test_fourier_on_partial_scrambled_register():
    # register (2, 0) inside a 3-qubit state, qubit 1 a bystander
    amps = random_state(3, 33)
    out = qft(StateVector(3, amps), (2, 0))
    expected = fourier_on_register(amps, 3, (2, 0), +1)
    assert np.allclose(out.amps, expected, atol=ATOL)
    back = inverse_qft(out, (2, 0))
    assert np.allclose(back.amps, amps, atol=ATOL)


def test_inverse_qft_recovers_fourier_phase_state():
    for m in range(8):
        k = np.arange(8)
        amps = np.exp(2j * np.pi * k * m / 8) / np.sqrt(8)
        out = inverse_qft(StateVector(3, amps), range(3))
        expected = np.zeros(8)
        expected[m] = 1.0
        assert np.allclose(out.amps, expected, atol=ATOL)


def test_qft_rejects_bad_registers():
    state = basis_state(3, 0)
    with pytest.raises(ValueError):
        qft(state, [])
    with pytest.raises(ValueError):
        qft(state, [0, 0])
    with pytest.raises(ValueError):
        qft(state, [0, 3])


def test_register_validation_is_cached_but_refuses_every_time():
    state = StateVector(3, random_state(3, 7))
    rng = np.random.default_rng(0)
    ops = (qft, inverse_qft, lambda s, r: measure(s, r, rng))
    for register in ([], [0, 0], [0, 3], [-1]):
        for op in ops:
            for _ in range(2):  # a cached check must not let the second call through
                with pytest.raises(ValueError):
                    op(state, register)
    # the same qubits named as a list, a tuple or a range give identical results
    results = [
        (
            qft(state, register).amps.tobytes(),
            inverse_qft(state, register).amps.tobytes(),
            diagonal_phase(state, register, [0.1, 0.2, 0.3, 0.4]).amps.tobytes(),
            measure(state, register, np.random.default_rng(3)).value,
            measure(state, register, np.random.default_rng(3)).collapsed.amps.tobytes(),
        )
        for register in ([2, 0], (2, 0), range(2, -1, -2))
    ]
    assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 5, 6, 11, 15])
def test_lean_ops_match_plain_numpy_bit_for_bit(num_qubits):
    # the per-op trims reorder no arithmetic: same bits as the textbook forms
    state = StateVector(num_qubits, random_state(num_qubits, 11 + num_qubits))
    amps = state.amps
    # the phase kernel against e^{i*angle} gathered through a bit-arithmetic key
    # map, on the top-ordered layout (register below the photon) and a scrambled one
    rng = np.random.default_rng(num_qubits)
    perm = [int(q) for q in rng.permutation(num_qubits)]
    layouts = [(tuple(range(num_qubits - 1)), num_qubits - 1), (tuple(perm[1:]), perm[0])]
    for register, photon in layouts:
        thetas = rng.uniform(-7.0, 7.0, 1 << len(register))
        expected = plain_phase(amps, num_qubits, (*register, photon), np.concatenate([thetas, -thetas]))
        assert indexed_phase(state, register, photon, thetas).amps.tobytes() == expected.tobytes()
        for offset in (0.3711, 1234.56789, 7 / 16):
            clock = ClockModel(offset, 1.0)
            expected = plain_oracle(amps, num_qubits, register, photon, clock.phi_star)
            assert tqh_oracle(clock, state, register, photon).amps.tobytes() == expected.tobytes()
    for register in (tuple(range(num_qubits)), tuple(range(1, num_qubits)), tuple(perm[: num_qubits // 2 + 1])):
        if register:
            thetas = rng.uniform(-7.0, 7.0, 1 << len(register))
            expected = plain_phase(amps, num_qubits, register, thetas)
            assert diagonal_phase(state, register, thetas).amps.tobytes() == expected.tobytes()
    for target in range(num_qubits):
        expected = plain_phase(amps, num_qubits, (target,), [0.83, -0.83])
        assert z_phase(state, target, 0.83).amps.tobytes() == expected.tobytes()
    assert np.array_equal(key_values(3, (2, 0)), [0, 2, 0, 2, 1, 3, 1, 3])
    for target in range(num_qubits):
        pairs = amps.reshape(-1, 2, 1 << target)
        expected = np.empty_like(pairs)
        expected[:, 0] = (pairs[:, 0] + pairs[:, 1]) * (1.0 / np.sqrt(2.0))
        expected[:, 1] = (pairs[:, 0] - pairs[:, 1]) * (1.0 / np.sqrt(2.0))
        assert hadamard(state, target).amps.tobytes() == expected.reshape(-1).tobytes()
    if num_qubits > 1:
        outcome = measure(state, [0], np.random.default_rng(5))
        survivor = np.ascontiguousarray(amps[outcome.value::2])
        # scaled by the drawn row's Born weight, not by a BLAS norm
        expected = survivor / np.sqrt((np.abs(survivor) ** 2).sum())
        assert outcome.collapsed.amps.tobytes() == expected.tobytes()


def _register_layouts(num_qubits):
    """Top, low, partial and scrambled registers of every width, and the
    whole register scrambled."""
    pick = np.random.default_rng(num_qubits)
    layouts = []
    for width in range(1, num_qubits + 1):
        layouts.append(range(num_qubits - width, num_qubits))
        layouts.append(range(width))
        layouts.append(tuple(int(q) for q in pick.permutation(num_qubits)[:width]))
    layouts.append(tuple(int(q) for q in pick.permutation(num_qubits)))
    if num_qubits > 1:
        layouts.append(tuple(range(num_qubits))[::-1])
    return layouts


@pytest.mark.parametrize("num_qubits", [1, 3, 6, 15])
def test_register_blocks_match_gather_reference(num_qubits):
    # a top register's block is a reshape view and any other one a transposed
    # copy; each must draw, collapse and transform exactly as gathering the
    # block through bit-placed indices does
    amps = random_state(num_qubits, 40 + num_qubits)
    state = StateVector(num_qubits, amps)
    for seed, register in enumerate(_register_layouts(num_qubits)):
        for inverse, op in ((True, inverse_qft), (False, qft)):
            expected = gather_fourier(amps, num_qubits, register, inverse)
            assert op(state, register).amps.tobytes() == expected.tobytes(), register
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            outcome = measure(state, register, rng)
            value, collapsed = gather_measure(amps, num_qubits, register, reference_rng)
            assert outcome.value == value, register
            assert outcome.collapsed.amps.tobytes() == collapsed.tobytes(), register
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_indexed_phase_brute_force_enumeration():
    amps = random_state(3, 7)
    thetas = [0.3, 1.1, -0.4, 2.9]
    out = indexed_phase(StateVector(3, amps), (0, 1), 2, thetas)
    expected = np.empty(8, dtype=complex)
    for i in range(8):
        k = (i & 1) | (((i >> 1) & 1) << 1)
        sign = -1.0 if (i >> 2) & 1 else 1.0
        expected[i] = amps[i] * np.exp(1j * sign * thetas[k])
    assert np.allclose(out.amps, expected, atol=ATOL)
    # callable and table forms agree
    out2 = indexed_phase(StateVector(3, amps), (0, 1), 2, lambda k: thetas[k])
    assert np.allclose(out.amps, out2.amps, atol=0)


def test_indexed_phase_empty_register_degenerates_to_z_phase():
    amps = random_state(2, 9)
    out = indexed_phase(StateVector(2, amps), (), 1, [0.77])
    expected = z_phase(StateVector(2, amps), 1, 0.77)
    assert np.allclose(out.amps, expected.amps, atol=ATOL)


def test_indexed_phase_constant_map_equals_z_phase():
    amps = random_state(4, 21)
    out = indexed_phase(StateVector(4, amps), (0, 1, 3), 2, lambda k: 0.9)
    expected = z_phase(StateVector(4, amps), 2, 0.9)
    assert np.allclose(out.amps, expected.amps, atol=ATOL)


def test_indexed_phase_rejects_bad_input():
    state = basis_state(3, 0)
    with pytest.raises(ValueError):
        indexed_phase(state, (0, 1), 1, [0.0] * 4)  # photon inside register
    with pytest.raises(ValueError):
        indexed_phase(state, (0, 1), 2, [0.0] * 3)  # wrong table length
    with pytest.raises(ValueError):
        indexed_phase(state, (0, 1), 2, lambda k: np.nan)
    with pytest.raises(ValueError):
        indexed_phase(state, (0, 4), 2, [0.0] * 4)


def test_diagonal_phase_brute_force():
    amps = random_state(3, 13)
    thetas = [0.0, 0.5, 1.5, -2.0]
    out = diagonal_phase(StateVector(3, amps), (1, 2), thetas)
    expected = np.empty(8, dtype=complex)
    for i in range(8):
        k = ((i >> 1) & 1) | (((i >> 2) & 1) << 1)
        expected[i] = amps[i] * np.exp(1j * thetas[k])
    assert np.allclose(out.amps, expected, atol=ATOL)


def test_measure_collapses_and_removes_qubit():
    inv = 1 / np.sqrt(2)
    bell = StateVector(2, np.array([inv, 0, 0, inv]))
    seen = set()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        outcome = measure(bell, [0], rng)
        seen.add(outcome.value)
        assert outcome.collapsed.num_qubits == 1
        expected = np.zeros(2)
        expected[outcome.value] = 1.0
        assert np.allclose(outcome.collapsed.amps, expected, atol=ATOL)
    assert seen == {0, 1}


def test_measure_reindexes_survivors_in_ascending_order():
    # |q2 q1 q0> = |101>: measure middle qubit; survivors are (q0, q2) -> |11>
    state = basis_state(3, 0b101)
    outcome = measure(state, [1], np.random.default_rng(0))
    assert outcome.value == 0
    assert outcome.collapsed.num_qubits == 2
    assert np.isclose(abs(outcome.collapsed.amps[0b11]), 1.0, atol=ATOL)


def test_measure_all_qubits_keeps_full_width():
    amps = random_state(2, 5)
    outcome = measure(StateVector(2, amps), (1, 0), np.random.default_rng(3))
    assert outcome.collapsed.num_qubits == 2
    # value reads qubits[0]=1 as LSB; locate the surviving amplitude
    global_index = ((outcome.value & 1) << 1) | ((outcome.value >> 1) & 1)
    assert np.isclose(abs(outcome.collapsed.amps[global_index]), 1.0, atol=ATOL)


def test_measure_rejects_empty_selection():
    with pytest.raises(ValueError):
        measure(basis_state(2, 0), [], np.random.default_rng(0))


def test_measure_register_value_uses_given_bit_order():
    state = basis_state(2, 0b01)  # qubit0=1, qubit1=0
    assert measure(state, (0, 1), np.random.default_rng(0)).value == 0b01
    assert measure(state, (1, 0), np.random.default_rng(0)).value == 0b10


def test_measure_born_frequencies():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    state = StateVector(2, np.sqrt(probs).astype(complex))
    rng = np.random.default_rng(42)
    trials = 20000
    counts = np.zeros(4)
    for _ in range(trials):
        counts[measure(state, (0, 1), rng).value] += 1
    rates = counts / trials
    for p, r in zip(probs, rates):
        assert abs(r - p) < 4 * np.sqrt(p * (1 - p) / trials)


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(1, 7), seed=st.integers(0, 2**31), target=st.data())
def test_hadamard_is_involutive(num_qubits, seed, target):
    qubit = target.draw(st.integers(0, num_qubits - 1))
    amps = random_state(num_qubits, seed)
    state = StateVector(num_qubits, amps)
    back = hadamard(hadamard(state, qubit), qubit)
    assert np.allclose(back.amps, amps, atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(num_qubits=st.integers(1, 7), seed=st.integers(0, 2**31), data=st.data())
def test_fourier_round_trip_preserves_state(num_qubits, seed, data):
    register = data.draw(
        st.permutations(range(num_qubits)).map(
            lambda p: tuple(p[: data.draw(st.integers(1, num_qubits))])
        )
    )
    amps = random_state(num_qubits, seed)
    state = StateVector(num_qubits, amps)
    back = inverse_qft(qft(state, register), register)
    assert np.allclose(back.amps, amps, atol=ATOL)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), theta=st.floats(-10, 10))
def test_z_phase_inverse_cancels(seed, theta):
    amps = random_state(3, seed)
    state = StateVector(3, amps)
    back = z_phase(z_phase(state, 1, theta), 1, -theta)
    assert np.allclose(back.amps, amps, atol=ATOL)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_operations_preserve_norm(seed):
    rng = np.random.default_rng(seed)
    state = StateVector(4, random_state(4, seed))
    for _ in range(12):
        op = rng.integers(4)
        if op == 0:
            state = hadamard(state, int(rng.integers(4)))
        elif op == 1:
            state = z_phase(state, int(rng.integers(4)), float(rng.normal()))
        elif op == 2:
            state = qft(state, (0, 2))
        else:
            state = indexed_phase(
                state, (0, 1), 3, np.asarray(rng.normal(size=4))
            )
    assert np.isclose(np.sum(state.probabilities()), 1.0, atol=1e-9)
