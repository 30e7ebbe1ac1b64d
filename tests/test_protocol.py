import math

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ticksync import (
    ClockModel,
    ExperimentSpec,
    ProtocolConfig,
    ResourceLedger,
    StateVector,
    basis_state,
    boosted_register_size,
    circular_distance,
    hadamard,
    indexed_phase,
    inverse_qft,
    min_success_on_grid,
    photon_zero_probability,
    qft,
    run,
    run_sync,
    success_probability_exact,
    within_precision,
)
from ticksync import harness, protocol
from ticksync.protocol import _nearest_grid_index, _queried_state, _Readout
from ticksync.seeding import child_rng
from reference import (
    circular_distance as reference_distance,
    closed_form_success,
    final_joint_state,
    four_sigma,
    fold_weight,
    gather_sync_draw,
    nearest_fraction_index,
)


def test_circular_distance_wraps():
    assert np.isclose(circular_distance(0.95, 0.05), 0.1, atol=1e-15)
    assert np.isclose(circular_distance(0.05, 0.95), 0.1, atol=1e-15)
    assert circular_distance(0.25, 0.25) == 0.0
    assert np.isclose(circular_distance(0.0, 0.5), 0.5, atol=1e-15)
    # elementwise on arrays, and so is the success rule built on it
    a, b = np.array([0.95, 0.05, 0.25, 0.0]), np.array([0.05, 0.95, 0.25, 0.5])
    assert np.array_equal(circular_distance(a, b), [circular_distance(*p) for p in zip(a, b)])
    # integer phases are whole turns apart: distance 0
    assert circular_distance(np.array([0, 3]), np.array([1, -2])).tolist() == [0.0, 0.0]
    # strictly below 2**-n: a distance of exactly 1/8 fails at n = 3
    assert within_precision(np.array([0.9, 0.125, 0.2]), 0.0, 3).tolist() == [True, False, False]


def test_boosted_register_size_values():
    assert boosted_register_size(4, 0.1) == 7
    assert boosted_register_size(1, 0.25) == 3
    assert boosted_register_size(8, 0.01) == 14


def test_boosted_register_size_validation():
    with pytest.raises(ValueError):
        boosted_register_size(0, 0.1)
    for bad in (0.0, -0.1, 0.5, 0.7):
        with pytest.raises(ValueError):
            boosted_register_size(3, bad)


def test_protocol_config_effective_register(monkeypatch):
    assert ProtocolConfig(5).effective_register == 5
    assert ProtocolConfig(4, 0.1).effective_register == 7
    with pytest.raises(ValueError):
        ProtocolConfig(0)
    with pytest.raises(ValueError):
        ProtocolConfig(3, 0.6)
    # the register cap: n' = 24 is the widest simulated, whatever widens it
    assert ProtocolConfig(24).effective_register == 24
    assert ProtocolConfig(4, 5e-7).effective_register == 24

    def no_state(*args, **kwargs):
        raise AssertionError("a refused register reached a state")

    monkeypatch.setattr(protocol, "StateVector", no_state)
    with pytest.raises(ValueError, match="n_bits"):
        ProtocolConfig(25)
    for delta in (4e-7, 1e-8):  # n' = 25 and 30
        with pytest.raises(ValueError, match=f"delta={delta!r}"):
            run_sync(ProtocolConfig(4, delta), ClockModel(0.3, 1.0), child_rng(1, 0))


def test_nearest_grid_index_matches_exact_rationals():
    for n_prime in range(1, 9):
        for n_bits in range(1, n_prime + 1):
            for m in range(1 << n_prime):
                got = _nearest_grid_index(m, n_prime, n_bits)
                assert got == nearest_fraction_index(m, n_prime, n_bits), (
                    n_prime,
                    n_bits,
                    m,
                )
    # integer arrays decode elementwise, as the exact scoring relies on
    m = np.arange(1 << 8)
    expected = [nearest_fraction_index(v, 8, 5) for v in range(1 << 8)]
    assert _nearest_grid_index(m, 8, 5).tolist() == expected


def test_run_sync_exact_on_grid_small():
    config = ProtocolConfig(3)
    clock = ClockModel(offset_T=5 / 8, omega0=1.0)
    for trial in range(30):
        estimate = run_sync(config, clock, child_rng(17, trial))
        assert estimate.phase_hat == 5 / 8
        assert estimate.T_hat == 5 / 8


def test_run_sync_decodes_omega0():
    config = ProtocolConfig(3)
    clock = ClockModel(offset_T=0.3125, omega0=2.0)  # phi* = 5/8
    estimate = run_sync(config, clock, child_rng(3, 0))
    assert estimate.phase_hat == 5 / 8
    assert np.isclose(estimate.T_hat, 0.3125, atol=1e-15)


def test_run_sync_ledgers_single_query():
    for n_prime in (1, 3, 6):
        ledger = ResourceLedger()
        run_sync(ProtocolConfig(n_prime), ClockModel(0.3, 1.0), child_rng(1, n_prime), ledger)
        assert ledger.queries_Q == 1
        assert ledger.max_rate_index == (1 << n_prime) - 1


@pytest.mark.parametrize("n_prime", [5, 10, 14])
def test_run_sync_matches_gather_reference_draw_for_draw(n_prime):
    # the circuit's reshape views and one-trig phase table against the plain
    # oracle and gathered blocks: same draws, and the stream left in the same state
    offsets = np.random.default_rng(n_prime).uniform(0.0, 50.0, 20)
    for seed, offset in enumerate(offsets):
        clock = ClockModel(float(offset), 1.0)
        rng, reference_rng = child_rng(seed, n_prime), child_rng(seed, n_prime)
        estimate = run_sync(ProtocolConfig(n_prime), clock, rng)
        drawn = gather_sync_draw(n_prime, clock.phi_star, reference_rng)
        assert (estimate.raw_m, estimate.photon_bit) == drawn
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_run_sync_rounds_boosted_register_to_target_grid():
    # phi on the coarse grid, wide register: estimate must land on the coarse grid
    config = ProtocolConfig(3, delta=0.1)
    assert config.effective_register == 6
    clock = ClockModel(offset_T=3 / 8, omega0=1.0)
    for trial in range(20):
        estimate = run_sync(config, clock, child_rng(23, trial))
        assert estimate.phase_hat == 3 / 8
        assert 0 <= estimate.raw_m < 64


def test_success_probability_matches_closed_form():
    rng = np.random.default_rng(8)
    cases = []
    for n_prime in (*range(1, 9), 10, 12):
        for n_bits in (1, max(1, n_prime - 2), n_prime):
            cases.append((n_prime, n_bits, float(rng.random())))
            cases.append((n_prime, n_bits, 3 / (1 << n_prime) % 1.0))
    for n_prime, n_bits, phi in cases:
        lib = success_probability_exact(n_prime, phi, n_bits)
        ref = closed_form_success(n_prime, phi, n_bits)
        assert np.isclose(lib, ref, atol=1e-10), (n_prime, n_bits, phi)


@example(n_prime=1, lower_bits=0, k=1, kind="mid-cell")
@example(n_prime=1, lower_bits=0, k=0, kind="below")
@settings(max_examples=80, deadline=None)
@given(
    n_prime=st.integers(1, 12),
    lower_bits=st.integers(0, 11),
    k=st.integers(0, 4095),
    kind=st.sampled_from(["grid", "above", "below", "mid-cell", "near-1"]),
)
def test_success_probability_matches_statevector_decode(n_prime, lower_bits, k, kind):
    # the kernel sum against the reference's post-transform state, decoded
    # outcome by outcome; the two add in different orders, so they agree to
    # 1e-12, not bit for bit
    size = 1 << n_prime
    n_bits = max(1, n_prime - lower_bits)
    k %= size
    phi = {
        "grid": k / size,
        "above": k / size + 1e-13,
        "below": k / size - 1e-13,  # wraps to just under 1 at k = 0
        "mid-cell": (k + 0.5) / size,
        "near-1": 1.0 - (k + 1) * 2.0**-53,
    }[kind] % 1.0
    total = 0.0
    for index, weight in enumerate(np.abs(final_joint_state(n_prime, phi)) ** 2):
        m = index if index < size else (2 * size - index) % size
        grid = nearest_fraction_index(m, n_prime, n_bits)
        if reference_distance(grid / (1 << n_bits), phi) < 2.0 ** -n_bits:
            total += float(weight)
    assert abs(success_probability_exact(n_prime, phi, n_bits) - total) <= 1e-12


def test_success_probability_array_matches_scalar_calls_bit_for_bit():
    # 2**11 weights per phase: 512 phases per block, so 1,200 phases span three
    n_prime, n_bits = 13, 3
    assert protocol._WEIGHT_BLOCK // (2 << (n_prime - n_bits)) == 512
    phis = np.random.default_rng(5).random(1200)
    phis[::7] = np.arange(0, 1200, 7) % (1 << n_prime) / (1 << n_prime)
    got = success_probability_exact(n_prime, phis, n_bits)
    assert got.shape == phis.shape
    assert got.tolist() == [success_probability_exact(n_prime, p, n_bits) for p in phis.tolist()]
    grid = success_probability_exact(n_prime, phis.reshape(40, 30), n_bits)
    assert grid.tolist() == got.reshape(40, 30).tolist()


def test_success_probability_splits_windows_wider_than_a_block(monkeypatch):
    phis = np.concatenate([np.random.default_rng(6).random(40), np.arange(64) / 64])
    cases = [(6, 1), (6, 4), (8, 2), (8, 8)]
    whole = [success_probability_exact(n_prime, phis, n_bits) for n_prime, n_bits in cases]
    monkeypatch.setattr(protocol, "_WEIGHT_BLOCK", 8)
    for (n_prime, n_bits), expected in zip(cases, whole):
        got = success_probability_exact(n_prime, phis, n_bits)
        assert np.max(np.abs(got - expected)) <= 1e-15


def test_success_probability_memory_stays_within_one_block():
    def peak(phase_count):
        phis = np.arange(phase_count) / phase_count
        tracemalloc.start()
        try:
            success_probability_exact(12, phis, 2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 2**11 weights per phase at n' = 12, n = 2: one block holds 512 phases
    assert peak(4 * 512) < 1.5 * peak(512)


def test_success_probability_exact_on_grid():
    for n_prime in (1, 4, 7):
        for m in range(0, 1 << n_prime, max(1, (1 << n_prime) // 8)):
            p = success_probability_exact(n_prime, m / (1 << n_prime), n_prime)
            assert abs(p - 1.0) < 1e-12


def test_success_probability_validation():
    with pytest.raises(ValueError):
        success_probability_exact(3, 1.0, 3)
    with pytest.raises(ValueError):
        success_probability_exact(3, -0.1, 3)
    with pytest.raises(ValueError):
        success_probability_exact(3, 0.5, 4)
    with pytest.raises(ValueError):
        success_probability_exact(3, 0.5, 0)
    with pytest.raises(ValueError):
        success_probability_exact(0, 0.5, 1)
    with pytest.raises(ValueError):
        success_probability_exact(3, np.array([0.5, 1.0]), 3)


def test_worst_case_stays_above_constant_floor():
    floor = 4 / math.pi**2
    _, worst = min_success_on_grid(4, 4, 1 << 8)
    assert worst >= floor - 1e-9
    # the hardest phases sit mid-cell; both straddling grid points count
    mid = (3 + 0.5) / 16
    p = success_probability_exact(4, mid, 4)
    assert p >= floor - 1e-9
    assert p < 0.9  # genuinely lossy off the grid, so the floor is doing work


def test_conjugate_branch_mirrors_register_distribution():
    # the circuit gate by gate; _queried_state writes its prepared state directly
    for n_prime in (1, 4, 10, 14):
        for phi in (0.23, 0.0, 0.5 + 2**-9, 0.7071067811865476):
            reg = range(n_prime)
            state = basis_state(n_prime + 1, 0)
            state = qft(state, reg)
            state = hadamard(state, n_prime)
            thetas = 2 * np.pi * ((np.arange(1 << n_prime) * phi) % 1.0)
            state = indexed_phase(state, reg, n_prime, thetas)
            assert _queried_state(ClockModel(phi, 1.0), n_prime).amps.tobytes() == state.amps.tobytes()
            state = inverse_qft(state, reg)
            assert np.max(np.abs(state.amps - final_joint_state(n_prime, phi))) <= 1e-12
            probs = state.probabilities()
            size = 1 << n_prime
            branch1 = probs[size:]
            reflected = branch1[(size - np.arange(size)) % size]
            assert np.allclose(probs[:size], reflected, atol=1e-12)


def test_readout_tables_match_the_post_transform_reference():
    # each photon branch's kept register table, normalized, against the
    # reference's photon rows after the inverse QFT, on and off the grid
    for n_prime in range(1, 9):
        size = 1 << n_prime
        for phi in (0.0, 3 / size % 1.0, (size - 1) / size, 0.303, 1 / 3, math.pi % 1.0):
            readout = _Readout(_queried_state(ClockModel(phi, 1.0), n_prime), n_prime)
            rng = child_rng(n_prime, 9)
            while len(readout.tables) < 2:
                readout.draw(rng)
            rows = (np.abs(final_joint_state(n_prime, phi)) ** 2).reshape(2, size)
            for bit, (cumsum, total) in readout.tables.items():
                weights = np.diff(cumsum, prepend=0.0) / total
                assert np.max(np.abs(weights - rows[bit] / rows[bit].sum())) <= 1e-12, (n_prime, phi, bit)


def test_photon_outcome_is_fair():
    for n_prime in (1, 3, 5):
        for phi in (0.0, 0.123456, 0.5, 0.9999):
            assert abs(photon_zero_probability(n_prime, phi) - 0.5) < 1e-12


def test_photon_zero_probability_refuses_a_register_over_the_cap(monkeypatch):
    # refused before any state is built: 2**26 amplitudes at n_prime = 25
    class Built(Exception):
        pass

    def stub(*args):
        raise Built

    monkeypatch.setattr(protocol, "_queried_state", stub)
    # a float or a bool is not a register width, even where `<<` or the cap check would take it
    for n_prime in (0, protocol.MAX_REGISTER_QUBITS + 1, 1000, 2.5, True):
        with pytest.raises(ValueError, match="n_prime"):
            photon_zero_probability(n_prime, 0.25)
    with pytest.raises(Built):
        photon_zero_probability(protocol.MAX_REGISTER_QUBITS, 0.25)


def test_photon_zero_probability_matches_the_post_transform_reference():
    # read before the inverse transform, the photon weight is the reference's
    # photon-0 sum after it, on test_08's dyadic grid and irrational phases
    irrational = (1.0 / 3.0, 1.0 / 7.0, 2.0 / 7.0, math.pi - 3.0, math.e - 2.0)
    for n_prime in range(1, 9):
        grid = 1 << (n_prime + 2)
        for phi in [g / grid for g in range(grid)] + list(irrational):
            expected = float(np.sum(np.abs(final_joint_state(n_prime, phi)[: 1 << n_prime]) ** 2))
            assert abs(photon_zero_probability(n_prime, phi) - expected) <= 1e-15, (n_prime, phi)


def test_sweep_phi_builds_one_state_per_grid_phase(monkeypatch, tmp_path):
    built = []
    real = protocol._queried_state
    monkeypatch.setattr(protocol, "_queried_state", lambda *a: built.append(a) or real(*a))
    success_probability_exact(5, np.arange(64) / 64, 4)
    assert built == []
    run(ExperimentSpec(scenario="sweep-phi", n_bits=2, output_path=str(tmp_path / "s.csv")))
    assert [(clock.phi_star, n_prime) for clock, n_prime in built] == [(g / 64, 2) for g in range(64)]


def test_each_grid_scan_makes_one_exact_call(monkeypatch, tmp_path):
    calls = []
    real = protocol.success_probability_exact

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(protocol, "success_probability_exact", counting)
    monkeypatch.setattr(harness, "success_probability_exact", counting)
    min_success_on_grid(4, 3, 256)
    assert len(calls) == 1
    for scenario, delta in (("sweep-phi", None), ("boost", 0.2)):
        calls.clear()
        spec = ExperimentSpec(scenario=scenario, n_bits=3, delta=delta, trials=2,
                              output_path=str(tmp_path / f"{scenario}.csv"))
        run(spec)
        assert len(calls) == 1 and len(calls[0][1]) == 16  # one n-bit cell of 2**(n + 4) phases


def test_grid_scans_tile_one_cell_bit_for_bit():
    # success repeats every 2**-n: the tiled cell is the scan scored whole,
    # at every sweep-phi n and at boost widths up to n' = 19; at delta >= 0.2
    # n' <= n + 3 and the half-bin shift wraps the last phases past 1
    specs = [(n, n, 0.0) for n in range(1, 10)]
    for n, delta in ((1, 0.3), (4, 0.2), (6, 0.3), (10, 0.05), (12, 0.3), (15, 0.05), (17, 0.3)):
        n_prime = ProtocolConfig(n, delta).effective_register
        specs.append((n_prime, n, 2.0 ** -(n_prime + 1)))
    for n_prime, n, shift in specs:
        grid_points = 1 << (n + 4)
        phis, probs = harness._grid_scan(n_prime, n, shift)
        assert phis.tobytes() == ((np.arange(grid_points) / grid_points + shift) % 1.0).tobytes()
        assert (phis[-1] < phis[0]) == (0 < n_prime - n < 4)  # the wrap
        whole = success_probability_exact(n_prime, phis, n)
        assert probs.tobytes() == whole.tobytes(), (n_prime, n)


def test_run_sync_offgrid_matches_exact_distribution():
    # omega0*T = 1/3 with a 3-bit register: P(phase_hat = 3/8) from the kernel
    n_prime = 3
    phi = 1 / 3
    expected = fold_weight(n_prime, phi, 3)
    clock = ClockModel(offset_T=phi, omega0=1.0)
    config = ProtocolConfig(n_prime)
    trials = 4000
    hits = 0
    for trial in range(trials):
        estimate = run_sync(config, clock, child_rng(31, trial))
        hits += estimate.phase_hat == 3 / 8
    assert expected > 4 / math.pi**2
    assert abs(hits / trials - expected) < four_sigma(expected, trials)


def test_run_sync_refuses_an_offset_that_lost_its_phase_bits():
    # omega0 * offset_T = 1e17 + 0.3 rounds to an integer: phi_star is 0.0
    clock = ClockModel(1e17 + 0.3, 1.0)
    assert clock.phi_star == 0.0
    with pytest.raises(ValueError, match="offset_T"):
        run_sync(ProtocolConfig(4), clock, child_rng(1, 0))
    # far from 0 but with bits to spare is still served
    far = ClockModel(1000.0 + 5 / 16, 1.0)
    assert run_sync(ProtocolConfig(4), far, child_rng(1, 0)).phase_hat == 5 / 16


def test_min_success_on_grid_needs_a_grid_point():
    # 2.5 would otherwise scan 3 phases at g / 2.5, and True the one phase 0.0
    for grid_points in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match="grid_points"):
            min_success_on_grid(3, 3, grid_points)


def test_min_success_on_grid_returns_argmin():
    phi, prob = min_success_on_grid(3, 3, 32)
    scan = [success_probability_exact(3, g / 32, 3) for g in range(32)]
    assert np.isclose(prob, min(scan), atol=1e-15)
    assert np.isclose(success_probability_exact(3, phi, 3), prob, atol=1e-15)
