import math

import numpy as np
import pytest

from ticksync import (
    ClockModel,
    LowerBoundParams,
    ResourceLedger,
    basis_state,
    circular_distance,
    classical_estimate,
    diagonal_phase,
    fixed_rate_query,
    hadamard,
    inverse_qft,
    measure,
    nayak_wu_bound,
    qft,
    simulate_rate_k_with_unit_rate,
    single_rate_state,
    tqh_oracle,
    tradeoff_sweep,
    z_phase,
)
from ticksync.clock import _frac
from ticksync.protocol import _queried_state
from ticksync.tradeoff import _window_exponents, _windowed_estimate
from ticksync.seeding import child_rng


def test_single_rate_state_probabilities():
    for phi in (0.0, 1 / 8, 1 / 4, 0.3, 0.77):
        probs = single_rate_state(ClockModel(phi, 1.0)).probabilities()
        expected0 = math.cos(2 * math.pi * phi) ** 2
        assert abs(float(probs[0]) - expected0) < 1e-12
        assert abs(float(probs[1]) - (1 - expected0)) < 1e-12


def test_single_rate_state_examples():
    assert np.isclose(single_rate_state(ClockModel(0.0, 1.0)).probabilities()[0], 1.0)
    assert np.isclose(single_rate_state(ClockModel(1 / 8, 1.0)).probabilities()[0], 0.5)
    assert np.isclose(
        single_rate_state(ClockModel(1 / 4, 1.0)).probabilities()[0], 0.0, atol=1e-12
    )


def test_classical_estimate_is_exact_at_fixed_points():
    for seed in range(5):
        t_hat, _ = classical_estimate(ClockModel(0.0, 1.0), 50, child_rng(seed))
        assert t_hat == 0.0
        t_hat, _ = classical_estimate(ClockModel(0.25, 1.0), 50, child_rng(seed, 1))
        assert t_hat == 0.25


def test_classical_estimate_ledger_and_validation():
    t_hat, ledger = classical_estimate(ClockModel(0.1, 1.0), 500, child_rng(2))
    assert ledger.queries_Q == 1000
    assert ledger.max_rate_index == 1
    with pytest.raises(ValueError):
        classical_estimate(ClockModel(0.1, 1.0), 0, child_rng(0))
    # a float or a bool is not a shot count, even where int() would take it
    for samples in (2.9, True):
        with pytest.raises(ValueError, match="samples"):
            classical_estimate(ClockModel(0.1, 1.0), samples, child_rng(0))
    t_np, ledger = classical_estimate(ClockModel(0.1, 1.0), np.int64(500), child_rng(2))
    assert (t_np, ledger.queries_Q) == (t_hat, 1000)
    assert type(ledger.queries_Q) is int


def _circuit_classical_estimate(clock, samples, rng):
    # both fringes read off gate-built 1-qubit statevectors, then the same
    # draws and inversion as classical_estimate
    quad = hadamard(basis_state(1, 0), 0)
    quad = z_phase(fixed_rate_query(clock, quad, 0, 1), 0, np.pi / 4.0)
    quad = hadamard(quad, 0)
    p_direct = float(single_rate_state(clock).probabilities()[0])
    p_quad = float(quad.probabilities()[0])
    hits_direct = int(rng.binomial(samples, p_direct))
    hits_quad = int(rng.binomial(samples, p_quad))
    ledger = ResourceLedger()
    ledger.record_query(1, count=2 * samples)
    cos_hat = 2.0 * hits_direct / samples - 1.0
    sin_hat = 1.0 - 2.0 * hits_quad / samples
    folded = math.acos(min(1.0, max(-1.0, cos_hat))) / (4.0 * math.pi)
    phi_hat = (folded if sin_hat >= 0.0 else 0.5 - folded) % 0.5
    return phi_hat / clock.omega0, ledger


class _RecordedDraws:
    # a generator that notes the probability of every binomial draw it makes
    def __init__(self, rng):
        self.rng, self.p = rng, []

    def binomial(self, n, p):
        self.p.append(p)
        return self.rng.binomial(n, p)


def test_classical_estimate_matches_the_circuit_fringes():
    phis = np.random.default_rng(31).random(200).tolist()
    for samples in (16, 1024, 32768):
        for i, phi in enumerate(phis):
            clock = ClockModel(phi / 3.0, 3.0)
            rng, ref_rng = (_RecordedDraws(child_rng(32, samples, i)) for _ in range(2))
            assert classical_estimate(clock, samples, rng) == _circuit_classical_estimate(
                clock, samples, ref_rng
            )
            assert rng.rng.bit_generator.state == ref_rng.rng.bit_generator.state
            assert np.max(np.abs(np.subtract(rng.p, ref_rng.p))) <= 1e-15
def test_classical_estimate_converges_both_halves():
    # one phase per arccos branch; 10^4 samples pins each to ~1e-2
    for phi in (1 / 16, 0.3):
        hits = 0
        for seed in range(40):
            t_hat, _ = classical_estimate(
                ClockModel(phi, 1.0), 10000, child_rng(7, int(phi * 64), seed)
            )
            hits += abs(t_hat - phi) < 0.01
        assert hits >= 38  # >= 95% of repetitions


def test_classical_estimate_reports_seconds():
    # omega0 != 1: the returned value is an offset in seconds, phi/omega0
    phi = 1 / 16
    t_hat, _ = classical_estimate(ClockModel(phi / 4.0, 4.0), 100000, child_rng(12))
    assert abs(t_hat * 4.0 - phi) < 0.01


def test_classical_estimate_folds_upper_half_phases():
    # phases above 1/2 alias onto phi mod 1/2: document the fold
    phi = 0.7
    t_hat, _ = classical_estimate(ClockModel(phi, 1.0), 100000, child_rng(13))
    d = abs(t_hat - (phi % 0.5)) % 0.5
    assert min(d, 0.5 - d) < 0.01


def test_classical_error_halves_when_samples_quadruple():
    clock = ClockModel(1 / 16, 1.0)
    medians = []
    for si, samples in enumerate((1000, 4000)):
        errors = []
        for seed in range(200):
            t_hat, _ = classical_estimate(clock, samples, child_rng(21, si, seed))
            errors.append(abs(t_hat - 1 / 16))
        medians.append(float(np.median(errors)))
    ratio = medians[0] / medians[1]
    assert 1.7 <= ratio <= 2.3


def test_rate_k_simulation_matches_direct_query():
    for k, phi in ((1, 0.13), (5, 0.13), (64, 0.777)):
        clock = ClockModel(phi, 1.0)
        photon = hadamard(basis_state(1, 0), 0)
        ledger = ResourceLedger()
        repeated = simulate_rate_k_with_unit_rate(clock, k, photon, 0, ledger)
        direct = fixed_rate_query(clock, photon, 0, k)
        assert np.max(np.abs(repeated.amps - direct.amps)) <= 1e-12
        assert ledger.queries_Q == k
        assert ledger.max_rate_index == 1


def test_rate_k_simulation_acts_only_on_the_photon():
    clock = ClockModel(0.29, 1.0)
    state = hadamard(hadamard(basis_state(2, 0), 0), 1)
    out = simulate_rate_k_with_unit_rate(clock, 3, state, 1)
    direct = fixed_rate_query(clock, state, 1, 3)
    assert np.allclose(out.amps, direct.amps, atol=1e-12)


def test_rate_k_rejects_zero():
    with pytest.raises(ValueError):
        simulate_rate_k_with_unit_rate(
            ClockModel(0.1, 1.0), 0, basis_state(1, 0), 0
        )
    # a float or a bool is not a rate multiplier, even where int() would take it
    for k in (2.9, True):
        with pytest.raises(ValueError, match="k must"):
            simulate_rate_k_with_unit_rate(ClockModel(0.1, 1.0), k, basis_state(1, 0), 0, ResourceLedger())
    ledger = ResourceLedger()
    simulate_rate_k_with_unit_rate(ClockModel(0.1, 1.0), np.int64(2), basis_state(1, 0), 0, ledger)
    assert ledger.queries_Q == 2


def test_nayak_wu_bound_examples():
    assert nayak_wu_bound(LowerBoundParams(16, 0, 1.0)) == pytest.approx(4.0, abs=0.01)
    assert nayak_wu_bound(LowerBoundParams(16, 8, 1.0)) == pytest.approx(12.0, abs=0.01)
    assert nayak_wu_bound(LowerBoundParams(256, 128, 0.5)) == pytest.approx(
        278.63, abs=0.01
    )


def test_nayak_wu_bound_symmetry_and_exponential_floor():
    for N, t, Delta in ((64, 5, 0.3), (1024, 100, 0.9)):
        assert nayak_wu_bound(LowerBoundParams(N, t, Delta)) == pytest.approx(
            nayak_wu_bound(LowerBoundParams(N, N - t, Delta))
        )
    # half-full ticks with Delta < 1: bound at least 2**(n-1) up to n = 20
    for n in range(1, 21):
        N = 1 << n
        value = nayak_wu_bound(LowerBoundParams(N, N // 2, 0.99))
        assert value >= 2 ** (n - 1)


def test_lower_bound_params_validation():
    with pytest.raises(ValueError):
        LowerBoundParams(16, 17, 1.0)
    with pytest.raises(ValueError):
        LowerBoundParams(16, -1, 1.0)
    with pytest.raises(ValueError):
        LowerBoundParams(16, 8, 0.0)
    with pytest.raises(ValueError):
        LowerBoundParams(0, 0, 1.0)
    assert LowerBoundParams(16, 4, 1.0).a == 0.25


def test_window_exponents_tile_the_target():
    assert _window_exponents(6, 1) == [5, 4, 3, 2, 1, 0]
    assert _window_exponents(6, 2) == [4, 2, 0]
    assert _window_exponents(6, 4) == [2, 0]
    assert _window_exponents(6, 6) == [0]
    assert _window_exponents(5, 2) == [3, 1, 0]
    # per-pass query cost is the sum of repeat counts
    assert sum(1 << e for e in _window_exponents(6, 1)) == 63
    assert sum(1 << e for e in _window_exponents(6, 2)) == 21


def test_tradeoff_sweep_small_target():
    points = tradeoff_sweep(3, [1, 2, 4, 8], trials=4, rng=child_rng(40))
    by_f = {p.F: p for p in points}
    assert by_f[8].Q == 1
    assert by_f[8].success_rate >= 0.9
    qs = [by_f[f].Q for f in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(qs, qs[1:]))
    for p in points:
        assert p.n_bits_achieved == 3
        assert p.success_rate >= 0.9
        assert p.F * p.Q >= 1 << 3  # range-queries product never collapses


def test_tradeoff_sweep_is_deterministic():
    first = tradeoff_sweep(3, [2, 8], trials=3, rng=child_rng(41))
    second = tradeoff_sweep(3, [2, 8], trials=3, rng=child_rng(41))
    assert first == second


def test_tradeoff_sweep_validation():
    with pytest.raises(ValueError):
        tradeoff_sweep(3, [3], 2, child_rng(0))
    with pytest.raises(ValueError):
        tradeoff_sweep(3, [16], 2, child_rng(0))
    with pytest.raises(ValueError):
        tradeoff_sweep(3, [0], 2, child_rng(0))
    with pytest.raises(ValueError):
        tradeoff_sweep(3, [2], 0, child_rng(0))
    with pytest.raises(ValueError):
        tradeoff_sweep(0, [1], 2, child_rng(0))


def test_windowed_estimates_recover_grid_phases():
    # every n-bit grid phase, window width 2, single pass; Q sums 2**offset
    # repeats over the windows.  n = 5 has windows at offsets 3, 1 and 0: the
    # lower two cancel known tail bits, and the last overlaps the one before.
    for n_target, offsets in ((4, (2, 0)), (5, (3, 1, 0))):
        assert _window_exponents(n_target, 2) == list(offsets)
        points = tradeoff_sweep(n_target, [4], trials=2, rng=child_rng(44))
        assert points[0].success_rate == 1.0
        assert points[0].Q == sum(1 << e for e in offsets)  # 5, then 11


def test_windowed_estimate_off_grid_phase_useful():
    # off the grid nothing is exact, but estimates should cluster nearby
    phi = 0.303
    exponents = _window_exponents(5, 1)
    states = [_queried_state(ClockModel(_frac(phi * (1 << e)), 1.0), 1) for e in exponents]
    close = 0
    for seed in range(60):
        estimate, ledger = _windowed_estimate(
            states, 5, 1, exponents, 3, child_rng(45, seed)
        )
        close += circular_distance(estimate, phi) < 2 ** -4
        assert ledger.queries_Q == 3 * 31
    assert close >= 30


def _sequential_window(clock, m, exponent, known_turns, rng, ledger, photons):
    # the window circuit built from scratch: 2**exponent single queries at
    # phase phi, each charged by the oracle
    reg = range(m)
    state = hadamard(qft(basis_state(m + 1, 0), reg), m)
    for _ in range(1 << exponent):
        state = tqh_oracle(clock, state, reg, m, ledger)
    photon = measure(state, [m], rng)
    photons.add((photon.value, known_turns > 0))
    state = photon.collapsed
    if known_turns > 0:
        sign = -1.0 if photon.value == 0 else 1.0
        turns = (np.arange(1 << m) * known_turns) % 1.0
        state = diagonal_phase(state, reg, 2 * np.pi * sign * turns)
    window = measure(inverse_qft(state, reg), reg, rng).value
    return (-window) % (1 << m) if photon.value == 1 else window


def _sequential_estimate(phi, n_bits, m, passes, rng, photons):
    # bits kept by position; the majority vote elects the smaller window on ties
    clock, ledger = ClockModel(phi, 1.0), ResourceLedger()
    exponents = _window_exponents(n_bits, m)
    votes = [{} for _ in exponents]
    for _ in range(passes):
        bits = {}  # bit position -> bit, the earlier window's read kept
        for stage, e in enumerate(exponents):
            shift = n_bits - e - m
            known = sum(bits[b] << b for b in range(shift))
            window = _sequential_window(clock, m, e, known / 2 ** (shift + m), rng, ledger, photons)
            votes[stage][window] = votes[stage].get(window, 0) + 1
            for b in range(m):
                bits.setdefault(shift + b, (window >> b) & 1)
    bits = {}
    for e, counter in zip(exponents, votes):
        window = max(sorted(counter), key=lambda w: counter[w])
        for b in range(m):
            bits.setdefault(n_bits - e - m + b, (window >> b) & 1)
    return sum(bit << b for b, bit in bits.items()) / 2 ** n_bits, ledger


def test_hoisted_windows_match_sequential_circuits():
    # one queried state per window, reused by every pass and trial, against
    # rebuilding the circuit per window: same draws, streams and ledgers
    photons = set()
    for n_bits, m, passes in ((4, 1, 3), (5, 2, 3), (5, 3, 1), (4, 4, 2)):
        exponents = _window_exponents(n_bits, m)
        for phi in (0.0, 5 / 16, 0.303, 0.77):
            states = [_queried_state(ClockModel(_frac(phi * (1 << e)), 1.0), m) for e in exponents]
            for seed in range(6):
                rng, ref_rng = child_rng(71, seed), child_rng(71, seed)
                phase, ledger = _windowed_estimate(states, n_bits, m, exponents, passes, rng)
                ref = _sequential_estimate(phi, n_bits, m, passes, ref_rng, photons)
                assert (phase, ledger) == ref
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    # both photon branches, with and without a known-bits correction
    assert photons == {(0, False), (1, False), (0, True), (1, True)}
