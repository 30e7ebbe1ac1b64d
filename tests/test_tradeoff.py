import math
from fractions import Fraction

import numpy as np
import pytest

from ticksync import (
    ClockModel,
    LowerBoundParams,
    ResourceLedger,
    basis_state,
    circular_distance,
    classical_estimate,
    fixed_rate_query,
    hadamard,
    inverse_qft,
    nayak_wu_bound,
    simulate_rate_k_with_unit_rate,
    single_rate_state,
    tradeoff_sweep,
    z_phase,
)
from ticksync import protocol, tradeoff
from ticksync.harness import SCENARIOS
from ticksync.tradeoff import (
    _binomial_pmf, _classical_success, _Window, _window_exponents, _windowed_estimate,
)
from ticksync.seeding import child_rng

from reference import (
    final_joint_state, four_sigma, plain_classical_estimate, plain_classical_success,
    plain_windowed_estimate,
)


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
        self.p.extend(np.ravel(p))
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


def test_binomial_pmf_matches_exact_fractions():
    # the lgamma pmf against exact rationals of the same float p, on its
    # window, and the exact mass it leaves outside the window
    for samples in (16, 64, 256):
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(samples + 1)])
        for p in (0.0, 1e-6, 3.76e-5, 0.0096, 0.3, 0.5, 0.5000000000000001, 0.97, 1.0 - 1e-9, 1.0):
            h, pmf = _binomial_pmf(log_fact, samples, p)
            exact = [
                math.comb(samples, k) * Fraction(p) ** k * (1 - Fraction(p)) ** (samples - k)
                for k in range(samples + 1)
            ]
            assert np.max(np.abs(pmf - [float(exact[k]) for k in h.tolist()])) <= 1e-12
            assert float(1 - sum(exact[k] for k in h.tolist())) <= 1e-12


def test_classical_success_matches_a_plain_double_sum():
    # every scored phase, g = 0 (a certain direct count) included, against a
    # sum over every pair of hit counts with math.comb weights
    for n_bits in range(1, 7):
        phis = [g / 2**n_bits for g in range(1 << (n_bits - 1))]
        for samples in (16, 32, 64):
            exact = _classical_success(n_bits, samples)
            ref = [plain_classical_success(phi, n_bits, samples) for phi in phis]
            assert np.max(np.abs(exact - ref)) <= 1e-12


def test_plain_classical_success_matches_sampled_hit_rates():
    # the double sum against 4,000 plain estimates per phase
    trials = 4000
    for n_bits, samples, gs in ((4, 16, (1, 3, 6)), (6, 256, (1, 13, 31))):
        for g in gs:
            phi = g / 2**n_bits
            rng = child_rng(34, n_bits, g)
            hits = sum(
                circular_distance(plain_classical_estimate(phi, samples, rng), phi) < 2.0**-n_bits
                for _ in range(trials)
            )
            p = plain_classical_success(phi, n_bits, samples)
            assert abs(hits / trials - p) <= four_sigma(p, trials)


def test_classical_row_is_exact_and_needs_no_stream():
    # fringe sampling needs about four times the samples per bit; the row is
    # the same for any trials and rng, and rng neither draws nor spawns
    expected_Q = [32, 32, 32, 32, 128, 512, 2048, 8192, 32768, 131072]
    assert SCENARIOS["tradeoff"][2] == len(expected_Q)
    for n_bits, Q in enumerate(expected_Q, start=1):
        rng = child_rng(n_bits, 5)
        state = rng.bit_generator.state
        (point,) = tradeoff_sweep(n_bits, [1], 20, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert (point.F, point.Q, point.n_bits_achieved) == (1, Q, n_bits)
        assert point.success_rate >= tradeoff.SUCCESS_THRESHOLD
        if n_bits <= 4:
            assert tradeoff_sweep(n_bits, [1], 3, child_rng(99)) == [point]
        want = {4: 0.91890, 6: 0.91440, 10: 0.91417}.get(n_bits)
        assert want is None or abs(point.success_rate - want) <= 1e-5


@pytest.mark.parametrize("seed", [1, 2])
def test_classical_row_meets_the_threshold_at_the_tradeoff_edge(seed):
    # fringe sampling needs about four times the samples per bit: the F = 1
    # row at the widest admitted n runs up to 2**16 or 2**17 samples
    (point,) = tradeoff_sweep(SCENARIOS["tradeoff"][2], [1], 20, child_rng(seed, 5))
    assert point.success_rate >= tradeoff.SUCCESS_THRESHOLD
    assert point.Q <= 2 * tradeoff.SAMPLE_COUNTS[-1]


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
    # every n-bit grid phase and every F >= 2 at n = 1-6, one walk over the
    # windows: every read is exact, so each row meets the threshold with
    # success_rate 1.0 and Q sums 2**offset repeats over the windows.  n = 5,
    # F = 4 has windows at offsets 3, 1 and 0: the lower two cancel known tail
    # bits, and the last overlaps the one before.
    assert _window_exponents(4, 2) == [2, 0] and _window_exponents(5, 2) == [3, 1, 0]
    for n_target in range(1, 7):
        F_values = [1 << m for m in range(1, n_target + 1)]
        points = tradeoff_sweep(n_target, F_values, trials=2, rng=child_rng(44, n_target))
        for point in points:
            m = point.F.bit_length() - 1
            assert point.success_rate == 1.0
            assert point.Q == sum(1 << e for e in _window_exponents(n_target, m))


def test_windowed_estimate_off_grid_phase_useful():
    # off the grid nothing is exact, but estimates should cluster nearby
    phi = 0.303
    exponents = _window_exponents(5, 1)
    windows = [_Window(phi, 1, e) for e in exponents]
    close = 0
    for seed in range(60):
        (estimate,), ledger = _windowed_estimate(windows, 5, 1, exponents, child_rng(45, seed), 1)
        close += circular_distance(estimate, phi) < 2 ** -4
        assert ledger.queries_Q == 31
    assert close >= 30


def test_hoisted_windows_match_sequential_circuits(monkeypatch):
    # one prepared set of windows per phase, shared by every trial and seed,
    # so later runs draw from cached register tables, against the plain
    # reference that rebuilds each window with 2**e single queries: same
    # draws, streams and query counts
    built = []
    monkeypatch.setattr(protocol, "inverse_qft", lambda *a: built.append(1) or inverse_qft(*a))
    seen = set()
    for n_bits, m in ((4, 1), (5, 2), (5, 3), (4, 4)):
        exponents = _window_exponents(n_bits, m)
        for phi in (0.0, 5 / 16, 0.303, 0.77):
            windows = [_Window(phi, m, e) for e in exponents]
            built.clear()
            branches = set()  # (window offset, photon bit, known_turns) the reference reached
            for seed in range(6):
                rng, ref_rng = child_rng(71, seed), child_rng(71, seed)
                phases, ledger = _windowed_estimate(windows, n_bits, m, exponents, rng, 3)
                ref = [plain_windowed_estimate(phi, n_bits, m, ref_rng, branches) for _ in range(3)]
                assert phases.tolist() == [phase for phase, _ in ref]
                assert ledger.queries_Q == sum(queries for _, queries in ref)
                assert ledger.max_rate_index == (1 << m) - 1
                assert rng.bit_generator.state == ref_rng.bit_generator.state
            # one register state built per branch, where 18 runs per window were made
            assert len(built) == len(branches) < 18 * len(windows)
            seen |= {(bit, known > 0) for _, bit, known in branches}
    # both photon branches, with and without a known-bits correction
    assert seen == {(0, False), (1, False), (0, True), (1, True)}


def test_corrected_window_tables_match_the_reference_at_the_shifted_phase():
    # the known-bits rotation goes on before the photon measurement, with
    # which it commutes: each branch's kept register table is a plain run's
    # at frac(2**e * phi - known_turns), to 1e-12
    for m in (1, 2, 3, 4):
        size = 1 << m
        for exponent in (0, 1, 3):
            for phi in (5 / 16, 0.303, 0.77, 1 / 3):
                window = _Window(phi, m, exponent)
                for shift in (1, 2, 3):
                    for j in range(1 << shift):
                        known_turns = j / float(1 << (shift + m))
                        readout, rng = window.readout(known_turns), child_rng(m, exponent, shift, j)
                        while len(readout.tables) < 2:
                            readout.draw(rng)
                        shifted = (phi * (1 << exponent) - known_turns) % 1.0
                        rows = (np.abs(final_joint_state(m, shifted)) ** 2).reshape(2, size)
                        for bit, (cumsum, total) in readout.tables.items():
                            weights = np.diff(cumsum, prepend=0.0) / total
                            assert np.max(np.abs(weights - rows[bit] / rows[bit].sum())) <= 1e-12
