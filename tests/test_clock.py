import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ticksync import (
    ClockModel,
    ResourceLedger,
    TransitRecord,
    basis_state,
    fixed_rate_query,
    handshake_simulate,
    hadamard,
    make_world,
    success_probability_exact,
    tqh_oracle,
    z_phase,
)
from ticksync.clock import _frac
from ticksync.seeding import child_rng
from reference import random_state

from ticksync import StateVector


def test_frac_has_the_bits_of_python_and_numpy_mod_one():
    edges = [0.0, -0.0, -1e-20, 1e-20, -5e-324, 1e300, -1e300, 2.0**52 + 0.5, 2.0**52 - 0.5,
             -(2.0**52 + 0.5), -(2.0**52 - 0.5), 0.5, -0.5, 1.0, -1.0, 0.999999999, -7.25, 123456.789]
    values = np.concatenate([edges, np.random.default_rng(5).uniform(-1e6, 1e6, 2000),
                             np.random.default_rng(6).standard_normal(2000)])
    expected = np.remainder(values, 1.0)
    assert np.array([float(x) % 1.0 for x in values]).tobytes() == expected.tobytes()
    assert np.array([_frac(float(x)) for x in values]).tobytes() == expected.tobytes()
    # signed zeros too: -0.0 - floor(-0.0) is +0.0, as % 1.0 gives
    assert math.copysign(1.0, _frac(-0.0)) == 1.0
    table = values.copy()
    assert _frac(table) is table
    assert table.tobytes() == expected.tobytes()


def test_phi_star_reduces_modulo_one():
    assert ClockModel(0.625, 1.0).phi_star == 0.625
    assert np.isclose(ClockModel(1.625, 1.0).phi_star, 0.625, atol=1e-12)
    assert np.isclose(ClockModel(-0.25, 1.0).phi_star, 0.75, atol=1e-12)
    assert np.isclose(ClockModel(0.7, 2.0).phi_star, 0.4, atol=1e-12)
    # (x % 1.0) rounds to 1.0 for a tiny negative x; that point is phase 0,
    # which the exact success call accepts
    for offset in (-1e-20, -5e-324, -1e-17):
        assert ClockModel(offset, 1.0).phi_star == 0.0
    assert ClockModel(-1e-20, 3.0).phi_star == 0.0
    phi = ClockModel(-1e-20, 1.0).phi_star
    assert success_probability_exact(3, phi, 3) == success_probability_exact(3, 0.0, 3)


@settings(max_examples=200, deadline=None)
@given(
    offset=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    omega0=st.floats(min_value=1e-3, max_value=1e3),
)
@example(offset=-1e-20, omega0=1.0)
def test_phi_star_lies_in_the_unit_interval(offset, omega0):
    assert 0.0 <= ClockModel(offset, omega0).phi_star < 1.0


def test_clock_model_validation():
    with pytest.raises(ValueError):
        ClockModel(0.0, 0.0)
    with pytest.raises(ValueError):
        ClockModel(0.0, -1.0)
    with pytest.raises(ValueError):
        ClockModel(math.inf, 1.0)


def test_resource_ledger_counts_and_maximum():
    ledger = ResourceLedger()
    ledger.record_query(3)
    ledger.record_query(1)
    ledger.record_query(5, count=4)
    assert ledger.queries_Q == 6
    assert ledger.max_rate_index == 5
    with pytest.raises(ValueError):
        ledger.record_query(-1)
    with pytest.raises(ValueError):
        ledger.record_query(1, count=0)
    # a float or a bool is not a query count or a rate index; nothing is charged
    with pytest.raises(ValueError, match="count"):
        ledger.record_query(3, count=2.5)
    for rate_index in (True, 1.0):
        with pytest.raises(ValueError, match="rate_index"):
            ledger.record_query(rate_index)
    with pytest.raises(ValueError, match="count"):
        ledger.record_query(1, count=True)
    assert (ledger.queries_Q, ledger.max_rate_index) == (6, 5)
    ledger.record_query(np.int64(7), count=np.int64(2))
    assert (ledger.queries_Q, ledger.max_rate_index) == (8, 7)
    assert type(ledger.queries_Q) is int and type(ledger.max_rate_index) is int


def test_transit_record_validation():
    with pytest.raises(ValueError):
        TransitRecord(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        TransitRecord(math.nan, 1.0, 0.5)
    record = TransitRecord(0.0, 1.5, 1.0)
    assert record.t_tr == 1.0


def test_tqh_oracle_brute_force_small_register():
    clock = ClockModel(offset_T=5 / 8, omega0=1.0)
    amps = random_state(3, 50)
    state = StateVector(3, amps)
    out = tqh_oracle(clock, state, (0, 1), 2)
    expected = np.empty(8, dtype=complex)
    for i in range(8):
        k = (i & 1) | (((i >> 1) & 1) << 1)
        sign = -1.0 if (i >> 2) & 1 else 1.0
        expected[i] = amps[i] * np.exp(sign * 2j * np.pi * k * (5 / 8))
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_tqh_oracle_fixed_k_photon_phases():
    # k = 1, omega0*T = 5/8: photon components rotate by e^(+-i*5*pi/4)
    clock = ClockModel(offset_T=5 / 8, omega0=1.0)
    state = hadamard(basis_state(2, 1), 1)  # register |1>, photon |+>
    out = tqh_oracle(clock, state, (0,), 1)
    inv = 1 / np.sqrt(2)
    expected = np.zeros(4, dtype=complex)
    expected[1] = np.exp(1j * 5 * np.pi / 4) * inv
    expected[3] = np.exp(-1j * 5 * np.pi / 4) * inv
    assert np.allclose(out.amps, expected, atol=1e-12)


def test_tqh_oracle_counts_one_query_at_top_rate():
    clock = ClockModel(0.3, 1.0)
    ledger = ResourceLedger()
    state = basis_state(4, 0)
    tqh_oracle(clock, state, range(3), 3, ledger)
    assert ledger.queries_Q == 1
    assert ledger.max_rate_index == 7


def test_fixed_rate_query_matches_z_phase():
    clock = ClockModel(0.13, 1.0)
    state = hadamard(basis_state(1, 0), 0)
    ledger = ResourceLedger()
    out = fixed_rate_query(clock, state, 0, 5, ledger)
    expected = z_phase(state, 0, 2 * np.pi * ((5 * 0.13) % 1.0))
    assert np.allclose(out.amps, expected.amps, atol=1e-12)
    assert ledger.queries_Q == 1
    assert ledger.max_rate_index == 5
    with pytest.raises(ValueError):
        fixed_rate_query(clock, state, 0, -1)
    for rate_index in (2.9, True):
        with pytest.raises(ValueError, match="rate_index"):
            fixed_rate_query(clock, state, 0, rate_index, ResourceLedger())
    assert fixed_rate_query(clock, state, 0, np.int64(5)).amps.tobytes() == out.amps.tobytes()


def test_handshake_rate_zero_leaves_photon_unchanged():
    clock = ClockModel(0.4, 1.0)
    photon = hadamard(basis_state(1, 0), 0)
    record = TransitRecord(t_A=0.0, t_B=3.4, t_tr=3.0)
    out = handshake_simulate(clock, 0, photon, record)
    assert np.allclose(out.amps, photon.amps, atol=0)


def test_handshake_matches_pinned_oracle():
    clock = ClockModel(0.337, 1.0)
    record = TransitRecord(t_A=0.0, t_B=7.837, t_tr=7.5)
    for k in (1, 2, 7, 64):
        photon = hadamard(basis_state(1, 0), 0)
        via_handshake = handshake_simulate(clock, k, photon, record)
        pinned = hadamard(basis_state(8, k), 7)
        pinned = tqh_oracle(clock, pinned, range(7), 7)
        assert np.allclose(
            via_handshake.amps, pinned.amps[[k, k + 128]], atol=1e-12
        )


def test_handshake_output_independent_of_transit_time():
    clock = ClockModel(0.21, 1.0)
    photon = hadamard(basis_state(1, 0), 0)
    short = TransitRecord(t_A=0.0, t_B=0.5 + 0.21, t_tr=0.5)
    long = TransitRecord(t_A=0.0, t_B=9.0 + 0.21, t_tr=9.0)
    a = handshake_simulate(clock, 17, photon, short)
    b = handshake_simulate(clock, 17, photon, long)
    assert np.allclose(a.amps, b.amps, atol=1e-12)


def test_handshake_validation():
    clock = ClockModel(0.4, 1.0)
    photon = hadamard(basis_state(1, 0), 0)
    bad_record = TransitRecord(t_A=0.0, t_B=3.0, t_tr=3.0)  # misses the offset
    with pytest.raises(ValueError):
        handshake_simulate(clock, 1, photon, bad_record)
    with pytest.raises(ValueError):
        handshake_simulate(clock, -1, photon, TransitRecord(0.0, 3.4, 3.0))
    for k in (2.9, True):
        with pytest.raises(ValueError, match="k must"):
            handshake_simulate(clock, k, photon, TransitRecord(0.0, 3.4, 3.0))
    same = handshake_simulate(clock, np.int64(2), photon, TransitRecord(0.0, 3.4, 3.0))
    assert same.amps.tobytes() == handshake_simulate(clock, 2, photon, TransitRecord(0.0, 3.4, 3.0)).amps.tobytes()
    with pytest.raises(ValueError):
        handshake_simulate(clock, 1, basis_state(2, 0), TransitRecord(0.0, 3.4, 3.0))


def test_handshake_tolerance_scales_with_timestamps():
    # at 1e9 s one float step is 1.2e-7 s: rounding alone leaves a -4.8e-8 s gap
    clock = ClockModel(0.25, 1.0)
    photon = hadamard(basis_state(1, 0), 0)
    consistent = TransitRecord(t_A=1e9, t_B=1e9 + 3.3 + 0.25, t_tr=3.3)
    handshake_simulate(clock, 3, photon, consistent)
    off = TransitRecord(t_A=1e9, t_B=1e9 + 3.3 + 0.25 + 1e-6, t_tr=3.3)
    with pytest.raises(ValueError):
        handshake_simulate(clock, 3, photon, off)


def test_handshake_deviation_within_timestamp_rounding_bound():
    # t_B = 1e9 + 3.55 is rounded to 1.2e-7 s, and k * omega0 scales that slip
    clock = ClockModel(0.25, 1.0)
    photon = hadamard(basis_state(1, 0), 0)
    record = TransitRecord(t_A=1e9, t_B=1e9 + 3.3 + 0.25, t_tr=3.3)
    scale = max(abs(record.t_A), abs(record.t_B), record.t_tr)
    for k in (1, 3, 64):
        deviation = np.abs(
            handshake_simulate(clock, k, photon, record).amps
            - fixed_rate_query(clock, photon, 0, k).amps
        ).max()
        bound = 2 * math.pi * k * clock.omega0 * math.ulp(scale)
        # the rounding shows, and stays inside the documented bound
        assert 1e-12 < deviation <= bound, (k, deviation, bound)


def test_make_world_sampler_is_seeded_and_consistent():
    clock, sample = make_world(0.37, 2.0, child_rng(5, 0))
    records = [sample() for _ in range(6)]
    for record in records:
        assert 0.0 <= record.t_tr <= 10.0
        assert abs((record.t_B - record.t_A) - (record.t_tr + 0.37)) < 1e-9
    # same seed replays the same transit times
    _, sample_again = make_world(0.37, 2.0, child_rng(5, 0))
    assert [sample_again().t_tr for _ in range(6)] == [r.t_tr for r in records]
    # a different seed gives a different sequence
    _, sample_other = make_world(0.37, 2.0, child_rng(5, 1))
    assert [sample_other().t_tr for _ in range(6)] != [r.t_tr for r in records]


def test_make_world_validates_interval():
    with pytest.raises(ValueError):
        make_world(0.1, 1.0, child_rng(0), transit_interval=(-1.0, 2.0))
    with pytest.raises(ValueError):
        make_world(0.1, 1.0, child_rng(0), transit_interval=(3.0, 2.0))
