"""Configured experiment scenarios writing delimited results.

Every scenario reads an ExperimentSpec, derives all randomness from the
spec's seed, and writes one UTF-8 CSV file: a metadata block of
``# key = value`` lines echoing the full configuration and scenario
constants, then a header row, then data rows.  Floats are written with
repr so runs with identical specs produce byte-identical files; a one-line
summary goes to stdout.

Scenarios:

* sync: repeated protocol runs against a hidden offset, one row per trial.
* sweep-phi: exact success probability and photon fairness over a phase grid.
* boost: widened-register success floor scan plus a Monte Carlo check at
  the worst grid phase.
* lemma1: unit-rate fringe probabilities over a phase grid, plus sampling
  error of the classical estimator as the shot count grows.
* reduction: handshake-vs-oracle and repeated-unit-rate-vs-direct
  equivalence deviations.
* tradeoff: measured query cost against available rate range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .clock import ClockModel, ResourceLedger, make_world
from .protocol import (
    ProtocolConfig,
    circular_distance,
    photon_zero_probability,
    run_sync,
    success_probability_exact,
)
from .qsim import basis_state, hadamard
from .seeding import child_rng

SCENARIOS = ("sync", "sweep-phi", "boost", "tradeoff", "lemma1", "reduction")

# scenarios that accept a failure budget / an explicit offset
_DELTA_SCENARIOS = ("sync", "boost")
_T_TRUE_SCENARIOS = ("sync", "lemma1")


@dataclass(frozen=True)
class ExperimentSpec:
    """Full configuration of one harness invocation."""

    scenario: str
    n_bits: int = 4
    delta: float | None = None
    omega0: float = 1.0
    t_true: float | None = None
    trials: int = 100
    seed: int = 12345
    output_path: str = "results.csv"

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {', '.join(SCENARIOS)}; got {self.scenario!r}"
            )
        for name, value in (("n", self.n_bits), ("trials", self.trials), ("seed", self.seed)):
            # bool is an int subclass, but True is not a bit count
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n_bits <= 20:
            raise ValueError(f"n must lie in [1, 20], got {self.n_bits}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not (math.isfinite(self.omega0) and self.omega0 > 0):
            raise ValueError(f"omega0 must be positive, got {self.omega0!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.t_true is not None and not math.isfinite(self.t_true):
            raise ValueError("t-true must be finite")
        if self.delta is not None:
            if not (0.0 < self.delta < 0.5):
                raise ValueError(f"delta must lie in (0, 1/2), got {self.delta!r}")
            if self.scenario not in _DELTA_SCENARIOS:
                raise ValueError(
                    f"delta is not meaningful for scenario {self.scenario!r}"
                )
        if self.scenario == "boost" and self.delta is None:
            raise ValueError("scenario boost requires delta")
        if self.t_true is not None and self.scenario not in _T_TRUE_SCENARIOS:
            raise ValueError(
                f"t-true is not meaningful for scenario {self.scenario!r}"
            )


def _scenario_sync(spec: ExperimentSpec):
    config = ProtocolConfig(spec.n_bits, spec.delta)
    n_prime = config.effective_register
    tol = 2.0 ** (-spec.n_bits)
    rows = []
    successes = 0
    for trial in range(spec.trials):
        stream = child_rng(spec.seed, 0, trial)
        if spec.t_true is None:
            t_true = float(stream.random()) / spec.omega0
        else:
            t_true = spec.t_true
        clock = ClockModel(offset_T=t_true, omega0=spec.omega0)
        ledger = ResourceLedger()
        estimate = run_sync(config, clock, stream, ledger)
        phi = clock.phi_star
        success = int(circular_distance(estimate.phase_hat, phi) < tol)
        successes += success
        rows.append(
            (
                trial,
                spec.seed,
                float(phi),
                estimate.photon_bit,
                estimate.raw_m,
                float(estimate.phase_hat),
                float(estimate.T_hat),
                success,
                ledger.queries_Q,
                ledger.max_rate_index,
                float(t_true),
            )
        )
    columns = (
        "trial",
        "seed",
        "phi_true",
        "photon_bit",
        "raw_m",
        "phase_hat",
        "t_hat",
        "success",
        "Q",
        "F",
        "t_true",
    )
    extras = (("n_prime", n_prime),)
    rate = successes / spec.trials
    summary = (
        f"sync: n={spec.n_bits} n_prime={n_prime} trials={spec.trials} "
        f"success_rate={rate:.4f}"
    )
    return columns, rows, extras, summary


def _scenario_sweep_phi(spec: ExperimentSpec):
    n = spec.n_bits
    grid_points = 1 << (n + 4)
    rows = []
    worst = (0.0, math.inf)
    for g in range(grid_points):
        phi = g / grid_points
        p = success_probability_exact(n, phi, n)
        p_zero = photon_zero_probability(n, phi)
        if p < worst[1]:
            worst = (phi, p)
        rows.append((g, float(phi), float(p), float(p_zero)))
    columns = ("grid_index", "phi", "success_prob", "p_photon0")
    extras = (("grid_points", grid_points),)
    floor = 4.0 / math.pi**2
    summary = (
        f"sweep-phi: n={n} grid={grid_points} min_success={worst[1]:.6f} "
        f"at phi={worst[0]:.6f} floor_4_over_pi_sq={floor:.6f}"
    )
    return columns, rows, extras, summary


def _scenario_boost(spec: ExperimentSpec):
    n = spec.n_bits
    config = ProtocolConfig(n, spec.delta)
    n_prime = config.effective_register
    grid_points = 1 << (n + 4)
    rows = []
    worst = (0.0, math.inf)
    for g in range(grid_points):
        phi = g / grid_points
        p = success_probability_exact(n_prime, phi, n)
        if p < worst[1]:
            worst = (phi, p)
        rows.append((g, float(phi), float(p)))
    columns = ("grid_index", "phi", "success_prob")

    tol = 2.0 ** (-n)
    clock = ClockModel(offset_T=worst[0] / spec.omega0, omega0=spec.omega0)
    failures = 0
    for trial in range(spec.trials):
        stream = child_rng(spec.seed, 1, trial)
        estimate = run_sync(config, clock, stream)
        failures += circular_distance(estimate.phase_hat, clock.phi_star) >= tol
    failure_rate = failures / spec.trials
    extras = (("n_prime", n_prime), ("grid_points", grid_points))
    summary = (
        f"boost: n={n} delta={spec.delta} n_prime={n_prime} "
        f"worst_exact_success={worst[1]:.6f} mc_failure_rate={failure_rate:.6f} "
        f"mc_trials={spec.trials}"
    )
    return columns, rows, extras, summary


def _scenario_lemma1(spec: ExperimentSpec):
    from .tradeoff import classical_estimate, single_rate_state

    rows = []
    state_grid = 1000
    max_dev = 0.0
    for g in range(state_grid):
        phi = g / state_grid
        clock = ClockModel(offset_T=phi / spec.omega0, omega0=spec.omega0)
        probs = single_rate_state(clock).probabilities()
        theory0 = math.cos(2.0 * math.pi * phi) ** 2
        dev = max(abs(float(probs[0]) - theory0), abs(float(probs[1]) - (1.0 - theory0)))
        max_dev = max(max_dev, dev)
        rows.append(("state", g, float(phi), float(theory0), float(probs[0]), float(dev), None, None))

    # the unit-rate observable determines the phase only mod 1/2
    if spec.t_true is not None:
        t_true = spec.t_true
    else:
        t_true = (1.0 / 16.0) / spec.omega0
    clock = ClockModel(offset_T=t_true, omega0=spec.omega0)
    phi_b = clock.phi_star
    sample_counts = (100, 1000, 10000, 100000)
    medians = []
    for s_index, samples in enumerate(sample_counts):
        errors = []
        for rep in range(spec.trials):
            stream = child_rng(spec.seed, 2, s_index, rep)
            t_hat, _ = classical_estimate(clock, samples, stream)
            d = abs(t_hat * spec.omega0 - phi_b) % 0.5
            errors.append(min(d, 0.5 - d))
        median = float(np.median(errors))
        medians.append(max(median, 1e-18))
        rows.append(("classical", s_index, float(phi_b), None, None, None, samples, median))

    slope = float(
        np.polyfit(np.log10(sample_counts), np.log10(medians), 1)[0]
    )
    columns = (
        "kind",
        "index",
        "phi",
        "p0_theory",
        "p0_state",
        "deviation",
        "samples",
        "median_abs_err",
    )
    extras = (("state_grid", state_grid), ("sample_counts", " ".join(map(str, sample_counts))))
    summary = (
        f"lemma1: max_state_deviation={max_dev:.3e} classical_slope={slope:.3f} "
        f"phi={phi_b:.6f} reps={spec.trials}"
    )
    return columns, rows, extras, summary


def _scenario_reduction(spec: ExperimentSpec):
    from .clock import fixed_rate_query, handshake_simulate, tqh_oracle
    from .tradeoff import simulate_rate_k_with_unit_rate

    max_k = 64
    reg_bits = max_k.bit_length()  # 7 qubits cover k = 0..64
    rows = []

    pairs = spec.trials
    pair_data = []
    for i in range(pairs):
        stream = child_rng(spec.seed, 3, i)
        T = float(stream.uniform(-2.0, 2.0))
        clock, sample_transit = make_world(T, spec.omega0, stream)
        pair_data.append((clock, sample_transit()))

    overall_handshake = 0.0
    for k in range(1, max_k + 1):
        dev = 0.0
        for clock, transit in pair_data:
            photon = hadamard(basis_state(1, 0), 0)
            via_handshake = handshake_simulate(clock, k, photon, transit)
            pinned = hadamard(basis_state(reg_bits + 1, k), reg_bits)
            pinned = tqh_oracle(clock, pinned, range(reg_bits), reg_bits)
            oracle_amps = pinned.amps[[k, k + (1 << reg_bits)]]
            dev = max(dev, float(np.max(np.abs(via_handshake.amps - oracle_amps))))
        overall_handshake = max(overall_handshake, dev)
        rows.append(("handshake_vs_oracle", k, float(dev)))

    n_phases = 50
    phase_stream = child_rng(spec.seed, 4)
    phases = [float(phase_stream.random()) for _ in range(n_phases)]
    overall_ratek = 0.0
    for k in range(1, max_k + 1):
        dev = 0.0
        for phi in phases:
            clock = ClockModel(offset_T=phi / spec.omega0, omega0=spec.omega0)
            photon = hadamard(basis_state(1, 0), 0)
            repeated = simulate_rate_k_with_unit_rate(clock, k, photon, 0)
            direct = fixed_rate_query(clock, photon, 0, k)
            dev = max(dev, float(np.max(np.abs(repeated.amps - direct.amps))))
        overall_ratek = max(overall_ratek, dev)
        rows.append(("rate_k_vs_direct", k, float(dev)))

    columns = ("check", "k", "max_abs_deviation")
    extras = (("pairs", pairs), ("phases", n_phases), ("max_k", max_k))
    summary = (
        f"reduction: handshake_max_dev={overall_handshake:.3e} "
        f"rate_k_max_dev={overall_ratek:.3e}"
    )
    return columns, rows, extras, summary


def _scenario_tradeoff(spec: ExperimentSpec):
    from .tradeoff import tradeoff_sweep

    n = spec.n_bits
    F_values = [1 << j for j in range(n + 1)]
    points = tradeoff_sweep(n, F_values, spec.trials, child_rng(spec.seed, 5))
    rows = []
    min_fq = math.inf
    implied_c = 0.0
    for point in points:
        fq = point.F * point.Q
        min_fq = min(min_fq, fq)
        implied_c = max(implied_c, n - math.log2(fq))
        rows.append(
            (point.F, point.Q, point.n_bits_achieved, float(point.success_rate), fq)
        )
    columns = ("F", "Q", "n_bits_achieved", "success_rate", "FQ_product")
    extras = (("success_threshold", 0.9), ("trials_per_phase", spec.trials))
    summary = (
        f"tradeoff: n={n} min_FQ={min_fq} implied_c={implied_c:.2f} "
        f"(every F*Q >= 2**(n - c))"
    )
    return columns, rows, extras, summary


_SCENARIO_FUNCS = {
    "sync": _scenario_sync,
    "sweep-phi": _scenario_sweep_phi,
    "boost": _scenario_boost,
    "lemma1": _scenario_lemma1,
    "reduction": _scenario_reduction,
    "tradeoff": _scenario_tradeoff,
}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(spec: ExperimentSpec, extras, columns, rows) -> None:
    lines = [f"# ticksync {__version__}"]
    config_items = (
        ("scenario", spec.scenario),
        ("n", spec.n_bits),
        ("delta", spec.delta),
        ("omega0", spec.omega0),
        ("t_true", spec.t_true),
        ("trials", spec.trials),
        ("seed", spec.seed),
        ("out", spec.output_path),
    )
    for key, value in config_items:
        lines.append(f"# {key} = {_format_cell(value)}")
    for key, value in extras:
        lines.append(f"# {key} = {_format_cell(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    text = "\n".join(lines) + "\n"
    with open(spec.output_path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def run(spec: ExperimentSpec) -> int:
    """Execute one scenario; returns a process exit status.

    Writes the CSV to spec.output_path and prints a one-line summary.  An
    unwritable output path is reported on stderr with status 1.
    """
    columns, rows, extras, summary = _SCENARIO_FUNCS[spec.scenario](spec)
    try:
        _write_csv(spec, extras, columns, rows)
    except OSError as exc:
        print(f"error: cannot write {spec.output_path!r}: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0
