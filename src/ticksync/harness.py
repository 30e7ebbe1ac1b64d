"""Configured experiment scenarios writing delimited results.

Each setting is declared once, as an ExperimentSpec field carrying its key,
text parser and help line; the CLI flags, config-file keys, integer checks
and CSV metadata echo are generated from those fields.  SCENARIOS maps each
scenario name to its function and the optional settings it accepts.  Every
integer setting passes `qsim._count`.  Beyond a normal omega0, the grid-scan
cap and the tradeoff sweep's edge, ExperimentSpec admits by protocol's rules
(`loses_phase_bits` for reduction's handshake too), not its own.

Every scenario derives all randomness from the spec's seed and writes one
UTF-8 CSV file: ``# key = value`` lines echoing the version, the settings in
field order and scenario constants, then a header row, then data rows.
Floats are written with repr so identical specs produce byte-identical
files; a one-line summary goes to stdout.

Scenarios:

* sync: repeated protocol runs against a hidden offset, one row per trial.
* sweep-phi: exact success probability and photon fairness over a phase grid.
* boost: widened-register success floor scan, on phases half a register bin
  off the register grid, plus a Monte Carlo check at the worst of them.
* lemma1: unit-rate fringe probabilities over a phase grid, plus sampling
  error of the classical estimator as the shot count grows.
* reduction: handshake-vs-oracle and repeated-unit-rate-vs-direct
  equivalence deviations.
* tradeoff: measured query cost against available rate range.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import __version__
from .clock import (
    ClockModel, ResourceLedger, _frac, fixed_rate_query, handshake_simulate, make_world, tqh_oracle
)
from .protocol import (
    ProtocolConfig, loses_phase_bits, photon_zero_probability, run_sync,
    success_probability_exact, within_precision,
)
from .qsim import _count, basis_state, hadamard
from .seeding import child_rng
from .tradeoff import (
    SUCCESS_THRESHOLD, classical_estimate, simulate_rate_k_with_unit_rate, single_rate_state,
    tradeoff_sweep,
)

# sweep-phi and boost scan 2**(n + _GRID_BITS) phases, 16 per n-bit grid cell
_GRID_BITS = 4

# Most values a sweep-phi or boost grid scan may compute: per phase, sweep-phi
# builds one 2**(n + 1)-amplitude state for p_photon0 (n <= 9), and boost is
# charged 2**(n' - n + 1).  boost's edge, n' <= 19, now bounds its Monte Carlo
# width and 2**(n + 4) rows, not its scan, which scores one n-bit cell.
MAX_GRID_SCAN_AMPLITUDES = 1 << 24

# Widest tradeoff sweep: its time grows two- to threefold per bit (20 trials,
# seed 1, 2-vCPU VM: 3.6 s at n = 8, 25 s at n = 10, of which the exact F = 1
# row, up to 2**16 samples, takes 0.6 s), so n = 20 would take days.
MAX_TRADEOFF_BITS = 10


def _setting(key: str, parse, text: str, default=MISSING):
    """A spec field read as ``--key`` (``_`` becomes ``-``) and as config and CSV
    key ``key``; ``parse`` reads its text, ``text`` is its help line."""
    if default not in (None, MISSING):
        text += f" (default {default})"
    return field(default=default, metadata={"key": key, "parse": parse, "help": text})


@dataclass(frozen=True)
class ExperimentSpec:
    """Full configuration of one harness invocation, one field per setting."""

    scenario: str = _setting("scenario", str, "experiment to run")
    n_bits: int = _setting("n", int, "target precision in bits", 4)
    delta: float | None = _setting("delta", float, "failure budget in (0, 1/2)", None)
    omega0: float = _setting("omega0", float, "tick frequency", 1.0)
    t_true: float | None = _setting("t_true", float, "true clock offset in seconds", None)
    trials: int = _setting("trials", int, "repetitions", 100)
    seed: int = _setting("seed", int, "root RNG seed", 12345)
    output_path: str = _setting("out", str, "output CSV path", "results.csv")

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(
                f"scenario must be one of {', '.join(SCENARIOS)}; got {self.scenario!r}"
            )
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            if f.metadata["parse"] is int:  # a seed may be 0; n and trials start at 1
                _count(key, value, 0 if key == "seed" else 1)
            # optional settings (default None) apply only where SCENARIOS accepts them
            if f.default is None and value is not None and f.name not in SCENARIOS[self.scenario][1]:
                raise ValueError(
                    f"{key.replace('_', '-')} is not meaningful for scenario {self.scenario!r}"
                )
        if self.n_bits > 20:
            raise ValueError(f"n must lie in [1, 20], got {self.n_bits}")
        # a subnormal omega0 overflows phase / omega0, the offset of a phase near 1
        if not (math.isfinite(self.omega0) and self.omega0 >= sys.float_info.min):
            raise ValueError(f"omega0 must be finite and at least {sys.float_info.min!r}, got {self.omega0!r}")
        if self.t_true is not None and not math.isfinite(self.t_true):
            raise ValueError("t-true must be finite")
        # reduction's 7-qubit handshake turns omega0 * t, |t| <= 12 s: T in [-2, 2] plus 10 s of transit
        if self.scenario == "reduction" and loses_phase_bits(self.omega0 * 12.0, 7):
            raise ValueError(f"omega0={self.omega0!r} leaves reduction's handshake phases "
                             "too few fractional bits")
        if self.scenario == "boost" and self.delta is None:
            raise ValueError("scenario boost requires delta")
        n_prime = ProtocolConfig(self.n_bits, self.delta).effective_register
        if self.t_true is not None and loses_phase_bits(self.omega0 * self.t_true, n_prime):
            raise ValueError(f"t-true={self.t_true!r} is too far from 0: omega0 * t-true keeps "
                             f"too few fractional bits for the {n_prime}-qubit register")
        per_phase = n_prime - self.n_bits if self.scenario == "boost" else self.n_bits
        values = 1 << (self.n_bits + _GRID_BITS + per_phase + 1)
        if self.scenario in ("sweep-phi", "boost") and values > MAX_GRID_SCAN_AMPLITUDES:
            raise ValueError(f"n={self.n_bits} makes the {self.scenario} grid scan compute "
                             f"{values} values, more than {MAX_GRID_SCAN_AMPLITUDES}")
        if self.scenario == "tradeoff" and self.n_bits > MAX_TRADEOFF_BITS:
            raise ValueError(f"n={self.n_bits} is past the tradeoff sweep's edge, n <= {MAX_TRADEOFF_BITS}")


def _scenario_sync(spec: ExperimentSpec):
    config = ProtocolConfig(spec.n_bits, spec.delta)
    n_prime = config.effective_register
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
        success = int(within_precision(estimate.phase_hat, phi, spec.n_bits))
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


def _grid_scan(n_prime: int, n_bits: int, shift: float = 0.0):
    """Phases g / 2**(n_bits + _GRID_BITS) + shift mod 1 and their exact success.
    Success repeats bit for bit every 2**-n_bits, where N * phi moves by an
    integer, so the first n-bit cell's 16 phases are scored and tiled."""
    grid_points = 1 << (n_bits + _GRID_BITS)
    phis = _frac(np.arange(grid_points) / grid_points + shift)
    cell = success_probability_exact(n_prime, phis[: 1 << _GRID_BITS], n_bits)
    return phis, np.tile(cell, 1 << n_bits)


def _scenario_sweep_phi(spec: ExperimentSpec):
    n = spec.n_bits
    phis, probs = _grid_scan(n, n)
    worst_phi, worst_p = phis[np.argmin(probs)], probs.min()
    rows = [
        (g, phi, p, photon_zero_probability(n, phi))
        for g, (phi, p) in enumerate(zip(phis.tolist(), probs.tolist()))
    ]
    columns = ("grid_index", "phi", "success_prob", "p_photon0")
    extras = (("grid_points", phis.size),)
    floor = 4.0 / math.pi**2
    summary = (
        f"sweep-phi: n={n} grid={phis.size} min_success={worst_p:.6f} "
        f"at phi={worst_phi:.6f} floor_4_over_pi_sq={floor:.6f}"
    )
    return columns, rows, extras, summary


def _scenario_boost(spec: ExperimentSpec):
    n = spec.n_bits
    config = ProtocolConfig(n, spec.delta)
    n_prime = config.effective_register
    # the estimate is exact on the n'-bit register grid: scan half a bin off it
    phis, probs = _grid_scan(n_prime, n, 2.0 ** -(n_prime + 1))
    worst_phi, worst_p = float(phis[np.argmin(probs)]), probs.min()
    rows = list(zip(range(phis.size), phis.tolist(), probs.tolist()))
    columns = ("grid_index", "phi", "success_prob")

    clock = ClockModel(offset_T=worst_phi / spec.omega0, omega0=spec.omega0)
    failures = 0
    for trial in range(spec.trials):
        stream = child_rng(spec.seed, 1, trial)
        estimate = run_sync(config, clock, stream)
        failures += not within_precision(estimate.phase_hat, clock.phi_star, n)
    failure_rate = failures / spec.trials
    extras = (("n_prime", n_prime), ("grid_points", phis.size))
    summary = (
        f"boost: n={n} delta={spec.delta} n_prime={n_prime} "
        f"worst_exact_success={worst_p:.6f} mc_failure_rate={failure_rate:.6f} "
        f"mc_trials={spec.trials}"
    )
    return columns, rows, extras, summary


def _scenario_lemma1(spec: ExperimentSpec):
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

    photon = hadamard(basis_state(1, 0), 0)
    overall_handshake = 0.0
    for k in range(1, max_k + 1):
        pinned = hadamard(basis_state(reg_bits + 1, k), reg_bits)
        dev = 0.0
        for clock, transit in pair_data:
            via_handshake = handshake_simulate(clock, k, photon, transit)
            queried = tqh_oracle(clock, pinned, range(reg_bits), reg_bits)
            oracle_amps = queried.amps[[k, k + (1 << reg_bits)]]
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
    n = spec.n_bits
    F_values = [1 << j for j in range(n + 1)]
    points = tradeoff_sweep(n, F_values, spec.trials, child_rng(spec.seed, 5))
    rows = []
    min_fq = math.inf
    implied_c = 0.0
    for point in points:
        fq = point.F * point.Q
        # a row that missed the threshold did not buy n bits with its queries;
        # the F = 2**n row always meets it, so both values stay defined
        if point.success_rate >= SUCCESS_THRESHOLD:
            min_fq = min(min_fq, fq)
            implied_c = max(implied_c, n - math.log2(fq))
        rows.append(
            (point.F, point.Q, point.n_bits_achieved, float(point.success_rate), fq)
        )
    columns = ("F", "Q", "n_bits_achieved", "success_rate", "FQ_product")
    extras = (("success_threshold", SUCCESS_THRESHOLD), ("trials_per_phase", spec.trials))
    summary = (
        f"tradeoff: n={n} min_FQ={min_fq} implied_c={implied_c:.2f} "
        f"(every F*Q >= 2**(n - c))"
    )
    return columns, rows, extras, summary


# name -> (scenario function, the optional settings it accepts)
SCENARIOS = {
    "sync": (_scenario_sync, ("delta", "t_true")),
    "sweep-phi": (_scenario_sweep_phi, ()),
    "boost": (_scenario_boost, ("delta",)),
    "tradeoff": (_scenario_tradeoff, ()),
    "lemma1": (_scenario_lemma1, ("t_true",)),
    "reduction": (_scenario_reduction, ()),
}


def _format_cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()  # numpy scalars write as their Python values
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):  # bool as 0 or 1
        return str(int(value))
    return str(value)


def _write_csv(spec: ExperimentSpec, extras, columns, rows) -> None:
    settings = [(f.metadata["key"], getattr(spec, f.name)) for f in fields(spec)]
    header = [f"# ticksync {__version__}"]
    header += [f"# {key} = {_format_cell(value)}" for key, value in [*settings, *extras]]
    header.append(",".join(columns))
    # each row goes to the file as it is formatted; the text is never held whole
    with open(spec.output_path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(line + "\n" for line in header)
        handle.writelines(",".join(map(_format_cell, row)) + "\n" for row in rows)


def run(spec: ExperimentSpec) -> int:
    """Execute one scenario; returns a process exit status.

    Writes the CSV to spec.output_path and prints a one-line summary.  An
    unwritable output path is reported on stderr with status 1.
    """
    columns, rows, extras, summary = SCENARIOS[spec.scenario][0](spec)
    try:
        _write_csv(spec, extras, columns, rows)
    except OSError as exc:
        print(f"error: cannot write {spec.output_path!r}: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0
