"""Configured experiment scenarios writing delimited results.

Each setting is declared once, as an ExperimentSpec field carrying its key,
text parser and help line; the CLI flags, config-file keys, integer checks
and CSV metadata echo are generated from those fields.  SCENARIOS maps each
scenario name to its function, the optional settings it accepts and the
widest register n' it serves.  Every integer setting passes `qsim._count`.
Beyond a normal omega0 and that one register edge, ExperimentSpec admits by
protocol's rules (`loses_phase_bits` for reduction's handshake too), not its
own.

Every scenario derives all randomness from the spec's seed and returns
``(table, extras, summary)``: ``table`` maps each column name, in header
order, to its column (a list, a range or a numpy array, None for an empty
cell), ``extras`` are the scenario's constants and ``summary`` is the line
printed to stdout.  One UTF-8 CSV file is written: ``# key = value`` lines
echoing the version, the settings in field order and the extras, then a
header row of the table's names, then its rows, each streamed to the file
as it is formatted.  Floats are written with repr so identical specs
produce byte-identical files.

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
    MAX_REGISTER_QUBITS, ProtocolConfig, loses_phase_bits, photon_zero_probability, run_sync,
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
        edge = SCENARIOS[self.scenario][2]
        if n_prime > edge:
            widened = "" if self.delta is None else f" with delta={self.delta!r}"
            raise ValueError(f"{self.scenario} serves registers up to {edge} qubits; "
                             f"n={self.n_bits}{widened} needs {n_prime}")
        if self.t_true is not None and loses_phase_bits(self.omega0 * self.t_true, n_prime):
            raise ValueError(f"t-true={self.t_true!r} is too far from 0: omega0 * t-true keeps "
                             f"too few fractional bits for the {n_prime}-qubit register")


def _scenario_sync(spec: ExperimentSpec):
    config = ProtocolConfig(spec.n_bits, spec.delta)
    n_prime = config.effective_register
    t_trues, phis, ledgers, estimates = [], [], [], []
    for trial in range(spec.trials):
        stream = child_rng(spec.seed, 0, trial)
        t_true = float(stream.random()) / spec.omega0 if spec.t_true is None else float(spec.t_true)
        clock = ClockModel(offset_T=t_true, omega0=spec.omega0)
        t_trues.append(t_true)
        ledgers.append(ResourceLedger())
        estimates.append(run_sync(config, clock, stream, ledgers[-1]))
        phis.append(clock.phi_star)
    table = {
        "trial": range(spec.trials),
        "seed": [spec.seed] * spec.trials,
        "phi_true": phis,
        "photon_bit": [e.photon_bit for e in estimates],
        "raw_m": [e.raw_m for e in estimates],
        "phase_hat": [e.phase_hat for e in estimates],
        "t_hat": [e.T_hat for e in estimates],
        "success": [int(within_precision(e.phase_hat, phi, spec.n_bits)) for e, phi in zip(estimates, phis)],
        "Q": [ledger.queries_Q for ledger in ledgers],
        "F": [ledger.max_rate_index for ledger in ledgers],
        "t_true": t_trues,
    }
    extras = (("n_prime", n_prime),)
    rate = sum(table["success"]) / spec.trials
    summary = (
        f"sync: n={spec.n_bits} n_prime={n_prime} trials={spec.trials} "
        f"success_rate={rate:.4f}"
    )
    return table, extras, summary


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
    table = {
        "grid_index": range(phis.size),
        "phi": phis,
        "success_prob": probs,
        "p_photon0": [photon_zero_probability(n, phi) for phi in phis.tolist()],
    }
    extras = (("grid_points", phis.size),)
    floor = 4.0 / math.pi**2
    summary = (
        f"sweep-phi: n={n} grid={phis.size} min_success={worst_p:.6f} "
        f"at phi={worst_phi:.6f} floor_4_over_pi_sq={floor:.6f}"
    )
    return table, extras, summary


def _scenario_boost(spec: ExperimentSpec):
    n = spec.n_bits
    config = ProtocolConfig(n, spec.delta)
    n_prime = config.effective_register
    # the estimate is exact on the n'-bit register grid: scan half a bin off it
    phis, probs = _grid_scan(n_prime, n, 2.0 ** -(n_prime + 1))
    worst_phi, worst_p = float(phis[np.argmin(probs)]), probs.min()
    table = {"grid_index": range(phis.size), "phi": phis, "success_prob": probs}

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
    return table, extras, summary


def _scenario_lemma1(spec: ExperimentSpec):
    state_grid = 1000
    state_phis = [g / state_grid for g in range(state_grid)]
    theory = np.array([math.cos(2.0 * math.pi * phi) ** 2 for phi in state_phis])
    probs = np.array([
        single_rate_state(ClockModel(offset_T=phi / spec.omega0, omega0=spec.omega0)).probabilities()
        for phi in state_phis
    ])
    devs = np.maximum(np.abs(probs[:, 0] - theory), np.abs(probs[:, 1] - (1.0 - theory)))

    # the unit-rate observable determines the phase only mod 1/2
    t_true = (1.0 / 16.0) / spec.omega0 if spec.t_true is None else spec.t_true
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
        medians.append(float(np.median(errors)))

    slope = float(
        np.polyfit(np.log10(sample_counts), np.log10(np.maximum(medians, 1e-18)), 1)[0]
    )
    # state rows, then classical rows: each kind leaves the other's columns empty
    state_pad, classical_pad = [None] * state_grid, [None] * len(sample_counts)
    table = {
        "kind": ["state"] * state_grid + ["classical"] * len(sample_counts),
        "index": [*range(state_grid), *range(len(sample_counts))],
        "phi": state_phis + [phi_b] * len(sample_counts),
        "p0_theory": [*theory, *classical_pad],
        "p0_state": [*probs[:, 0], *classical_pad],
        "deviation": [*devs, *classical_pad],
        "samples": state_pad + list(sample_counts),
        "median_abs_err": state_pad + medians,
    }
    extras = (("state_grid", state_grid), ("sample_counts", " ".join(map(str, sample_counts))))
    summary = (
        f"lemma1: max_state_deviation={devs.max():.3e} classical_slope={slope:.3f} "
        f"phi={phi_b:.6f} reps={spec.trials}"
    )
    return table, extras, summary


def _scenario_reduction(spec: ExperimentSpec):
    max_k = 64
    reg_bits = max_k.bit_length()  # 7 qubits cover k = 0..64
    ks = range(1, max_k + 1)

    pairs = spec.trials
    pair_data = []
    for i in range(pairs):
        stream = child_rng(spec.seed, 3, i)
        T = float(stream.uniform(-2.0, 2.0))
        clock, sample_transit = make_world(T, spec.omega0, stream)
        pair_data.append((clock, sample_transit()))
    # handshake_simulate's bound at rate k, max over pairs: 2*pi*k*(omega0*ulp(max |t|) + 2**-52)
    ulp_t = max(math.ulp(max(abs(r.t_A), abs(r.t_B), r.t_tr)) for _, r in pair_data)
    bounds = [2.0 * math.pi * k * (spec.omega0 * ulp_t + 2.0**-52) for k in ks]

    photon = hadamard(basis_state(1, 0), 0)
    handshake_devs = []
    for k in ks:
        pinned = hadamard(basis_state(reg_bits + 1, k), reg_bits)
        dev = 0.0
        for clock, transit in pair_data:
            via_handshake = handshake_simulate(clock, k, photon, transit)
            queried = tqh_oracle(clock, pinned, range(reg_bits), reg_bits)
            oracle_amps = queried.amps[[k, k + (1 << reg_bits)]]
            dev = max(dev, float(np.max(np.abs(via_handshake.amps - oracle_amps))))
        handshake_devs.append(dev)

    n_phases = 50
    phase_stream = child_rng(spec.seed, 4)
    phases = [float(phase_stream.random()) for _ in range(n_phases)]
    ratek_devs = []
    for k in ks:
        dev = 0.0
        for phi in phases:
            clock = ClockModel(offset_T=phi / spec.omega0, omega0=spec.omega0)
            repeated = simulate_rate_k_with_unit_rate(clock, k, photon, 0)
            direct = fixed_rate_query(clock, photon, 0, k)
            dev = max(dev, float(np.max(np.abs(repeated.amps - direct.amps))))
        ratek_devs.append(dev)

    table = {
        "check": ["handshake_vs_oracle"] * max_k + ["rate_k_vs_direct"] * max_k,
        "k": [*ks, *ks],
        "max_abs_deviation": handshake_devs + ratek_devs,
    }
    extras = (("pairs", pairs), ("phases", n_phases), ("max_k", max_k))
    # each k's bound grows as k, so the worst k over its bound has the largest dev / k
    over = [(dev / k, k) for k, dev, bound in zip(ks, handshake_devs, bounds) if dev > bound]
    worst = f" handshake_over_bound_at_k={max(over)[1]}" if over else ""
    summary = (
        f"reduction: handshake_max_dev={max(handshake_devs):.3e} "
        f"handshake_bound={bounds[-1]:.3e}{worst} rate_k_max_dev={max(ratek_devs):.3e}"
    )
    return table, extras, summary


def _scenario_tradeoff(spec: ExperimentSpec):
    n = spec.n_bits
    F_values = [1 << j for j in range(n + 1)]
    points = tradeoff_sweep(n, F_values, spec.trials, child_rng(spec.seed, 5))
    table = {
        "F": [point.F for point in points],
        "Q": [point.Q for point in points],
        "n_bits_achieved": [point.n_bits_achieved for point in points],
        "success_rate": [point.success_rate for point in points],
        "FQ_product": [point.F * point.Q for point in points],
    }
    # a row that missed the threshold did not buy n bits with its queries;
    # the F = 2**n row always meets it, so both values stay defined
    met = [fq for fq, point in zip(table["FQ_product"], points) if point.success_rate >= SUCCESS_THRESHOLD]
    min_fq = min(met)
    implied_c = max(n - math.log2(fq) for fq in met)
    extras = (("success_threshold", SUCCESS_THRESHOLD), ("trials_per_phase", spec.trials))
    summary = (
        f"tradeoff: n={n} min_FQ={min_fq} implied_c={implied_c:.2f} "
        f"(every F*Q >= 2**(n - c))"
    )
    return table, extras, summary


# name -> (scenario function, the optional settings it accepts, the widest
# register n' it serves, n or n widened by delta).  At each edge, whole CLI
# runs on a 2-vCPU VM: sweep-phi (a 2**(n + 1)-amplitude state per phase)
# 0.6 s and 31 MiB at n = 9; boost 2.7 s and 96 MiB for --n 15 --delta 0.05
# --trials 20, 4.1-4.5 s and 120 MiB for the 2**21 rows of --n 17 --delta
# 0.25 --trials 5; tradeoff (two- to threefold per bit) 14.6 s and 47 MiB at
# n = 10, 20 trials; sync at MAX_REGISTER_QUBITS, which ProtocolConfig
# refuses past, 132 MiB at n' = 20 and 420 MiB at 22 (one trial); lemma1 and
# reduction do not read n.
SCENARIOS = {
    "sync": (_scenario_sync, ("delta", "t_true"), MAX_REGISTER_QUBITS),
    "sweep-phi": (_scenario_sweep_phi, (), 9),
    "boost": (_scenario_boost, ("delta",), 19),
    "tradeoff": (_scenario_tradeoff, (), 10),
    "lemma1": (_scenario_lemma1, ("t_true",), MAX_REGISTER_QUBITS),
    "reduction": (_scenario_reduction, (), MAX_REGISTER_QUBITS),
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


def _write_csv(spec: ExperimentSpec, extras, table) -> None:
    settings = [(f.metadata["key"], getattr(spec, f.name)) for f in fields(spec)]
    header = [f"# ticksync {__version__}"]
    header += [f"# {key} = {_format_cell(value)}" for key, value in [*settings, *extras]]
    header.append(",".join(table))
    # one formatter per column, picked once: a float array's elements write as the
    # repr of their Python floats, a range's ints as str, any other column cell by cell
    cells = [
        map(repr, map(float, column)) if isinstance(column, np.ndarray) and column.dtype.kind == "f"
        else map(str, column) if isinstance(column, range)
        else map(_format_cell, column)
        for column in table.values()
    ]
    # each row goes to the file as it is formatted; the text is never held
    # whole, and a short column raises rather than truncating the table
    with open(spec.output_path, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(line + "\n" for line in header)
        handle.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def run(spec: ExperimentSpec) -> int:
    """Execute one scenario; returns a process exit status.

    Writes the CSV to spec.output_path and prints a one-line summary.  An
    unwritable output path is reported on stderr with status 1.
    """
    table, extras, summary = SCENARIOS[spec.scenario][0](spec)
    try:
        _write_csv(spec, extras, table)
    except OSError as exc:
        print(f"error: cannot write {spec.output_path!r}: {exc}", file=sys.stderr)
        return 1
    print(summary)
    return 0
