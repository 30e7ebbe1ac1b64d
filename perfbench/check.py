"""Correctness gate for one scenario CSV, against references written here.

Nothing here imports ticksync.  The success probability comes from the
phase-estimation (Fejer) kernel |sin(pi*N*d) / (N*sin(pi*d))|**2, summed over
the register values m whose nearest n-bit fraction lies strictly within
2**-n of the phase, so a wrong fast path in the program cannot agree with
itself.  Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

SWEEP_TOL = 1e-12
TRADEOFF_THRESHOLD = 0.9


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a ticksync CSV into (metadata, header, rows)."""
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# ") and " = " in line:
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif not line.startswith("#"):
            body.append(line.split(","))
    return meta, body[0], body[1:]


def nearest_grid_index(m: np.ndarray, n_prime: int, n_bits: int) -> np.ndarray:
    """Nearest n_bits-bit grid index to m / 2**n_prime, ties to the smaller.

    ceil(x - 1/2) with x = m / 2**s, written as -floor((2**s - 2m) / 2**(s+1)).
    """
    s = n_prime - n_bits
    return (-((2**s - 2 * m) // 2 ** (s + 1))) % (1 << n_bits)


def circular_distance(a, b):
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def success_probability(n_prime: int, n_bits: int, phis) -> np.ndarray:
    """Exact success probability at each phase, from the Fejer kernel."""
    phis = np.asarray(phis, dtype=np.float64)
    size = 1 << n_prime
    m = np.arange(size)
    grid = nearest_grid_index(m, n_prime, n_bits) / float(1 << n_bits)
    out = np.empty(phis.size)
    step = max(1, (1 << 20) // size)
    for lo in range(0, phis.size, step):
        phi = phis[lo : lo + step, None]
        d = phi - m[None, :] / size
        den = size * np.sin(np.pi * d)
        on_peak = np.abs(den) < 1e-12
        weight = np.where(
            on_peak, 1.0, (np.sin(np.pi * size * d) / np.where(on_peak, 1.0, den)) ** 2
        )
        hit = circular_distance(grid[None, :], phi) < 2.0 ** (-n_bits)
        out[lo : lo + step] = np.sum(weight * hit, axis=1)
    return out


def _check_meta(meta, expected: dict[str, object]) -> list[str]:
    return [
        f"metadata {key} = {meta.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if meta.get(key) != str(value)
    ]


def check_sync(text: str, n_bits: int, n_prime: int, trials: int, seed: int) -> list[str]:
    """One query per row at rate 2**n' - 1, decoding and success consistent
    with each row, and a success rate within 4 sigma of the exact mean."""
    meta, header, rows = parse_csv(text)
    problems = _check_meta(
        meta, {"scenario": "sync", "n": n_bits, "trials": trials, "seed": seed, "n_prime": n_prime}
    )
    if len(rows) != trials:
        return problems + [f"{len(rows)} rows, expected {trials}"]
    col = {name: i for i, name in enumerate(header)}
    phi = np.array([float(r[col["phi_true"]]) for r in rows])
    raw_m = np.array([int(r[col["raw_m"]]) for r in rows])
    phase_hat = np.array([float(r[col["phase_hat"]]) for r in rows])
    success = np.array([int(r[col["success"]]) for r in rows])
    if any(r[col["Q"]] != "1" for r in rows):
        problems.append("a sync row spent more than one query")
    if any(int(r[col["F"]]) != (1 << n_prime) - 1 for r in rows):
        problems.append(f"a sync row's max rate index is not 2**{n_prime} - 1")
    decoded = nearest_grid_index(raw_m, n_prime, n_bits) / float(1 << n_bits)
    if not np.array_equal(decoded, phase_hat):
        problems.append("phase_hat does not decode raw_m")
    if not np.array_equal(success, circular_distance(phase_hat, phi) < 2.0 ** (-n_bits)):
        problems.append("success column disagrees with phase_hat and phi_true")
    p = success_probability(n_prime, n_bits, phi)
    sigma = math.sqrt(max(float(np.sum(p * (1.0 - p))), 1e-12)) / trials
    rate, expected = success.mean(), p.mean()
    if abs(rate - expected) > 4.0 * sigma:
        problems.append(f"success rate {rate} is not within 4 sigma of exact mean {expected}")
    return problems


def check_sweep_phi(text: str, n_bits: int) -> list[str]:
    """Every grid phase's exact success within 1e-12 of the closed form and
    photon-zero probability within 1e-12 of 1/2."""
    meta, header, rows = parse_csv(text)
    grid_points = 1 << (n_bits + 4)
    problems = _check_meta(meta, {"scenario": "sweep-phi", "n": n_bits, "grid_points": grid_points})
    if len(rows) != grid_points:
        return problems + [f"{len(rows)} rows, expected {grid_points}"]
    col = {name: i for i, name in enumerate(header)}
    phi = np.array([float(r[col["phi"]]) for r in rows])
    if not np.array_equal(phi, np.arange(grid_points) / grid_points):
        problems.append("phi column is not the uniform grid")
    prob = np.array([float(r[col["success_prob"]]) for r in rows])
    p_zero = np.array([float(r[col["p_photon0"]]) for r in rows])
    worst = float(np.max(np.abs(prob - success_probability(n_bits, n_bits, phi))))
    if not worst <= SWEEP_TOL:
        problems.append(f"success_prob is {worst:.3e} from the closed form")
    worst = float(np.max(np.abs(p_zero - 0.5)))
    if not worst <= SWEEP_TOL:
        problems.append(f"p_photon0 is {worst:.3e} from 1/2")
    return problems


def check_tradeoff(text: str, n_bits: int, trials: int) -> list[str]:
    """One row per F = 1, 2, ..., 2**n; Q = 1 at F = 2**n; every row reaches
    the 0.9 success threshold; FQ_product = F * Q."""
    meta, header, rows = parse_csv(text)
    problems = _check_meta(meta, {"scenario": "tradeoff", "n": n_bits, "trials_per_phase": trials})
    col = {name: i for i, name in enumerate(header)}
    F = [int(r[col["F"]]) for r in rows]
    Q = [int(r[col["Q"]]) for r in rows]
    if F != [1 << j for j in range(n_bits + 1)]:
        return problems + [f"F column {F} is not 1, 2, ..., 2**{n_bits}"]
    if Q[-1] != 1:
        problems.append(f"Q = {Q[-1]} at F = 2**{n_bits}, expected 1")
    if any(float(r[col["success_rate"]]) < TRADEOFF_THRESHOLD for r in rows):
        problems.append(f"a row's success_rate is below {TRADEOFF_THRESHOLD}")
    if any(int(r[col["FQ_product"]]) != f * q for r, f, q in zip(rows, F, Q)):
        problems.append("FQ_product is not F * Q")
    return problems


def tradeoff_final_level_queries(text: str, n_bits: int, trials: int) -> int:
    """Queries spent in the final escalation level of every F.

    The final level scores `trials` estimates at every probed grid phase,
    each costing the row's Q: 2**n phases for F >= 2 and, since the F = 1
    estimator only resolves phases mod 1/2, 2**(n-1) phases for F = 1.
    """
    _, header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    total = 0
    for r in rows:
        phases = 1 << (n_bits - 1) if r[col["F"]] == "1" else 1 << n_bits
        total += int(r[col["Q"]]) * trials * phases
    return total
