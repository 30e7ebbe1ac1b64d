"""ticksync benchmark: scenario batch jobs, end-to-end and per-layer metrics.

Usage (from the root of a ticksync checkout):

    python3 perfbench/run.py --workload sync-small --seed 1 --seconds 15 --trace 0

Each job is one scenario run in a fresh Python process (perfbench/job.py),
as a user runs the CLI: one caller, a closed loop, one job at a time.  A run
starts with one discarded warm-up job, then repeats the same job until
--seconds have passed and reports medians over the measured jobs.  Every
job's CSV goes through the correctness gate in check.py, and every job in a
run must write the same bytes, since they share one spec.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates traced and
untraced jobs and reports the per-layer metrics of the traced ones (see
tracer.py), plus trace.overhead_ratio, traced over untraced wall time.

The last line of stdout is one JSON object: correct, attempted, failed (jobs
that crashed, failed the gate or wrote different bytes; error_rate is
failed / attempted) and metrics.  The lines before it record the machine.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import check  # perfbench/ is on sys.path as the script's directory

JOB = Path(__file__).resolve().parent / "job.py"
# the whole run, warm-up and trailing job included, stays under this
RUN_BUDGET_S = 170.0


@dataclass(frozen=True)
class Workload:
    """One fixed ticksync spec; only the seed comes from the command line."""

    scenario: str
    n_bits: int
    trials: int
    delta: float | None = None
    # register width the spec implies: n, or n + ceil(log2(2 + 1/(2*delta)))
    n_prime: int | None = None

    def cli_args(self, seed: int, out: str) -> list[str]:
        args = ["--scenario", self.scenario, "--n", str(self.n_bits), "--trials", str(self.trials)]
        if self.delta is not None:
            args += ["--delta", repr(self.delta)]
        return args + ["--seed", str(seed), "--out", out]

    @property
    def units(self) -> int:
        """Requested work: sync trials, sweep-phi grid phases, or tradeoff
        trials times grid phases summed over F = 1, 2, ..., 2**n."""
        if self.scenario == "sync":
            return self.trials
        if self.scenario == "sweep-phi":
            return 1 << (self.n_bits + 4)
        return self.trials * ((1 << (self.n_bits - 1)) + self.n_bits * (1 << self.n_bits))

    def check(self, text: str, seed: int) -> list[str]:
        if self.scenario == "sync":
            return check.check_sync(text, self.n_bits, self.n_prime, self.trials, seed)
        if self.scenario == "sweep-phi":
            return check.check_sweep_phi(text, self.n_bits)
        return check.check_tradeoff(text, self.n_bits, self.trials)


# Why each workload is here is in README.md.  Sizes keep a job near one
# second, so a run holds many jobs.  Only sync-boosted and tradeoff are in
# BENCHMARK.json: where job times drift by 20% over seconds, as on a 2-vCPU
# VM, the run budget allows steady medians for two workloads only; the
# other two run by name.
WORKLOADS = {
    "sync-small": Workload("sync", 4, 1500, n_prime=4),
    "sync-boosted": Workload("sync", 10, 60, delta=0.05, n_prime=14),
    "sweep-phi": Workload("sweep-phi", 7, 1),
    "tradeoff": Workload("tradeoff", 4, 20),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "clock.queries":
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".us_p50", ".us_p99")):
        return "us"
    return {
        "qsim.max_qubits": "qubits",
        "clock.max_rate_index": "index",
        "tradeoff.useful_query_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    }.get(name, "bytes")


def machine_facts() -> dict:
    """nproc, Python, numpy, BLAS and its thread count, and cache sizes."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    libc = ctypes.CDLL(None)
    # glibc's _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE
    caches = {level: libc.sysconf(code) for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(numpy),
        "blas_threads_pinned": False,
        "cache_bytes": caches,
    }


def blas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, None if not found."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def run_job(workload: Workload, seed: int, out: str, trace: bool, deadline: float) -> dict:
    """Run one job; returns its timings, CSV bytes and gate problems."""
    cmd = [sys.executable, str(JOB), "--trace", str(int(trace)), "--", *workload.cli_args(seed, out)]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(1.0, deadline - spawned_at)
        )
    except subprocess.TimeoutExpired:
        return {"problems": ["job timed out"]}
    if proc.returncode != 0:
        return {"problems": [f"job exited {proc.returncode}: {proc.stderr.strip()[-500:]}"]}
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["scenario_at"] - spawned_at
    result["csv"] = Path(out).read_bytes()
    try:
        result["problems"] = workload.check(result["csv"].decode("utf-8"), seed)
    except (ValueError, IndexError, KeyError) as exc:
        result["problems"] = [f"CSV does not parse: {exc!r}"]
    if result["status"] != 0:
        result["problems"].append(f"harness.run returned {result['status']}")
    return result


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(workload: Workload, jobs: list[dict]) -> dict[str, float]:
    return {
        "setup_s": median(j["setup_s"] for j in jobs),
        "wall_s": median(j["wall_s"] for j in jobs),
        "units_per_s": median(workload.units / j["wall_s"] for j in jobs),
        "peak_rss_mb": median(j["peak_rss_mb"] for j in jobs),
    }


def per_layer(workload: Workload, traced: list[dict], plain: list[dict]) -> dict[str, float]:
    out = {name: median(j["layers"][name] for j in traced) for name in traced[0]["layers"]}
    queries = out["clock.queries"]
    useful = queries
    if workload.scenario == "tradeoff":
        csv = traced[0]["csv"].decode("utf-8")
        useful = check.tradeoff_final_level_queries(csv, workload.n_bits, workload.trials)
    # no escalation outside tradeoff: every query counts, and no queries waste nothing
    out["tradeoff.useful_query_ratio"] = useful / queries if queries else 1.0
    out["harness.csv_bytes"] = len(traced[0]["csv"])
    out["setup.import_s"] = median(j["import_s"] for j in traced + plain)
    out["trace.overhead_ratio"] = median(j["wall_s"] for j in traced) / median(
        j["wall_s"] for j in plain
    )
    return out


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int, help="workload seed, >= 0")
    parser.add_argument("--seconds", required=True, type=float, help="measuring time, at most 60")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "ticksync" / "__init__.py").is_file():
        print(f"error: no ticksync sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    budget_end = started + RUN_BUDGET_S
    print("machine", json.dumps(machine_facts(), sort_keys=True))

    jobs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        out = os.path.relpath(os.path.join(tmp, "out.csv"), root)
        jobs.append(run_job(workload, args.seed, out, False, budget_end))
        measure_end = time.monotonic() + args.seconds
        while True:
            jobs.append(run_job(workload, args.seed, out, bool(args.trace), budget_end))
            if args.trace:
                jobs.append(run_job(workload, args.seed, out, False, budget_end))
            if time.monotonic() >= measure_end:
                break

    reference = jobs[0].get("csv")
    for job in jobs[1:]:
        if "csv" in job and job["csv"] != reference:
            job["problems"].append("CSV bytes differ from the first job's")
    failed = [j for j in jobs if j["problems"]]
    for job in failed:
        print("failed:", "; ".join(job["problems"]), file=sys.stderr)
    measured = [j for j in jobs[1:] if "wall_s" in j]
    if not measured:
        print("error: no measured job completed", file=sys.stderr)
        return 1
    if args.trace:
        traced = [j for j in measured if "layers" in j]
        plain = [j for j in measured if "layers" not in j]
        if not traced or not plain:
            print("error: need one traced and one untraced job", file=sys.stderr)
            return 1
        values = per_layer(workload, traced, plain)
        units = {name: layer_unit(name) for name in values}
    else:
        values = end_to_end(workload, measured)
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    print(f"workload {args.workload} seed {args.seed} measured_jobs {len(measured)} "
          f"error_rate {len(failed) / len(jobs)} (failed/attempted jobs)")
    print("job wall_s", " ".join(f"{j['wall_s']:.4f}" for j in measured))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
