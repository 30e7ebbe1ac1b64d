"""Self-tests of the benchmark: tracer patching, traced counts, the gate.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import run as bench  # noqa: E402
from tracer import SPAN_NAMES, TARGETS, Tracer  # noqa: E402

import ticksync  # noqa: E402
from ticksync import cli, clock, harness, protocol, qsim, tradeoff  # noqa: E402


def _package_modules():
    return [m for name, m in sys.modules.items() if name == "ticksync" or name.startswith("ticksync.")]


def _bindings(fn):
    return [(m, attr) for m in _package_modules() for attr, v in vars(m).items() if v is fn]


def test_tracer_patches_every_binding_and_restores():
    originals = {
        f"{mod}.{name}": getattr(sys.modules[f"ticksync.{mod}"], name)
        for mod, names in TARGETS.items()
        for name in names
    }
    functions = {k: fn for k, fn in originals.items() if not isinstance(fn, type)}
    bindings = {k: _bindings(fn) for k, fn in functions.items()}
    init = qsim.StateVector.__init__
    record_query = clock.ResourceLedger.record_query
    # the `from .qsim import ...` copies and the package namespace are among them
    for module, name in [
        (clock, "indexed_phase"), (clock, "z_phase"), (protocol, "inverse_qft"),
        (protocol, "tqh_oracle"), (tradeoff, "diagonal_phase"), (tradeoff, "fixed_rate_query"),
        (harness, "hadamard"), (harness, "run_sync"), (harness, "child_rng"),
        (ticksync, "measure"), (ticksync, "run"), (cli, "run"),
    ]:
        assert (module, name) in [(m, a) for bs in bindings.values() for m, a in bs]

    with Tracer():
        for key, fn in functions.items():
            for module, attr in bindings[key]:
                wrapper = vars(module)[attr]
                assert wrapper is not fn and wrapper.__wrapped__ is fn, (module, attr)
            assert not _bindings(fn), key
        assert qsim.StateVector.__init__ is not init
        assert qsim.StateVector.__init__.__wrapped__ is init
        assert clock.ResourceLedger.record_query is not record_query

    for key, fn in functions.items():
        assert _bindings(fn) == bindings[key], key
    assert qsim.StateVector.__init__ is init
    assert clock.ResourceLedger.record_query is record_query


def _sync_csv(tmp_path, trials, traced):
    spec = harness.ExperimentSpec(
        scenario="sync", n_bits=3, trials=trials, seed=11, output_path=str(tmp_path / "s.csv")
    )
    if traced:
        with Tracer() as tracer:
            assert harness.run(spec) == 0
        return (tmp_path / "s.csv").read_bytes(), tracer.metrics()
    assert harness.run(spec) == 0
    return (tmp_path / "s.csv").read_bytes(), None


def test_traced_sync_counts_and_bytes(tmp_path):
    trials = 25
    plain, _ = _sync_csv(tmp_path, trials, traced=False)
    traced, metrics = _sync_csv(tmp_path, trials, traced=True)
    assert traced == plain
    _, _, rows = check.parse_csv(plain.decode())
    assert len(rows) == trials
    assert metrics["clock.tqh_oracle.calls"] == len(rows)
    assert metrics["clock.queries"] == len(rows)
    assert metrics["seeding.child_rng.calls"] == trials
    assert metrics["protocol.run_sync.calls"] == trials
    assert metrics["harness.run.calls"] == 1
    assert metrics["clock.max_rate_index"] == 7
    assert metrics["qsim.max_qubits"] == 4
    assert set(metrics) >= {f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")}
    assert all(metrics[f"{n}.self_s"] >= 0.0 for n in SPAN_NAMES)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.name_ids.extend([0, 1, 1])
    tracer.parents.extend([-1, 0, 0])
    tracer.starts.extend([0.0, 1.0, 3.0])
    tracer.ends.extend([10.0, 2.0, 5.0])
    metrics = tracer.metrics()
    assert metrics[f"{SPAN_NAMES[0]}.self_s"] == 7.0
    assert metrics[f"{SPAN_NAMES[1]}.self_s"] == 3.0
    assert metrics[f"{SPAN_NAMES[1]}.calls"] == 2


@pytest.mark.parametrize("n_prime,n_bits", [(3, 3), (5, 4), (7, 4)])
def test_closed_form_matches_statevector(n_prime, n_bits):
    phis = np.random.default_rng(n_prime).random(12).tolist() + [0.0, 0.25, 0.5 + 2**-9]
    expected = [protocol.success_probability_exact(n_prime, p, n_bits) for p in phis]
    got = check.success_probability(n_prime, n_bits, phis)
    assert np.max(np.abs(got - expected)) < 1e-12


def _run_scenario(tmp_path, **spec):
    path = tmp_path / "x.csv"
    harness.run(harness.ExperimentSpec(output_path=str(path), **spec))
    return path.read_text()


def test_gate_passes_real_output_and_catches_corruption(tmp_path):
    text = _run_scenario(tmp_path, scenario="sync", n_bits=4, trials=400, seed=3)
    assert check.check_sync(text, 4, 4, 400, 3) == []
    assert check.check_sync(text, 4, 4, 400, 4)  # wrong seed echoed
    meta_end = text.index("\ntrial,")
    head, body = text[: meta_end + 1], text[meta_end + 1 :].splitlines(keepends=True)
    two_queries = body[1].replace(",1,15,", ",2,15,")
    assert two_queries != body[1]
    assert check.check_sync(head + "".join(body[:1] + [two_queries] + body[2:]), 4, 4, 400, 3)
    # all-success rows are inconsistent with off-grid phases
    rows = [line.rsplit(",", 4) for line in body[1:]]
    lucky = [f"{r[0]},1,{r[2]},{r[3]},{r[4]}" for r in rows]
    assert check.check_sync(head + body[0] + "".join(lucky), 4, 4, 400, 3)

    text = _run_scenario(tmp_path, scenario="sweep-phi", n_bits=3)
    assert check.check_sweep_phi(text, 3) == []
    last = text.splitlines()[-1]
    off_half = last.rsplit(",", 1)[0] + ",0.5000000001"
    assert check.check_sweep_phi(text.replace(last, off_half), 3)

    text = _run_scenario(tmp_path, scenario="tradeoff", n_bits=2, trials=40, seed=1)
    assert check.check_tradeoff(text, 2, 40) == []
    last = text.splitlines()[-1].split(",")
    assert check.check_tradeoff(text.replace(",".join(last), ",".join(last[:3] + ["0.85", last[4]])), 2, 40)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    layer_names = [f"{n}.{k}" for n in SPAN_NAMES for k in ("calls", "self_s")] + [
        "protocol.run_sync.us_p50", "protocol.run_sync.us_p99", "qsim.max_qubits",
        "qsim.amp_bytes_computed", "clock.queries", "clock.max_rate_index",
        "tradeoff.useful_query_ratio", "harness.csv_bytes", "setup.import_s",
        "trace.overhead_ratio",
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: bench.layer_unit(name) for name in layer_names
    }
