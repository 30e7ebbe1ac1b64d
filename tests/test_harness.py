import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from ticksync import (
    ClockModel, ExperimentSpec, ProtocolConfig, __version__, child_rng, run, run_sync,
    success_probability_exact,
)
from ticksync.cli import main, parse_config
from ticksync.harness import _format_cell, _write_csv


def _spec(tmp_path, **kw):
    base = dict(scenario="sync", n_bits=3, trials=10, seed=5)
    base.update(kw)
    base["output_path"] = str(tmp_path / base.get("output_path", "out.csv"))
    return ExperimentSpec(**base)


def _read(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body[0].split(","), [l.split(",") for l in body[1:]]


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="nope")
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="sync", n_bits=0)
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="sync", trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="sync", seed=-1)
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="sync", omega0=0.0)
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="sync", delta=0.8)
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="tradeoff", delta=0.1)  # delta has no meaning here
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="boost")  # boost needs delta
    with pytest.raises(ValueError):
        ExperimentSpec(scenario="reduction", t_true=0.5)


@pytest.mark.parametrize(
    "field,value", [("trials", 2.5), ("n_bits", True), ("seed", 1.5), ("trials", "10")]
)
def test_spec_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match="must be an integer"):
        ExperimentSpec(scenario="sync", **{field: value})


def test_sync_rows_and_columns(tmp_path):
    spec = _spec(tmp_path, t_true=0.625)
    assert run(spec) == 0
    meta, header, rows = _read(tmp_path / "out.csv")
    assert header == [
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
    ]
    assert len(rows) == 10
    for row in rows:
        assert row[1] == "5"
        assert float(row[2]) == 0.625
        assert row[3] in ("0", "1")
        assert row[7] == "1"  # on-grid phases always succeed
        assert row[8] == "1"  # one query
        assert row[9] == "7"  # max rate index 2**3 - 1
    assert any(l.startswith("# n_prime = 3") for l in meta)


def test_sync_tiny_negative_offset_writes_phase_zero(tmp_path):
    # the offset sits just below 0 on the circle: phi_true is 0.0, not 1.0
    assert run(_spec(tmp_path, t_true=-1e-20)) == 0
    _, _, rows = _read(tmp_path / "out.csv")
    assert [row[2] for row in rows] == ["0.0"] * 10
    assert all(row[7] == "1" for row in rows)


def test_sync_samples_offsets_when_t_true_absent(tmp_path):
    spec = _spec(tmp_path, trials=8)
    run(spec)
    _, _, rows = _read(tmp_path / "out.csv")
    phis = {row[2] for row in rows}
    assert len(phis) > 1


def test_identical_specs_write_identical_bytes(tmp_path):
    spec = _spec(tmp_path, trials=25)
    run(spec)
    first = (tmp_path / "out.csv").read_bytes()
    run(spec)
    assert (tmp_path / "out.csv").read_bytes() == first


def test_seed_changes_sampled_rows(tmp_path):
    run(_spec(tmp_path, output_path="a.csv", seed=5))
    run(_spec(tmp_path, output_path="b.csv", seed=6))
    _, _, rows_a = _read(tmp_path / "a.csv")
    _, _, rows_b = _read(tmp_path / "b.csv")
    assert rows_a != rows_b


def test_sweep_phi_matches_library(tmp_path):
    spec = ExperimentSpec(
        scenario="sweep-phi", n_bits=3, output_path=str(tmp_path / "s.csv")
    )
    assert run(spec) == 0
    _, header, rows = _read(tmp_path / "s.csv")
    assert header == ["grid_index", "phi", "success_prob", "p_photon0"]
    assert len(rows) == 1 << 7
    g = 37
    phi = g / (1 << 7)
    assert float(rows[g][2]) == pytest.approx(
        success_probability_exact(3, phi, 3), abs=1e-15
    )
    assert float(rows[g][3]) == pytest.approx(0.5, abs=1e-12)


def test_boost_scenario_summary(tmp_path, capsys):
    spec = ExperimentSpec(
        scenario="boost",
        n_bits=3,
        delta=0.2,
        trials=300,
        seed=2,
        output_path=str(tmp_path / "b.csv"),
    )
    assert run(spec) == 0
    out = capsys.readouterr().out
    assert "n_prime=6" in out
    _, header, rows = _read(tmp_path / "b.csv")
    assert header == ["grid_index", "phi", "success_prob"]
    assert all(float(r[2]) >= 0.9 for r in rows)


def test_boost_scan_reaches_off_register_phases(tmp_path, capsys):
    # n' = 9 >= n + 4: every n-bit grid phase also lies on the register grid,
    # where the estimate is exact, so only off-grid phases test the floor
    spec = _spec(tmp_path, scenario="boost", n_bits=5, delta=0.05)
    assert run(spec) == 0
    worst = float(capsys.readouterr().out.split("worst_exact_success=")[1].split()[0])
    assert 0.95 <= worst < 1.0
    _, _, rows = _read(tmp_path / "out.csv")
    assert all(float(r[1]) * (1 << 9) % 1.0 == 0.5 for r in rows)


def test_lemma1_scenario(tmp_path, capsys):
    spec = ExperimentSpec(
        scenario="lemma1", trials=40, seed=3, output_path=str(tmp_path / "l.csv")
    )
    assert run(spec) == 0
    _, header, rows = _read(tmp_path / "l.csv")
    state_rows = [r for r in rows if r[0] == "state"]
    classical_rows = [r for r in rows if r[0] == "classical"]
    assert len(state_rows) == 1000
    assert len(classical_rows) == 4
    assert max(float(r[5]) for r in state_rows) < 1e-12
    errs = [float(r[7]) for r in classical_rows]
    assert errs[0] > errs[-1]  # error shrinks as samples grow


def test_reduction_scenario(tmp_path):
    spec = ExperimentSpec(
        scenario="reduction", trials=5, seed=6, output_path=str(tmp_path / "r.csv")
    )
    assert run(spec) == 0
    _, header, rows = _read(tmp_path / "r.csv")
    assert header == ["check", "k", "max_abs_deviation"]
    assert len(rows) == 128  # 64 handshake rows + 64 rate-k rows
    assert max(float(r[2]) for r in rows) <= 1e-12


def test_tradeoff_scenario(tmp_path):
    spec = ExperimentSpec(
        scenario="tradeoff", n_bits=3, trials=4, seed=8, output_path=str(tmp_path / "t.csv")
    )
    assert run(spec) == 0
    _, header, rows = _read(tmp_path / "t.csv")
    assert header == ["F", "Q", "n_bits_achieved", "success_rate", "FQ_product"]
    assert [r[0] for r in rows] == ["1", "2", "4", "8"]
    assert rows[-1][1] == "1"
    for row in rows:
        assert int(row[4]) == int(row[0]) * int(row[1])


def test_run_reports_unwritable_path(tmp_path, capsys):
    spec = ExperimentSpec(
        scenario="sync",
        n_bits=2,
        trials=2,
        output_path=str(tmp_path / "missing" / "x.csv"),
    )
    assert run(spec) == 1
    assert "cannot write" in capsys.readouterr().err


def test_csv_rows_are_written_as_they_are_formatted(tmp_path):
    # no copy of the text is held: the write's traced peak stays far below the file size
    spec = _spec(tmp_path, output_path="w.csv")
    rows = [(i, 0.1 * i, None, "x") for i in range(50_000)]
    tracemalloc.start()
    try:
        _write_csv(spec, (("extra", 1),), ("a", "b", "c", "d"), rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "w.csv").read_bytes().decode()
    assert text.endswith("\n49999,4999.900000000001,,x\n") and "\r" not in text
    assert text.count("\n") == len(rows) + len(fields(spec)) + 3
    assert peak < len(text) / 8


def test_parse_config_defaults_and_flags():
    spec = parse_config(["--scenario", "sync"])
    assert spec.n_bits == 4
    assert spec.trials == 100
    assert spec.seed == 12345
    assert spec.omega0 == 1.0
    assert spec.delta is None
    spec = parse_config(
        ["--scenario", "boost", "--n", "5", "--delta", "0.1", "--seed", "1", "--out", "x.csv"]
    )
    assert spec.n_bits == 5
    assert spec.delta == 0.1
    assert spec.output_path == "x.csv"


def test_parse_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sample configuration\n"
        "scenario = sync\n"
        "n = 3\n"
        "trials = 1000\n"
        "t-true = 0.625\n",
        encoding="utf-8",
    )
    spec = parse_config(["--config", str(cfg), "--trials", "7"])
    assert spec.scenario == "sync"
    assert spec.n_bits == 3
    assert spec.trials == 7  # flag beats file
    assert spec.t_true == 0.625


def test_parse_config_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as err:
        parse_config([])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        parse_config(["--scenario", "sync", "--trials", "0"])
    assert err.value.code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 3\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        parse_config(["--scenario", "sync", "--config", str(bad)])
    assert err.value.code == 2
    worse = tmp_path / "worse.cfg"
    worse.write_text("trials three\n", encoding="utf-8")
    with pytest.raises(SystemExit) as err:
        parse_config(["--scenario", "sync", "--config", str(worse)])
    assert err.value.code == 2


def test_register_cap_rejects_tiny_delta():
    # delta = 1e-300 would widen the register to n' = 1000 qubits
    with pytest.raises(ValueError, match="delta"):
        ExperimentSpec(scenario="sync", delta=1e-300)
    with pytest.raises(SystemExit) as err:
        parse_config(["--scenario", "sync", "--n", "4", "--delta", "1e-300", "--trials", "1"])
    assert err.value.code == 2


@pytest.mark.parametrize("value", ["-1e3", "-1E+3", "-1000", "-.1e4"])
def test_negative_offset_in_exponent_form_is_a_value(value):
    # argparse alone takes "-1e3" for an option and leaves --t-true empty
    assert parse_config(["--scenario", "sync", "--t-true", value]).t_true == -1000.0
    with pytest.raises(SystemExit) as err:
        parse_config(["--scenario", "sync", "--t-true", "--n", "3"])
    assert err.value.code == 2


def test_grid_scan_cap_refuses_scans_that_cannot_finish(capsys):
    # sweep-phi at n = 20: 2**24 exact evaluations on 2**21-amplitude states
    with pytest.raises(ValueError, match="n=20"):
        ExperimentSpec(scenario="sweep-phi", n_bits=20)
    # boost sums 2**(n' - n + 1) kernel weights per phase: its edge is n' = 19
    ExperimentSpec(scenario="boost", n_bits=15, delta=0.05)
    for argv in (["--scenario", "sweep-phi", "--n", "10"],
                 ["--scenario", "boost", "--n", "16", "--delta", "0.05"]):
        with pytest.raises(SystemExit) as err:
            parse_config(argv)
        assert err.value.code == 2
        assert "n=" in capsys.readouterr().err
    # the largest scans the tests, the README and the benchmark run
    ExperimentSpec(scenario="sweep-phi", n_bits=7)
    ExperimentSpec(scenario="boost", n_bits=5, delta=0.05)


@pytest.mark.parametrize(
    "args,t_true,accepted",
    [("sync", "1e17", False), ("lemma1", "-1e17", False), ("sync", "0.3125", True),
     ("sync", "1000", True), ("lemma1", "1000", True),
     # the edge: omega0 * t_true = 2**(43 - n') has an ulp of 2**-(n' + 9)
     ("sync", repr(math.nextafter(2.0**39, 0)), True), ("sync", repr(2.0**39), False),
     ("sync --n 10 --delta 0.05", repr(math.nextafter(2.0**29, 0)), True),
     ("sync --n 10 --delta 0.05", repr(2.0**29), False)],
)
def test_offset_must_keep_its_phase_bits(args, t_true, accepted):
    # ulp(1e17) is 16: omega0 * t_true keeps no fractional phase bit at all
    base = ["--scenario", *args.split()]
    argv = [*base, f"--t-true={t_true}"]
    spec = parse_config(base)
    config = ProtocolConfig(spec.n_bits, spec.delta)  # n' = 4, or 14 at n = 10
    clock = ClockModel(float(t_true), 1.0)
    if accepted:
        assert parse_config(argv).t_true == float(t_true)
        assert 0 <= run_sync(config, clock, child_rng(1, 0)).raw_m < 1 << config.effective_register
        return
    with pytest.raises(SystemExit) as err:
        parse_config(argv)
    assert err.value.code == 2
    # run_sync holds library callers to the same guard
    with pytest.raises(ValueError, match="offset_T"):
        run_sync(config, clock, child_rng(1, 0))


# (setting key, text, ExperimentSpec field, parsed value), one row per field
_SETTINGS = [
    ("scenario", "lemma1", "scenario", "lemma1"),
    ("n", "6", "n_bits", 6),
    ("delta", "0.05", "delta", 0.05),
    ("omega0", "2.5", "omega0", 2.5),
    ("t-true", "0.625", "t_true", 0.625),
    ("trials", "7", "trials", 7),
    ("seed", "99", "seed", 99),
    ("out", "x.csv", "output_path", "x.csv"),
]


@pytest.mark.parametrize("key,text,field,value", _SETTINGS, ids=[row[0] for row in _SETTINGS])
def test_flag_and_config_file_give_equal_specs(tmp_path, key, text, field, value):
    assert sorted(row[2] for row in _SETTINGS) == sorted(f.name for f in fields(ExperimentSpec))
    settings = {"scenario": "sync", key: text}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()), encoding="utf-8")
    from_file = parse_config(["--config", str(cfg)])
    from_flags = parse_config([arg for k, v in settings.items() for arg in (f"--{k}", v)])
    assert from_file == from_flags
    assert getattr(from_flags, field) == value


def test_metadata_block_is_pinned(tmp_path):
    out = tmp_path / "meta.csv"
    spec = ExperimentSpec(
        scenario="sync", n_bits=3, delta=0.2, omega0=2.0, t_true=0.3125, trials=2, seed=7,
        output_path=str(out),
    )
    assert run(spec) == 0
    meta = out.read_text(encoding="utf-8").split("trial,")[0]
    assert meta == (
        f"# ticksync {__version__}\n"
        "# scenario = sync\n"
        "# n = 3\n"
        "# delta = 0.2\n"
        "# omega0 = 2.0\n"
        "# t_true = 0.3125\n"
        "# trials = 2\n"
        "# seed = 7\n"
        f"# out = {out}\n"
        "# n_prime = 6\n"
    )


def test_cli_main_end_to_end(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = main(
        ["--scenario", "sync", "--n", "3", "--t-true", "0.625", "--trials", "5",
         "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    assert out.exists()
    assert "success_rate=1.0000" in capsys.readouterr().out


def test_float_cells_round_trip_exactly(tmp_path):
    spec = _spec(tmp_path, trials=6)
    run(spec)
    _, _, rows = _read(tmp_path / "out.csv")
    for row in rows:
        phi = float(row[2])
        # repr round-trip: writing and reparsing loses nothing
        assert repr(phi) == row[2]
    # numpy scalars write as their Python values
    assert _format_cell(np.float64(0.1)) == "0.1"
    assert _format_cell(np.bool_(True)) == "1"
