import math

import numpy as np
import pytest

from ticksync import ExperimentSpec, run, success_probability_exact
from ticksync.cli import main, parse_config


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
