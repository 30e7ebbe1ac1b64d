"""Command-line front end for the experiment harness.

Usage: ticksync --scenario sync --n 4 --trials 200 --seed 7 --out sync.csv

Settings may also come from a config file of ``key = value`` lines (keys
match the long flag names; ``#`` starts a comment).  Explicit flags win
over file values, which win over built-in defaults.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from .harness import SCENARIOS, ExperimentSpec, run

_CONFIG_PARSERS = {
    "scenario": str,
    "n": int,
    "delta": float,
    "omega0": float,
    "t_true": float,
    "trials": int,
    "seed": int,
    "out": str,
}

_DEFAULTS = {
    "n": 4,
    "delta": None,
    "omega0": 1.0,
    "t_true": None,
    "trials": 100,
    "seed": 12345,
    "out": "results.csv",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ticksync",
        description="Run a clock-synchronization experiment and write a CSV.",
    )
    parser.add_argument("--scenario", choices=SCENARIOS, help="experiment to run")
    parser.add_argument("--n", type=int, help="target precision in bits (default 4)")
    parser.add_argument("--delta", type=float, help="failure budget in (0, 1/2)")
    parser.add_argument("--omega0", type=float, help="tick frequency (default 1.0)")
    parser.add_argument(
        "--t-true", dest="t_true", type=float, help="true clock offset in seconds"
    )
    parser.add_argument("--trials", type=int, help="repetitions (default 100)")
    parser.add_argument("--seed", type=int, help="root RNG seed (default 12345)")
    parser.add_argument("--out", help="output CSV path (default results.csv)")
    parser.add_argument("--config", help="key = value settings file")
    return parser


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            parser.error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_PARSERS:
            parser.error(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value)
        except ValueError:
            parser.error(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def parse_config(argv: list[str] | None = None) -> ExperimentSpec:
    """Resolve flags, optional config file, and defaults into a spec.

    Exits with status 2 and a message naming the offending field when any
    setting is missing, unknown, or out of range.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    file_values = _read_config_file(args.config, parser) if args.config else {}

    def pick(key: str):
        flag = getattr(args, key, None)
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return _DEFAULTS.get(key)

    scenario = args.scenario if args.scenario is not None else file_values.get("scenario")
    if scenario is None:
        parser.error("scenario is required (pass --scenario or set it in --config)")
    try:
        return ExperimentSpec(
            scenario=scenario,
            n_bits=pick("n"),
            delta=pick("delta"),
            omega0=pick("omega0"),
            t_true=pick("t_true"),
            trials=pick("trials"),
            seed=pick("seed"),
            output_path=pick("out"),
        )
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":
    raise SystemExit(main())
