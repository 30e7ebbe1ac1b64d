"""Command-line front end for the experiment harness.

Usage: ticksync --scenario sync --n 4 --trials 200 --seed 7 --out sync.csv

Flags and config-file keys are generated from the ExperimentSpec fields and
share their CSV metadata names (``t-true`` and ``t_true`` are one key).  A
config file holds ``key = value`` lines; ``#`` starts a comment.  Explicit
flags win over file values, which win over the field defaults.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from pathlib import Path

from .harness import SCENARIOS, ExperimentSpec, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ticksync",
        description="Run a clock-synchronization experiment and write a CSV.",
    )
    for f in fields(ExperimentSpec):
        key = f.metadata["key"]
        parser.add_argument(
            "--" + key.replace("_", "-"),
            dest=key,
            type=f.metadata["parse"],
            choices=SCENARIOS if key == "scenario" else None,
            help=f.metadata["help"],
        )
    parser.add_argument("--config", help="key = value settings file")
    return parser


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    parsers = {f.metadata["key"]: f.metadata["parse"] for f in fields(ExperimentSpec)}
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
        if key not in parsers:
            parser.error(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = parsers[key](value)
        except ValueError:
            parser.error(f"{path}:{lineno}: bad value for {key}: {value!r}")
    return values


def parse_config(argv: list[str] | None = None) -> ExperimentSpec:
    """Resolve flags, optional config file, and defaults into a spec.

    Exits with status 2 and a message naming the offending field when any
    setting is missing, unknown, or out of range.
    """
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "-1e3" as an option (only "-1" and "-.5" pass as numbers),
    # so a dash-led number after a flag is attached to it: "--t-true=-1e3"
    for i in reversed(range(1, len(argv))):
        flag, value = argv[i - 1], argv[i]
        if flag.startswith("--") and "=" not in flag and re.match(r"-\.?\d", value):
            argv[i - 1 : i + 1] = [f"{flag}={value}"]
    args = parser.parse_args(argv)
    names = {f.metadata["key"]: f.name for f in fields(ExperimentSpec)}
    values = _read_config_file(args.config, parser) if args.config else {}
    # flags win over the file; settings set by neither keep the field default
    values.update((k, v) for k, v in vars(args).items() if k in names and v is not None)
    if "scenario" not in values:
        parser.error("scenario is required (pass --scenario or set it in --config)")
    try:
        return ExperimentSpec(**{names[key]: value for key, value in values.items()})
    except ValueError as exc:
        parser.error(str(exc))
    raise AssertionError("unreachable")


def main(argv: list[str] | None = None) -> int:
    return run(parse_config(argv))


if __name__ == "__main__":
    raise SystemExit(main())
