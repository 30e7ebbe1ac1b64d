"""One benchmark job, run in a fresh Python process by run.py.

Usage: python3 perfbench/job.py --trace 0|1 -- <ticksync CLI arguments>

Imports ticksync from ``src/`` of the current directory, builds the spec
with ``cli.parse_config`` exactly as the CLI does, runs the scenario with
``harness.run`` and prints one JSON line with its timings.  ``scenario_at``
is a CLOCK_MONOTONIC reading, so the parent can subtract its own reading
taken before it started this process and get the set-up time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace" or argv[1] not in ("0", "1") or "--" not in argv:
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    trace = argv[1] == "1"
    cli_args = argv[argv.index("--") + 1 :]

    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import_start = time.perf_counter()
    import ticksync
    from ticksync import cli, harness

    import_s = time.perf_counter() - import_start
    if os.path.dirname(os.path.dirname(os.path.abspath(ticksync.__file__))) != src:
        print(f"ticksync imported from {ticksync.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = None
    if trace:
        from tracer import Tracer  # perfbench/ is on sys.path as the script's directory

        tracer = Tracer()
        tracer.install()
    try:
        spec = cli.parse_config(cli_args)
        scenario_at = time.monotonic()
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = harness.run(spec)
        wall_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "status": status,
        "import_s": import_s,
        "scenario_at": scenario_at,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
