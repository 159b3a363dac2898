"""Run one `arfdx.cli` stage with the benchmark's wrappers installed.

    python bench/trace_stage.py SPANS_JSON STAGE --config run.ini --out DIR

Behaves like `python -m arfdx.cli STAGE ...` (same exit code, same
artifacts) and writes the stage's spans and counters to SPANS_JSON on exit,
with the wall-clock time `cli.main` started, so the parent can tell how long
the process took to get there.
"""

from __future__ import annotations

import sys
import time

from layers import TARGETS
from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    from arfdx import cli

    tracer = Tracer()
    tracer.install(TARGETS)
    main_started_at = time.time()
    try:
        return tracer.call("cli.main", cli.main, cli_argv)
    finally:
        tracer.dump(spans_path, stage=cli_argv[0], main_started_at=main_started_at)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
