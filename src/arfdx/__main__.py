"""Launcher for the `arfdx` command and `python -m arfdx`.

Both import this module rather than run `arfdx.cli` as `__main__`, so the
one-BLAS-thread default that `cli.py` sets under its own `__main__` guard is
set here too, before `cli` loads numpy. A value the caller set is kept.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from arfdx.cli import main  # noqa: E402  (after the variable is set)

if __name__ == "__main__":
    sys.exit(main())
