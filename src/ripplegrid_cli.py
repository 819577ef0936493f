"""Console entry point kept outside the package on purpose.

Importing anything from ``ripplegrid`` pulls in numpy, and BLAS backends
read their thread-count environment variables once, at load time.  This
shim scans argv for --threads (default 1) with nothing but the stdlib
imported, sets the env vars to it, and only then hands off to the real CLI.
Run it as ``ripplegrid`` or ``python -m ripplegrid_cli``.
"""

import os
import sys


def _peek_threads(argv):
    """The last --threads value, as argparse would keep it."""
    found = None
    for i, arg in enumerate(argv):
        if arg == "--threads" and i + 1 < len(argv):
            found = argv[i + 1]
        elif arg.startswith("--threads="):
            found = arg.split("=", 1)[1]
    return found


def main(argv=None):
    args = list(sys.argv[1:] if argv is None else argv)
    threads = _peek_threads(args)
    if threads is None:
        threads = "1"
    # assigned, not defaulted: the run records --threads, so an inherited
    # environment value must not win; a count below 1 is left for the CLI
    # to reject
    if threads.isdigit() and int(threads) > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = threads
    from ripplegrid.cli import main as _main

    return _main(args)


if __name__ == "__main__":
    sys.exit(main())
