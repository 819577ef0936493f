"""Tier-1 hooks: one BLAS thread, and every ACCEPTANCE line reprinted whole
at the end of a run.

The timed gates assume a single-threaded process, as the ``ripplegrid``
entry point and the bench tools run, so the BLAS thread counts are set to
1 here, at import, before any test module loads numpy. Left to itself,
OpenBLAS starts a pool of threads whose start-up stalls the first timed
samples.

Outside CI pytest cuts the short test summary to the terminal's width, so
a failed criterion's message can end mid-number. The acceptance tests put
each line they print into their test's user properties under
"acceptance", and the terminal summary prints them again in full, by
criterion.
"""
import os

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def pytest_terminal_summary(terminalreporter):
    lines = [(report.location, value) for reports in terminalreporter.stats.values()
             for report in reports if getattr(report, "when", None) == "call"
             for name, value in report.user_properties if name == "acceptance"]
    if lines:
        terminalreporter.section("acceptance lines in full")
        for _, line in sorted(lines, key=lambda item: item[0][1]):
            terminalreporter.write_line(line)
