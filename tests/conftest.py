"""Tier-1 hooks: every ACCEPTANCE line, reprinted whole at the end of a run.

Outside CI pytest cuts the short test summary to the terminal's width, so
a failed criterion's message can end mid-number. The acceptance tests put
each line they print into their test's user properties under
"acceptance", and the terminal summary prints them again in full, by
criterion.
"""


def pytest_terminal_summary(terminalreporter):
    lines = [(report.location, value) for reports in terminalreporter.stats.values()
             for report in reports if getattr(report, "when", None) == "call"
             for name, value in report.user_properties if name == "acceptance"]
    if lines:
        terminalreporter.section("acceptance lines in full")
        for _, line in sorted(lines, key=lambda item: item[0][1]):
            terminalreporter.write_line(line)
