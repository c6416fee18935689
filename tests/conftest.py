"""Shared pytest hooks: print one PASS/FAIL line per acceptance criterion."""

import re

import isacdeploy  # noqa: F401  (first, so numpy's BLAS stays on the calling thread as in the CLI)

_CRITERION = re.compile(r"test_criterion_(\d{2})")
_results = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    match = _CRITERION.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    if report.when == "call":
        _results[number] = report.outcome
    elif report.outcome == "failed":
        _results[number] = "failed"
    elif report.when == "setup" and report.outcome == "skipped":
        _results.setdefault(number, "skipped")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_results):
        outcome = _results[number]
        label = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"[acceptance] criterion {number:02d}: {label}")
