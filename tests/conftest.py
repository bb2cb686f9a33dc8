"""Shared pytest hooks and fixtures.

The acceptance tests record one PASS/FAIL line per criterion; printing them
from inside a test would be swallowed by capture, so they are replayed in
the terminal summary where they always appear.
"""

import pytest

from ratiopt import admm

CRITERION_LINES = []


@pytest.fixture
def no_telemetry(monkeypatch):
    """Make every per-iteration telemetry call of the ADMM loop fail, so a
    test passes only if the code it runs records no series."""

    def telemetry(*args, **kwargs):
        raise AssertionError("an unrecorded run called telemetry")

    for name in ("objective", "fidelity_grad", "subgradient_distance",
                 "lipschitz_estimate"):
        monkeypatch.setattr(admm, name, telemetry)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
