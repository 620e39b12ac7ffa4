"""Shared pytest wiring.

The acceptance gate registers one summary line per criterion as it
runs; emitting them from the terminal-summary hook keeps them visible
in the normal (captured) pytest output.

Each test starts with no column workspace in the test thread: the conv
engine keeps the largest column buffer a thread asked for, so without
this a test that raised ``_COL_BUDGET`` would leave a buffer of that size
to every later test, which the traced-memory tests would then not count.
"""

import pytest

import pansharp.grad.layers as layers

acceptance_lines = []


@pytest.fixture(autouse=True)
def _fresh_column_workspace():
    layers._workspace.buffer = None
    yield
    layers._workspace.buffer = None


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
