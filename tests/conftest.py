"""Shared pytest hooks and helpers: echo the acceptance checklist at the end
of a run; lay out a feature matrix in memory."""

import numpy as np

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance checklist")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def in_layout(X, layout):
    """X in C order ("C"), in Fortran order ("F"), or as a non-contiguous view
    of every other column of a wider array ("strided")."""
    if layout == "C":
        return np.ascontiguousarray(X)
    if layout == "F":
        return np.asfortranarray(X)
    wide = np.zeros((X.shape[0], 2 * X.shape[1] + 1))
    wide[:, 1::2] = X
    return wide[:, 1::2]
