import functools
import sys

import pytest

from reglab.enumeration import enumerate_graphs, enumerate_tournaments

ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def record_acceptance(criterion: str, passed: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((criterion, passed, detail))
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] {criterion}: {status}" + (f" ({detail})" if detail else ""),
          file=sys.stderr)


def _once_per_session(enumerate_fn):
    @functools.cache
    def listing(n: int) -> tuple:
        assert 0 <= n <= 7
        return tuple(enumerate_fn(n))
    return listing


@pytest.fixture(scope="session")
def small_graphs():
    """small_graphs(n) is enumerate_graphs(n) as a tuple, for n <= 7; each n
    is enumerated at most once a session, whichever test asks first."""
    return _once_per_session(enumerate_graphs)


@pytest.fixture(scope="session")
def small_tournaments():
    """small_tournaments(n) is enumerate_tournaments(n) as a tuple, for n <= 7."""
    return _once_per_session(enumerate_tournaments)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        line = f"{criterion}: {status}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
