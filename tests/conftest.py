import re

import pytest

from minksmooth.polytope import convex_hull, decomposition


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion."""
    rows = []
    for outcome in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(rep, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)", nodeid)
            if m:
                rows.append((int(m.group(1)), m.group(2), outcome == "passed"))
    if rows:
        terminalreporter.write_sep("-", "acceptance criteria")
        for num, name, ok in sorted(rows):
            status = "PASS" if ok else "FAIL"
            terminalreporter.write_line(f"criterion {num:2d} {status}  {name.replace('_', ' ')}")


def triangle():
    return convex_hull([(0, 0), (1, 0), (0, 1)])


def segment(v):
    return convex_hull([(0,) * len(v), v])


@pytest.fixture
def d_q5():
    return decomposition([triangle(), segment((1, 1))])


@pytest.fixture
def d_q6_first():
    return decomposition(
        [convex_hull([(0, 0), (1, 0), (1, 1)]), convex_hull([(0, 0), (0, 1), (1, 1)])]
    )


@pytest.fixture
def d_q6_second():
    return decomposition([segment((1, 0)), segment((0, 1)), segment((1, 1))])


@pytest.fixture
def d_lens21():
    # unit cosphere bundle of the lens space with p = 2, q = 1
    return decomposition([segment((1, 0)), segment((1, 2))])


@pytest.fixture
def d_cubic():
    return decomposition([triangle(), triangle(), triangle()])


@pytest.fixture
def d_no_critical():
    # the trapezoid Conv{(0,0),(0,1),(1,1),(2,0)}
    return decomposition([convex_hull([(0, 0), (0, 1), (1, 0)]), segment((1, 0))])


@pytest.fixture
def all_fixtures(d_q5, d_q6_first, d_q6_second, d_lens21, d_cubic, d_no_critical):
    return {
        "q5": d_q5,
        "q6_first": d_q6_first,
        "q6_second": d_q6_second,
        "lens21": d_lens21,
        "cubic": d_cubic,
        "trapezoid": d_no_critical,
    }


def lens(p, q):
    return decomposition([segment((1, 0)), segment((q, p))])
