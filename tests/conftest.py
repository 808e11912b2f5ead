"""Shared test configuration: deterministic hypothesis profile and fixtures."""

import contextlib
import math
import signal

import pytest
from hypothesis import HealthCheck, settings

from sirbif import REFERENCE_BASE, ModelParams

settings.register_profile(
    "ci",
    max_examples=50,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

#: The connection locus p_het(r0) of the reference base at the 13 abscissae
#: of REFERENCE_HET_POINTS, computed without sirbif: the README vector field,
#: closed-form axis saddles and eigenvectors, scipy DOP853 shots (rtol 1e-12,
#: atol 1e-14, offsets 1e-6 and 1e-7) onto S = A/R0, and brentq in p; rounded
#: to 7 decimals. test_connections.py::test_independent_het_locus recomputes
#: it.
INDEPENDENT_HET_POINTS = (
    (2.0725, 0.7933527),
    (2.2000, 0.6853968),
    (2.2698, 0.6339943),
    (2.4237, 0.5363727),
    (2.6000, 0.4459444),
    (2.6981, 0.4035231),
    (2.8039, 0.3629989),
    (2.9184, 0.3243931),
    (3.0426, 0.2877825),
    (3.1778, 0.2532053),
    (3.3256, 0.2206907),
    (3.4878, 0.1902956),
    (3.6667, 0.1620556),
)


@pytest.fixture(scope="session")
def base():
    """The reference base parameter set used throughout the suite."""
    return REFERENCE_BASE


@pytest.fixture(scope="session")
def figure_params():
    """Reference ModelParams with beta = 1.3 (R0 ≈ 2.0429), p free per test."""

    def make(p=0.0, beta=1.3):
        return ModelParams(A=1.1, beta=beta, m=0.35, mu=0.175, d=0.175,
                           g=0.35, p=p)

    return make


def assert_close(actual, expected, *, rel=1e-12, abs_=0.0, label=""):
    """Tight closeness helper with a readable failure message."""
    if not math.isclose(actual, expected, rel_tol=rel, abs_tol=abs_):
        raise AssertionError(
            f"{label or 'value'}: got {actual!r}, want {expected!r} "
            f"(rel_tol={rel}, abs_tol={abs_})")


class TimeCapExceeded(Exception):
    """Raised by ``time_cap``; not an OSError, so ``cli.main`` lets it out."""


@contextlib.contextmanager
def time_cap(seconds):
    """Raise TimeCapExceeded inside the block once it has run ``seconds``,
    so that a call that never returns fails its test instead of hanging."""
    def give_up(signum, frame):
        raise TimeCapExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
