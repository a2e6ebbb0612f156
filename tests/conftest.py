from __future__ import annotations

import signal
import warnings

import pytest
from hypothesis import settings

# hypothesis imports this module from its report hook when a test fails; some
# of its dependencies warn on import, which under -W error ends the session.
# Importing it here, with those warnings silenced, keeps the rest running.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("suite", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("suite")


# A fault that makes a search grow without end shows as a hang, so each
# test body fails once it runs past this many seconds of wall-clock time.
# The slowest test takes about 5 s on a 2-vCPU machine.
TEST_SECONDS = 120


def _overran(signum, frame):
    pytest.fail(f"test ran past {TEST_SECONDS} s of wall-clock time", pytrace=False)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "setitimer"):  # no SIGALRM on this platform
        yield
        return
    previous = signal.signal(signal.SIGALRM, _overran)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
