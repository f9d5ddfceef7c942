"""A time cap on every tier-1 test, so that a hang fails as that test and the run goes on."""
import signal

import pytest

# The slowest test takes about 4 s: one still running at this cap has hung.
TEST_CAP_S = 60


@pytest.fixture(autouse=True)
def time_cap():
    """Fail the running test once it has run TEST_CAP_S seconds, where SIGALRM exists.

    The alarm interrupts Python code between bytecodes; forked workers do not inherit it.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"the test ran past its cap of {TEST_CAP_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_CAP_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
