import signal
import time

import pytest

from deadline import timed


def test_timed_fails_at_its_deadline():
    start = time.perf_counter()
    with pytest.raises(AssertionError, match=r"sleep\(5,\) took over 1.0 s"):
        timed(time.sleep, 5)
    assert time.perf_counter() - start < 2.0


def test_timed_returns_the_value_and_disarms():
    handler = signal.getsignal(signal.SIGALRM)
    assert timed(sum, (1, 2, 3)) == 6
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
