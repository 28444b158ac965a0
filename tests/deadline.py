"""A wall-clock deadline for one test call, enforced while the call runs.

The alarm interrupts the call between bytecodes, so a call that turns slow
fails at its deadline instead of hanging the suite.  It needs SIGALRM, so
it runs on POSIX in the main thread, as pytest does.
"""

import signal


def timed(fn, *args, seconds=1.0):
    """fn(*args), failing with AssertionError once it has run `seconds`."""

    def expire(signum, frame):
        raise AssertionError(f"{fn.__name__}{args[:2]} took over {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
