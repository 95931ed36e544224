"""Helpers shared by the test modules."""

import contextlib
import signal


class DeadlineExceeded(BaseException):
    """Not an Exception, so that no ``except Exception`` in the code under
    test can keep or swallow it."""


@contextlib.contextmanager
def deadline(seconds):
    """Raise DeadlineExceeded in the block once it has run for ``seconds``,
    so that a read that would never return fails instead.  The timer is a
    SIGALRM from ``signal.setitimer``: it needs the main thread and starts
    no thread or process.  The timer is cancelled and the old SIGALRM
    handler restored on exit.

    The handler's exception can land in a frame with no line number, which
    pytest cannot report, so it is raised again from here, naming the
    function it interrupted."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except DeadlineExceeded as exc:
        tb = exc.__traceback__
        while tb.tb_next and tb.tb_next.tb_frame.f_code is not expire.__code__:
            tb = tb.tb_next
        name = tb.tb_frame.f_code.co_name
        raise DeadlineExceeded(f"{name} still running after {seconds} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
