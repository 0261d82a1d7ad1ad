"""Shared settings for the tests that feed damaged or arbitrary files to
the loaders: reproducible examples and a wall-clock bound per load."""

import signal
from contextlib import contextmanager

from hypothesis import settings

FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@contextmanager
def time_bound(seconds):
    """Raise ``TimeoutError`` in the block once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
