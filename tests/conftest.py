import resource
import signal
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# A runaway test (a loop that never ends, growing its working set) fails
# itself instead of taking the machine down: the test process may map at most
# MEMORY_BYTES (numpy and scipy loaded take about 340 MB), and each phase of a
# test (set-up, fixtures included, call, tear-down) gets PHASE_SECONDS, enough
# for the slowest acceptance fixture.
MEMORY_BYTES = 4 << 30
PHASE_SECONDS = 600


def pytest_sessionstart(session):
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_BYTES if hard == resource.RLIM_INFINITY else min(MEMORY_BYTES, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def _out_of_time(signum, frame):
    raise TimeoutError(f"test phase ran past {PHASE_SECONDS} s")


@contextmanager
def _limited():
    previous = signal.signal(signal.SIGALRM, _out_of_time)
    signal.setitimer(signal.ITIMER_REAL, PHASE_SECONDS)
    try:
        yield
    except (MemoryError, TimeoutError) as exc:
        # the runaway's working set lives in the locals of its frames, which
        # the failure report keeps alive (the error may be a second one,
        # raised by a plugin while the first was handled): free it for the
        # tests that follow
        cause = exc
        while cause is not None:
            traceback.clear_frames(cause.__traceback__)
            cause = cause.__context__
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _limited():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _limited():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with _limited():
        return (yield)
