"""Shared fixtures: the worked example polynomials and their frozen data,
and pools under the forkserver and spawn start methods."""

from __future__ import annotations

import multiprocessing
import multiprocessing.forkserver
import signal
import sys
import types

import pytest

from f2rep import parse_poly

# Cofactor exponent sets of the two degree-9/10 worked examples, frozen from
# the published expansions of (1 + x^63)/(1 + x + x^7 + x^9) and
# (1 + x^73)/(1 + x + x^8 + x^10).
F31_STAR_EXPONENTS = (
    54, 52, 50, 48, 45, 44, 41, 40, 38, 37, 36, 34, 33, 32, 27, 26, 25, 24,
    22, 20, 19, 18, 17, 16, 13, 12, 11, 10, 9, 8, 6, 5, 4, 3, 2, 1, 0,
)

F32_STAR_EXPONENTS = (
    63, 61, 59, 57, 55, 54, 51, 50, 47, 46, 45, 43, 42, 41, 39, 38, 37, 36,
    31, 30, 29, 28, 27, 25, 23, 22, 21, 20, 19, 18, 15, 14, 13, 12, 11, 10,
    9, 7, 6, 5, 4, 3, 2, 1, 0,
)


@pytest.fixture(scope="session")
def f31():
    return parse_poly("x^9 + x^7 + x + 1")


@pytest.fixture(scope="session")
def f32():
    return parse_poly("x^10 + x^8 + x + 1")


# A forkserver worker forks from a server that keeps the environment it started
# with, and a spawn worker starts from the environment of its start: what a
# worker needs of the parent's environment must reach it in its task.  The pool
# comes from the method's context for these tests only; the process-wide
# default is left alone.
@pytest.fixture(params=["forkserver", "spawn"])
def start_method(monkeypatch, request):
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(request.param).Pool)
    # The server and the workers import no __main__: the script that runs the
    # tests need not be safe to import, and one that reruns them never ends.
    monkeypatch.setitem(sys.modules, "__main__", types.ModuleType("__main__"))
    # Each test starts its own server, in the environment the test sets first,
    # whatever tests ran before it; none is left running after it.
    server = multiprocessing.forkserver._forkserver
    server._stop()

    # A pool whose workers die waits on their results for ever: end the test instead.
    def expire(signum, frame):
        raise TimeoutError(f"no result from the {request.param} pool in 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
    server._stop()
