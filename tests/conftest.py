"""Checks every test runs under."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """Fail a test that leaves a child process running or unreaped, such as a forked worker of rates or stability."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    assert pid != 0, "a child process of the test is still running"
    pytest.fail(f"the test left child process {pid} unreaped (wait status {status})")
