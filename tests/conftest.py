"""Checks shared by every test module."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_processes():
    """Fail a test that leaves a child process running.

    Both forked paths of the pipeline, the pool of fit groups of ``learn``
    and the block workers of ``track``, must have ended when their call
    returns or raises.  Leaked children are stopped so later tests start clean.
    """
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join()
    assert leaked == [], f"test left child processes running: {leaked}"
