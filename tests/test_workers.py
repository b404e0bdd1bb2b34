"""Tests for the forked task runner shared by track, learn and sweep."""

import ast
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from nonlocal_transport import workers
from nonlocal_transport.errors import ConfigurationError, NumericalError
from nonlocal_transport.workers import run_tasks


def name(i):
    return f"task {i + 1}"


def pid_after(seconds, label):
    """A task that sleeps ``seconds`` and returns its label and process id."""
    def task():
        time.sleep(seconds)
        return label, os.getpid()
    return task


@pytest.mark.parametrize("first, second, third_in", [
    (1.0, 0.0, "worker"), (0.0, 1.0, "caller"),
], ids=["worker-free-first", "caller-free-first"])
def test_third_task_goes_to_the_first_free_slot(first, second, third_in):
    results = run_tasks([pid_after(first, 0), pid_after(second, 1),
                         pid_after(0.0, 2)], 2, name)
    assert [label for label, _ in results] == [0, 1, 2]
    (_, caller), (_, worker), (_, third) = results
    assert caller == os.getpid() and worker != caller
    assert third == {"worker": worker, "caller": caller}[third_in]
    assert multiprocessing.active_children() == []


def test_one_slot_runs_every_task_here():
    results = run_tasks([pid_after(0.0, i) for i in range(3)], 1, name)
    assert results == [(i, os.getpid()) for i in range(3)]
    assert run_tasks([], 4, name) == []


def test_worker_error_keeps_its_type():
    def failing():
        raise ConfigurationError("synthetic worker failure")

    with pytest.raises(ConfigurationError, match="synthetic worker failure"):
        run_tasks([pid_after(0.0, 0), failing], 2, name)
    assert multiprocessing.active_children() == []


def test_worker_exit_without_a_result_names_the_task_and_code():
    def exiting():
        os._exit(5)

    with pytest.raises(NumericalError, match=r"^task 2 exited with code 5$"):
        run_tasks([pid_after(0.0, 0), exiting], 2, name)
    assert multiprocessing.active_children() == []


def test_caller_failure_terminates_the_workers():
    def stuck():
        time.sleep(60)

    def failing():
        raise NumericalError("synthetic caller failure")

    began = time.perf_counter()
    with pytest.raises(NumericalError, match="synthetic caller failure"):
        run_tasks([failing, stuck], 2, name)
    assert time.perf_counter() - began < 30.0
    assert multiprocessing.active_children() == []


def test_only_workers_starts_processes_and_only_cli_reads_the_config():
    # tasks get their configs as values: no module but config parses YAML,
    # and no module but cli asks it for a file's config; no module but
    # lapack binds native code (OpenBLAS's exports)
    imports, loads = {}, set()
    for path in sorted(Path(workers.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            for name in names:
                imports.setdefault(name.split(".")[0], set()).add(path.stem)
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "load_config"):
                loads.add(path.stem)
    assert imports["multiprocessing"] == {"workers"}
    assert imports["yaml"] == {"config"}
    assert imports["ctypes"] == {"lapack"}
    assert loads == {"cli"}
