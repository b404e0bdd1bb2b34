"""Forked workers, the one place the package starts processes: ``track``,
``learn`` and ``sweep`` run their tasks through :func:`run_tasks`."""

import mmap
import os
from contextlib import suppress
from multiprocessing import get_context

from .errors import NumericalError


def usable_cpus() -> int:
    """CPUs this process may run on; every CPU where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_tasks(tasks, slots: int, describe) -> list:
    """Call each task, with no arguments, for its result on up to ``slots``
    processes: this one and a forked worker per other slot.  Slot s starts with
    task s; each later task goes, in order, to the first free slot.  Results
    return in task order.  Once all workers have ended, a task's exception in a
    worker (which then stops) is raised again, and a task whose worker ended
    before sending its result raises NumericalError "<describe(i)> exited with
    code <c>".  If this process fails, all workers are terminated.  Workers
    close the pipe read ends they inherit, so one whose caller is gone ends
    quietly at its next send."""
    n = len(tasks)
    slots = max(1, min(slots, n))
    context = get_context("fork")
    lock = context.Lock()
    # the next task to hand out, then the slot that took each task
    state = memoryview(mmap.mmap(-1, 8 * (n + 1))).cast("q")
    state[0] = slots

    def take(slot):
        with lock:
            i = state[0]
            state[0] = i + 1
            if i < n:
                state[1 + i] = slot
        return i

    results, failures, workers = {}, {}, []
    try:
        for s in range(1, slots):
            pipe, send = context.Pipe(duplex=False)
            workers.append((context.Process(target=_serve, args=(
                tasks, s, take, send, [r for _, r in workers] + [pipe])), pipe))
            workers[-1][0].start()
            send.close()
        i = 0
        while i < n:
            results[i] = tasks[i]()
            i = take(0)
        for _, pipe in workers:
            with suppress(EOFError, OSError):   # until the worker has ended
                while True:
                    i, ok, value = pipe.recv()
                    (results if ok else failures)[i] = value
    except BaseException:
        for worker, _ in workers:
            worker.terminate()
        raise
    finally:
        for worker, pipe in workers:
            worker.join()
            pipe.close()
    for i in range(n):
        if i in failures:
            raise failures[i]
        if i not in results:
            owner = i if i < slots else state[1 + i]
            raise NumericalError(f"{describe(i)} exited with code "
                                 f"{workers[owner - 1][0].exitcode}")
    return [results[i] for i in range(n)]


def _serve(tasks, slot, take, pipe, readers) -> None:
    """A worker's loop; it sends ``(i, True, result)`` or ``(i, False, exc)``
    and ends quietly once its caller is gone."""
    for reader in readers:
        reader.close()
    i = slot
    with suppress(BrokenPipeError):
        while i < len(tasks):
            try:
                result = tasks[i]()
            except Exception as exc:
                return pipe.send((i, False, exc))
            pipe.send((i, True, result))
            i = take(slot)
