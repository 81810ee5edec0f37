"""Run one function over a list of items in processes forked from the caller.

The offline stages do one independent piece of work per backlog.
``fan_out`` splits the items into one contiguous share per usable core.
The caller works through the first share itself while each forked worker
works through one of the others, so a stage pays no interpreter start-up
and sends no function or argument between processes.  Each worker writes
its results, pickled, to its own anonymous file, which never fills up as a
pipe would while the caller is still busy with its share.

Forking a process that runs other threads can deadlock, so any other live
thread keeps the work in the calling process, as do one usable core, one
item, a platform without ``os.fork`` and a caller that asks for no fork.
Either way the results, the log records and the first exception come out
as from a plain loop.

No worker outlives its caller: the caller kills and reaps them on every
path it leaves by, and each worker ends as soon as the caller's process is
gone, however it ended.  For that the caller holds the only write end of a
lifeline pipe, which the kernel closes with the process; a thread in each
worker waits on the read end, and end of file ends the worker.
"""

from __future__ import annotations

import logging
import os
import pickle
import signal
import threading
from typing import BinaryIO, Callable, NoReturn, Sequence, TypeVar

from .errors import StoryGraphError

Item = TypeVar("Item")
Result = TypeVar("Result")


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _plain(record: logging.LogRecord) -> logging.LogRecord:
    """The record with its message and traceback as text, so that it pickles."""
    record.msg, record.args = record.getMessage(), None
    if record.exc_info:
        record.exc_text = record.exc_text or logging.Formatter().formatException(record.exc_info)
        record.exc_info = None
    return record


def _results_file() -> BinaryIO:
    """An anonymous file, in memory where the platform allows."""
    if hasattr(os, "memfd_create"):
        return open(os.memfd_create("fan_out"), "w+b")
    import tempfile

    return tempfile.TemporaryFile()


def _outlive_no_caller(lifeline: int) -> NoReturn:
    os.read(lifeline, 1)  # end of file: the caller's process is gone
    os._exit(1)


def _work(fn: Callable, share: Sequence, out: BinaryIO, lifeline: int, held: int) -> NoReturn:
    """A worker's life: one pickled (ok, result or exception, log records)
    message per item, up to the first failure; then ``os._exit``, so no exit
    handler or buffered stream of the caller runs a second time.  With its
    copy of the caller's ``held`` write end closed, a thread reading
    ``lifeline`` ends the worker once the caller's process is gone."""
    status = 1
    try:
        os.close(held)
        threading.Thread(target=_outlive_no_caller, args=(lifeline,), daemon=True).start()
        records: list[logging.LogRecord] = []
        logging.Logger.callHandlers = lambda _logger, record: records.append(_plain(record))
        for item in share:
            try:
                ok, value = True, fn(item)
            except Exception as exc:  # sent to the caller, which raises it
                ok, value = False, exc
            out.write(pickle.dumps((ok, value, records), pickle.HIGHEST_PROTOCOL))
            out.flush()
            records.clear()
            if not ok:
                break
        status = 0
    finally:
        os._exit(status)


def fan_out(
    fn: Callable[[Item], Result], items: Sequence[Item], fork: bool = True
) -> list[Result]:
    """``[fn(item) for item in items]``, over up to one process per usable core.

    Log records a worker emits reach the caller's handlers in item order.
    The exception of the first failing item is raised, after every worker
    has been reaped; a worker that dies without a result is a
    ``StoryGraphError`` naming the item it did not finish.  With ``fork``
    false every item runs in the calling process.
    """
    workers = min(_usable_cores(), len(items)) if fork else 1
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [fn(item) for item in items]
    bounds = [len(items) * k // workers for k in range(workers + 1)]
    children: list[tuple[int, BinaryIO, Sequence[Item]]] = []
    running: set[int] = set()
    lifeline, held = os.pipe()
    try:
        for start, stop in zip(bounds[1:-1], bounds[2:]):
            out = _results_file()
            pid = os.fork()
            if pid == 0:
                _work(fn, items[start:stop], out, lifeline, held)
            running.add(pid)
            children.append((pid, out, items[start:stop]))
        results = [fn(item) for item in items[: bounds[1]]]
        for pid, out, share in children:
            os.waitpid(pid, 0)
            running.discard(pid)
            out.seek(0)
            for item in share:
                try:
                    ok, value, records = pickle.load(out)
                except (EOFError, pickle.UnpicklingError):
                    raise StoryGraphError(
                        f"the worker for {item} exited without a result"
                    ) from None
                for record in records:
                    logging.getLogger(record.name).callHandlers(record)
                if not ok:
                    raise value
                results.append(value)
        return results
    finally:
        for pid in running:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):  # reaped a moment ago
                pass
        for _pid, out, _share in children:
            out.close()
        os.close(lifeline)
        os.close(held)
