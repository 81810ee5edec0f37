"""fan_out: a plain loop's results, log records and first error, over forked workers."""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PKG_ROOT
from storygraph import fanout
from storygraph.errors import BacklogParseError, ResponseParseError, StoryGraphError
from storygraph.fanout import fan_out

log = logging.getLogger("tests.fanout")


@pytest.fixture()
def cores(monkeypatch):
    """Sets the usable core count that fan_out reads."""
    return lambda count: monkeypatch.setattr(fanout, "_usable_cores", lambda: count)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=40, deadline=None)
@given(items=st.lists(st.integers(), max_size=9), workers=st.integers(1, 4))
def test_results_come_back_in_item_order(items, workers):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fanout, "_usable_cores", lambda: workers)
        results = fan_out(lambda item: (item * 3, os.getpid()), items)
    assert [value for value, _pid in results] == [item * 3 for item in items]
    # The caller works through the first share; one worker forks per other share.
    used = min(workers, len(items))
    assert len({pid for _value, pid in results}) == used
    if used:
        assert all(pid == os.getpid() for _value, pid in results[: len(items) // used])
    assert_no_child_left()


def test_worker_log_records_reach_the_caller_in_item_order(cores, caplog):
    cores(3)

    def work(item: int) -> int:
        log.warning("item %d in %s", item, "a worker" if item > 1 else "the caller")
        if item == 4:
            try:
                1 / 0
            except ZeroDivisionError:
                log.exception("item %d failed", item)
        return item

    with caplog.at_level("INFO"):
        assert fan_out(work, range(6)) == list(range(6))
    assert caplog.messages == [
        "item 0 in the caller", "item 1 in the caller", "item 2 in a worker",
        "item 3 in a worker", "item 4 in a worker", "item 4 failed", "item 5 in a worker",
    ]
    assert "ZeroDivisionError: division by zero" in caplog.text


@pytest.mark.parametrize(
    "error",
    [BacklogParseError("invalid JSON at byte offset 7", byte_offset=7),
     ResponseParseError("no JSON array in reply", raw="Sure! Here you go")],
)
def test_first_failing_item_raises_with_its_attributes(cores, caplog, error):
    cores(3)

    def work(item: int) -> int:
        log.warning("item %d", item)
        if item in (3, 5):
            raise error if item == 3 else ValueError("a later item")
        return item

    with caplog.at_level("WARNING"), pytest.raises(type(error)) as raised:
        fan_out(work, range(6))
    assert type(raised.value) is type(error)
    assert str(raised.value) == str(error)
    assert vars(raised.value) == vars(error)
    # Records up to the failing item, as a loop would have logged them.
    assert caplog.messages == ["item 0", "item 1", "item 2", "item 3"]
    assert_no_child_left()


def test_worker_that_dies_is_an_error_naming_its_item(cores):
    cores(2)
    caller = os.getpid()

    def work(item: int) -> int:
        if item == 4 and os.getpid() != caller:
            os._exit(3)
        return item

    with pytest.raises(StoryGraphError, match="the worker for 4 exited without a result"):
        fan_out(work, range(6))
    assert_no_child_left()


def test_failure_in_the_callers_share_stops_the_workers(cores):
    cores(2)
    caller = os.getpid()

    def work(item: int) -> int:
        if os.getpid() != caller:
            time.sleep(60)
        raise ValueError(f"item {item}")

    started = time.monotonic()
    with pytest.raises(ValueError, match="item 0"):
        fan_out(work, range(2))
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_runs_inline_while_another_thread_is_alive(cores):
    cores(4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        assert fan_out(lambda _item: os.getpid(), range(4)) == [os.getpid()] * 4
    finally:
        release.set()
        thread.join(timeout=30)
    assert not thread.is_alive()


# A caller with one worker, run in its own process: each worker item is
# appended to the file named by argv[1], then sleeps for argv[2] seconds;
# the caller's own share sleeps a minute.
CALLER = """
import os, sys, time
from storygraph import fanout

fanout._usable_cores = lambda: 2
caller = os.getpid()
log, pause = sys.argv[1], float(sys.argv[2])

def work(item):
    if os.getpid() == caller:
        time.sleep(60)
    else:
        with open(log, "a") as fh:
            fh.write(f"{item} {os.getpid()}\\n")
        time.sleep(pause)
    return item

fanout.fan_out(work, range(40))
"""


def start_caller(tmp_path, pause: float) -> tuple[subprocess.Popen, Path, int]:
    """The caller's process, the worker's item log and the worker's pid."""
    log = tmp_path / "items.txt"
    proc = subprocess.Popen(
        [sys.executable, "-c", CALLER, str(log), str(pause)],
        env={**os.environ, "PYTHONPATH": str(PKG_ROOT / "src")},
    )
    deadline = time.monotonic() + 30
    while not log.exists() or not log.read_text().endswith("\n"):
        assert time.monotonic() < deadline and proc.poll() is None
        time.sleep(0.02)
    return proc, log, int(log.read_text().split()[1])


def gone(pid: int) -> bool:
    """Whether the process has exited (an unreaped orphan counts as gone)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_until_gone(pid: int, seconds: float) -> None:
    deadline = time.monotonic() + seconds
    while not gone(pid):
        assert time.monotonic() < deadline, "the worker outlived its caller"
        time.sleep(0.02)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_sigterm_to_the_caller_leaves_no_worker(tmp_path):
    proc, _log, worker = start_caller(tmp_path, pause=60)
    try:
        proc.send_signal(signal.SIGTERM)
        # The caller still ends as SIGTERM ends it; its worker ends just after.
        assert proc.wait(timeout=30) == -signal.SIGTERM
        wait_until_gone(worker, 5)
    finally:
        proc.kill()
        if not gone(worker):
            os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_worker_of_a_killed_caller_stops_inside_its_item(tmp_path):
    proc, log, worker = start_caller(tmp_path, pause=60)
    try:
        proc.kill()
        proc.wait(timeout=30)
        begun = log.read_text()
        # It stops well before the minute its item sleeps, and begins no other.
        wait_until_gone(worker, 5)
        assert log.read_text() == begun
    finally:
        if not gone(worker):
            os.kill(worker, signal.SIGKILL)


def test_results_come_back_through_temporary_files_without_memfd(cores, monkeypatch):
    cores(3)
    monkeypatch.delattr(os, "memfd_create", raising=False)
    results = fan_out(lambda item: (item, os.getpid()), range(7))
    assert [item for item, _pid in results] == list(range(7))
    assert len({pid for _item, pid in results}) == 3
    assert_no_child_left()
