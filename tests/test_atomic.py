"""Output files are replaced whole or not at all."""

from __future__ import annotations

import json

import pytest

import storygraph.atomic as atomic
from storygraph.atomic import write_atomic


def test_text_written_as_utf8_and_bytes_as_is(tmp_path):
    write_atomic(tmp_path / "a.json", "naïve\n")
    write_atomic(tmp_path / "b.bin", b"\x00\xff")
    assert (tmp_path / "a.json").read_bytes() == "naïve\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\xff"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.bin"]


def test_replaces_previous_content(tmp_path):
    target = tmp_path / "report.json"
    write_atomic(target, json.dumps({"run": 1}))
    write_atomic(target, json.dumps({"run": 2}))
    assert json.loads(target.read_text()) == {"run": 2}
    assert list(tmp_path.iterdir()) == [target]


def test_failure_before_replace_keeps_previous_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    write_atomic(target, json.dumps({"run": 1}))
    written = []

    def crash(src, dst):
        with open(src, "rb") as handle:
            written.append(handle.read())
        raise KeyboardInterrupt

    monkeypatch.setattr(atomic.os, "replace", crash)
    with pytest.raises(KeyboardInterrupt):
        write_atomic(target, json.dumps({"run": 2}))
    assert written == [b'{"run": 2}']
    assert json.loads(target.read_text()) == {"run": 1}
    assert list(tmp_path.iterdir()) == [target]


def test_failure_while_writing_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_atomic(tmp_path / "graph.json", 42)  # type: ignore[arg-type]
    assert list(tmp_path.iterdir()) == []
