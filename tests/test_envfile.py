"""Dotenv loader behavior."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from storygraph.envfile import load_env_file
from storygraph.errors import ConfigError


def test_basic_assignment(tmp_path, monkeypatch):
    monkeypatch.delenv("SG_TEST_KEY", raising=False)
    env = tmp_path / ".env"
    env.write_text("SG_TEST_KEY=value\n")
    applied = load_env_file(env)
    assert applied == {"SG_TEST_KEY": "value"}
    assert os.environ["SG_TEST_KEY"] == "value"


def test_existing_environment_wins(tmp_path, monkeypatch):
    monkeypatch.setenv("SG_TEST_KEY", "from-shell")
    env = tmp_path / ".env"
    env.write_text("SG_TEST_KEY=from-file\n")
    applied = load_env_file(env)
    assert applied == {}
    assert os.environ["SG_TEST_KEY"] == "from-shell"


def test_comments_blanks_and_export(tmp_path, monkeypatch):
    for key in ("SG_A", "SG_B"):
        monkeypatch.delenv(key, raising=False)
    env = tmp_path / ".env"
    env.write_text("# comment\n\nexport SG_A=1\nSG_B = two words \n")
    applied = load_env_file(env)
    assert applied == {"SG_A": "1", "SG_B": "two words"}


def test_quotes_stripped_once(tmp_path, monkeypatch):
    for key in ("SG_Q1", "SG_Q2", "SG_Q3"):
        monkeypatch.delenv(key, raising=False)
    env = tmp_path / ".env"
    env.write_text("SG_Q1='quoted value'\nSG_Q2=\"double\"\nSG_Q3=''wrapped''\n")
    applied = load_env_file(env)
    assert applied["SG_Q1"] == "quoted value"
    assert applied["SG_Q2"] == "double"
    assert applied["SG_Q3"] == "'wrapped'"


def test_value_with_equals_sign(tmp_path, monkeypatch):
    monkeypatch.delenv("SG_EQ", raising=False)
    env = tmp_path / ".env"
    env.write_text("SG_EQ=a=b=c\n")
    assert load_env_file(env) == {"SG_EQ": "a=b=c"}


def test_missing_file_is_noop(tmp_path):
    assert load_env_file(tmp_path / "absent.env") == {}


def test_malformed_line_skipped(tmp_path, caplog):
    env = tmp_path / ".env"
    env.write_text("not a pair\n")
    with caplog.at_level("WARNING"):
        assert load_env_file(env) == {}
    assert any("without '='" in r.message for r in caplog.records)


def test_not_utf8_raises_config_error_naming_the_file(tmp_path):
    env = tmp_path / "bad.env"
    env.write_bytes(b"A=\xff\n")
    with pytest.raises(ConfigError, match="bad.env"):
        load_env_file(env)


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path, monkeypatch):
    """The first variable was set as "\\ufeffSG_A", so SG_A was silently lost."""
    for key in ("SG_A", "SG_B"):
        monkeypatch.delenv(key, raising=False)
    env = tmp_path / ".env"
    env.write_bytes(b"\xef\xbb\xbfSG_A=1\nSG_B=2\n")
    assert load_env_file(env) == {"SG_A": "1", "SG_B": "2"}
    assert os.environ["SG_A"] == "1"


@pytest.mark.parametrize("line", [b"A=b\x00c\n", b"A\x00B=c\n"], ids=["value", "name"])
def test_nul_byte_raises_config_error_naming_file_and_line(tmp_path, monkeypatch, line):
    env = tmp_path / "nul.env"
    env.write_bytes(b"# first\n" + line)
    monkeypatch.delenv("A", raising=False)
    with pytest.raises(ConfigError, match="nul.env, line 2"):
        load_env_file(env)


def test_unreadable_file_raises_config_error(tmp_path, monkeypatch):
    env = tmp_path / "locked.env"
    env.write_text("A=1\n")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    with pytest.raises(ConfigError, match="locked.env"):
        load_env_file(env)
