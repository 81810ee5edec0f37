"""Minimal .env loader.

Reads KEY=VALUE lines, skipping comments and blanks, stripping one layer of
matching quotes.  Existing environment variables always win, so a shell
export overrides the file.
"""

from __future__ import annotations

import logging
import os
from pathlib import Path

from .errors import ConfigError

log = logging.getLogger(__name__)


def load_env_file(path: str | Path = ".env") -> dict[str, str]:
    """Load variables from a dotenv-style file into os.environ.

    Returns the variables actually set.  A missing file is not an error;
    it simply sets nothing.  A file that cannot be read or is not UTF-8,
    after an optional byte-order mark, raises ConfigError naming it, and so
    does a line holding a NUL byte, which no environment variable can hold.
    """
    path = Path(path)
    applied: dict[str, str] = {}
    if not path.is_file():
        return applied
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read env file {path}: {exc}") from exc
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("export "):
            stripped = stripped[len("export ") :].lstrip()
        if "=" not in stripped:
            log.warning("%s:%d: ignoring line without '='", path, line_no)
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if "\0" in key + value:
            raise ConfigError(f"env file {path}, line {line_no}: NUL byte in a name or value")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "'\"":
            value = value[1:-1]
        if key and key not in os.environ:
            os.environ[key] = value
            applied[key] = value
    return applied
