"""Whole-file output writes, and the text of the JSON output files.

Each output goes to a temporary file in its own directory and is then
renamed over the target, so a run that stops midway leaves the previous
file or the new one, never a truncated one.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any


def json_text(value: Any) -> str:
    """The byte-stable text of a JSON output file: two-space indent, non-ASCII
    text as itself, and a final newline."""
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Replace ``path`` with ``data`` (text is written as UTF-8).

    The temporary file is removed if anything fails before the rename.  No
    fsync: this guards against a crashed process, not against power loss.
    """
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
