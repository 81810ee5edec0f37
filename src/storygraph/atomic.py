"""Whole-file output writes.

Each output goes to a temporary file in its own directory and is then
renamed over the target, so a run that stops midway leaves the previous
file or the new one, never a truncated one.
"""

from __future__ import annotations

import os
from pathlib import Path


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
