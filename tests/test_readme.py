"""The README's Python examples run as written."""

from __future__ import annotations

import re

from conftest import PKG_ROOT

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_python_examples_run_in_order(monkeypatch):
    """Each block runs after the ones above it, in one namespace, from the
    repository root, as a reader would paste them."""
    readme = (PKG_ROOT / "README.md").read_text(encoding="utf-8")
    blocks = PYTHON_BLOCK.findall(readme)
    assert len(blocks) >= 2
    monkeypatch.chdir(PKG_ROOT)
    namespace: dict = {"__name__": "readme"}
    for number, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {number}", "exec"), namespace)
