"""The package names the benchmark's tracer wraps must keep existing.

``bench/tracing.py`` wraps functions by module and attribute name, patches
``ThreadPoolExecutor`` in the extraction connector and reads the ``vocab``
of every ``OneHotEmbedder``.  A deleted or renamed name breaks only the
benchmark, so these tests check its tables against the package without
running it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys

import pytest

from conftest import PKG_ROOT


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", PKG_ROOT / "bench" / "tracing.py"
    )
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
WRAPPED = tracing.SPANNED + tracing.COUNTED


@pytest.mark.parametrize(
    "module_name,path", [(m, p) for m, p, _ in WRAPPED], ids=[f"{m}.{p}" for m, p, _ in WRAPPED]
)
def test_wrapped_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr, None)
        assert owner is not None, f"{module_name} has no {path}"
    assert callable(owner)


def test_patched_and_read_names_exist():
    from storygraph.evaluation.bertscore import OneHotEmbedder
    from storygraph.extraction import connector

    assert OneHotEmbedder().vocab == {}
    assert isinstance(connector.ThreadPoolExecutor, type)


def test_install_and_uninstall_restore_the_package():
    import storygraph.cli as cli
    from storygraph.evaluation.bertscore import OneHotEmbedder

    for module_name, _path, _name in WRAPPED:
        importlib.import_module(module_name)
    before = (cli.cmd_evaluate, cli.components_to_story, OneHotEmbedder.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.cmd_evaluate is not before[0]
        assert cli.components_to_story is not before[1]
    finally:
        tracer.uninstall()
    assert (cli.cmd_evaluate, cli.components_to_story, OneHotEmbedder.__init__) == before
