"""Story-to-graph extraction: prompts, backends, parsers.

The public names below resolve on first use (PEP 562), so importing one
submodule, such as ``types`` for ``DropCounts`` or ``config`` for
``KNOWN_BACKENDS``, loads that module alone and not the HTTP client, the
parsers and the thread pool.
"""

from importlib import import_module

# Public name -> the submodule that defines it.
_SOURCES = {
    "ChatHttpBackend": "backends",
    "ReplayFixtureBackend": "backends",
    "KNOWN_BACKENDS": "config",
    "ExtractorConfig": "config",
    "extract_components": "connector",
    "extract_many": "connector",
    "make_backend": "connector",
    "components_from_records": "parsing",
    "extract_first_json": "parsing",
    "parse_benefit_response": "parsing",
    "parse_structured_response": "parsing",
    "parse_unstructured_response": "parsing",
    "BENEFIT_SYSTEM_PROMPT": "prompts",
    "HUMAN_TIP": "prompts",
    "MAIN_SYSTEM_PROMPT": "prompts",
    "PROMPT_CATALOG_VERSION": "prompts",
    "benefit_prompt": "prompts",
    "few_shot_records": "prompts",
    "main_prompt": "prompts",
    "render_prompt": "prompts",
    "rule_based_extract": "rule_based",
    "DropCounts": "types",
}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    # Not cached here: the submodule's binding stays the one source, so a
    # name patched there is the name read here.
    try:
        source = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{source}"), name)
