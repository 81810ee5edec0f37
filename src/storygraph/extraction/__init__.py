"""Story-to-graph extraction: prompts, backends, parsers."""

from .backends import ChatHttpBackend, ReplayFixtureBackend
from .config import KNOWN_BACKENDS, ExtractorConfig
from .connector import extract_components, extract_many, make_backend
from .parsing import (
    components_from_records,
    extract_first_json,
    parse_benefit_response,
    parse_structured_response,
    parse_unstructured_response,
)
from .prompts import (
    BENEFIT_SYSTEM_PROMPT,
    HUMAN_TIP,
    MAIN_SYSTEM_PROMPT,
    PROMPT_CATALOG_VERSION,
    benefit_prompt,
    few_shot_records,
    main_prompt,
    render_prompt,
)
from .rule_based import rule_based_extract
from .types import DropCounts

__all__ = [
    "ChatHttpBackend",
    "ReplayFixtureBackend",
    "KNOWN_BACKENDS",
    "ExtractorConfig",
    "extract_components",
    "extract_many",
    "make_backend",
    "components_from_records",
    "extract_first_json",
    "parse_benefit_response",
    "parse_structured_response",
    "parse_unstructured_response",
    "BENEFIT_SYSTEM_PROMPT",
    "HUMAN_TIP",
    "MAIN_SYSTEM_PROMPT",
    "PROMPT_CATALOG_VERSION",
    "benefit_prompt",
    "few_shot_records",
    "main_prompt",
    "render_prompt",
    "rule_based_extract",
    "DropCounts",
]
