"""Deterministic offline extractor for the Connextra story shape.

Intentionally shallow: one persona, the first desired verb, the head noun
phrase behind it, and the benefit clause.  Useful as a no-network baseline
and for exercising the pipeline end to end.
"""

from __future__ import annotations

import re

from ..model import GraphDocument, NodeKind, RelKind
from .types import DocumentBuilder, DropCounts

_PERSONA = re.compile(r"^\s*As an?\s+(.+?)\s*,", re.IGNORECASE)
_BENEFIT = re.compile(r"\b(?:so that|in order to)\s+", re.IGNORECASE)
_WANT = re.compile(r"\bI want to (?:be able to )?([A-Za-z][\w-]*)", re.IGNORECASE)

# Function words dropped from the front of an entity phrase. Possessives
# like "my" stay: they are part of what the story names.
_ENTITY_LEAD = frozenset(
    {"a", "an", "the", "by", "in", "on", "at", "to", "for", "with", "from", "of"}
)


def _entity_phrase(fragment: str) -> str:
    tokens = fragment.strip().strip(".,;:").split()
    while tokens and tokens[0].lower() in _ENTITY_LEAD:
        tokens.pop(0)
    return " ".join(tokens).strip(".,;:").strip()


def rule_based_extract(story_text: str) -> GraphDocument:
    # The builder refuses what a pattern leaves blank; its tally is not read.
    builder = DocumentBuilder(DropCounts())
    persona = _PERSONA.match(story_text)
    persona_id = persona.group(1) if persona else ""
    builder.add_node(persona_id, NodeKind.PERSONA)

    benefit = _BENEFIT.search(story_text)
    want_end = benefit.start() if benefit else len(story_text)
    want = _WANT.search(story_text)
    if want and want.start() < want_end:
        action_id = want.group(1)
        builder.add_node(action_id, NodeKind.ACTION)
        builder.add_relationship(
            persona_id, NodeKind.PERSONA, action_id, NodeKind.ACTION, RelKind.TRIGGERS
        )
        builder.add_relationship(
            action_id, NodeKind.ACTION,
            _entity_phrase(story_text[want.end() : want_end]), NodeKind.ENTITY,
            RelKind.TARGETS,
        )
    if benefit:
        builder.add_node(story_text[benefit.end() :].strip().rstrip("."), NodeKind.BENEFIT)
    return builder.build()
