"""Deterministic offline extractor for the Connextra story shape.

Intentionally shallow: one persona, the first desired verb, the head noun
phrase behind it, and the benefit clause.  Useful as a no-network baseline
and for exercising the pipeline end to end.
"""

from __future__ import annotations

import re

from ..model import GraphDocument, GraphNode, GraphRelationship, NodeKind, RelKind

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
    nodes: list[GraphNode] = []
    rels: list[GraphRelationship] = []

    persona = None
    match = _PERSONA.match(story_text)
    persona_id = match.group(1).strip() if match else ""
    if persona_id:
        persona = GraphNode(persona_id, NodeKind.PERSONA)
        nodes.append(persona)

    benefit = None
    benefit_match = _BENEFIT.search(story_text)
    want_end = len(story_text)
    if benefit_match:
        benefit = story_text[benefit_match.end() :].strip().rstrip(".").strip()
        want_end = benefit_match.start()

    action = None
    want_match = _WANT.search(story_text)
    if want_match and want_match.start() < want_end:
        action = GraphNode(want_match.group(1), NodeKind.ACTION)
        nodes.append(action)
        entity_id = _entity_phrase(story_text[want_match.end() : want_end])
        if entity_id:
            entity = GraphNode(entity_id, NodeKind.ENTITY)
            nodes.append(entity)
            rels.append(GraphRelationship(action, entity, RelKind.TARGETS))

    if persona and action:
        rels.insert(0, GraphRelationship(persona, action, RelKind.TRIGGERS))
    if benefit:
        nodes.append(GraphNode(benefit, NodeKind.BENEFIT))

    return GraphDocument(nodes=nodes, relationships=rels)
