"""Graph vocabulary for user-story knowledge graphs.

Defines the node and relationship kinds, the one graph type every stage
passes on (``GraphNode``, ``GraphRelationship``, ``GraphDocument``),
identity normalization, and the ontology validator.  A node is an id and a
kind, a relationship two nodes and a kind; both are frozen and hashable.  A
relationship's endpoints are normally the very node objects in its
document's node list.  A node computes its identity key on the first
``key()`` call and stores it, so code that never keys a node never pays for
it.  Validation reports violations as data instead of raising so callers
can decide how strict to be.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any


class NodeKind(str, Enum):
    USERSTORY = "Userstory"
    PERSONA = "Persona"
    ACTION = "Action"
    ENTITY = "Entity"
    BENEFIT = "Benefit"


class RelKind(str, Enum):
    TRIGGERS = "TRIGGERS"
    TARGETS = "TARGETS"
    HAS_PERSONA = "HAS_PERSONA"
    HAS_ACTION = "HAS_ACTION"
    HAS_ENTITY = "HAS_ENTITY"
    HAS_BENEFIT = "HAS_BENEFIT"


# Expected (source kind, target kind) per relationship kind.
REL_ENDPOINT_KINDS: dict[RelKind, tuple[NodeKind, NodeKind]] = {
    RelKind.TRIGGERS: (NodeKind.PERSONA, NodeKind.ACTION),
    RelKind.TARGETS: (NodeKind.ACTION, NodeKind.ENTITY),
    RelKind.HAS_PERSONA: (NodeKind.USERSTORY, NodeKind.PERSONA),
    RelKind.HAS_ACTION: (NodeKind.USERSTORY, NodeKind.ACTION),
    RelKind.HAS_ENTITY: (NodeKind.USERSTORY, NodeKind.ENTITY),
    RelKind.HAS_BENEFIT: (NodeKind.USERSTORY, NodeKind.BENEFIT),
}

# Ownership edge pointing at each satellite node kind.
HAS_REL_FOR_KIND: dict[NodeKind, RelKind] = {
    NodeKind.PERSONA: RelKind.HAS_PERSONA,
    NodeKind.ACTION: RelKind.HAS_ACTION,
    NodeKind.ENTITY: RelKind.HAS_ENTITY,
    NodeKind.BENEFIT: RelKind.HAS_BENEFIT,
}

HAS_RELS = frozenset(HAS_REL_FOR_KIND.values())

_WS_RUN = re.compile(r"\s+")


def normalize_id(raw: str) -> str:
    """Canonical identity form: trimmed, single-spaced, lowercased.

    Idempotent, so normalized ids can be re-normalized safely.
    """
    return _WS_RUN.sub(" ", raw.strip()).lower()


@dataclass(frozen=True)
class GraphNode:
    id: str
    kind: NodeKind

    # Not a field: set on the instance by the first key() call.
    _key = None

    def key(self) -> tuple[NodeKind, str]:
        """Deduplication identity: kind plus normalized id, computed once."""
        key = self._key
        if key is None:
            key = (self.kind, normalize_id(self.id))
            object.__setattr__(self, "_key", key)
        return key


@dataclass(frozen=True)
class GraphRelationship:
    source: GraphNode
    target: GraphNode
    kind: RelKind


@dataclass
class GraphDocument:
    nodes: list[GraphNode] = field(default_factory=list)
    relationships: list[GraphRelationship] = field(default_factory=list)
    source_text: str = ""


@dataclass(frozen=True)
class OntologyViolation:
    """One broken ontology rule.

    ``severity`` is "error" for hard constraint breaks and "warning" for
    shapes the ontology tolerates but flags (more than one persona).
    """

    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return self.message


def _violation(message: str, severity: str = "error") -> OntologyViolation:
    return OntologyViolation(message=message, severity=severity)


def validate_ontology(doc: GraphDocument) -> list[OntologyViolation]:
    """Check a document against the user-story ontology.

    Returns one violation per broken rule; an empty list means the document
    is fully conformant.  Never raises on malformed shapes.
    """
    violations: list[OntologyViolation] = []

    by_kind: dict[NodeKind, list[GraphNode]] = {kind: [] for kind in NodeKind}
    for node in doc.nodes:
        by_kind[node.kind].append(node)

    n_userstory = len(by_kind[NodeKind.USERSTORY])
    if n_userstory != 1:
        violations.append(_violation(f"userstory cardinality {n_userstory} != 1"))

    n_persona = len(by_kind[NodeKind.PERSONA])
    if n_persona == 0:
        violations.append(_violation("persona cardinality 0 != 1"))
    elif n_persona > 1:
        violations.append(
            _violation(f"persona cardinality {n_persona} > 1", severity="warning")
        )

    if not by_kind[NodeKind.ACTION]:
        violations.append(_violation("action cardinality 0 < 1"))
    if not by_kind[NodeKind.ENTITY]:
        violations.append(_violation("entity cardinality 0 < 1"))

    n_benefit = len(by_kind[NodeKind.BENEFIT])
    if n_benefit > 1:
        violations.append(_violation(f"benefit cardinality {n_benefit} > 1"))

    story_node = by_kind[NodeKind.USERSTORY][0] if n_userstory == 1 else None
    # Identical text needs no normalizing to match.
    if story_node is not None and doc.source_text and story_node.id != doc.source_text:
        if story_node.key()[1] != normalize_id(doc.source_text):
            violations.append(
                _violation("userstory node id does not match the source text")
            )

    node_keys = {node.key() for node in doc.nodes}
    seen_keys: set[tuple[NodeKind, str]] = set()
    for node in doc.nodes:
        key = node.key()
        if key in seen_keys:
            violations.append(
                _violation(f"duplicate {node.kind.value} node '{node.id}'")
            )
        seen_keys.add(key)

    n_triggers = 0
    for rel in doc.relationships:
        if rel.kind is RelKind.TRIGGERS:
            n_triggers += 1
        expected_src, expected_tgt = REL_ENDPOINT_KINDS[rel.kind]
        if rel.source.kind is not expected_src or rel.target.kind is not expected_tgt:
            violations.append(
                _violation(
                    f"{rel.kind.value} endpoint kinds "
                    f"{rel.source.kind.value}->{rel.target.kind.value} violate "
                    f"{expected_src.value}->{expected_tgt.value}"
                )
            )
        for endpoint in (rel.source, rel.target):
            if endpoint.key() not in node_keys:
                violations.append(
                    _violation(
                        f"{rel.kind.value} endpoint '{endpoint.id}' "
                        "is not among the document nodes"
                    )
                )

    if n_triggers != 1:
        violations.append(_violation(f"triggers cardinality {n_triggers} != 1"))

    # Ownership coverage: with a unique story node present, every satellite
    # must hang off it by exactly one HAS_* edge.
    if story_node is not None:
        story_key = story_node.key()
        inbound: dict[tuple[NodeKind, str], int] = {}
        for rel in doc.relationships:
            if rel.kind in HAS_RELS and rel.source.key() == story_key:
                inbound[rel.target.key()] = inbound.get(rel.target.key(), 0) + 1
        for node in doc.nodes:
            if node.kind is NodeKind.USERSTORY:
                continue
            count = inbound.get(node.key(), 0)
            if count != 1:
                violations.append(
                    _violation(
                        f"{node.kind.value} node '{node.id}' has {count} "
                        "ownership edges != 1"
                    )
                )

    return violations


# Graph elements carry no properties; the exported shape keeps an empty map.
def node_to_dict(node: GraphNode) -> dict[str, Any]:
    return {"id": node.id, "type": node.kind.value, "properties": {}}


def _node_ref(node: GraphNode) -> dict[str, str]:
    return {"id": node.id, "type": node.kind.value}


def relationship_to_dict(rel: GraphRelationship) -> dict[str, Any]:
    return {
        "source": _node_ref(rel.source),
        "target": _node_ref(rel.target),
        "type": rel.kind.value,
        "properties": {},
    }


def document_to_dict(doc: GraphDocument) -> dict[str, Any]:
    """Canonical JSON shape, stable key order."""
    return {
        "nodes": [node_to_dict(node) for node in doc.nodes],
        "relationships": [relationship_to_dict(rel) for rel in doc.relationships],
        "source": doc.source_text,
    }


_KIND_BY_NAME = {kind.value.lower(): kind for kind in NodeKind}
_REL_BY_NAME = {kind.value.upper(): kind for kind in RelKind}


def node_kind_from_name(name: str) -> NodeKind | None:
    """Case-insensitive node kind lookup; None when unknown."""
    return _KIND_BY_NAME.get(str(name).strip().lower())


def rel_kind_from_name(name: str) -> RelKind | None:
    """Case-insensitive relationship kind lookup; None when unknown."""
    return _REL_BY_NAME.get(str(name).strip().upper())
