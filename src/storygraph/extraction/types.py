"""Value types passed between the extraction pipeline stages."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..model import NodeKind, RelKind, normalize_id

RECORD_NODE_TYPES = frozenset({"Persona", "Action", "Entity", "Benefit"})
RECORD_RELATIONS = frozenset({"TRIGGERS", "TARGETS"})


@dataclass(frozen=True)
class ComponentNode:
    """A bare extracted node before document assembly."""

    id: str
    kind: NodeKind


@dataclass(frozen=True)
class ComponentRelationship:
    """An extracted edge, endpoints addressed by id and kind."""

    source_id: str
    source_kind: NodeKind
    target_id: str
    target_kind: NodeKind
    kind: RelKind


@dataclass
class KgComponents:
    """Raw extraction output for one story.

    Invariant: every relationship endpoint also appears in ``nodes``.
    """

    nodes: list[ComponentNode] = field(default_factory=list)
    relationships: list[ComponentRelationship] = field(default_factory=list)

    def node_keys(self) -> set[tuple[NodeKind, str]]:
        return {(node.kind, normalize_id(node.id)) for node in self.nodes}

    def nodes_of_kind(self, kind: NodeKind) -> list[str]:
        return [node.id for node in self.nodes if node.kind is kind]


@dataclass(frozen=True)
class ExtractionRecord:
    """One head-relation-tail example in the few-shot output format."""

    text: str
    head: str
    head_type: str
    relation: str
    tail: str
    tail_type: str

    def validate(self) -> None:
        if self.head_type not in RECORD_NODE_TYPES:
            raise ValueError(f"unknown head_type {self.head_type!r}")
        if self.tail_type not in RECORD_NODE_TYPES:
            raise ValueError(f"unknown tail_type {self.tail_type!r}")
        if self.relation not in RECORD_RELATIONS:
            raise ValueError(f"unknown relation {self.relation!r}")


@dataclass
class DropCounts:
    """Tally of payload fragments discarded during parsing or assembly."""

    nodes: int = 0
    relationships: int = 0

    def merge(self, other: "DropCounts") -> None:
        self.nodes += other.nodes
        self.relationships += other.relationships
