"""Extraction's own value types: the few-shot record and the drop tally.

Extraction output itself is a ``model.GraphDocument``, the one graph type
shared by every stage.
"""

from __future__ import annotations

from dataclasses import dataclass

RECORD_NODE_TYPES = frozenset({"Persona", "Action", "Entity", "Benefit"})
RECORD_RELATIONS = frozenset({"TRIGGERS", "TARGETS"})


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
