"""Extraction's own value type: the drop tally.

Extraction output itself is a ``model.GraphDocument``, the one graph type
shared by every stage.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class DropCounts:
    """Tally of payload fragments discarded during parsing or assembly."""

    nodes: int = 0
    relationships: int = 0

    def merge(self, other: "DropCounts") -> None:
        self.nodes += other.nodes
        self.relationships += other.relationships
