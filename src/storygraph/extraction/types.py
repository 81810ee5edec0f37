"""What every extraction returns: the one builder that decides it, and its tally.

Extraction output is a ``model.GraphDocument``, the one graph type of every
stage.  The reply parsers and the rule-based extractor all build it through
``DocumentBuilder``; this module imports nothing of the chat stack.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Any

from ..model import (
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
)

log = logging.getLogger(__name__)

# The node kinds and edges a model is asked for; the story node and the
# ownership (HAS_*) edges are derived at assembly, never extracted.
_NODE_KINDS = frozenset({NodeKind.PERSONA, NodeKind.ACTION, NodeKind.ENTITY, NodeKind.BENEFIT})
_EDGE_ENDS = {kind: REL_ENDPOINT_KINDS[kind] for kind in (RelKind.TRIGGERS, RelKind.TARGETS)}


@dataclass
class DropCounts:
    """Tally of payload fragments discarded during parsing or assembly."""

    nodes: int = 0
    relationships: int = 0

    def merge(self, other: "DropCounts") -> None:
        self.nodes += other.nodes
        self.relationships += other.relationships


def usable_text(value: Any) -> str | None:
    """``str(value)`` stripped; None when blank or not valid Unicode text."""
    text = str(value).strip()
    try:
        text.encode("utf-8")  # a lone surrogate, such as JSON's "\ud800", fails
    except UnicodeEncodeError:
        return None
    return text or None


class DocumentBuilder:
    """Nodes, one per exact (kind, id), and edges: the one rule for all.

    A node needs a Persona, Action, Entity or Benefit kind and a
    ``usable_text`` id.  An edge needs to be a TRIGGERS or TARGETS edge
    whose ends have the kinds ``REL_ENDPOINT_KINDS`` gives it, and two
    such ids.  Whatever is refused is counted in ``drops``.
    """

    def __init__(self, drops: DropCounts) -> None:
        self.drops = drops
        self.nodes: dict[tuple[NodeKind, str], GraphNode] = {}
        self.relationships: list[GraphRelationship] = []

    def _node(self, node_id: str, kind: NodeKind) -> GraphNode:
        node = self.nodes.get((kind, node_id))
        if node is None:
            node = self.nodes[(kind, node_id)] = GraphNode(node_id, kind)
        return node

    def add_node(self, node_id: Any, kind: NodeKind | None) -> None:
        text = usable_text(node_id)
        if kind not in _NODE_KINDS or text is None:
            log.debug("dropping node %r of kind %s", node_id, kind)
            self.drops.nodes += 1
        else:
            self._node(text, kind)

    def add_relationship(
        self, source_id: Any, source_kind: NodeKind | None,
        target_id: Any, target_kind: NodeKind | None, kind: RelKind | None,
    ) -> None:
        """An edge with a known kind and two named ends of known kinds asserts
        those ends, kept or not: missing ones of kept kinds become nodes."""
        source_text, target_text = usable_text(source_id), usable_text(target_id)
        if None not in (kind, source_kind, target_kind, source_text, target_text):
            source = self._node(source_text, source_kind) if source_kind in _NODE_KINDS else None
            target = self._node(target_text, target_kind) if target_kind in _NODE_KINDS else None
            if _EDGE_ENDS.get(kind) == (source_kind, target_kind):
                self.relationships.append(GraphRelationship(source, target, kind))
                return
        log.debug("dropping %s edge %r -> %r", kind, source_id, target_id)
        self.drops.relationships += 1

    def build(self) -> GraphDocument:
        return GraphDocument(nodes=list(self.nodes.values()), relationships=self.relationships)
