"""Assemble extracted components into an ontology-shaped graph document.

The story node and the ownership (HAS_*) edges are never asked of a model:
the story node is the input itself and ownership follows from node
existence, so both are derived here.
"""

from __future__ import annotations

import logging
from typing import Sequence

from .corpus import AnnotatedStory, clean_story_text
from .errors import TransformError
from .extraction.types import ComponentNode, ComponentRelationship, DropCounts, KgComponents
from .model import (
    HAS_REL_FOR_KIND,
    HAS_RELS,
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    normalize_id,
)

log = logging.getLogger(__name__)


def enrich_with_story_node(components: KgComponents, story_text: str) -> KgComponents:
    """Prepend the story's own node unless an equivalent one exists."""
    if not story_text or not story_text.strip():
        raise ValueError("story_text must be non-empty")
    story_key = normalize_id(story_text)
    for node in components.nodes:
        if node.kind is NodeKind.USERSTORY and normalize_id(node.id) == story_key:
            return KgComponents(
                nodes=list(components.nodes),
                relationships=list(components.relationships),
            )
    story_node = ComponentNode(story_text, NodeKind.USERSTORY)
    return KgComponents(
        nodes=[story_node] + list(components.nodes),
        relationships=list(components.relationships),
    )


def create_logical_rels(nodes: Sequence[ComponentNode]) -> list[ComponentRelationship]:
    """Derive one ownership edge per satellite node, in node order."""
    stories = [node for node in nodes if node.kind is NodeKind.USERSTORY]
    if len(stories) != 1:
        raise TransformError(
            f"expected exactly one userstory node, found {len(stories)}"
        )
    story = stories[0]
    rels = []
    for node in nodes:
        if node.kind is NodeKind.USERSTORY:
            continue
        rels.append(
            ComponentRelationship(
                story.id,
                NodeKind.USERSTORY,
                node.id,
                node.kind,
                HAS_REL_FOR_KIND[node.kind],
            )
        )
    return rels


def build_graph_document(
    components: KgComponents,
    story_text: str,
    *,
    drops: DropCounts | None = None,
) -> GraphDocument:
    """Full assembly: enrich, dedup, rewire, infer ownership.

    Model-emitted HAS_* edges are discarded (ownership is re-derived), and
    so are edges whose endpoint kinds contradict the ontology or whose
    endpoints vanished.  Raises ValueError for an empty story text, and
    otherwise never; shape problems are left for validate_ontology to
    report.

    The story text and each component id are normalized once, when their
    GraphNode is built; edges find their endpoints through those keys.
    """
    if not story_text or not story_text.strip():
        raise ValueError("story_text must be non-empty")
    story = GraphNode(id=story_text, kind=NodeKind.USERSTORY)
    candidates = [GraphNode(id=cnode.id, kind=cnode.kind) for cnode in components.nodes]
    # An endpoint spelled exactly like a node shares that node's key.
    keys_by_spelling = {(node.kind, node.id): node.key() for node in candidates}

    def endpoint_key(kind: NodeKind, node_id: str) -> tuple[NodeKind, str]:
        key = keys_by_spelling.get((kind, node_id))
        return key if key is not None else (kind, normalize_id(node_id))

    # A story node claiming to be a different story is extraction noise and
    # would make ownership ambiguous; drop it and everything touching it.
    foreign = {
        node.key()
        for node in candidates
        if node.kind is NodeKind.USERSTORY and node.key() != story.key()
    }

    nodes: list[GraphNode] = []
    index: dict[tuple[NodeKind, str], GraphNode] = {}
    for node in candidates:
        key = node.key()
        if key in foreign:
            if drops is not None:
                drops.nodes += 1
            log.debug("dropping foreign userstory node %r", node.id)
            continue
        if key not in index:
            index[key] = node
            nodes.append(node)
    if story.key() not in index:
        index[story.key()] = story
        nodes.insert(0, story)

    relationships: list[GraphRelationship] = []
    seen_rels: set[tuple[RelKind, tuple[NodeKind, str], tuple[NodeKind, str]]] = set()
    for rel in components.relationships:
        src_key = endpoint_key(rel.source_kind, rel.source_id)
        tgt_key = endpoint_key(rel.target_kind, rel.target_id)
        if src_key in foreign or tgt_key in foreign:
            if drops is not None:
                drops.relationships += 1
            continue
        if rel.kind in HAS_RELS:
            # Ownership is inferred below; a model's own claim is redundant
            # at best and wrong at worst.
            log.debug("discarding model-emitted %s edge", rel.kind.value)
            continue
        source = index.get(src_key)
        target = index.get(tgt_key)
        if source is None or target is None:
            if drops is not None:
                drops.relationships += 1
            continue
        expected = REL_ENDPOINT_KINDS[rel.kind]
        if (source.kind, target.kind) != expected:
            if drops is not None:
                drops.relationships += 1
            log.debug(
                "dropping %s edge with endpoint kinds %s->%s",
                rel.kind.value, source.kind.value, target.kind.value,
            )
            continue
        dedup_key = (rel.kind, src_key, tgt_key)
        if dedup_key in seen_rels:
            continue
        seen_rels.add(dedup_key)
        relationships.append(GraphRelationship(source=source, target=target, kind=rel.kind))

    story_node = index[story.key()]
    for node in nodes:
        if node.kind is not NodeKind.USERSTORY:
            relationships.append(
                GraphRelationship(source=story_node, target=node, kind=HAS_REL_FOR_KIND[node.kind])
            )

    return GraphDocument(nodes=nodes, relationships=relationships, source_text=story_text)


def document_components(doc: GraphDocument) -> KgComponents:
    """Project a document back onto bare components (inverse of assembly)."""
    nodes = [ComponentNode(node.id, node.kind) for node in doc.nodes]
    rels = [
        ComponentRelationship(
            rel.source.id, rel.source.kind, rel.target.id, rel.target.kind, rel.kind
        )
        for rel in doc.relationships
    ]
    return KgComponents(nodes=nodes, relationships=rels)


def annotations_to_components(story: AnnotatedStory) -> KgComponents:
    """Express ground-truth annotations as if they were extractor output.

    Feeding annotations through the same assembly path keeps evaluation and
    loading honest: both sides of a comparison take the identical route.
    """
    nodes: list[ComponentNode] = []
    seen: set[tuple[NodeKind, str]] = set()

    def add(node_id: str, kind: NodeKind) -> None:
        key = (kind, node_id)
        if node_id and key not in seen:
            seen.add(key)
            nodes.append(ComponentNode(node_id, kind))

    for persona in story.personas:
        add(persona, NodeKind.PERSONA)
    for action in story.actions:
        add(action, NodeKind.ACTION)
    for entity in story.entities:
        add(entity, NodeKind.ENTITY)
    if story.benefit:
        add(story.benefit, NodeKind.BENEFIT)

    rels = []
    for persona, action in story.triggers:
        add(persona, NodeKind.PERSONA)
        add(action, NodeKind.ACTION)
        rels.append(
            ComponentRelationship(
                persona, NodeKind.PERSONA, action, NodeKind.ACTION, RelKind.TRIGGERS
            )
        )
    for action, entity in story.targets:
        add(action, NodeKind.ACTION)
        add(entity, NodeKind.ENTITY)
        rels.append(
            ComponentRelationship(
                action, NodeKind.ACTION, entity, NodeKind.ENTITY, RelKind.TARGETS
            )
        )
    return KgComponents(nodes=nodes, relationships=rels)


def story_document(story: AnnotatedStory, *, drops: DropCounts | None = None) -> GraphDocument:
    """Ground-truth document for one annotated story."""
    return build_graph_document(
        annotations_to_components(story), clean_story_text(story), drops=drops
    )
