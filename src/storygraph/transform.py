"""Assemble graph documents into ontology-shaped ones.

Extraction and load pass the one graph type of ``model``: extraction returns
a ``GraphDocument`` whose edges join its own node objects, which
``components_to_story`` casts into the annotation schema, and load projects
each annotated story back into a document.  ``story_elements`` is the one
projection of an annotated story, for evaluation and load alike.
``build_graph_document`` adds what is never asked of a model: the story
node is the input itself and the ownership (HAS_*) edges follow from node
existence, so both are derived here.
"""

from __future__ import annotations

import logging

from .corpus import AnnotatedStory, clean_story_text
from .extraction.types import DropCounts
from .model import (
    HAS_REL_FOR_KIND,
    HAS_RELS,
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
)

log = logging.getLogger(__name__)

# Enum member lookups cost more than a global read on the per-story paths.
_PERSONA, _ACTION, _ENTITY = NodeKind.PERSONA, NodeKind.ACTION, NodeKind.ENTITY


def build_graph_document(
    doc: GraphDocument,
    story_text: str,
    *,
    drops: DropCounts | None = None,
) -> GraphDocument:
    """Full assembly: add the story node, dedup, rewire, infer ownership.

    Model-emitted HAS_* edges are discarded (ownership is re-derived), and
    so are edges whose endpoint kinds contradict the ontology or whose
    endpoints vanished.  Raises ValueError for an empty story text, and
    otherwise never; shape problems are left for validate_ontology to
    report.

    The incoming nodes are kept as they are, the first of each identity key
    winning; each edge is attached to the kept nodes of its endpoints' keys.
    """
    if not story_text or not story_text.strip():
        raise ValueError("story_text must be non-empty")
    story = GraphNode(id=story_text, kind=NodeKind.USERSTORY)
    story_key = story.key()
    # A story node claiming to be a different story is extraction noise and
    # would make ownership ambiguous; drop it and everything touching it.
    foreign = {
        node.key()
        for node in doc.nodes
        if node.kind is NodeKind.USERSTORY and node.key() != story_key
    }

    nodes: list[GraphNode] = []
    index: dict[tuple[NodeKind, str], GraphNode] = {}
    for node in doc.nodes:
        key = node.key()
        if key in foreign:
            if drops is not None:
                drops.nodes += 1
            log.debug("dropping foreign userstory node %r", node.id)
            continue
        if key not in index:
            index[key] = node
            nodes.append(node)
    if story_key not in index:
        index[story_key] = story
        nodes.insert(0, story)

    relationships: list[GraphRelationship] = []
    seen_rels: set[tuple[RelKind, tuple[NodeKind, str], tuple[NodeKind, str]]] = set()
    for rel in doc.relationships:
        src_key = rel.source.key()
        tgt_key = rel.target.key()
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
        if source is not rel.source or target is not rel.target:
            rel = GraphRelationship(source, target, rel.kind)
        relationships.append(rel)

    story_node = index[story_key]
    for node in nodes:
        if node.kind is not NodeKind.USERSTORY:
            relationships.append(
                GraphRelationship(source=story_node, target=node, kind=HAS_REL_FOR_KIND[node.kind])
            )

    return GraphDocument(nodes=nodes, relationships=relationships, source_text=story_text)


def story_elements(
    story: AnnotatedStory,
) -> tuple[list[tuple[NodeKind, str]], list[tuple[str, str]], list[tuple[str, str]]]:
    """The one projection of an annotated story onto graph elements.

    Returns the nodes as (kind, id), then the TRIGGERS and the TARGETS
    pairs.  Nodes come in the order personas, actions, entities, benefit,
    then the endpoints of each trigger and each target, since an edge
    asserts both of its ends.  Exact duplicates and empty ids are skipped,
    and so is a pair with an empty member.

    Evaluation reads both the ground truth and the extraction through
    here, and load builds its documents from it, so a story scores 1.0
    against itself.
    """
    # A dict keeps first-seen order; assigning an existing key keeps its place.
    nodes: dict[tuple[NodeKind, str], None] = {}
    for persona in story.personas:
        nodes[_PERSONA, persona] = None
    for action in story.primary_actions + story.secondary_actions:
        nodes[_ACTION, action] = None
    for entity in story.primary_entities + story.secondary_entities:
        nodes[_ENTITY, entity] = None
    if story.benefit:
        nodes[NodeKind.BENEFIT, story.benefit] = None
    for persona, action in story.triggers:
        nodes[_PERSONA, persona] = nodes[_ACTION, action] = None
    for action, entity in story.targets:
        nodes[_ACTION, action] = nodes[_ENTITY, entity] = None
    return (
        [key for key in nodes if key[1]],
        [pair for pair in story.triggers if pair[0] and pair[1]],
        [pair for pair in story.targets if pair[0] and pair[1]],
    )


def components_to_story(
    pid: str, text: str, doc: GraphDocument, *, drops: DropCounts | None = None
) -> AnnotatedStory:
    """Cast an extracted document into the annotation schema.

    Primary actions are the ones the persona triggers; primary entities are
    what those actions target.  Everything else is secondary.  Ids compare
    by their normalized form, ignoring kind.  A TRIGGERS or TARGETS edge
    whose endpoint kinds contradict the ontology is dropped, so that its
    ends are never read back as nodes of another kind.
    """
    by_kind: dict[NodeKind, list[GraphNode]] = {kind: [] for kind in NodeKind}
    for node in doc.nodes:
        by_kind[node.kind].append(node)

    triggers = []
    targets = []
    for rel in doc.relationships:
        if rel.kind is RelKind.TRIGGERS:
            edges = triggers
        elif rel.kind is RelKind.TARGETS:
            edges = targets
        else:
            continue
        if (rel.source.kind, rel.target.kind) == REL_ENDPOINT_KINDS[rel.kind]:
            edges.append(rel)
        elif drops is not None:
            drops.relationships += 1

    primary_action_keys = {rel.target.key()[1] for rel in triggers}
    primary_entity_keys = {
        rel.target.key()[1] for rel in targets if rel.source.key()[1] in primary_action_keys
    }
    actions = by_kind[_ACTION]
    entities = by_kind[_ENTITY]
    benefits = by_kind[NodeKind.BENEFIT]
    return AnnotatedStory(
        pid=pid,
        text=text,
        personas=[node.id for node in by_kind[_PERSONA]],
        primary_actions=[a.id for a in actions if a.key()[1] in primary_action_keys],
        secondary_actions=[a.id for a in actions if a.key()[1] not in primary_action_keys],
        primary_entities=[e.id for e in entities if e.key()[1] in primary_entity_keys],
        secondary_entities=[e.id for e in entities if e.key()[1] not in primary_entity_keys],
        benefit=benefits[0].id if benefits else None,
        triggers=[(rel.source.id, rel.target.id) for rel in triggers],
        targets=[(rel.source.id, rel.target.id) for rel in targets],
    )


def annotations_to_components(story: AnnotatedStory) -> GraphDocument:
    """Express annotations as if they were extractor output.

    The nodes are those of ``story_elements``; each edge joins two of them.
    """
    keys, triggers, targets = story_elements(story)
    index = {key: GraphNode(key[1], key[0]) for key in keys}
    rels = [
        GraphRelationship(index[_PERSONA, persona], index[_ACTION, action], RelKind.TRIGGERS)
        for persona, action in triggers
    ]
    rels += [
        GraphRelationship(index[_ACTION, action], index[_ENTITY, entity], RelKind.TARGETS)
        for action, entity in targets
    ]
    return GraphDocument(nodes=list(index.values()), relationships=rels)


def story_document(story: AnnotatedStory, *, drops: DropCounts | None = None) -> GraphDocument:
    """Ground-truth document for one annotated story."""
    return build_graph_document(
        annotations_to_components(story), clean_story_text(story), drops=drops
    )
