"""Assemble graph documents into ontology-shaped ones.

Extraction and load pass the one graph type of ``model``: extraction returns
a ``GraphDocument`` whose edges join its own node objects, which
``components_to_story`` casts into the annotation schema, and load projects
each annotated story back into a document.  ``story_elements`` is the one
projection of an annotated story, for evaluation and load alike.

Two entries build the final document, one per input.
``build_graph_document`` takes any graph document and sends it through
``extraction.types.DocumentBuilder``, the one rule for what a graph may hold;
``story_document`` takes an annotated story, whose elements already keep that
rule.  Both end in one assembly that adds what is never asked of a model: the
story node is the input itself and the ownership (HAS_*) edges follow from
node existence, so both are derived here.
"""

from __future__ import annotations

from typing import Iterable

from .corpus import AnnotatedStory, clean_story_text
from .extraction.types import DocumentBuilder, DropCounts
from .model import (
    HAS_REL_FOR_KIND,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
)

# Enum member lookups cost more than a global read on the per-story paths.
_PERSONA, _ACTION, _ENTITY = NodeKind.PERSONA, NodeKind.ACTION, NodeKind.ENTITY


def _story_node(story_text: str) -> GraphNode:
    if not story_text or not story_text.strip():
        raise ValueError("story_text must be non-empty")
    return GraphNode(story_text, NodeKind.USERSTORY)


def _assemble(
    story: GraphNode, nodes: Iterable[GraphNode], rels: list[GraphRelationship]
) -> GraphDocument:
    """Dedup, rewire and infer ownership: the assembly every document gets.

    ``story`` goes first, and then the first node of each identity key, as
    it is.  Each edge, whose ends are among ``nodes``, is attached once to
    the kept nodes of its ends' keys.  Every kept node gets its ownership
    edge from ``story``.
    """
    index: dict[tuple[NodeKind, str], GraphNode] = {}
    for node in nodes:
        index.setdefault(node.key(), node)

    edges: list[GraphRelationship] = []
    seen: set[tuple[RelKind, tuple[NodeKind, str], tuple[NodeKind, str]]] = set()
    for rel in rels:
        src_key, tgt_key = rel.source.key(), rel.target.key()
        if (rel.kind, src_key, tgt_key) not in seen:
            seen.add((rel.kind, src_key, tgt_key))
            source, target = index[src_key], index[tgt_key]
            if source is not rel.source or target is not rel.target:
                rel = GraphRelationship(source, target, rel.kind)
            edges.append(rel)
    for node in index.values():
        edges.append(GraphRelationship(story, node, HAS_REL_FOR_KIND[node.kind]))
    return GraphDocument(nodes=[story, *index.values()], relationships=edges, source_text=story.id)


def build_graph_document(
    doc: GraphDocument, story_text: str, *, drops: DropCounts | None = None
) -> GraphDocument:
    """Full assembly of a graph document under the rule of extraction.

    Each node and edge goes through ``extraction.types.DocumentBuilder``,
    as a model reply's do: story nodes, HAS_* edges, edges of the wrong
    endpoint kinds and blank ids are dropped and counted in ``drops``, ids
    are stripped, and an edge's missing ends become nodes.  Raises
    ValueError for an empty story text, and otherwise never; shape problems
    are left for validate_ontology to report.
    """
    story = _story_node(story_text)
    builder = DocumentBuilder(DropCounts() if drops is None else drops)
    for node in doc.nodes:
        builder.add_node(node.id, node.kind)
    for rel in doc.relationships:
        source, target = rel.source, rel.target
        builder.add_relationship(source.id, source.kind, target.id, target.kind, rel.kind)
    return _assemble(story, builder.nodes.values(), builder.relationships)


def story_elements(
    story: AnnotatedStory,
) -> tuple[list[tuple[NodeKind, str]], list[tuple[str, str]], list[tuple[str, str]]]:
    """The one projection of an annotated story onto graph elements.

    Returns the nodes as (kind, id), then the TRIGGERS and the TARGETS
    pairs.  Nodes come in the order personas, actions, entities, benefit,
    then the endpoints of each trigger and each target, since an edge
    asserts both of its ends.  Exact duplicates and empty or blank ids are
    skipped, and so is a pair with an empty or blank member.

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
        [key for key in nodes if key[1].strip()],
        [pair for pair in story.triggers if pair[0].strip() and pair[1].strip()],
        [pair for pair in story.targets if pair[0].strip() and pair[1].strip()],
    )


def components_to_story(pid: str, text: str, doc: GraphDocument) -> AnnotatedStory:
    """Cast what extraction returns into the annotation schema.

    Its input holds only Persona, Action, Entity and Benefit nodes and
    TRIGGERS and TARGETS edges of the ontology's endpoint kinds, as
    ``extraction.types.DocumentBuilder`` keeps them.  Primary actions are
    the ones the persona triggers; primary entities are what those actions
    target.  Everything else is secondary.  Ids compare by their normalized
    form, ignoring kind.
    """
    by_kind: dict[NodeKind, list[GraphNode]] = {kind: [] for kind in NodeKind}
    for node in doc.nodes:
        by_kind[node.kind].append(node)
    triggers = [rel for rel in doc.relationships if rel.kind is RelKind.TRIGGERS]
    targets = [rel for rel in doc.relationships if rel.kind is RelKind.TARGETS]

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


def story_document(story: AnnotatedStory) -> GraphDocument:
    """The document ``load`` writes for one annotated story.

    The nodes and pairs of ``story_elements`` hold no story node, no HAS_*
    edge and no edge of the wrong endpoint kinds, so they go straight to
    assembly.  Raises ValueError for a story without text.
    """
    keys, triggers, targets = story_elements(story)
    index = {key: GraphNode(key[1], key[0]) for key in keys}
    rels = [
        GraphRelationship(index[_PERSONA, persona], index[_ACTION, action], RelKind.TRIGGERS)
        for persona, action in triggers
    ] + [
        GraphRelationship(index[_ACTION, action], index[_ENTITY, entity], RelKind.TARGETS)
        for action, entity in targets
    ]
    return _assemble(_story_node(clean_story_text(story)), index.values(), rels)


# The benchmark's tracer spans load's assembly under this name; the alias
# goes with the in-program spans of ROADMAP item 3.
annotations_to_components = story_document
