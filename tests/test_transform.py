"""Document assembly: story node, ownership edges, noise filtering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SYNC_TEXT
from storygraph.corpus import AnnotatedStory
from storygraph.extraction import DropCounts
from storygraph.model import (
    HAS_REL_FOR_KIND,
    HAS_RELS,
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    normalize_id,
    validate_ontology,
)
from storygraph.transform import (
    annotations_to_components,
    build_graph_document,
    components_to_story,
    story_document,
    story_elements,
)


def sync_components() -> GraphDocument:
    """An extraction of SYNC_TEXT: edges join the document's own nodes."""
    user, sync, access, data, info, anywhere, benefit = nodes = [
        GraphNode("user", NodeKind.PERSONA),
        GraphNode("sync", NodeKind.ACTION),
        GraphNode("access", NodeKind.ACTION),
        GraphNode("data", NodeKind.ENTITY),
        GraphNode("current information", NodeKind.ENTITY),
        GraphNode("anywhere", NodeKind.ENTITY),
        GraphNode("I can access my information from anywhere", NodeKind.BENEFIT),
    ]
    rels = [
        GraphRelationship(user, sync, RelKind.TRIGGERS),
        GraphRelationship(sync, data, RelKind.TARGETS),
        GraphRelationship(access, info, RelKind.TARGETS),
    ]
    return GraphDocument(nodes=nodes, relationships=rels)


def node_of(doc: GraphDocument, node_id: str) -> GraphNode:
    return next(node for node in doc.nodes if node.id == node_id)


class TestEnrich:
    """The story-node step of assembly."""

    def test_prepends_story_node(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        assert doc.nodes[0] == GraphNode(SYNC_TEXT, NodeKind.USERSTORY)
        assert len(doc.nodes) == 8

    def test_existing_story_node_not_duplicated(self):
        components = sync_components()
        components.nodes.append(GraphNode(SYNC_TEXT.upper(), NodeKind.USERSTORY))
        doc = build_graph_document(components, SYNC_TEXT)
        stories = [n for n in doc.nodes if n.kind is NodeKind.USERSTORY]
        assert len(stories) == 1

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            build_graph_document(sync_components(), " ")

    def test_input_not_mutated(self):
        components = sync_components()
        nodes, rels = list(components.nodes), list(components.relationships)
        build_graph_document(components, SYNC_TEXT)
        assert components.nodes == nodes
        assert components.relationships == rels


class TestLogicalRels:
    def test_one_edge_per_satellite_in_node_order(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        rels = [r for r in doc.relationships if r.kind in HAS_RELS]
        assert [r.kind for r in rels] == [
            RelKind.HAS_PERSONA,
            RelKind.HAS_ACTION,
            RelKind.HAS_ACTION,
            RelKind.HAS_ENTITY,
            RelKind.HAS_ENTITY,
            RelKind.HAS_ENTITY,
            RelKind.HAS_BENEFIT,
        ]
        assert all(r.source is doc.nodes[0] for r in rels)
        assert [r.target.id for r in rels] == [
            "user", "sync", "access", "data", "current information", "anywhere",
            "I can access my information from anywhere",
        ]


class TestBuildDocument:
    def test_valid_document(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        assert validate_ontology(doc) == []

    def test_counts(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        assert len(doc.nodes) == 8
        llm_rels = [r for r in doc.relationships if r.kind not in HAS_RELS]
        has_rels = [r for r in doc.relationships if r.kind in HAS_RELS]
        assert len(llm_rels) == 3
        assert len(has_rels) == 7

    def test_llm_edges_precede_ownership(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        kinds = [r.kind for r in doc.relationships]
        first_has = kinds.index(RelKind.HAS_PERSONA)
        assert all(k in HAS_RELS for k in kinds[first_has:])
        assert all(k not in HAS_RELS for k in kinds[:first_has])

    def test_incoming_nodes_and_edges_kept_as_they_are(self):
        components = sync_components()
        doc = build_graph_document(components, SYNC_TEXT)
        assert all(a is b for a, b in zip(doc.nodes[1:], components.nodes))
        assert all(
            a is b for a, b in zip(doc.relationships, components.relationships)
        )

    def test_duplicate_nodes_keep_first_casing(self):
        components = sync_components()
        components.nodes.append(GraphNode("USER", NodeKind.PERSONA))
        doc = build_graph_document(components, SYNC_TEXT)
        personas = [n for n in doc.nodes if n.kind is NodeKind.PERSONA]
        assert [n.id for n in personas] == ["user"]

    def test_same_id_different_kind_kept_apart(self):
        components = sync_components()
        components.nodes.append(GraphNode("sync", NodeKind.ENTITY))
        doc = build_graph_document(components, SYNC_TEXT)
        syncs = [n for n in doc.nodes if normalize_id(n.id) == "sync"]
        assert {n.kind for n in syncs} == {NodeKind.ACTION, NodeKind.ENTITY}

    def test_model_has_edges_discarded(self):
        components = sync_components()
        components.relationships.append(
            GraphRelationship(GraphNode(SYNC_TEXT, NodeKind.USERSTORY),
                              node_of(components, "user"), RelKind.HAS_PERSONA)
        )
        doc = build_graph_document(components, SYNC_TEXT)
        has_persona = [r for r in doc.relationships if r.kind is RelKind.HAS_PERSONA]
        assert len(has_persona) == 1

    def test_dangling_endpoint_dropped_and_counted(self):
        components = sync_components()
        components.relationships.append(
            GraphRelationship(GraphNode("ghost", NodeKind.ACTION),
                              node_of(components, "data"), RelKind.TARGETS)
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops.relationships == 1
        assert validate_ontology(doc) == []

    def test_wrong_endpoint_kinds_dropped(self):
        components = sync_components()
        components.relationships.append(
            GraphRelationship(node_of(components, "data"), node_of(components, "sync"),
                              RelKind.TRIGGERS)
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops.relationships == 1
        triggers = [r for r in doc.relationships if r.kind is RelKind.TRIGGERS]
        assert len(triggers) == 1

    def test_duplicate_edges_collapsed(self):
        components = sync_components()
        components.relationships.append(components.relationships[0])
        doc = build_graph_document(components, SYNC_TEXT)
        triggers = [r for r in doc.relationships if r.kind is RelKind.TRIGGERS]
        assert len(triggers) == 1

    def test_foreign_story_node_dropped_with_edges(self):
        components = sync_components()
        other = GraphNode("some other story", NodeKind.USERSTORY)
        components.nodes.append(other)
        components.relationships.append(
            GraphRelationship(other, node_of(components, "user"), RelKind.TRIGGERS)
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops.nodes == 1
        assert drops.relationships == 1
        stories = [n for n in doc.nodes if n.kind is NodeKind.USERSTORY]
        assert [n.id for n in stories] == [SYNC_TEXT]

    def test_matching_story_node_adopted(self):
        components = sync_components()
        components.nodes.insert(0, GraphNode(SYNC_TEXT, NodeKind.USERSTORY))
        doc = build_graph_document(components, SYNC_TEXT)
        assert validate_ontology(doc) == []
        assert len([n for n in doc.nodes if n.kind is NodeKind.USERSTORY]) == 1

    def test_empty_components_yield_bare_story(self):
        doc = build_graph_document(GraphDocument(), SYNC_TEXT)
        assert len(doc.nodes) == 1
        assert doc.nodes[0].kind is NodeKind.USERSTORY
        assert doc.relationships == []

    def test_never_raises_on_shape_problems(self):
        components = GraphDocument(
            nodes=[GraphNode("lonely", NodeKind.BENEFIT),
                   GraphNode("also lonely", NodeKind.BENEFIT)]
        )
        doc = build_graph_document(components, SYNC_TEXT)
        problems = validate_ontology(doc)
        assert problems, "two benefits should be flagged downstream"

    def test_edge_endpoints_are_document_node_objects(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        node_ids = {id(n) for n in doc.nodes}
        for rel in doc.relationships:
            assert id(rel.source) in node_ids
            assert id(rel.target) in node_ids


def reference_document(
    components: GraphDocument, story_text: str, drops: DropCounts
) -> GraphDocument:
    """Assembly spelled out step by step, normalizing at every lookup."""
    def key(node):
        return (node.kind, normalize_id(node.id))

    story_key = (NodeKind.USERSTORY, normalize_id(story_text))
    foreign = {
        key(n) for n in components.nodes
        if n.kind is NodeKind.USERSTORY and key(n) != story_key
    }
    kept = [n for n in components.nodes if key(n) not in foreign]
    drops.nodes += len(components.nodes) - len(kept)
    rels = []
    for rel in components.relationships:
        if key(rel.source) in foreign or key(rel.target) in foreign:
            drops.relationships += 1
        else:
            rels.append(rel)
    # The story node goes first, unless an equivalent one is there already.
    if story_key not in {key(n) for n in kept}:
        kept.insert(0, GraphNode(story_text, NodeKind.USERSTORY))
    index = {}
    for n in kept:
        index.setdefault(key(n), n)
    nodes = list(index.values())
    out, seen = [], set()
    for rel in rels:
        if rel.kind in HAS_RELS:
            continue
        src_key, tgt_key = key(rel.source), key(rel.target)
        source, target = index.get(src_key), index.get(tgt_key)
        if source is None or target is None or (
            (source.kind, target.kind) != REL_ENDPOINT_KINDS[rel.kind]
        ):
            drops.relationships += 1
        elif (rel.kind, src_key, tgt_key) not in seen:
            seen.add((rel.kind, src_key, tgt_key))
            out.append(GraphRelationship(source=source, target=target, kind=rel.kind))
    # One ownership edge per satellite node, in node order.
    (story,) = [n for n in nodes if n.kind is NodeKind.USERSTORY]
    for n in nodes:
        if n.kind is not NodeKind.USERSTORY:
            out.append(GraphRelationship(source=story, target=n, kind=HAS_REL_FOR_KIND[n.kind]))
    return GraphDocument(nodes=nodes, relationships=out, source_text=story_text)


# Few spellings, so that duplicates, case variants and story look-alikes occur.
spellings = st.sampled_from(["user", "User ", "sync", "SYNC", SYNC_TEXT, SYNC_TEXT.upper(), "other"])
kinds = st.sampled_from(list(NodeKind))
graph_nodes = st.builds(GraphNode, spellings, kinds)
rel_kinds = st.sampled_from(list(RelKind))
# Edges between fresh endpoint objects, mostly of kinds that fit the
# ontology so that they survive.
fresh_rels = rel_kinds.flatmap(
    lambda kind: st.builds(
        GraphRelationship,
        st.builds(GraphNode, spellings, st.just(REL_ENDPOINT_KINDS[kind][0]) | kinds),
        st.builds(GraphNode, spellings, st.just(REL_ENDPOINT_KINDS[kind][1]) | kinds),
        st.just(kind),
    )
)


class TestBuildMatchesReference:
    @settings(max_examples=300)
    @given(st.lists(graph_nodes, max_size=10), st.data())
    def test_same_document_and_drops(self, nodes, data):
        rels = fresh_rels
        if nodes:
            # Edges between the document's own nodes, as extraction emits them.
            own = st.sampled_from(nodes)
            rels = rels | st.builds(GraphRelationship, own, own, rel_kinds)
        components = GraphDocument(nodes=nodes, relationships=data.draw(st.lists(rels, max_size=6)))
        drops, reference_drops = DropCounts(), DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert doc == reference_document(components, SYNC_TEXT, reference_drops)
        assert drops == reference_drops

    def test_endpoint_spelled_unlike_its_node_is_resolved(self):
        components = GraphDocument(
            nodes=[GraphNode("user", NodeKind.PERSONA), GraphNode("sync", NodeKind.ACTION)],
            relationships=[GraphRelationship(
                GraphNode(" User", NodeKind.PERSONA), GraphNode("SYNC", NodeKind.ACTION),
                RelKind.TRIGGERS,
            )],
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        triggers = [r for r in doc.relationships if r.kind is RelKind.TRIGGERS]
        assert [(r.source.id, r.target.id) for r in triggers] == [("user", "sync")]
        assert triggers[0].source is components.nodes[0]
        assert drops == DropCounts()

    def test_each_id_normalized_once(self, monkeypatch):
        import storygraph.model as model

        calls = []
        original = model.normalize_id

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(model, "normalize_id", counting)
        components = sync_components()
        build_graph_document(components, SYNC_TEXT)
        assert sorted(calls) == sorted([SYNC_TEXT] + [c.id for c in components.nodes])


class TestRoundTrip:
    def test_reassembly_is_stable(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        assert build_graph_document(doc, SYNC_TEXT) == doc

    def test_projection_preserves_counts(self):
        """An extraction written in the annotation schema reads back as itself."""
        components = sync_components()
        story = components_to_story("#P#", "#P# " + SYNC_TEXT, components)
        again = annotations_to_components(story)
        assert len(again.nodes) == len(components.nodes)
        assert len(again.relationships) == len(components.relationships)
        assert again == components


class TestAnnotations:
    def test_sample_story_components(self, sample_backlog):
        story = sample_backlog.stories[0]
        components = annotations_to_components(story)
        ids = {(n.kind, n.id) for n in components.nodes}
        assert (NodeKind.PERSONA, "user") in ids
        assert (NodeKind.ACTION, "sync") in ids
        assert (NodeKind.ENTITY, "anywhere") in ids
        assert (NodeKind.BENEFIT, story.benefit) in ids
        assert len(components.relationships) == 3

    def test_pair_lists_can_imply_nodes(self):
        from storygraph.corpus import AnnotatedStory

        story = AnnotatedStory(
            pid="#X#",
            text="#X# As a user, I want to sync my data.",
            personas=[],
            primary_actions=[],
            secondary_actions=[],
            primary_entities=[],
            secondary_entities=[],
            triggers=[("user", "sync")],
            targets=[("sync", "data")],
        )
        components = annotations_to_components(story)
        kinds = {(n.kind, n.id) for n in components.nodes}
        assert (NodeKind.PERSONA, "user") in kinds
        assert (NodeKind.ACTION, "sync") in kinds
        assert (NodeKind.ENTITY, "data") in kinds

    def test_story_document_is_valid(self, sample_backlog):
        for story in sample_backlog.stories:
            doc = story_document(story)
            assert validate_ontology(doc) == []

    def test_story_document_source_has_no_pid(self, sample_backlog):
        doc = story_document(sample_backlog.stories[0])
        assert not doc.source_text.startswith("#")

    def test_story_elements_dedup_skip_and_promote_in_order(self):
        story = AnnotatedStory(
            pid="#X#",
            text="#X# As a user, I want to pay by cash.",
            personas=["user", "user", ""],
            primary_actions=["pay"],
            secondary_entities=["", "card"],
            benefit="",
            triggers=[("user", "pay"), ("admin", "")],
            targets=[("pay", "cash"), ("pay", "cash"), ("", "coin")],
        )
        nodes, triggers, targets = story_elements(story)
        assert nodes == [
            (NodeKind.PERSONA, "user"),
            (NodeKind.ACTION, "pay"),
            (NodeKind.ENTITY, "card"),
            (NodeKind.PERSONA, "admin"),
            (NodeKind.ENTITY, "cash"),
            (NodeKind.ENTITY, "coin"),
        ]
        assert triggers == [("user", "pay")]
        assert targets == [("pay", "cash"), ("pay", "cash")]

    def test_components_are_the_story_elements(self, sample_backlog):
        for story in sample_backlog.stories:
            doc = annotations_to_components(story)
            nodes, triggers, targets = story_elements(story)
            assert [(n.kind, n.id) for n in doc.nodes] == nodes
            assert [(r.kind, r.source.id, r.target.id) for r in doc.relationships] == [
                (RelKind.TRIGGERS, *pair) for pair in triggers
            ] + [(RelKind.TARGETS, *pair) for pair in targets]
            node_ids = {id(n) for n in doc.nodes}
            assert all(
                id(r.source) in node_ids and id(r.target) in node_ids
                for r in doc.relationships
            )
