"""Document assembly: story node, ownership edges, noise filtering."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SYNC_TEXT
from storygraph.errors import TransformError
from storygraph.extraction import (
    ComponentNode,
    ComponentRelationship,
    DropCounts,
    KgComponents,
)
from storygraph.model import (
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
    create_logical_rels,
    document_components,
    enrich_with_story_node,
    story_document,
)


def sync_components() -> KgComponents:
    nodes = [
        ComponentNode("user", NodeKind.PERSONA),
        ComponentNode("sync", NodeKind.ACTION),
        ComponentNode("access", NodeKind.ACTION),
        ComponentNode("data", NodeKind.ENTITY),
        ComponentNode("current information", NodeKind.ENTITY),
        ComponentNode("anywhere", NodeKind.ENTITY),
        ComponentNode("I can access my information from anywhere", NodeKind.BENEFIT),
    ]
    rels = [
        ComponentRelationship("user", NodeKind.PERSONA, "sync", NodeKind.ACTION,
                              RelKind.TRIGGERS),
        ComponentRelationship("sync", NodeKind.ACTION, "data", NodeKind.ENTITY,
                              RelKind.TARGETS),
        ComponentRelationship("access", NodeKind.ACTION, "current information",
                              NodeKind.ENTITY, RelKind.TARGETS),
    ]
    return KgComponents(nodes=nodes, relationships=rels)


class TestEnrich:
    def test_prepends_story_node(self):
        enriched = enrich_with_story_node(sync_components(), SYNC_TEXT)
        assert enriched.nodes[0] == ComponentNode(SYNC_TEXT, NodeKind.USERSTORY)
        assert len(enriched.nodes) == 8

    def test_existing_story_node_not_duplicated(self):
        components = sync_components()
        components.nodes.append(ComponentNode(SYNC_TEXT.upper(), NodeKind.USERSTORY))
        enriched = enrich_with_story_node(components, SYNC_TEXT)
        stories = [n for n in enriched.nodes if n.kind is NodeKind.USERSTORY]
        assert len(stories) == 1

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            enrich_with_story_node(sync_components(), " ")

    def test_input_not_mutated(self):
        components = sync_components()
        before = list(components.nodes)
        enrich_with_story_node(components, SYNC_TEXT)
        assert components.nodes == before


class TestLogicalRels:
    def test_one_edge_per_satellite_in_node_order(self):
        enriched = enrich_with_story_node(sync_components(), SYNC_TEXT)
        rels = create_logical_rels(enriched.nodes)
        assert [r.kind for r in rels] == [
            RelKind.HAS_PERSONA,
            RelKind.HAS_ACTION,
            RelKind.HAS_ACTION,
            RelKind.HAS_ENTITY,
            RelKind.HAS_ENTITY,
            RelKind.HAS_ENTITY,
            RelKind.HAS_BENEFIT,
        ]
        assert all(r.source_id == SYNC_TEXT for r in rels)
        assert [r.target_id for r in rels] == [
            "user", "sync", "access", "data", "current information", "anywhere",
            "I can access my information from anywhere",
        ]

    def test_no_story_node_is_an_error(self):
        with pytest.raises(TransformError, match="found 0"):
            create_logical_rels(sync_components().nodes)

    def test_two_story_nodes_is_an_error(self):
        nodes = [
            ComponentNode("a", NodeKind.USERSTORY),
            ComponentNode("b", NodeKind.USERSTORY),
        ]
        with pytest.raises(TransformError, match="found 2"):
            create_logical_rels(nodes)


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

    def test_duplicate_nodes_keep_first_casing(self):
        components = sync_components()
        components.nodes.append(ComponentNode("USER", NodeKind.PERSONA))
        doc = build_graph_document(components, SYNC_TEXT)
        personas = [n for n in doc.nodes if n.kind is NodeKind.PERSONA]
        assert [n.id for n in personas] == ["user"]

    def test_same_id_different_kind_kept_apart(self):
        components = sync_components()
        components.nodes.append(ComponentNode("sync", NodeKind.ENTITY))
        doc = build_graph_document(components, SYNC_TEXT)
        syncs = [n for n in doc.nodes if normalize_id(n.id) == "sync"]
        assert {n.kind for n in syncs} == {NodeKind.ACTION, NodeKind.ENTITY}

    def test_model_has_edges_discarded(self):
        components = sync_components()
        components.relationships.append(
            ComponentRelationship(SYNC_TEXT, NodeKind.USERSTORY, "user",
                                  NodeKind.PERSONA, RelKind.HAS_PERSONA)
        )
        doc = build_graph_document(components, SYNC_TEXT)
        has_persona = [r for r in doc.relationships if r.kind is RelKind.HAS_PERSONA]
        assert len(has_persona) == 1

    def test_dangling_endpoint_dropped_and_counted(self):
        components = sync_components()
        components.relationships.append(
            ComponentRelationship("ghost", NodeKind.ACTION, "data", NodeKind.ENTITY,
                                  RelKind.TARGETS)
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops.relationships == 1
        assert validate_ontology(doc) == []

    def test_wrong_endpoint_kinds_dropped(self):
        components = sync_components()
        components.relationships.append(
            ComponentRelationship("data", NodeKind.ENTITY, "sync", NodeKind.ACTION,
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
        components.nodes.append(ComponentNode("some other story", NodeKind.USERSTORY))
        components.relationships.append(
            ComponentRelationship("some other story", NodeKind.USERSTORY, "user",
                                  NodeKind.PERSONA, RelKind.TRIGGERS)
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops.nodes == 1
        assert drops.relationships == 1
        stories = [n for n in doc.nodes if n.kind is NodeKind.USERSTORY]
        assert [n.id for n in stories] == [SYNC_TEXT]

    def test_matching_story_node_adopted(self):
        components = sync_components()
        components.nodes.insert(0, ComponentNode(SYNC_TEXT, NodeKind.USERSTORY))
        doc = build_graph_document(components, SYNC_TEXT)
        assert validate_ontology(doc) == []
        assert len([n for n in doc.nodes if n.kind is NodeKind.USERSTORY]) == 1

    def test_empty_components_yield_bare_story(self):
        doc = build_graph_document(KgComponents(), SYNC_TEXT)
        assert len(doc.nodes) == 1
        assert doc.nodes[0].kind is NodeKind.USERSTORY
        assert doc.relationships == []

    def test_never_raises_on_shape_problems(self):
        components = KgComponents(
            nodes=[ComponentNode("lonely", NodeKind.BENEFIT),
                   ComponentNode("also lonely", NodeKind.BENEFIT)]
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
    components: KgComponents, story_text: str, drops: DropCounts
) -> GraphDocument:
    """Assembly spelled out step by step, normalizing at every lookup."""
    def key(kind, node_id):
        return (kind, normalize_id(node_id))

    story_key = normalize_id(story_text)
    foreign = {
        key(c.kind, c.id) for c in components.nodes
        if c.kind is NodeKind.USERSTORY and normalize_id(c.id) != story_key
    }
    kept = [c for c in components.nodes if key(c.kind, c.id) not in foreign]
    drops.nodes += len(components.nodes) - len(kept)
    rels = []
    for rel in components.relationships:
        if key(rel.source_kind, rel.source_id) in foreign or key(
            rel.target_kind, rel.target_id
        ) in foreign:
            drops.relationships += 1
        else:
            rels.append(rel)
    enriched = enrich_with_story_node(KgComponents(kept, rels), story_text)
    index = {}
    for c in enriched.nodes:
        index.setdefault(key(c.kind, c.id), GraphNode(id=c.id, kind=c.kind))
    nodes = list(index.values())
    out, seen = [], set()
    for rel in enriched.relationships:
        if rel.kind in HAS_RELS:
            continue
        src_key, tgt_key = key(rel.source_kind, rel.source_id), key(rel.target_kind, rel.target_id)
        source, target = index.get(src_key), index.get(tgt_key)
        if source is None or target is None or (
            (source.kind, target.kind) != REL_ENDPOINT_KINDS[rel.kind]
        ):
            drops.relationships += 1
        elif (rel.kind, src_key, tgt_key) not in seen:
            seen.add((rel.kind, src_key, tgt_key))
            out.append(GraphRelationship(source=source, target=target, kind=rel.kind))
    for inferred in create_logical_rels([ComponentNode(n.id, n.kind) for n in nodes]):
        out.append(GraphRelationship(
            source=index[key(inferred.source_kind, inferred.source_id)],
            target=index[key(inferred.target_kind, inferred.target_id)],
            kind=inferred.kind,
        ))
    return GraphDocument(nodes=nodes, relationships=out, source_text=story_text)


# Few spellings, so that duplicates, case variants and story look-alikes occur.
spellings = st.sampled_from(["user", "User ", "sync", "SYNC", SYNC_TEXT, SYNC_TEXT.upper(), "other"])
kinds = st.sampled_from(list(NodeKind))
component_nodes = st.builds(ComponentNode, spellings, kinds)
rel_kinds = st.sampled_from(list(RelKind))
# Mostly edges whose endpoint kinds fit the ontology, so that they survive.
component_rels = rel_kinds.flatmap(
    lambda kind: st.builds(
        ComponentRelationship,
        spellings,
        st.just(REL_ENDPOINT_KINDS[kind][0]) | kinds,
        spellings,
        st.just(REL_ENDPOINT_KINDS[kind][1]) | kinds,
        st.just(kind),
    )
)


class TestBuildMatchesReference:
    @settings(max_examples=300)
    @given(st.lists(component_nodes, max_size=10), st.lists(component_rels, max_size=6))
    def test_same_document_and_drops(self, nodes, rels):
        components = KgComponents(nodes=nodes, relationships=rels)
        drops, reference_drops = DropCounts(), DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert doc == reference_document(components, SYNC_TEXT, reference_drops)
        assert drops == reference_drops

    def test_endpoint_spelled_unlike_its_node_is_resolved(self):
        components = KgComponents(
            nodes=[ComponentNode("user", NodeKind.PERSONA), ComponentNode("sync", NodeKind.ACTION)],
            relationships=[ComponentRelationship(
                " User", NodeKind.PERSONA, "SYNC", NodeKind.ACTION, RelKind.TRIGGERS
            )],
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        triggers = [r for r in doc.relationships if r.kind is RelKind.TRIGGERS]
        assert [(r.source.id, r.target.id) for r in triggers] == [("user", "sync")]
        assert drops == DropCounts()

    def test_each_id_normalized_once(self, monkeypatch):
        import storygraph.model as model
        import storygraph.transform as transform

        calls = []
        original = model.normalize_id

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(model, "normalize_id", counting)
        monkeypatch.setattr(transform, "normalize_id", counting)
        components = sync_components()
        build_graph_document(components, SYNC_TEXT)
        assert sorted(calls) == sorted([SYNC_TEXT] + [c.id for c in components.nodes])


class TestRoundTrip:
    def test_reassembly_is_stable(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        again = build_graph_document(document_components(doc), SYNC_TEXT)
        assert document_components(again) == document_components(doc)

    def test_projection_preserves_counts(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        components = document_components(doc)
        assert len(components.nodes) == len(doc.nodes)
        assert len(components.relationships) == len(doc.relationships)


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
