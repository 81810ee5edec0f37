"""Document assembly: story node, ownership edges, the extraction rule."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SYNC_TEXT
from storygraph.corpus import AnnotatedStory, clean_story_text
from storygraph.extraction import DropCounts, parse_structured_response
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
        assert doc.nodes[1:] == components.nodes
        assert doc.relationships[:len(components.relationships)] == components.relationships

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

    def test_dangling_endpoint_becomes_a_node(self):
        """An edge asserts both of its ends, as in a model reply."""
        components = sync_components()
        components.relationships.append(
            GraphRelationship(GraphNode("ghost", NodeKind.ACTION),
                              node_of(components, "data"), RelKind.TARGETS)
        )
        drops = DropCounts()
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops == DropCounts()
        ghost = node_of(doc, "ghost")
        assert ghost.kind is NodeKind.ACTION
        assert GraphRelationship(ghost, node_of(doc, "data"), RelKind.TARGETS) in doc.relationships
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


EXTRACTED_KINDS = (NodeKind.PERSONA, NodeKind.ACTION, NodeKind.ENTITY, NodeKind.BENEFIT)


def reference_rule(
    components: GraphDocument, drops: DropCounts
) -> tuple[list[GraphNode], list[GraphRelationship]]:
    """The extraction rule spelled out step by step.

    A node needs a Persona, Action, Entity or Benefit kind and a non-blank
    id; it is kept stripped, once per exact (kind, id).  An edge with two
    non-blank ids asserts its ends of those kinds as nodes, and is kept when
    it is a TRIGGERS or TARGETS edge whose ends have the ontology's kinds.
    Whatever is refused is counted.
    """
    nodes: dict[tuple[NodeKind, str], GraphNode] = {}
    for node in components.nodes:
        if node.kind in EXTRACTED_KINDS and node.id.strip():
            nodes.setdefault((node.kind, node.id.strip()), GraphNode(node.id.strip(), node.kind))
        else:
            drops.nodes += 1
    rels = []
    for rel in components.relationships:
        ends = (rel.source, rel.target)
        if not all(end.id.strip() for end in ends):
            drops.relationships += 1
            continue
        for end in ends:
            if end.kind in EXTRACTED_KINDS:
                nodes.setdefault((end.kind, end.id.strip()), GraphNode(end.id.strip(), end.kind))
        if rel.kind in (RelKind.TRIGGERS, RelKind.TARGETS) and (
            (rel.source.kind, rel.target.kind) == REL_ENDPOINT_KINDS[rel.kind]
        ):
            source, target = (nodes[end.kind, end.id.strip()] for end in ends)
            rels.append(GraphRelationship(source, target, rel.kind))
        else:
            drops.relationships += 1
    return list(nodes.values()), rels


def reference_assembly(
    story_text: str, nodes: list[GraphNode], rels: list[GraphRelationship]
) -> GraphDocument:
    """Assembly spelled out step by step, normalizing at every lookup."""
    def key(node):
        return (node.kind, normalize_id(node.id))

    story = GraphNode(story_text, NodeKind.USERSTORY)
    index = {}
    for n in nodes:
        index.setdefault(key(n), n)
    out, seen = [], set()
    for rel in rels:
        src_key, tgt_key = key(rel.source), key(rel.target)
        if (rel.kind, src_key, tgt_key) not in seen:
            seen.add((rel.kind, src_key, tgt_key))
            out.append(GraphRelationship(index[src_key], index[tgt_key], rel.kind))
    # The story node goes first, with one ownership edge per node, in node order.
    for n in index.values():
        out.append(GraphRelationship(source=story, target=n, kind=HAS_REL_FOR_KIND[n.kind]))
    return GraphDocument(nodes=[story, *index.values()], relationships=out, source_text=story_text)


def reference_document(
    components: GraphDocument, story_text: str, drops: DropCounts
) -> GraphDocument:
    """The extraction rule, then assembly."""
    return reference_assembly(story_text, *reference_rule(components, drops))


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


# The rules a document can break by what its story holds, not by its shape.
CARDINALITY_FINDINGS = tuple(
    f"{rule} cardinality" for rule in ("persona", "action", "entity", "benefit", "triggers")
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

    @settings(max_examples=300)
    @given(st.lists(graph_nodes, max_size=10), st.data())
    def test_only_cardinality_findings(self, nodes, data):
        """Whatever the input, assembly leaves no structural flaw: no
        duplicate, no wrong endpoint kind, no dangling endpoint, no missing
        ownership edge, one story node matching the text."""
        rels = fresh_rels
        if nodes:
            own = st.sampled_from(nodes)
            rels = rels | st.builds(GraphRelationship, own, own, rel_kinds)
        components = GraphDocument(nodes=nodes, relationships=data.draw(st.lists(rels, max_size=6)))
        doc = build_graph_document(components, SYNC_TEXT)
        assert all(
            str(finding).startswith(CARDINALITY_FINDINGS) for finding in validate_ontology(doc)
        )

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
        assert triggers[0].source == components.nodes[0]
        assert triggers[0].source is doc.nodes[1]
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
        assert sorted(calls) == sorted(c.id for c in components.nodes)


# Story nodes of this and of another story, case and blank variants, and
# endpoints that name no drawn node.
parity_ids = st.sampled_from(
    ["user", "USER", " user", "sync", "Sync", "data", "", " ", "\t",
     SYNC_TEXT, SYNC_TEXT.upper(), "some other story"]
)
parity_nodes = st.builds(GraphNode, parity_ids, kinds)
parity_rels = st.builds(GraphRelationship, parity_nodes, parity_nodes, rel_kinds)


def as_payload(doc: GraphDocument) -> dict:
    """A document written as a model's structured reply."""
    return {
        "nodes": [{"id": n.id, "type": n.kind.value} for n in doc.nodes],
        "relationships": [
            {"source": r.source.id, "source_type": r.source.kind.value,
             "target": r.target.id, "target_type": r.target.kind.value, "type": r.kind.value}
            for r in doc.relationships
        ],
    }


class TestExtractionParity:
    """A hand-built document and the same graph as a model reply meet one rule."""

    @settings(max_examples=500)
    @given(st.lists(parity_nodes, max_size=8), st.data())
    def test_same_drops_and_document(self, nodes, data):
        rels = parity_rels
        if nodes:
            own = st.sampled_from(nodes)
            rels = rels | st.builds(GraphRelationship, own, own, rel_kinds)
        components = GraphDocument(nodes=nodes, relationships=data.draw(st.lists(rels, max_size=6)))
        reply_drops, drops, again = DropCounts(), DropCounts(), DropCounts()
        parsed = parse_structured_response(as_payload(components), reply_drops)
        doc = build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops == reply_drops
        assert build_graph_document(parsed, SYNC_TEXT, drops=again) == doc
        assert again == DropCounts()

    def test_story_node_and_ownership_edge_counted_alike(self):
        story = GraphNode(SYNC_TEXT, NodeKind.USERSTORY)
        user = GraphNode("user", NodeKind.PERSONA)
        components = GraphDocument(
            nodes=[story, user], relationships=[GraphRelationship(story, user, RelKind.HAS_PERSONA)]
        )
        reply_drops, drops = DropCounts(), DropCounts()
        parse_structured_response(as_payload(components), reply_drops)
        build_graph_document(components, SYNC_TEXT, drops=drops)
        assert drops == reply_drops == DropCounts(nodes=1, relationships=1)


class TestRoundTrip:
    def test_reassembly_is_stable(self):
        doc = build_graph_document(sync_components(), SYNC_TEXT)
        assert build_graph_document(doc, SYNC_TEXT) == doc

    def test_projection_preserves_counts(self):
        """An extraction written in the annotation schema reads back as itself."""
        components = sync_components()
        story = components_to_story("#P#", "#P# " + SYNC_TEXT, components)
        nodes, triggers, targets = story_elements(story)
        assert nodes == [(n.kind, n.id) for n in components.nodes]
        assert [(RelKind.TRIGGERS, *pair) for pair in triggers] + [
            (RelKind.TARGETS, *pair) for pair in targets
        ] == [(r.kind, r.source.id, r.target.id) for r in components.relationships]
        assert story_document(story) == build_graph_document(components, SYNC_TEXT)


class TestAnnotations:
    def test_sample_story_components(self, sample_backlog):
        story = sample_backlog.stories[0]
        nodes, triggers, targets = story_elements(story)
        assert (NodeKind.PERSONA, "user") in nodes
        assert (NodeKind.ACTION, "sync") in nodes
        assert (NodeKind.ENTITY, "anywhere") in nodes
        assert (NodeKind.BENEFIT, story.benefit) in nodes
        assert len(triggers) + len(targets) == 3

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
        components = story_document(story)
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

    def test_blank_ids_are_skipped_like_empty_ones(self):
        story = AnnotatedStory(
            pid="#X#",
            text="#X# As a user, I want to pay by cash.",
            personas=["user", " "],
            primary_actions=["pay", "\t"],
            benefit="  ",
            triggers=[(" ", "pay"), ("admin", " ")],
            targets=[("pay", "cash")],
        )
        nodes, triggers, targets = story_elements(story)
        assert nodes == [
            (NodeKind.PERSONA, "user"),
            (NodeKind.ACTION, "pay"),
            (NodeKind.PERSONA, "admin"),
            (NodeKind.ENTITY, "cash"),
        ]
        assert triggers == []
        assert targets == [("pay", "cash")]
        assert all(node.id.strip() for node in story_document(story).nodes)


def reference_story_document(story: AnnotatedStory) -> GraphDocument:
    """Load's document built in two steps: the story's elements written as
    graph nodes and edges, then the reference assembly.  The elements keep
    the extraction rule already, so they skip it, which keeps their ids as
    written."""
    keys, triggers, targets = story_elements(story)
    index = {key: GraphNode(key[1], key[0]) for key in keys}
    rels = [
        GraphRelationship(index[NodeKind.PERSONA, p], index[NodeKind.ACTION, a], RelKind.TRIGGERS)
        for p, a in triggers
    ] + [
        GraphRelationship(index[NodeKind.ACTION, a], index[NodeKind.ENTITY, e], RelKind.TARGETS)
        for a, e in targets
    ]
    drops = DropCounts()
    reference_rule(GraphDocument(nodes=list(index.values()), relationships=rels), drops)
    assert drops == DropCounts()
    return reference_assembly(clean_story_text(story), list(index.values()), rels)


# Ids that collide by case or whitespace, empty and blank ones, and ids that
# only the pairs name.
story_ids = st.sampled_from(
    ["user", "User", " user ", "USER", "sync", "Sync ", "my data", "My  data", "", " ", "\t"]
)
id_lists = st.lists(story_ids, max_size=3)
id_pairs = st.lists(st.tuples(story_ids, story_ids | st.just("only in a pair")), max_size=3)
annotated_stories = st.builds(
    AnnotatedStory,
    pid=st.just("#S#"),
    text=st.sampled_from(["#S# " + SYNC_TEXT, SYNC_TEXT, "#S#   " + SYNC_TEXT.upper()]),
    personas=id_lists,
    primary_actions=id_lists,
    secondary_actions=id_lists,
    primary_entities=id_lists,
    secondary_entities=id_lists,
    benefit=st.none() | story_ids,
    triggers=id_pairs,
    targets=id_pairs,
)


class TestStoryDocument:
    @settings(max_examples=500)
    @given(annotated_stories)
    def test_matches_the_two_step_path(self, story):
        doc = story_document(story)
        assert doc == reference_story_document(story)
        node_ids = {id(n) for n in doc.nodes}
        assert all(id(r.source) in node_ids and id(r.target) in node_ids for r in doc.relationships)
        assert all(
            str(finding).startswith(CARDINALITY_FINDINGS) for finding in validate_ontology(doc)
        )

    def test_each_id_normalized_once(self, monkeypatch):
        import storygraph.model as model

        calls = []
        original = model.normalize_id

        def counting(text):
            calls.append(text)
            return original(text)

        monkeypatch.setattr(model, "normalize_id", counting)
        story = AnnotatedStory(
            pid="#X#",
            text="#X# As a user, I want to pay by cash.",
            personas=["user", "User "],
            primary_actions=["pay"],
            triggers=[("USER", "pay"), ("admin", "Pay")],
            targets=[("pay", "cash")],
        )
        nodes, _, _ = story_elements(story)
        story_document(story)
        assert sorted(calls) == sorted(i for _, i in nodes)
