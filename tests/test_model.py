"""Graph vocabulary, identity normalization, ontology validation."""

from __future__ import annotations

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storygraph.model import (
    HAS_REL_FOR_KIND,
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    document_to_dict,
    node_kind_from_name,
    normalize_id,
    rel_kind_from_name,
    validate_ontology,
)
from storygraph.transform import build_graph_document

SYNC_TEXT = (
    "As a user, I want to sync my data so that I can access my information from anywhere."
)


def n(node_id: str, kind: NodeKind) -> GraphNode:
    return GraphNode(id=node_id, kind=kind)


def r(source: GraphNode, target: GraphNode, kind: RelKind) -> GraphRelationship:
    return GraphRelationship(source=source, target=target, kind=kind)


def sync_document() -> GraphDocument:
    story = n(SYNC_TEXT, NodeKind.USERSTORY)
    user = n("user", NodeKind.PERSONA)
    sync = n("sync", NodeKind.ACTION)
    access = n("access", NodeKind.ACTION)
    data = n("data", NodeKind.ENTITY)
    info = n("current information", NodeKind.ENTITY)
    anywhere = n("anywhere", NodeKind.ENTITY)
    benefit = n("I can access my information from anywhere", NodeKind.BENEFIT)
    nodes = [story, user, sync, access, data, info, anywhere, benefit]
    rels = [
        r(user, sync, RelKind.TRIGGERS),
        r(sync, data, RelKind.TARGETS),
        r(access, info, RelKind.TARGETS),
        r(story, user, RelKind.HAS_PERSONA),
        r(story, sync, RelKind.HAS_ACTION),
        r(story, access, RelKind.HAS_ACTION),
        r(story, data, RelKind.HAS_ENTITY),
        r(story, info, RelKind.HAS_ENTITY),
        r(story, anywhere, RelKind.HAS_ENTITY),
        r(story, benefit, RelKind.HAS_BENEFIT),
    ]
    return GraphDocument(nodes=nodes, relationships=rels, source_text=SYNC_TEXT)


class TestNormalizeId:
    def test_trims_collapses_lowercases(self):
        assert normalize_id("  Library   Database ") == "library database"

    def test_tabs_and_newlines_collapse(self):
        assert normalize_id("a\t b\nc") == "a b c"

    @given(st.text())
    def test_idempotent(self, text):
        once = normalize_id(text)
        assert normalize_id(once) == once

    @given(st.text(alphabet=string.ascii_letters + " \t", min_size=1))
    def test_no_interior_runs(self, text):
        assert "  " not in normalize_id(text)


class TestNodeKey:
    @given(st.text(), st.sampled_from(list(NodeKind)))
    def test_key_is_kind_and_normalized_id(self, node_id, kind):
        assert n(node_id, kind).key() == (kind, normalize_id(node_id))

    def test_key_left_out_of_equality_and_repr(self):
        assert n("User", NodeKind.PERSONA) == GraphNode(id="User", kind=NodeKind.PERSONA)
        assert "_key" not in repr(n("User", NodeKind.PERSONA))

    def test_key_computed_on_first_call_and_stored(self, monkeypatch):
        import storygraph.model as model

        calls = []
        original = model.normalize_id
        monkeypatch.setattr(model, "normalize_id", lambda text: calls.append(text) or original(text))
        node = n("Library  Database", NodeKind.ENTITY)
        assert calls == []
        assert node.key() == (NodeKind.ENTITY, "library database")
        assert node.key() is node.key()
        assert calls == ["Library  Database"]

    def test_validation_normalizes_nothing(self, monkeypatch):
        import storygraph.model as model

        doc = sync_document()
        # Assembly keys every node before validation sees it.
        for node in doc.nodes:
            node.key()
        calls = []
        monkeypatch.setattr(model, "normalize_id", lambda text: calls.append(text) or text)
        assert validate_ontology(doc) == []
        assert calls == []


class TestKindLookup:
    @pytest.mark.parametrize("name,kind", [
        ("Persona", NodeKind.PERSONA),
        ("persona", NodeKind.PERSONA),
        ("USERSTORY", NodeKind.USERSTORY),
        ("Benefit", NodeKind.BENEFIT),
    ])
    def test_node_kind_case_insensitive(self, name, kind):
        assert node_kind_from_name(name) is kind

    def test_unknown_node_kind(self):
        assert node_kind_from_name("Concept") is None

    def test_rel_kind_case_insensitive(self):
        assert rel_kind_from_name("triggers") is RelKind.TRIGGERS
        assert rel_kind_from_name("HAS_ENTITY") is RelKind.HAS_ENTITY

    def test_unknown_rel_kind(self):
        assert rel_kind_from_name("KNOWS") is None

    def test_endpoint_table_covers_every_rel_kind(self):
        assert set(REL_ENDPOINT_KINDS) == set(RelKind)

    def test_has_map_covers_satellites(self):
        assert set(HAS_REL_FOR_KIND) == set(NodeKind) - {NodeKind.USERSTORY}


class TestDedupNodes:
    """Nodes that share a kind and a normalized id are one node in the document."""

    def test_first_seen_casing_kept(self):
        nodes = [n("Library Database", NodeKind.ENTITY), n("library  database", NodeKind.ENTITY)]
        doc = build_graph_document(GraphDocument(nodes=nodes), SYNC_TEXT)
        kept = [node for node in doc.nodes if node.kind is NodeKind.ENTITY]
        assert [node.id for node in kept] == ["Library Database"]

    def test_same_id_different_kind_kept(self):
        nodes = [n("sync", NodeKind.ACTION), n("sync", NodeKind.ENTITY)]
        doc = build_graph_document(GraphDocument(nodes=nodes), SYNC_TEXT)
        assert len([node for node in doc.nodes if node.id == "sync"]) == 2


class TestValidateOntology:
    def test_conformant_document(self):
        assert validate_ontology(sync_document()) == []

    def test_empty_document_reports_missing_cardinalities(self):
        messages = [v.message for v in validate_ontology(GraphDocument())]
        assert any("userstory" in m for m in messages)
        assert any("persona cardinality 0" in m for m in messages)
        assert any("action" in m for m in messages)
        assert any("entity" in m for m in messages)
        assert any("triggers cardinality 0" in m for m in messages)

    def test_two_personas_is_warning(self):
        doc = sync_document()
        extra = n("admin", NodeKind.PERSONA)
        doc.nodes.append(extra)
        doc.relationships.append(r(doc.nodes[0], extra, RelKind.HAS_PERSONA))
        violations = validate_ontology(doc)
        warnings = [v for v in violations if v.severity == "warning"]
        assert len(warnings) == 1
        assert "persona cardinality 2" in warnings[0].message
        assert all(v.severity == "warning" for v in violations)

    def test_missing_benefit_is_fine(self):
        doc = sync_document()
        doc.nodes = [x for x in doc.nodes if x.kind is not NodeKind.BENEFIT]
        doc.relationships = [
            x for x in doc.relationships if x.kind is not RelKind.HAS_BENEFIT
        ]
        assert validate_ontology(doc) == []

    def test_two_benefits_flagged(self):
        doc = sync_document()
        extra = n("world peace", NodeKind.BENEFIT)
        doc.nodes.append(extra)
        doc.relationships.append(r(doc.nodes[0], extra, RelKind.HAS_BENEFIT))
        assert any("benefit cardinality 2" in v.message for v in validate_ontology(doc))

    def test_endpoint_kind_violation_names_rel_kind(self):
        doc = sync_document()
        benefit = next(x for x in doc.nodes if x.kind is NodeKind.BENEFIT)
        sync = next(x for x in doc.nodes if x.id == "sync")
        doc.relationships[0] = r(benefit, sync, RelKind.TRIGGERS)
        messages = [v.message for v in validate_ontology(doc)]
        assert any("TRIGGERS" in m and "Benefit" in m for m in messages)

    def test_zero_triggers_flagged(self):
        doc = sync_document()
        doc.relationships = [x for x in doc.relationships if x.kind is not RelKind.TRIGGERS]
        assert any("triggers cardinality 0" in v.message for v in validate_ontology(doc))

    def test_two_triggers_flagged(self):
        doc = sync_document()
        user = next(x for x in doc.nodes if x.kind is NodeKind.PERSONA)
        access = next(x for x in doc.nodes if x.id == "access")
        doc.relationships.append(r(user, access, RelKind.TRIGGERS))
        assert any("triggers cardinality 2" in v.message for v in validate_ontology(doc))

    def test_uncovered_node_flagged(self):
        doc = sync_document()
        doc.relationships = [
            x
            for x in doc.relationships
            if not (x.kind is RelKind.HAS_ENTITY and x.target.id == "anywhere")
        ]
        assert any(
            "anywhere" in v.message and "0" in v.message for v in validate_ontology(doc)
        )

    def test_doubly_covered_node_flagged(self):
        doc = sync_document()
        story = doc.nodes[0]
        data = next(x for x in doc.nodes if x.id == "data")
        doc.relationships.append(r(story, data, RelKind.HAS_ENTITY))
        assert any(
            "data" in v.message and "2" in v.message for v in validate_ontology(doc)
        )

    def test_duplicate_node_flagged(self):
        doc = sync_document()
        doc.nodes.append(n("SYNC", NodeKind.ACTION))
        assert any("duplicate" in v.message.lower() for v in validate_ontology(doc))

    def test_dangling_endpoint_flagged(self):
        doc = sync_document()
        ghost = n("ghost", NodeKind.ENTITY)
        sync = next(x for x in doc.nodes if x.id == "sync")
        doc.relationships.append(r(sync, ghost, RelKind.TARGETS))
        violations = validate_ontology(doc)
        assert any("ghost" in v.message and "not among" in v.message for v in violations)

    def test_story_id_mismatch_flagged(self):
        doc = sync_document()
        doc.source_text = "a different story."
        assert any("source text" in v.message for v in validate_ontology(doc))


def carried(doc: GraphDocument):
    """What the canonical JSON must carry for a reader to rebuild ``doc``."""
    return (
        [(node.id, node.kind.value) for node in doc.nodes],
        [
            (rel.source.id, rel.source.kind.value, rel.target.id, rel.target.kind.value,
             rel.kind.value)
            for rel in doc.relationships
        ],
        doc.source_text,
    )


def read_back(payload: dict):
    """``carried`` read off the canonical JSON shape."""
    return (
        [(node["id"], node["type"]) for node in payload["nodes"]],
        [
            (rel["source"]["id"], rel["source"]["type"], rel["target"]["id"],
             rel["target"]["type"], rel["type"])
            for rel in payload["relationships"]
        ],
        payload["source"],
    )


class TestCanonicalJson:
    def test_shape_and_key_order(self):
        doc = sync_document()
        payload = document_to_dict(doc)
        assert list(payload) == ["nodes", "relationships", "source"]
        assert list(payload["nodes"][0]) == ["id", "type", "properties"]
        assert list(payload["relationships"][0]) == ["source", "target", "type", "properties"]
        assert payload["source"] == SYNC_TEXT
        assert payload["nodes"][0]["type"] == "Userstory"
        assert payload["relationships"][0]["type"] == "TRIGGERS"
        assert payload["relationships"][0]["source"] == {"id": "user", "type": "Persona"}
        # Elements carry no properties; the shape keeps an empty map for them.
        assert all(x["properties"] == {} for x in payload["nodes"] + payload["relationships"])

    def test_round_trip(self):
        doc = sync_document()
        assert read_back(document_to_dict(doc)) == carried(doc)

    @given(
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=8),
                st.sampled_from(list(NodeKind)),
            ),
            max_size=6,
        )
    )
    def test_round_trip_arbitrary_nodes(self, raw_nodes):
        doc = GraphDocument(
            nodes=[GraphNode(id=i, kind=k) for i, k in raw_nodes], source_text="s"
        )
        assert read_back(document_to_dict(doc)) == carried(doc)


class TestHashing:
    def test_equal_nodes_hash_equally(self):
        keyed = n("User", NodeKind.PERSONA)
        keyed.key()
        fresh = n("User", NodeKind.PERSONA)
        assert keyed == fresh and hash(keyed) == hash(fresh)
        assert n("User", NodeKind.PERSONA) != n("User", NodeKind.ENTITY)

    def test_relationships_go_into_a_set(self):
        user, twin, sync = (
            n("user", NodeKind.PERSONA), n("user", NodeKind.PERSONA), n("sync", NodeKind.ACTION)
        )
        rels = {r(user, sync, RelKind.TRIGGERS), r(twin, sync, RelKind.TRIGGERS)}
        assert rels == {r(user, sync, RelKind.TRIGGERS)}
