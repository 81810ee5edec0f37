"""Offline heuristic extractor used by the default backend."""

from __future__ import annotations

from storygraph.extraction import rule_based_extract
from storygraph.model import NodeKind, RelKind

SYNC_TEXT = (
    "As a user, I want to sync my data, "
    "so that I can access my information from anywhere."
)


def kinds(components):
    return {(n.id, n.kind) for n in components.nodes}


def ids_of_kind(components, kind):
    return [n.id for n in components.nodes if n.kind is kind]


def test_sync_story_components():
    components = rule_based_extract(SYNC_TEXT)
    got = kinds(components)
    assert ("user", NodeKind.PERSONA) in got
    assert ("sync", NodeKind.ACTION) in got
    assert ("I can access my information from anywhere", NodeKind.BENEFIT) in got


def test_triggers_comes_first():
    components = rule_based_extract(SYNC_TEXT)
    assert components.relationships[0].kind is RelKind.TRIGGERS
    assert components.relationships[0].source.id == "user"
    assert components.relationships[0].target.id == "sync"


def test_targets_edge_points_at_entity():
    components = rule_based_extract(SYNC_TEXT)
    targets = [r for r in components.relationships if r.kind is RelKind.TARGETS]
    assert len(targets) == 1
    assert targets[0].source.id == "sync"
    assert targets[0].target.kind is NodeKind.ENTITY


def test_no_benefit_clause():
    components = rule_based_extract("As a customer, I want to pay by cash.")
    assert not ids_of_kind(components, NodeKind.BENEFIT)
    got = kinds(components)
    assert ("customer", NodeKind.PERSONA) in got
    assert ("pay", NodeKind.ACTION) in got
    assert ("cash", NodeKind.ENTITY) in got


def test_in_order_to_marker():
    text = "As an editor, I want to review drafts in order to keep quality high."
    components = rule_based_extract(text)
    assert ids_of_kind(components, NodeKind.BENEFIT) == ["keep quality high"]
    assert ("editor", NodeKind.PERSONA) in kinds(components)


def test_be_able_to_is_skipped():
    text = "As a user, I want to be able to export reports."
    components = rule_based_extract(text)
    assert ("export", NodeKind.ACTION) in kinds(components)


def test_at_most_one_persona_and_benefit():
    components = rule_based_extract(SYNC_TEXT)
    assert len(ids_of_kind(components, NodeKind.PERSONA)) == 1
    assert len(ids_of_kind(components, NodeKind.BENEFIT)) <= 1


def test_unparseable_text_yields_empty_components():
    components = rule_based_extract("This sentence has no familiar shape at all.")
    assert components.nodes == []
    assert components.relationships == []


def test_endpoints_are_nodes():
    components = rule_based_extract(SYNC_TEXT)
    nodes = {id(n) for n in components.nodes}
    for rel in components.relationships:
        assert id(rel.source) in nodes
        assert id(rel.target) in nodes


def test_blank_persona_slot_gives_no_persona_node():
    components = rule_based_extract("As a  , I want to pay by cash.")
    assert ids_of_kind(components, NodeKind.PERSONA) == []
    assert ("pay", NodeKind.ACTION) in kinds(components)
    assert all(r.kind is not RelKind.TRIGGERS for r in components.relationships)
