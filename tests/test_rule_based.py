"""Offline heuristic extractor used by the default backend."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from storygraph.extraction import rule_based_extract
from storygraph.extraction.rule_based import _BENEFIT, _PERSONA, _WANT, _entity_phrase
from storygraph.model import GraphDocument, GraphNode, GraphRelationship, NodeKind, RelKind

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


# The extractor as it stood before it built through DocumentBuilder; the
# property below holds the builder-based one to it.


def reference_extract(story_text: str) -> GraphDocument:
    nodes: list[GraphNode] = []
    rels: list[GraphRelationship] = []

    persona = None
    match = _PERSONA.match(story_text)
    persona_id = match.group(1).strip() if match else ""
    if persona_id:
        persona = GraphNode(persona_id, NodeKind.PERSONA)
        nodes.append(persona)

    benefit = None
    benefit_match = _BENEFIT.search(story_text)
    want_end = len(story_text)
    if benefit_match:
        benefit = story_text[benefit_match.end() :].strip().rstrip(".").strip()
        want_end = benefit_match.start()

    action = None
    want_match = _WANT.search(story_text)
    if want_match and want_match.start() < want_end:
        action = GraphNode(want_match.group(1), NodeKind.ACTION)
        nodes.append(action)
        entity_id = _entity_phrase(story_text[want_match.end() : want_end])
        if entity_id:
            entity = GraphNode(entity_id, NodeKind.ENTITY)
            nodes.append(entity)
            rels.append(GraphRelationship(action, entity, RelKind.TARGETS))

    if persona and action:
        rels.insert(0, GraphRelationship(persona, action, RelKind.TRIGGERS))
    if benefit:
        nodes.append(GraphNode(benefit, NodeKind.BENEFIT))

    return GraphDocument(nodes=nodes, relationships=rels)


def outcome(doc: GraphDocument):
    """Nodes, then edges as indices into the node list."""
    position = {id(node): i for i, node in enumerate(doc.nodes)}
    return (
        [(node.id, node.kind) for node in doc.nodes],
        [(position[id(r.source)], position[id(r.target)], r.kind) for r in doc.relationships],
    )


# Connextra fragments, blanks and stray punctuation, joined with and
# without spaces.  ``st.text`` draws no surrogates.
pieces = st.sampled_from([
    "As a", "As an", "as an", "", " ", "  ", ",", ".", "..", "I want to",
    "I want to be able to", "so that", "in order to", "user", "pay", "re-run",
    "the", "by", "my", "data", "with", "\t", "\n",
])
slots = st.lists(pieces | st.text(max_size=4), max_size=4).map(" ".join)
connextra = st.tuples(
    st.sampled_from(["As a", "As an", "as an", ""]), slots,
    st.sampled_from(["I want to", "I want to be able to", "I want"]), slots, slots,
    st.sampled_from(["so that", "in order to", ""]), slots,
).map(lambda p: f"{p[0]} {p[1]}, {p[2]} {p[3]} {p[4]}, {p[5]} {p[6]}.")
story_texts = st.one_of(
    connextra,
    st.lists(pieces | st.text(max_size=4), max_size=14).map(" ".join),
    st.lists(pieces, max_size=14).map("".join),
    st.text(max_size=30),
)


@settings(max_examples=1000, deadline=None)
@given(story_texts)
def test_matches_the_extractor_it_replaced(text):
    assert outcome(rule_based_extract(text)) == outcome(reference_extract(text))
