"""Backend reply parsing: structured payloads, record lists, benefit text."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storygraph.errors import ResponseParseError
from storygraph.extraction import (
    DropCounts,
    ExtractorConfig,
    ReplayFixtureBackend,
    components_from_records,
    extract_components,
    extract_first_json,
    parse_benefit_response,
    parse_structured_response,
    parse_unstructured_response,
    rule_based_extract,
)
from storygraph.model import (
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    node_kind_from_name,
    rel_kind_from_name,
)


def sync_payload() -> dict:
    return {
        "nodes": [
            {"id": "user", "type": "Persona"},
            {"id": "sync", "type": "Action"},
            {"id": "access", "type": "Action"},
            {"id": "data", "type": "Entity"},
            {"id": "current information", "type": "Entity"},
            {"id": "anywhere", "type": "Entity"},
        ],
        "relationships": [
            {"source": "user", "source_type": "Persona", "target": "sync",
             "target_type": "Action", "type": "TRIGGERS"},
            {"source": "sync", "source_type": "Action", "target": "data",
             "target_type": "Entity", "type": "TARGETS"},
            {"source": "access", "source_type": "Action", "target": "current information",
             "target_type": "Entity", "type": "TARGETS"},
        ],
    }


class TestStructured:
    def test_sync_payload(self):
        components = parse_structured_response(sync_payload())
        assert [(n.id, n.kind) for n in components.nodes] == [
            ("user", NodeKind.PERSONA),
            ("sync", NodeKind.ACTION),
            ("access", NodeKind.ACTION),
            ("data", NodeKind.ENTITY),
            ("current information", NodeKind.ENTITY),
            ("anywhere", NodeKind.ENTITY),
        ]
        assert [(r.source.id, r.target.id, r.kind) for r in components.relationships] == [
            ("user", "sync", RelKind.TRIGGERS),
            ("sync", "data", RelKind.TARGETS),
            ("access", "current information", RelKind.TARGETS),
        ]

    def test_unknown_node_kind_dropped_and_counted(self):
        drops = DropCounts()
        payload = {"nodes": [{"id": "x", "type": "Concept"}, {"id": "y", "type": "Entity"}],
                   "relationships": []}
        components = parse_structured_response(payload, drops)
        assert [n.id for n in components.nodes] == ["y"]
        assert drops.nodes == 1

    def test_unknown_relation_dropped_and_counted(self):
        drops = DropCounts()
        payload = sync_payload()
        payload["relationships"].append(
            {"source": "user", "source_type": "Persona", "target": "data",
             "target_type": "Entity", "type": "KNOWS"}
        )
        components = parse_structured_response(payload, drops)
        assert len(components.relationships) == 3
        assert drops.relationships == 1

    def test_neither_key_is_parse_error(self):
        with pytest.raises(ResponseParseError, match="neither"):
            parse_structured_response({"stuff": 1})

    @pytest.mark.parametrize(
        "payload",
        [
            {"nodes": 5},
            {"relationships": True},
            {"nodes": "user", "relationships": []},
            {"nodes": [], "relationships": {"source": "user"}},
        ],
        ids=["nodes-number", "relationships-bool", "nodes-string", "relationships-object"],
    )
    def test_lists_that_are_not_lists_are_parse_errors(self, payload):
        """Iterating these raised TypeError, or dropped characters as nodes."""
        with pytest.raises(ResponseParseError, match="must be lists") as info:
            parse_structured_response(payload)
        assert json.loads(info.value.raw) == payload

    def test_nodes_only_is_fine(self):
        components = parse_structured_response({"nodes": [{"id": "a", "type": "Entity"}]})
        assert len(components.nodes) == 1
        assert components.relationships == []

    def test_implied_endpoints_added(self):
        payload = {
            "nodes": [],
            "relationships": [
                {"source": "user", "source_type": "Persona", "target": "sync",
                 "target_type": "Action", "type": "TRIGGERS"}
            ],
        }
        components = parse_structured_response(payload)
        assert {(n.id, n.kind) for n in components.nodes} == {
            ("user", NodeKind.PERSONA), ("sync", NodeKind.ACTION)
        }

    def test_missing_endpoint_types_inferred_from_relation(self):
        payload = {"relationships": [{"source": "pay", "target": "cash", "type": "TARGETS"}]}
        components = parse_structured_response(payload)
        kinds = {n.id: n.kind for n in components.nodes}
        assert kinds == {"pay": NodeKind.ACTION, "cash": NodeKind.ENTITY}

    def test_relation_alias_and_case_insensitive_kinds(self):
        payload = {
            "nodes": [{"id": "user", "type": "persona"}],
            "relationships": [
                {"source": "user", "source_type": "PERSONA", "target": "pay",
                 "target_type": "action", "relation": "triggers"}
            ],
        }
        components = parse_structured_response(payload)
        assert components.relationships[0].kind is RelKind.TRIGGERS

    def test_endpoints_always_in_nodes(self):
        components = parse_structured_response(sync_payload())
        nodes = {id(n) for n in components.nodes}
        for rel in components.relationships:
            assert id(rel.source) in nodes
            assert id(rel.target) in nodes


class TestExtractFirstJson:
    def test_plain(self):
        assert extract_first_json('[1, 2]') == [1, 2]

    def test_prose_and_fences(self):
        raw = 'Sure thing!\n```json\n{"a": 1}\n```\nHope that helps.'
        assert extract_first_json(raw) == {"a": 1}

    def test_false_start_then_real_json(self):
        assert extract_first_json("{not json} then [3]") == [3]

    def test_no_json_raises_with_raw(self):
        raw = "Sorry, I cannot help with that."
        with pytest.raises(ResponseParseError) as exc_info:
            extract_first_json(raw)
        assert exc_info.value.raw == raw


class TestUnstructured:
    RECORD = {
        "text": "As a customer, I want to pay by cash.",
        "head": "customer",
        "head_type": "Persona",
        "relation": "TRIGGERS",
        "tail": "pay",
        "tail_type": "Action",
    }

    def test_record_list_with_prose(self):
        import json
        raw = f"Here you go:\n```json\n[{json.dumps(self.RECORD)}]\n```"
        components = parse_unstructured_response(raw)
        assert {(n.id, n.kind) for n in components.nodes} == {
            ("customer", NodeKind.PERSONA), ("pay", NodeKind.ACTION)
        }
        assert components.relationships[0].kind is RelKind.TRIGGERS

    def test_single_record_object(self):
        import json
        components = parse_unstructured_response(json.dumps(self.RECORD))
        assert len(components.relationships) == 1

    def test_missing_key_is_parse_error(self):
        import json
        bad = {k: v for k, v in self.RECORD.items() if k != "tail_type"}
        with pytest.raises(ResponseParseError, match="tail_type"):
            parse_unstructured_response(json.dumps([bad]))

    def test_unknown_relation_keeps_nodes_drops_edge(self):
        import json
        drops = DropCounts()
        record = dict(self.RECORD, relation="KNOWS")
        components = parse_unstructured_response(json.dumps([record]), drops)
        assert len(components.nodes) == 2
        assert components.relationships == []
        assert drops.relationships == 1

    def test_unknown_head_type_drops_node_and_edge(self):
        import json
        drops = DropCounts()
        record = dict(self.RECORD, head_type="Concept")
        components = parse_unstructured_response(json.dumps([record]), drops)
        assert [(n.id, n.kind) for n in components.nodes] == [("pay", NodeKind.ACTION)]
        assert components.relationships == []
        assert drops.nodes == 1
        assert drops.relationships == 1

    def test_empty_list_is_empty_components(self):
        components = parse_unstructured_response("[]")
        assert components.nodes == [] and components.relationships == []

    def test_prose_without_json_is_parse_error(self):
        with pytest.raises(ResponseParseError):
            parse_unstructured_response("Sorry, I cannot help.")

    def test_duplicate_heads_not_duplicated(self):
        import json
        second = dict(self.RECORD, relation="TARGETS", head="pay", head_type="Action",
                      tail="cash", tail_type="Entity")
        components = parse_unstructured_response(json.dumps([self.RECORD, second]))
        assert [n.id for n in components.nodes] == ["customer", "pay", "cash"]
        assert len(components.relationships) == 2


class TestBenefit:
    def test_node_literal(self):
        raw = "Node(id='I can access my information from anywhere', type='Benefit')"
        assert parse_benefit_response(raw) == "I can access my information from anywhere"

    def test_node_literal_double_quotes(self):
        assert parse_benefit_response('Node(id="save time", type="Benefit")') == "save time"

    @pytest.mark.parametrize("raw", ["", "   ", "''", '""', None])
    def test_empty_forms(self, raw):
        assert parse_benefit_response(raw) is None

    def test_quoted_text(self):
        assert parse_benefit_response("'I can save time'") == "I can save time"

    def test_plain_prose_taken_verbatim(self):
        assert parse_benefit_response("I can save time") == "I can save time"

    def test_structured_node(self):
        assert parse_benefit_response({"id": "save time", "type": "Benefit"}) == "save time"

    def test_structured_nodes_list(self):
        payload = {"nodes": [{"id": "x", "type": "Entity"}, {"id": "save", "type": "Benefit"}]}
        assert parse_benefit_response(payload) == "save"

    def test_structured_without_benefit(self):
        assert parse_benefit_response({"nodes": [{"id": "x", "type": "Entity"}]}) is None

    def test_json_string_form(self):
        assert parse_benefit_response('{"id": "save time", "type": "Benefit"}') == "save time"

    def test_fenced_empty(self):
        assert parse_benefit_response("```\n''\n```") is None


class TestOneRuleForBothShapes:
    """A lone surrogate, such as JSON's ``"\\ud800"``, has no UTF-8 form, so
    a node or edge end carrying one is dropped and counted like a blank one,
    in both reply shapes; a surrogate pair is text like any other."""

    def test_structured_ids(self):
        drops = DropCounts()
        payload = json.loads(
            '{"nodes": [{"id": "\\ud800", "type": "Entity"},'
            ' {"id": "smile \\ud83d\\ude00", "type": "Entity"}],'
            ' "relationships": [{"source": "sync", "target": "x\\udc00", "type": "TARGETS"}]}'
        )
        doc = parse_structured_response(payload, drops)
        assert [n.id for n in doc.nodes] == ["smile \U0001F600"]
        assert doc.relationships == []
        assert drops == DropCounts(nodes=1, relationships=1)

    def test_record_ids(self):
        drops = DropCounts()
        raw = (
            '[{"head": "pay", "head_type": "Action", "relation": "TARGETS",'
            ' "tail": "\\ud800", "tail_type": "Entity"}]'
        )
        doc = parse_unstructured_response(raw, drops)
        assert [n.id for n in doc.nodes] == ["pay"]
        assert doc.relationships == []
        assert drops == DropCounts(nodes=1, relationships=1)


# The two reply loops as they stood before both went through one builder,
# plus the rule that extraction returns no story node and only TRIGGERS and
# TARGETS edges of the ontology's endpoint kinds (the lines marked "kept
# kinds"); the property below holds the parsers to them on surrogate-free
# input.

KEPT_EDGES = {kind: REL_ENDPOINT_KINDS[kind] for kind in (RelKind.TRIGGERS, RelKind.TARGETS)}


def reference_structured(payload, drops):
    if not isinstance(payload, dict):
        raise ResponseParseError(f"expected a JSON object, got {type(payload).__name__}")
    if "nodes" not in payload and "relationships" not in payload:
        raise ResponseParseError("response carries neither 'nodes' nor 'relationships'")
    nodes = payload.get("nodes") or []
    relationships = payload.get("relationships") or []
    if not isinstance(nodes, list) or not isinstance(relationships, list):
        raise ResponseParseError("'nodes' and 'relationships' must be lists")
    built: dict = {}
    rels = []
    for item in nodes:
        if not isinstance(item, dict):
            drops.nodes += 1
            continue
        kind = node_kind_from_name(str(item.get("type", "")))
        node_id = str(item.get("id", "")).strip()
        if kind in (None, NodeKind.USERSTORY) or not node_id:  # kept kinds
            drops.nodes += 1
            continue
        built.setdefault((kind, node_id), GraphNode(node_id, kind))
    for item in relationships:
        if not isinstance(item, dict):
            drops.relationships += 1
            continue
        rel_kind = rel_kind_from_name(str(item.get("type", item.get("relation", ""))))
        if rel_kind is None:
            drops.relationships += 1
            continue
        source_id = str(item.get("source", "")).strip()
        target_id = str(item.get("target", "")).strip()
        if not source_id or not target_id:
            drops.relationships += 1
            continue
        expected_src, expected_tgt = REL_ENDPOINT_KINDS[rel_kind]
        source_kind = node_kind_from_name(str(item.get("source_type", ""))) or expected_src
        target_kind = node_kind_from_name(str(item.get("target_type", ""))) or expected_tgt
        if KEPT_EDGES.get(rel_kind) != (source_kind, target_kind):  # kept kinds
            drops.relationships += 1
            for end_id, end_kind in ((source_id, source_kind), (target_id, target_kind)):
                if end_kind is not NodeKind.USERSTORY:
                    built.setdefault((end_kind, end_id), GraphNode(end_id, end_kind))
            continue
        source = built.setdefault((source_kind, source_id), GraphNode(source_id, source_kind))
        target = built.setdefault((target_kind, target_id), GraphNode(target_id, target_kind))
        rels.append(GraphRelationship(source, target, rel_kind))
    return GraphDocument(nodes=list(built.values()), relationships=rels)


def reference_records(items, drops):
    built: dict = {}
    rels = []
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            drops.relationships += 1
            continue
        for key in ("head", "head_type", "relation", "tail", "tail_type"):
            if key not in item:
                raise ResponseParseError(f"record {i} is missing key '{key}'")
        head_kind = node_kind_from_name(str(item["head_type"]))
        tail_kind = node_kind_from_name(str(item["tail_type"]))
        rel_kind = rel_kind_from_name(str(item["relation"]))
        head_id = str(item["head"]).strip()
        tail_id = str(item["tail"]).strip()
        if head_kind not in (None, NodeKind.USERSTORY) and head_id:  # kept kinds
            built.setdefault((head_kind, head_id), GraphNode(head_id, head_kind))
        else:
            drops.nodes += 1
        if tail_kind not in (None, NodeKind.USERSTORY) and tail_id:  # kept kinds
            built.setdefault((tail_kind, tail_id), GraphNode(tail_id, tail_kind))
        else:
            drops.nodes += 1
        if rel_kind is None or head_kind is None or tail_kind is None or not head_id or not tail_id:
            drops.relationships += 1
            continue
        if KEPT_EDGES.get(rel_kind) != (head_kind, tail_kind):  # kept kinds
            drops.relationships += 1
            continue
        rels.append(
            GraphRelationship(built[(head_kind, head_id)], built[(tail_kind, tail_id)], rel_kind)
        )
    return GraphDocument(nodes=list(built.values()), relationships=rels)


# Kind names in mixed case, unknown or not strings; ids blank, repeated or
# not strings.  ``st.text`` draws no surrogates.
known_kinds = st.sampled_from(["Persona", "Action", "Entity", "Benefit", "Userstory"])
known_rels = st.sampled_from(["TRIGGERS", "Targets", "HAS_PERSONA", "has_benefit"])
kind_names = known_kinds | known_kinds.map(str.lower) | st.sampled_from(["Concept", "", None, 0])
rel_names = known_rels | known_rels.map(str.lower) | st.sampled_from(["KNOWS", "", None, 1])
ids = st.sampled_from(["user", "pay", "cash"]) | st.sampled_from([" user ", "", "   ", None, 0]) \
    | st.text(max_size=4)
not_objects = st.none() | st.integers() | st.text(max_size=3) | st.lists(st.integers(), max_size=2)


def objects(required=None, **optional) -> st.SearchStrategy:
    """Objects carrying the ``required`` fields and any subset of the others."""
    return st.fixed_dictionaries(required or {}, optional=optional)


node_fields = dict(id=ids, type=kind_names)
rel_fields = dict(source=ids, target=ids, type=rel_names)
rel_extras = dict(source_type=kind_names, target_type=kind_names, relation=rel_names)
record_fields = dict(
    head=ids, head_type=kind_names, relation=rel_names, tail=ids, tail_type=kind_names
)

node_items = objects(node_fields) | objects(**node_fields) | not_objects
rel_items = objects(rel_fields, **rel_extras) | objects(**rel_fields, **rel_extras) | not_objects
graph_parts = dict(
    nodes=st.lists(node_items, max_size=6), relationships=st.lists(rel_items, max_size=6)
)
payloads = (
    objects(graph_parts)
    | objects(**graph_parts, other=ids)
    | objects(nodes=not_objects, relationships=not_objects)
    | not_objects
)
records = st.lists(objects(record_fields, text=ids) | not_objects, max_size=6) | st.lists(
    objects(record_fields) | objects(**record_fields) | not_objects, max_size=4
)


def outcome(parse, reply):
    """Nodes, edges as indices into the node list, drops, or the error message."""
    drops = DropCounts()
    try:
        doc = parse(reply, drops)
    except ResponseParseError as exc:
        return ("error", str(exc))
    position = {id(node): i for i, node in enumerate(doc.nodes)}
    return (
        [(node.id, node.kind) for node in doc.nodes],
        [(position[id(r.source)], position[id(r.target)], r.kind) for r in doc.relationships],
        drops,
    )


class TestMatchesTheLoopsItReplaced:
    @settings(max_examples=400, deadline=None)
    @given(payloads)
    def test_structured_payloads(self, payload):
        assert outcome(parse_structured_response, payload) == outcome(reference_structured, payload)

    @settings(max_examples=400, deadline=None)
    @given(records)
    def test_record_lists(self, items):
        assert outcome(components_from_records, items) == outcome(reference_records, items)


class TestOwnershipIsNotExtracted:
    """A model's story nodes and HAS_* edges vanished uncounted: ownership
    is derived at load, so extraction drops and counts them."""

    def test_structured_reply(self):
        payload = {
            "nodes": [{"id": "story", "type": "Userstory"}, {"id": "user", "type": "Persona"}],
            "relationships": [
                {"source": "story", "target": "user", "type": "HAS_PERSONA"},
                {"source": "user", "target": "sync", "type": "TRIGGERS"},
            ],
        }
        drops = DropCounts()
        doc = parse_structured_response(payload, drops)
        assert [(n.id, n.kind) for n in doc.nodes] == [
            ("user", NodeKind.PERSONA), ("sync", NodeKind.ACTION)
        ]
        assert [r.kind for r in doc.relationships] == [RelKind.TRIGGERS]
        assert drops == DropCounts(nodes=1, relationships=1)

    def test_record_reply(self):
        records = [
            {"head": "story", "head_type": "Userstory", "relation": "HAS_ACTION",
             "tail": "sync", "tail_type": "Action"},
            {"head": "user", "head_type": "Persona", "relation": "TRIGGERS",
             "tail": "sync", "tail_type": "Action"},
        ]
        drops = DropCounts()
        doc = parse_unstructured_response(json.dumps(records), drops)
        assert [(n.id, n.kind) for n in doc.nodes] == [
            ("sync", NodeKind.ACTION), ("user", NodeKind.PERSONA)
        ]
        assert [r.kind for r in doc.relationships] == [RelKind.TRIGGERS]
        assert drops == DropCounts(nodes=1, relationships=1)

    def test_refused_edge_still_asserts_its_ends(self):
        payload = {"relationships": [
            {"source": "data", "source_type": "Entity", "target": "sync", "type": "TRIGGERS"},
            {"source": "story", "target": "cash", "type": "HAS_ENTITY"},
        ]}
        drops = DropCounts()
        doc = parse_structured_response(payload, drops)
        assert [(n.id, n.kind) for n in doc.nodes] == [
            ("data", NodeKind.ENTITY), ("sync", NodeKind.ACTION), ("cash", NodeKind.ENTITY)
        ]
        assert doc.relationships == []
        assert drops == DropCounts(relationships=2)


KEPT_NODES = frozenset({NodeKind.PERSONA, NodeKind.ACTION, NodeKind.ENTITY, NodeKind.BENEFIT})


def assert_extraction_output(doc: GraphDocument) -> None:
    """Persona, Action, Entity and Benefit nodes only, and TRIGGERS and
    TARGETS edges of the ontology's endpoint kinds between those very nodes."""
    own = {id(node) for node in doc.nodes}
    assert all(node.kind in KEPT_NODES for node in doc.nodes)
    for rel in doc.relationships:
        assert KEPT_EDGES.get(rel.kind) == (rel.source.kind, rel.target.kind)
        assert id(rel.source) in own and id(rel.target) in own


STORY = "As a user, I want to sync my data, so that I can access it anywhere."
# The graph replies of the property above, records as their JSON text, with
# or without prose around it, and benefit replies of each shape.
free_texts = st.tuples(st.text(max_size=4), payloads | records, st.text(max_size=4)).map(
    lambda parts: f"{parts[0]}{json.dumps(parts[1])}{parts[2]}"
)
benefit_replies = st.none() | ids | payloads | st.sampled_from(
    ["Node(id='save time', type='Benefit')", "'save time'", "", "{}"]
)
story_texts = st.text(max_size=30) | st.tuples(ids, ids, ids, ids).map(
    lambda p: f"As a {p[0]}, I want to {p[1]} {p[2]}, so that {p[3]}."
)


def extraction_outcome(extract, reply) -> None:
    try:
        doc = extract(reply)
    except ResponseParseError:
        return
    assert_extraction_output(doc)


class TestWhatExtractionReturns:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_structured_payloads(self, payload):
        extraction_outcome(parse_structured_response, payload)

    @settings(max_examples=300, deadline=None)
    @given(records)
    def test_record_lists(self, items):
        extraction_outcome(components_from_records, items)

    @settings(max_examples=300, deadline=None)
    @given(free_texts)
    def test_free_text(self, raw):
        extraction_outcome(parse_unstructured_response, raw)

    @settings(max_examples=300, deadline=None)
    @given(story_texts)
    def test_rule_based(self, text):
        assert_extraction_output(rule_based_extract(text))

    @settings(max_examples=300, deadline=None)
    @given(payloads | free_texts, benefit_replies)
    def test_replayed_conversation(self, main_reply, benefit_reply):
        backend = ReplayFixtureBackend(
            {STORY: {"main_response": main_reply, "benefit_response": benefit_reply}}
        )
        extraction_outcome(
            lambda _: extract_components(ExtractorConfig(), STORY, backend=backend), None
        )
