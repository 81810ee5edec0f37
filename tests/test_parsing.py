"""Backend reply parsing: structured payloads, record lists, benefit text."""

from __future__ import annotations

import json

import pytest

from storygraph.errors import ResponseParseError
from storygraph.extraction import (
    DropCounts,
    extract_first_json,
    parse_benefit_response,
    parse_structured_response,
    parse_unstructured_response,
)
from storygraph.model import NodeKind, RelKind


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
