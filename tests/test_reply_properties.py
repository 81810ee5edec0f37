"""Properties of the service boundaries: any JSON a service sends is untrusted.

Arbitrary JSON values, built over the keys a chat reply and a graph payload
are read by, go to ``ChatHttpBackend._parse_reply`` and to the three reply
parsers.  Each returns its result or raises its own error, never any other
exception: ``extract_many`` fails a story only on a ``StoryGraphError``, so
anything else would end the whole run.  Values built over the keys of a
Neo4j transactional-endpoint reply go to ``sink.store`` through the stub
server, which returns a ``LoadSummary`` or raises ``SinkError``.  The plain
tests below pin the inputs that once escaped.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SYNC_TEXT
from storygraph.errors import BackendError, ResponseParseError, SinkError, StoryGraphError
from storygraph.extraction import (
    ChatHttpBackend,
    parse_benefit_response,
    parse_structured_response,
    parse_unstructured_response,
)
from storygraph.extraction import rule_based_extract
from storygraph.model import GraphDocument
from storygraph.sink import LoadSummary, SinkConfig, store
from storygraph.transform import build_graph_document

REPLY_KEYS = (
    "choices", "message", "content", "tool_calls", "function", "function_call",
    "arguments", "nodes", "relationships",
)
# What the parsers read inside ``nodes``, ``relationships`` and records.
GRAPH_KEYS = (
    "nodes", "relationships", "id", "type", "source", "source_type", "target",
    "target_type", "relation", "head", "head_type", "tail", "tail_type",
)
GRAPH_NAMES = ("Persona", "Action", "Entity", "Benefit", "TRIGGERS", "TARGETS", "HAS_ACTION")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(GRAPH_NAMES)
)


def json_values(keys: tuple[str, ...]) -> st.SearchStrategy:
    return st.recursive(
        scalars,
        lambda children: (
            st.lists(children, max_size=3)
            | st.dictionaries(st.sampled_from(keys), children, max_size=4)
        ),
        max_leaves=16,
    )


reply_values = json_values(REPLY_KEYS)
# A value on its own, or as the message of an otherwise well-formed reply,
# and function-call arguments as JSON text, as the wire carries them.
replies = st.one_of(
    reply_values,
    reply_values.map(lambda message: {"choices": [{"message": message}]}),
    json_values(GRAPH_KEYS).map(lambda arguments: {"choices": [{"message": {
        "tool_calls": [{"function": {"arguments": json.dumps(arguments)}}]}}]}),
)
graph_values = json_values(GRAPH_KEYS)
# What ``sink`` reads in a transactional-endpoint reply.
STORE_KEYS = (
    "results", "errors", "stats", "nodes_created", "relationships_created", "message",
)
store_replies = json_values(STORE_KEYS)
# Free text holding a JSON value, with or without prose around it.
free_texts = st.one_of(
    st.text(max_size=12),
    st.tuples(st.text(max_size=6), graph_values, st.text(max_size=6)).map(
        lambda parts: f"{parts[0]}{json.dumps(parts[1])}{parts[2]}"
    ),
)


@settings(max_examples=200, deadline=None)
@given(reply=replies)
def test_chat_reply_is_a_payload_or_a_storygraph_error(reply):
    raw = json.dumps(reply).encode("utf-8")
    try:
        payload = ChatHttpBackend._parse_reply(raw)
    except StoryGraphError:
        return
    assert isinstance(payload, (dict, str))


@settings(max_examples=200, deadline=None)
@given(payload=graph_values)
def test_structured_parser_returns_a_document_or_a_parse_error(payload):
    try:
        doc = parse_structured_response(payload)
    except ResponseParseError:
        return
    assert isinstance(doc, GraphDocument)


@settings(max_examples=200, deadline=None)
@given(raw=free_texts)
def test_free_text_parser_returns_a_document_or_a_parse_error(raw):
    try:
        doc = parse_unstructured_response(raw)
    except ResponseParseError:
        return
    assert isinstance(doc, GraphDocument)


@settings(max_examples=200, deadline=None)
@given(reply=st.one_of(graph_values, free_texts))
def test_benefit_parser_returns_text_none_or_a_parse_error(reply):
    try:
        benefit = parse_benefit_response(reply)
    except ResponseParseError:
        return
    assert benefit is None or isinstance(benefit, str)


# The server is one for all examples; each example sets the reply it sends.
@settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(reply=store_replies)
def test_store_reply_is_a_summary_or_a_sink_error(stub_server, reply):
    stub_server.default = (200, reply)
    doc = build_graph_document(rule_based_extract(SYNC_TEXT), SYNC_TEXT)
    try:
        summary = store(SinkConfig(uri=stub_server.url), [doc, doc])
    except SinkError:
        return
    assert isinstance(summary, LoadSummary)


# Nested deeper than the JSON decoder follows: each raised RecursionError.
DEEP = "[" * 100_000


def test_deeply_nested_free_text_is_a_parse_error():
    with pytest.raises(ResponseParseError, match="nested too deeply"):
        parse_unstructured_response(DEEP)


def test_deeply_nested_benefit_reply_is_read_as_text():
    assert parse_benefit_response(DEEP) == DEEP


def test_deeply_nested_chat_reply_is_a_backend_error():
    with pytest.raises(BackendError, match="malformed backend response"):
        ChatHttpBackend._parse_reply(DEEP.encode("utf-8"))


def test_deeply_nested_function_arguments_are_a_parse_error():
    call = {"function": {"arguments": DEEP}}
    raw = json.dumps({"choices": [{"message": {"tool_calls": [call]}}]}).encode("utf-8")
    with pytest.raises(ResponseParseError, match="not valid JSON"):
        ChatHttpBackend._parse_reply(raw)
