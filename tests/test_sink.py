"""Cypher rendering and graph-store loading."""

from __future__ import annotations

import json
import math
import re
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SYNC_TEXT, neo4j_commit_reply
from storygraph import sink
from storygraph.errors import SinkError
from storygraph.model import (
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    document_to_dict,
)
from storygraph.sink import (
    CypherStatement,
    LoadSummary,
    SinkConfig,
    cypher_script,
    export_json,
    store,
    to_cypher,
)
from storygraph.transform import story_document


@pytest.fixture()
def sync_doc(sample_backlog) -> GraphDocument:
    return story_document(sample_backlog.stories[0])


@pytest.fixture()
def sample_docs(sample_backlog) -> list[GraphDocument]:
    return [story_document(story) for story in sample_backlog.stories]


def small_doc(action: str) -> GraphDocument:
    """user -TRIGGERS-> action -TARGETS-> "<action> data"."""
    persona = GraphNode(id="user", kind=NodeKind.PERSONA)
    act = GraphNode(id=action, kind=NodeKind.ACTION)
    entity = GraphNode(id=f"{action} data", kind=NodeKind.ENTITY)
    return GraphDocument(
        nodes=[persona, act, entity],
        relationships=[
            GraphRelationship(persona, act, RelKind.TRIGGERS),
            GraphRelationship(act, entity, RelKind.TARGETS),
        ],
        source_text=f"As a user, I want to {action} data.",
    )


def decode_literals(line: str) -> tuple[str, list[str]]:
    """Split a script line into its text with each string literal as ``?``
    and the decoded literals, undoing ``_cypher_literal``'s escapes."""
    escapes = {"\\": "\\", "'": "'", "n": "\n", "r": "\r"}
    skeleton, literals = [], []
    i = 0
    while i < len(line):
        if line[i] != "'":
            skeleton.append(line[i])
            i += 1
            continue
        i += 1
        chars = []
        while line[i] != "'":
            if line[i] == "\\":
                chars.append(escapes[line[i + 1]])
                i += 2
            else:
                chars.append(line[i])
                i += 1
        literals.append("".join(chars))
        skeleton.append("?")
        i += 1
    return "".join(skeleton), literals


class TestToCypher:
    def test_statement_count(self, sync_doc):
        statements = to_cypher(sync_doc)
        assert len(statements) == 18
        assert sum(1 for s in statements if s.text.startswith("MERGE (n:")) == 8

    def test_nodes_before_relationships(self, sync_doc):
        statements = to_cypher(sync_doc)
        flags = [s.text.startswith("MERGE (n:") for s in statements]
        assert flags == sorted(flags, reverse=True)

    def test_node_statement_shape(self, sync_doc):
        node_stmt = to_cypher(sync_doc)[0]
        assert node_stmt.text == "MERGE (n:Userstory {id: $id})"
        assert node_stmt.params == {"id": sync_doc.nodes[0].id}

    def test_relationship_statement_shape(self, sync_doc):
        rel_stmt = next(s for s in to_cypher(sync_doc) if "TRIGGERS" in s.text)
        assert rel_stmt.text == (
            "MATCH (a:Persona {id: $source_id}) "
            "MATCH (b:Action {id: $target_id}) "
            "MERGE (a)-[r:TRIGGERS]->(b)"
        )
        assert rel_stmt.params == {"source_id": "user", "target_id": "sync"}

    def test_fully_parameterized(self, sync_doc):
        for statement in to_cypher(sync_doc):
            for value in statement.params.values():
                if isinstance(value, str) and len(value) > 3:
                    assert value not in statement.text

    def test_oversized_id_refused(self):
        node = GraphNode(id="x" * 5000, kind=NodeKind.ENTITY)
        doc = GraphDocument(nodes=[node], relationships=[], source_text="t")
        with pytest.raises(SinkError, match="exceeds 4000"):
            to_cypher(doc)

    def test_id_limit_boundary(self):
        """An id of exactly 4,000 characters renders; one more is refused."""
        def doc(length):
            node = GraphNode(id="x" * length, kind=NodeKind.ENTITY)
            return GraphDocument(nodes=[node], relationships=[], source_text="t")

        assert to_cypher(doc(4000))[0].params == {"id": "x" * 4000}
        with pytest.raises(SinkError, match="exceeds 4000"):
            to_cypher(doc(4001))


class TestScript:
    def test_script_inlines_and_terminates(self, sync_doc):
        script = cypher_script([sync_doc])
        lines = [line for line in script.splitlines() if line]
        assert len(lines) == 18
        assert all(line.endswith(";") for line in lines)
        assert "$id" not in script
        assert "MERGE (n:Persona {id: 'user'});" in script

    def test_script_escapes_quotes_and_newlines(self):
        node = GraphNode(id="it's\na test", kind=NodeKind.ENTITY)
        doc = GraphDocument(nodes=[node], relationships=[], source_text="t")
        script = cypher_script([doc])
        assert "it\\'s\\na test" in script
        assert "\n'" not in script.split(";")[0]

    def test_script_escapes_backslashes(self):
        node = GraphNode(id="back\\slash", kind=NodeKind.ENTITY)
        doc = GraphDocument(nodes=[node], relationships=[], source_text="t")
        assert "back\\\\slash" in cypher_script([doc])

    def test_empty_input_is_empty_script(self):
        assert cypher_script([]) == ""

    def test_parameter_name_inside_id_not_substituted_again(self):
        doc = small_doc("shop $target_id now")
        script = cypher_script([doc])
        assert "MERGE (n:Action {id: 'shop $target_id now'});" in script
        assert "MATCH (a:Action {id: 'shop $target_id now'})" in script
        assert "MATCH (b:Action {id: 'shop $target_id now'})" in script

    @settings(max_examples=200, deadline=None)
    @given(
        ids=st.lists(
            st.one_of(
                st.text(),
                st.lists(st.sampled_from(
                    ["$id", "$props", "$source_id", "$target_id", "'", "\\", "\n", "\r", "$", "x"]
                )).map("".join),
            ),
            min_size=3, max_size=3,
        )
    )
    def test_every_literal_decodes_to_its_id(self, ids):
        persona = GraphNode(id=ids[0], kind=NodeKind.PERSONA)
        action = GraphNode(id=ids[1], kind=NodeKind.ACTION)
        entity = GraphNode(id=ids[2], kind=NodeKind.ENTITY)
        doc = GraphDocument(
            nodes=[persona, action, entity],
            relationships=[
                GraphRelationship(persona, action, RelKind.TRIGGERS),
                GraphRelationship(action, entity, RelKind.TARGETS),
            ],
        )
        lines = cypher_script([doc]).split("\n")[:-1]
        statements = to_cypher(doc)
        assert len(lines) == len(statements)
        for line, statement in zip(lines, statements):
            skeleton, literals = decode_literals(line)
            assert skeleton == re.sub(r"\$\w+", "?", statement.text) + ";"
            assert literals == list(statement.params.values())


# -- templates and the split-once script against the per-statement oracle -----

ORACLE_PARAM = re.compile(r"\$(\w+)")


def oracle_statements(doc: GraphDocument) -> list[CypherStatement]:
    """Statements as formatted one at a time from their labels."""
    statements = []
    for node in doc.nodes:
        text = f"MERGE (n:{node.kind.value} {{id: $id}})"
        statements.append(CypherStatement(text=text, params={"id": node.id}))
    for rel in doc.relationships:
        text = (
            f"MATCH (a:{rel.source.kind.value} {{id: $source_id}}) "
            f"MATCH (b:{rel.target.kind.value} {{id: $target_id}}) "
            f"MERGE (a)-[r:{rel.kind.value}]->(b)"
        )
        params = {"source_id": rel.source.id, "target_id": rel.target.id}
        statements.append(CypherStatement(text=text, params=params))
    return statements


def oracle_script(statements: list[CypherStatement]) -> str:
    """One regex substitution per statement."""
    lines = []
    for statement in statements:
        params = statement.params
        lines.append(
            ORACLE_PARAM.sub(lambda m: sink._cypher_literal(params[m.group(1)]), statement.text)
            + ";"
        )
    return "\n".join(lines) + ("\n" if lines else "")


awkward_text = st.one_of(
    st.text(max_size=8),
    st.lists(st.sampled_from(
        ["$id", "$source_id", "$target_id", "$props", "$", "%", "%s", "'", '"', "\\",
         "\r", "\n", "é", "日本", "x", " "]
    ), max_size=6).map("".join),
)


@st.composite
def awkward_docs(draw) -> GraphDocument:
    nodes = [
        GraphNode(id=draw(awkward_text), kind=draw(st.sampled_from(list(NodeKind))))
        for _ in range(draw(st.integers(0, 4)))
    ]
    relationships = []
    if nodes:
        for _ in range(draw(st.integers(0, 4))):
            relationships.append(GraphRelationship(
                draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes)),
                draw(st.sampled_from(list(RelKind))),
            ))
    return GraphDocument(nodes=nodes, relationships=relationships, source_text="t")


@settings(max_examples=300, deadline=None)
@given(st.lists(awkward_docs(), max_size=3))
def test_script_equals_per_statement_substitution(docs):
    rendered = sink.render(docs)
    expected = [statement for doc in docs for statement in oracle_statements(doc)]
    assert [statement for _doc, statements in rendered for statement in statements] == expected
    assert sink.rendered_script(rendered) == oracle_script(expected)


def test_script_of_hand_built_statements():
    """Statements not built by to_cypher render the same way."""
    statements = [
        CypherStatement("RETURN 100% AS x, $a AS a, $a AS b", {"a": "$a %s"}),
        CypherStatement("RETURN 1"),
    ]
    script = sink.rendered_script([(GraphDocument(), statements)])
    assert script == oracle_script(statements)
    assert script == "RETURN 100% AS x, '$a %s' AS a, '$a %s' AS b;\nRETURN 1;\n"


class Rogue(str, Enum):
    LABEL = "Entity {id: 'x'}) DETACH DELETE n //"


@pytest.mark.parametrize("where", ["node", "source", "target", "relationship"])
def test_non_ontology_label_refused(where):
    good = GraphNode(id="a", kind=NodeKind.ENTITY)
    rogue = GraphNode(id="b", kind=Rogue.LABEL)
    if where == "node":
        doc = GraphDocument(nodes=[rogue])
    elif where == "relationship":
        doc = GraphDocument(relationships=[GraphRelationship(good, good, Rogue.LABEL)])
    else:
        ends = (rogue, good) if where == "source" else (good, rogue)
        doc = GraphDocument(relationships=[GraphRelationship(*ends, RelKind.TARGETS)])
    # Refused on every call: a refused template is never kept.
    for _ in range(2):
        with pytest.raises(SinkError, match="illegal label"):
            to_cypher(doc)


@pytest.mark.parametrize("value", [1, 1.5, True, None, {"k": "v"}, ["a"]])
def test_script_refuses_a_parameter_that_is_not_a_string(value):
    """Every parameter to_cypher builds is an id; nothing else has a literal form."""
    statements = [CypherStatement("RETURN $a", {"a": value})]
    with pytest.raises(SinkError, match="as a Cypher literal"):
        sink.rendered_script([(GraphDocument(), statements)])


class TestJsonRoundTrip:
    def test_round_trip(self, sync_doc):
        assert json.loads(export_json([sync_doc])) == [document_to_dict(sync_doc)]

    def test_export_is_utf8_with_trailing_newline(self, sync_doc):
        data = export_json([sync_doc])
        assert data.endswith(b"\n")
        json.loads(data.decode("utf-8"))


class TestStoreHttp:
    def test_statements_posted_and_stats_read(self, stub_server, sync_doc):
        stub_server.behaviors.append(neo4j_commit_reply(18, 8, 10))
        config = SinkConfig(uri=stub_server.url, user="neo4j", password="pw",
                            database_name="neo4j")
        summary = store(config, [sync_doc])

        assert summary == LoadSummary(
            nodes_created=8, rels_created=10, nodes_matched=0,
            documents_loaded=1, documents_failed=0,
        )
        assert stub_server.paths == ["/db/neo4j/tx/commit"]
        body = stub_server.requests[0]
        assert len(body["statements"]) == 18
        assert all(s["includeStats"] for s in body["statements"])
        assert body["statements"][0]["statement"].startswith("MERGE (n:Userstory")

    def test_rerun_counts_matches(self, stub_server, sync_doc):
        stub_server.behaviors.append(neo4j_commit_reply(18, 0, 0))
        summary = store(SinkConfig(uri=stub_server.url), [sync_doc])
        assert summary.nodes_created == 0
        assert summary.nodes_matched == 8

    def test_database_name_in_path(self, stub_server, sync_doc):
        stub_server.behaviors.append(neo4j_commit_reply(18, 8, 10))
        store(SinkConfig(uri=stub_server.url, database_name="stories"), [sync_doc])
        assert stub_server.paths == ["/db/stories/tx/commit"]

    def test_failed_document_skipped_not_fatal(self, stub_server, sync_doc, caplog):
        error_reply = (200, {"results": [], "errors": [
            {"code": "Neo.ClientError", "message": "bad statement"}
        ]})
        # The batch of both documents is rolled back, then each is re-sent.
        stub_server.behaviors.extend(
            [error_reply, error_reply, neo4j_commit_reply(18, 8, 10)]
        )
        with caplog.at_level("WARNING"):
            summary = store(SinkConfig(uri=stub_server.url), [sync_doc, sync_doc])
        assert summary.documents_failed == 1
        assert summary.documents_loaded == 1
        assert any("bad statement" in r.message for r in caplog.records)
        assert [len(body["statements"]) for body in stub_server.requests] == [36, 18, 18]

    def test_reply_not_json(self, stub_server, sync_doc):
        stub_server.behaviors.append((200, b"<html>proxy error</html>"))
        config = SinkConfig(uri=stub_server.url.replace("http://", "http://neo4j:hunter2@"))
        with pytest.raises(SinkError, match="not a JSON object") as exc_info:
            store(config, [sync_doc])
        assert "hunter2" not in str(exc_info.value)
        assert stub_server.url in str(exc_info.value)

    def test_reply_not_object(self, stub_server, sync_doc):
        stub_server.behaviors.append((200, ["results"]))
        config = SinkConfig(uri=stub_server.url.replace("http://", "http://neo4j:hunter2@"))
        with pytest.raises(SinkError, match="not a JSON object") as exc_info:
            store(config, [sync_doc])
        assert "hunter2" not in str(exc_info.value)
        assert stub_server.url in str(exc_info.value)

    @pytest.mark.parametrize(
        "reply",
        [
            {"results": 5},
            {"results": [{"stats": 5}]},
            {"results": [5]},
            {"errors": [5]},
            {"errors": "boom"},
            {"results": [{"stats": {"nodes_created": "3"}}]},
            {"results": [{"stats": {"relationships_created": 1.5}}]},
            {"results": [{"stats": {"nodes_created": True}}]},
            b'{"results": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=[
            "results-number", "stats-number", "result-number", "error-number",
            "errors-string", "counter-string", "counter-float", "counter-bool",
            "nested-too-deep",
        ],
    )
    def test_malformed_reply_is_a_sink_error(self, stub_server, sync_doc, reply):
        """Each ended load in an AttributeError or TypeError traceback, or
        added a counter that is not a count."""
        stub_server.behaviors.append((200, reply))
        with pytest.raises(SinkError, match="malformed reply") as exc_info:
            store(SinkConfig(uri=stub_server.url), [sync_doc])
        assert stub_server.url in str(exc_info.value)

    def test_auth_failure_redacts(self, stub_server, sync_doc):
        stub_server.behaviors.append((401, {}))
        config = SinkConfig(
            uri=stub_server.url.replace("http://", "http://neo4j:hunter2@"),
            user="neo4j", password="hunter2",
        )
        with pytest.raises(SinkError) as exc_info:
            store(config, [sync_doc])
        message = str(exc_info.value)
        assert "hunter2" not in message
        assert "authentication failed" in message

    def test_server_error_status(self, stub_server, sync_doc):
        stub_server.behaviors.append((500, {}))
        with pytest.raises(SinkError, match="status 500"):
            store(SinkConfig(uri=stub_server.url), [sync_doc])

    def test_connection_refused(self, sync_doc):
        config = SinkConfig(uri="http://127.0.0.1:9", request_timeout=0.2)
        with pytest.raises(SinkError, match="cannot reach graph store"):
            store(config, [sync_doc])

    def test_basic_auth_sent(self, stub_server, sync_doc):
        stub_server.behaviors.append(neo4j_commit_reply(18, 8, 10))
        store(SinkConfig(uri=stub_server.url, user="u", password="p"), [sync_doc])
        auth = stub_server.auth_headers[0]
        assert auth is not None and auth.startswith("Basic ")


class TestBatching:
    @pytest.mark.parametrize("batch_size", [1, 2, 100])
    def test_summary_independent_of_batch_size(self, stub_server, graph_store,
                                               sample_docs, batch_size, monkeypatch):
        monkeypatch.setattr(sink, "_BATCH_SIZE", batch_size)
        # Loading the sample twice also counts matched nodes.
        docs = sample_docs + sample_docs
        summary = store(SinkConfig(uri=stub_server.url), docs)
        assert summary == LoadSummary(
            nodes_created=19, rels_created=24, nodes_matched=19,
            documents_loaded=6, documents_failed=0,
        )
        assert len(graph_store.nodes) == 19 and len(graph_store.rels) == 24

    @pytest.mark.parametrize("batch_size", [1, 2, 4, 5, 100])
    def test_one_request_per_batch(self, stub_server, graph_store, batch_size, monkeypatch):
        monkeypatch.setattr(sink, "_BATCH_SIZE", batch_size)
        docs = [small_doc(f"act{i}") for i in range(5)]
        store(SinkConfig(uri=stub_server.url), docs)
        assert len(stub_server.requests) == math.ceil(len(docs) / batch_size)
        assert [len(body["statements"]) for body in stub_server.requests] == [
            5 * len(docs[start : start + batch_size])
            for start in range(0, len(docs), batch_size)
        ]

    def test_poisoned_document_fails_alone(self, stub_server, graph_store, caplog,
                                           monkeypatch):
        monkeypatch.setattr(sink, "_BATCH_SIZE", 5)
        docs = [small_doc(f"act{i}") for i in range(5)]
        graph_store.poisoned.add("act2")
        with caplog.at_level("WARNING"):
            summary = store(SinkConfig(uri=stub_server.url), docs)

        # Created counts equal what the store holds: nothing counted twice.
        assert summary == LoadSummary(
            nodes_created=9, rels_created=8, nodes_matched=3,
            documents_loaded=4, documents_failed=1,
        )
        assert len(graph_store.nodes) == 9 and len(graph_store.rels) == 8
        # One rolled-back batch, then each document alone.
        assert len(stub_server.requests) == 1 + 5
        warnings = [r.message for r in caplog.records if r.levelname == "WARNING"]
        assert len(warnings) == 1 and "act2" in warnings[0]

    def test_refused_id_sends_nothing(self, stub_server, graph_store, monkeypatch):
        monkeypatch.setattr(sink, "_BATCH_SIZE", 2)
        docs = [small_doc(f"act{i}") for i in range(3)] + [small_doc("x" * 5000)]
        with pytest.raises(SinkError, match="exceeds 4000"):
            store(SinkConfig(uri=stub_server.url), docs)
        assert stub_server.requests == []


class TestStoreBolt:
    @pytest.mark.parametrize("batch_size", [1, 2, 100])
    def test_same_summary_as_http(self, bolt_store, sample_docs, batch_size, monkeypatch):
        monkeypatch.setattr(sink, "_BATCH_SIZE", batch_size)
        docs = sample_docs + sample_docs
        summary = store(SinkConfig(uri="bolt://localhost:7687"), docs)
        assert summary == LoadSummary(
            nodes_created=19, rels_created=24, nodes_matched=19,
            documents_loaded=6, documents_failed=0,
        )
        assert bolt_store.transactions == math.ceil(len(docs) / batch_size)

    def test_poisoned_document_fails_alone(self, bolt_store, monkeypatch):
        monkeypatch.setattr(sink, "_BATCH_SIZE", 5)
        docs = [small_doc(f"act{i}") for i in range(5)]
        bolt_store.poisoned.add("act2")
        summary = store(SinkConfig(uri="bolt://localhost:7687"), docs)
        assert summary == LoadSummary(
            nodes_created=9, rels_created=8, nodes_matched=3,
            documents_loaded=4, documents_failed=1,
        )
        assert len(bolt_store.nodes) == 9 and len(bolt_store.rels) == 8
        assert bolt_store.transactions == 1 + 5


class TestStoreDispatch:
    def test_bolt_without_driver(self, sync_doc, monkeypatch):
        import builtins

        real_import = builtins.__import__

        def no_neo4j(name, *args, **kwargs):
            if name == "neo4j":
                raise ImportError("No module named 'neo4j'")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_neo4j)
        config = SinkConfig(uri="bolt://localhost:7687")
        with pytest.raises(SinkError, match="http endpoint"):
            store(config, [sync_doc])

    def test_unsupported_scheme(self, sync_doc):
        with pytest.raises(SinkError, match="unsupported"):
            store(SinkConfig(uri="ftp://localhost"), [sync_doc])


class TestConfig:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("NEO4J_URI", "http://db:7474")
        monkeypatch.setenv("NEO4J_USER", "alice")
        monkeypatch.setenv("NEO4J_PASSWORD", "pw")
        config = SinkConfig.from_env()
        assert (config.uri, config.user, config.password) == (
            "http://db:7474", "alice", "pw"
        )

    def test_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("NEO4J_URI", "http://db:7474")
        config = SinkConfig.from_env(uri="http://other:7474", password=None)
        assert config.uri == "http://other:7474"

    def test_defaults_without_env(self, monkeypatch):
        for var in ("NEO4J_URI", "NEO4J_USER", "NEO4J_PASSWORD"):
            monkeypatch.delenv(var, raising=False)
        config = SinkConfig.from_env()
        assert config.uri == "http://localhost:7474"
        assert config.user == "neo4j"


def test_statement_dataclass_defaults():
    statement = CypherStatement(text="RETURN 1")
    assert statement.params == {}
