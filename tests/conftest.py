"""Shared fixtures: sample data paths and scriptable HTTP stub servers."""

from __future__ import annotations

import json
import re
import sys
import threading
import types
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from storygraph.corpus import Backlog, load_backlog
from storygraph.extraction import backends

TESTS_DIR = Path(__file__).parent
PKG_ROOT = TESTS_DIR.parent
SAMPLE_CORPUS = PKG_ROOT / "sample_corpus"
SAMPLE_BACKLOG = SAMPLE_CORPUS / "sample.json"
REPLAY_FIXTURE = TESTS_DIR / "fixtures" / "replay.json"

SYNC_TEXT = (
    "As a user, I want to sync my data so that I can access my information from anywhere."
)


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    """Chat retries go out at once instead of after the backend's backoff."""
    monkeypatch.setattr(backends, "_RETRY_BACKOFF", 0.0)


@pytest.fixture(scope="session")
def sample_backlog() -> Backlog:
    return load_backlog(SAMPLE_BACKLOG)


@pytest.fixture()
def replay_fixture_path() -> Path:
    return REPLAY_FIXTURE


class CutShort(bytes):
    """A stub payload announced at twice its length: the connection closes
    before the client has read the whole reply."""


class Redirect(str):
    """A stub payload sent as the ``Location`` header of a redirect."""


class StubHttpServer:
    """Scriptable HTTP server.

    Push (status, payload) pairs or callables onto ``behaviors``; each
    request consumes one, falling back to ``default``.  A ``bytes`` payload
    is sent as is, a ``Redirect`` as the Location header, any other as
    JSON.  Request bodies, request lines and headers of POSTs and GETs are
    recorded for assertions.
    """

    def __init__(self) -> None:
        self.behaviors: deque = deque()
        self.default = (200, {"choices": [{"message": {"content": "[]"}}]})
        self.requests: list[dict] = []
        self.paths: list[str] = []
        self.auth_headers: list[str | None] = []
        self.heads: list[str] = []
        self._lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.delay = 0.0

        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                import time

                with server._lock:
                    server.in_flight += 1
                    server.max_in_flight = max(server.max_in_flight, server.in_flight)
                try:
                    if server.delay:
                        time.sleep(server.delay)
                    length = int(self.headers.get("Content-Length", "0"))
                    raw = self.rfile.read(length)
                    try:
                        body = json.loads(raw) if raw else {}
                    except ValueError:
                        body = {"_raw": raw.decode("utf-8", "replace")}
                    with server._lock:
                        server.requests.append(body)
                        server.paths.append(self.path)
                        server.auth_headers.append(self.headers.get("Authorization"))
                        server.heads.append(f"{self.requestline}\n{self.headers}")
                        behavior = (
                            server.behaviors.popleft()
                            if server.behaviors
                            else server.default
                        )
                    if callable(behavior):
                        status, payload = behavior(body)
                    else:
                        status, payload = behavior
                    data = (
                        payload if isinstance(payload, bytes)
                        else json.dumps(payload).encode("utf-8")
                    )
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    if isinstance(payload, Redirect):
                        self.send_header("Location", payload)
                    length = len(data) * (2 if isinstance(payload, CutShort) else 1)
                    self.send_header("Content-Length", str(length))
                    self.end_headers()
                    self.wfile.write(data)
                finally:
                    with server._lock:
                        server.in_flight -= 1

            do_GET = do_POST

            def log_message(self, *args):
                pass

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # A short poll keeps shutdown() from waiting up to 0.5 s per test.
        self.thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.httpd.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture()
def stub_server():
    server = StubHttpServer()
    yield server
    server.close()


def chat_content_reply(content: str) -> tuple[int, dict]:
    return (200, {"choices": [{"message": {"content": content}}]})


def chat_tool_reply(arguments: dict) -> tuple[int, dict]:
    return (
        200,
        {
            "choices": [
                {
                    "message": {
                        "tool_calls": [
                            {
                                "function": {
                                    "name": "extract_graph_components",
                                    "arguments": json.dumps(arguments),
                                }
                            }
                        ]
                    }
                }
            ]
        },
    )


def neo4j_commit_reply(statement_count: int, nodes_created: int, rels_created: int) -> tuple[int, dict]:
    """Transactional-endpoint shape: per-statement results plus stats.

    Creation counts are attributed to the first statement; only totals
    matter to the client.
    """
    results = []
    for i in range(statement_count):
        stats = {
            "nodes_created": nodes_created if i == 0 else 0,
            "relationships_created": rels_created if i == 0 else 0,
        }
        results.append({"columns": [], "data": [], "stats": stats})
    return (200, {"results": results, "errors": []})


_NODE_MERGE = re.compile(r"^MERGE \(n:(\w+) \{id: \$id\}\)")
_REL_MERGE = re.compile(
    r"^MATCH \(a:(\w+) \{id: \$source_id\}\) MATCH \(b:(\w+) \{id: \$target_id\}\) "
    r"MERGE \(a\)-\[r:(\w+)\]->\(b\)"
)


class FakeStoreError(Exception):
    pass


class FakeGraphStore:
    """Stateful stand-in for Neo4j that tallies MERGE keys per statement.

    Nodes are keyed by (label, id) and relationships by their type and both
    endpoint keys, as MERGE matches them.  A transaction is applied only
    when all its statements succeed; a statement that mentions an id in
    ``poisoned`` fails and rolls its whole transaction back.
    ``transactions`` counts every transaction attempted.
    """

    def __init__(self, poisoned: set[str] = frozenset()) -> None:
        self.nodes: set[tuple[str, str]] = set()
        self.rels: set[tuple] = set()
        self.poisoned = set(poisoned)
        self.transactions = 0

    def begin(self) -> "FakeTransaction":
        self.transactions += 1
        return FakeTransaction(self)

    def http_reply(self, body: dict) -> tuple[int, dict]:
        """Answer one transactional-endpoint request (a StubHttpServer behavior)."""
        tx = self.begin()
        results = []
        try:
            for statement in body["statements"]:
                nodes, rels = tx.run(statement["statement"], statement.get("parameters", {}))
                stats = {"nodes_created": nodes, "relationships_created": rels}
                results.append({"columns": [], "data": [], "stats": stats})
        except FakeStoreError as exc:
            return (200, {"results": [], "errors": [
                {"code": "Neo.ClientError.Statement", "message": str(exc)}
            ]})
        tx.commit()
        return (200, {"results": results, "errors": []})


class FakeTransaction:
    def __init__(self, store: FakeGraphStore) -> None:
        self.store = store
        self.nodes = set(store.nodes)
        self.rels = set(store.rels)

    def run(self, text: str, params: dict) -> tuple[int, int]:
        """Apply one statement; returns (nodes_created, relationships_created)."""
        if self.store.poisoned & {v for v in params.values() if isinstance(v, str)}:
            raise FakeStoreError(f"bad statement: {text[:40]}")
        node = _NODE_MERGE.match(text)
        rel = _REL_MERGE.match(text)
        if node:
            key = (node.group(1), params["id"])
            created = key not in self.nodes
            self.nodes.add(key)
            return int(created), 0
        if rel:
            src = (rel.group(1), params["source_id"])
            tgt = (rel.group(2), params["target_id"])
            key = (rel.group(3), src, tgt)
            if src not in self.nodes or tgt not in self.nodes:
                return 0, 0
            created = key not in self.rels
            self.rels.add(key)
            return 0, int(created)
        raise FakeStoreError(f"unsupported statement: {text[:40]}")

    def commit(self) -> None:
        self.store.nodes = self.nodes
        self.store.rels = self.rels


@pytest.fixture()
def graph_store(stub_server) -> FakeGraphStore:
    """A fake store answering every request to ``stub_server``."""
    fake = FakeGraphStore()
    stub_server.default = fake.http_reply
    return fake


def fake_neo4j_module(store: FakeGraphStore) -> types.ModuleType:
    """The slice of the ``neo4j`` driver API the sink uses, backed by ``store``."""

    class Result:
        def __init__(self, nodes: int, rels: int) -> None:
            self.counters = types.SimpleNamespace(nodes_created=nodes, relationships_created=rels)

        def consume(self) -> "Result":
            return self

    class Tx:
        def __init__(self, tx: FakeTransaction) -> None:
            self.tx = tx

        def run(self, text: str, **params) -> Result:
            return Result(*self.tx.run(text, params))

    class Session:
        def __init__(self, database: str) -> None:
            self.database = database

        def __enter__(self) -> "Session":
            return self

        def __exit__(self, *exc) -> None:
            pass

        def execute_write(self, work):
            tx = store.begin()
            result = work(Tx(tx))
            tx.commit()
            return result

    class Driver:
        def session(self, database: str) -> Session:
            return Session(database)

        def close(self) -> None:
            pass

    module = types.ModuleType("neo4j")
    module.GraphDatabase = types.SimpleNamespace(driver=lambda uri, auth: Driver())
    return module


@pytest.fixture()
def bolt_store(monkeypatch) -> FakeGraphStore:
    """A fake store behind a fake ``neo4j`` driver module."""
    fake = FakeGraphStore()
    monkeypatch.setitem(sys.modules, "neo4j", fake_neo4j_module(fake))
    return fake
