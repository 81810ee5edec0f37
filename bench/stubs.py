"""Loopback stand-ins for the chat-completions API and the Neo4j HTTP API.

Both answer after a fixed delay, so a timing taken against them shows the
client's overhead, request count and concurrency rather than a remote
service.  Both speak HTTP/1.1 and keep connections alive, so a client that
reuses connections gains from it here as it would against a real server.
Each stub counts requests, accepted connections, the most requests in
flight at once, the summed handling time and the time it was busy with at
least one request.
"""

from __future__ import annotations

import json
import re
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

_INPUT_MARKER = "following input: "
_MAIN_MARKER = "Knowledge Graph Constructor"
_NODE_MERGE = re.compile(r"^MERGE \(n:(\w+) \{id: \$id\}\)")
_REL_MERGE = re.compile(
    r"^MATCH \(a:(\w+) \{id: \$source_id\}\) MATCH \(b:(\w+) \{id: \$target_id\}\) "
    r"MERGE \(a\)-\[r:(\w+)\]->\(b\)"
)


class _Server(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, stub: "StubServer"):
        self.stub = stub
        super().__init__(("127.0.0.1", 0), _Handler)

    def process_request(self, request, client_address):
        with self.stub.lock:
            self.stub.connections += 1
        super().process_request(request, client_address)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):
        stub = self.server.stub
        start = time.perf_counter()
        with stub.lock:
            if stub.in_flight == 0:
                stub._busy_since = start
            stub.in_flight += 1
            stub.max_in_flight = max(stub.max_in_flight, stub.in_flight)
        try:
            time.sleep(stub.delay)
            raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            status, payload = stub.respond(self.path, json.loads(raw or b"{}"))
            data = json.dumps(payload).encode("utf-8")
        finally:
            # The request leaves flight before its reply is sent, so a client
            # that answers the reply with a new request never overlaps it.
            end = time.perf_counter()
            with stub.lock:
                stub.requests += 1
                stub.handling_s += end - start
                stub.in_flight -= 1
                if stub.in_flight == 0:
                    stub.busy_s += end - stub._busy_since
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        self.wfile.flush()

    def log_message(self, *args):
        pass


class StubServer:
    """Base loopback server; subclasses implement ``respond``."""

    def __init__(self, delay: float):
        self.delay = delay
        self.lock = threading.Lock()
        self.reset_counters()
        self._httpd = _Server(self)
        self._thread = threading.Thread(target=self._httpd.serve_forever, daemon=True)
        self._thread.start()

    def reset_counters(self) -> None:
        with self.lock:
            self.requests = 0
            self.connections = 0
            self.in_flight = 0
            self.max_in_flight = 0
            self.handling_s = 0.0
            self.busy_s = 0.0
            self._busy_since = 0.0

    def counters(self) -> dict[str, float]:
        with self.lock:
            return {
                "requests": self.requests,
                "connections": self.connections,
                "max_in_flight": self.max_in_flight,
                "handling_s": self.handling_s,
                "busy_s": self.busy_s,
            }

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def respond(self, path: str, body: dict) -> tuple[int, dict]:
        raise NotImplementedError

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _clean_text(record: dict) -> str:
    """Story text as the CLI sends it: without the leading ``#PID#`` tag."""
    return re.sub(r"^\s*#[^#]*#\s*", "", record["Text"], count=1)


def main_chain_records(record: dict) -> list[dict]:
    """The annotation of one story as head-relation-tail records."""
    text = _clean_text(record)
    rows = [(p, "Persona", "TRIGGERS", a, "Action") for p, a in record["Triggers"]]
    rows += [(a, "Action", "TARGETS", e, "Entity") for a, e in record["Targets"]]
    return [
        {"text": text, "head": h, "head_type": ht, "relation": r, "tail": t, "tail_type": tt}
        for h, ht, r, t, tt in rows
    ]


class ChatStub(StubServer):
    """Chat-completions stub that answers every story with its annotation.

    The story is found from the text after ``following input: `` in the last
    message.  The main chain gets inline JSON records, the benefit chain a
    ``Node(id=..., type='Benefit')`` literal or ``''``.  With ``wrong=True``
    every main reply loses its last record, a fault the output checks must
    catch.
    """

    def __init__(self, corpus: dict[str, list[dict]], delay: float, wrong: bool = False):
        self.stories = {
            _clean_text(record): record for records in corpus.values() for record in records
        }
        self.wrong = wrong
        super().__init__(delay)

    def respond(self, path: str, body: dict) -> tuple[int, dict]:
        messages = body.get("messages") or []
        prompt = messages[-1]["content"] if messages else ""
        _, _, text = prompt.partition(_INPUT_MARKER)
        record = self.stories.get(text)
        if record is None:
            return 404, {"error": {"message": "unknown story"}}
        if _MAIN_MARKER in messages[0]["content"]:
            records = main_chain_records(record)
            if self.wrong:
                records = records[:-1]
            content = json.dumps(records)
        elif record["Benefit"]:
            content = f"Node(id='{record['Benefit']}', type='Benefit')"
        else:
            content = "''"
        return 200, {"choices": [{"message": {"role": "assistant", "content": content}}]}


class Neo4jStub(StubServer):
    """Transactional-endpoint stub that tallies MERGE keys like a store.

    Nodes are keyed by (label, raw id) and relationships by their type and
    both endpoint keys, which is what MERGE matches on, so the per-statement
    ``nodes_created`` and ``relationships_created`` it returns are what a
    real store would report.  With ``wrong=True`` it over-reports one node
    per transaction.
    """

    def __init__(self, delay: float, wrong: bool = False):
        self.wrong = wrong
        self.nodes: set[tuple[str, str]] = set()
        self.rels: set[tuple] = set()
        self.node_statements = 0
        super().__init__(delay)

    def reset_store(self) -> None:
        with self.lock:
            self.nodes.clear()
            self.rels.clear()
            self.node_statements = 0

    def respond(self, path: str, body: dict) -> tuple[int, dict]:
        if not re.fullmatch(r"/db/[^/]+/tx/commit", path):
            return 404, {"errors": [{"message": f"no endpoint {path}"}]}
        results = []
        with self.lock:
            for statement in body.get("statements", []):
                text, params = statement["statement"], statement.get("parameters", {})
                nodes_created = rels_created = 0
                node = _NODE_MERGE.match(text)
                rel = _REL_MERGE.match(text)
                if node:
                    self.node_statements += 1
                    key = (node.group(1), params["id"])
                    nodes_created = int(key not in self.nodes)
                    self.nodes.add(key)
                elif rel:
                    src = (rel.group(1), params["source_id"])
                    tgt = (rel.group(2), params["target_id"])
                    key = (rel.group(3), src, tgt)
                    if src in self.nodes and tgt in self.nodes:
                        rels_created = int(key not in self.rels)
                        self.rels.add(key)
                else:
                    return 200, {
                        "results": [],
                        "errors": [{"message": f"unsupported statement: {text[:60]}"}],
                    }
                stats = {"nodes_created": nodes_created, "relationships_created": rels_created}
                results.append({"columns": [], "data": [], "stats": stats})
        if self.wrong and results:
            results[0]["stats"]["nodes_created"] += 1
        return 200, {"results": results, "errors": []}

    def tally(self) -> dict[str, int]:
        with self.lock:
            return {
                "nodes": len(self.nodes),
                "rels": len(self.rels),
                "node_statements": self.node_statements,
            }
