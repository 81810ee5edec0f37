"""Persist graph documents: parameterized Cypher, Neo4j, JSON export.

Every statement is fully parameterized; no node id or story text is ever
spliced into statement text.  A node is written as its label and its id,
a relationship as its type between two such nodes; MERGE keys on exactly
that, so re-loading the same documents is idempotent.  ``store`` writes up to
100 documents per transaction, over the HTTP API or Bolt, and retries a
rolled-back batch one document at a time.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import re
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import cache
from typing import Any, Callable, Iterable, Iterator, Sequence

from .atomic import json_text
from .errors import SinkError, check_url, redact_url
from .http import TransportError, post_json
from .model import GraphDocument, NodeKind, RelKind, document_to_dict

log = logging.getLogger(__name__)

_MAX_ID_LENGTH = 4000
_BATCH_SIZE = 100

_LABELS = {kind.value for kind in NodeKind} | {kind.value for kind in RelKind}
_PARAM = re.compile(r"\$(\w+)")
_HTTP_SCHEMES = ("http", "https")
_BOLT_SCHEMES = ("bolt", "neo4j", "bolt+s", "neo4j+s")


@dataclass
class SinkConfig:
    uri: str = "http://localhost:7474"
    user: str = "neo4j"
    password: str = ""
    database_name: str = "neo4j"
    request_timeout: float = 60.0

    @classmethod
    def from_env(cls, **overrides: Any) -> "SinkConfig":
        """Environment-backed defaults: NEO4J_URI, NEO4J_USER, NEO4J_PASSWORD."""
        config = cls(
            uri=os.environ.get("NEO4J_URI", cls.uri),
            user=os.environ.get("NEO4J_USER", cls.user),
            password=os.environ.get("NEO4J_PASSWORD", cls.password),
        )
        for key, value in overrides.items():
            if value is not None:
                setattr(config, key, value)
        return config

    def scheme(self) -> str:
        """The URI's scheme; a URI that is not http, https or Bolt raises SinkError."""
        return check_url(self.uri, SinkError, "graph store URI", _HTTP_SCHEMES + _BOLT_SCHEMES)


@dataclass(frozen=True)
class CypherStatement:
    text: str
    params: dict[str, Any] = field(default_factory=dict)


def _check_label(label: str) -> str:
    # Labels come from the NodeKind/RelKind enums, never from user data;
    # this guard keeps it that way.
    if label not in _LABELS:
        raise SinkError(f"illegal label {label!r}")
    return label


# Statement texts, built (and their labels checked) once per label
# combination; to_cypher hands out the same string for every statement of
# that shape.
@cache
def _node_template(kind: NodeKind) -> str:
    return f"MERGE (n:{_check_label(kind.value)} {{id: $id}})"


@cache
def _relationship_template(source: NodeKind, target: NodeKind, kind: RelKind) -> str:
    return (
        f"MATCH (a:{_check_label(source.value)} {{id: $source_id}}) "
        f"MATCH (b:{_check_label(target.value)} {{id: $target_id}}) "
        f"MERGE (a)-[r:{_check_label(kind.value)}]->(b)"
    )


def to_cypher(doc: GraphDocument) -> list[CypherStatement]:
    """One MERGE per node, then one per relationship.

    Ids longer than ``_MAX_ID_LENGTH`` characters are refused: they are
    almost certainly runaway model output and would bloat the MERGE key
    index.
    """
    statements = []
    for node in doc.nodes:
        if len(node.id) > _MAX_ID_LENGTH:
            raise SinkError(
                f"node id exceeds {_MAX_ID_LENGTH} characters "
                f"({len(node.id)}): {node.id[:60]!r}..."
            )
        statements.append(CypherStatement(text=_node_template(node.kind), params={"id": node.id}))

    for rel in doc.relationships:
        source, target = rel.source, rel.target
        text = _relationship_template(source.kind, target.kind, rel.kind)
        params = {"source_id": source.id, "target_id": target.id}
        statements.append(CypherStatement(text=text, params=params))
    return statements


def _cypher_literal(value: Any) -> str:
    # Every statement parameter is an id: a string.
    if not isinstance(value, str):
        raise SinkError(f"cannot render {type(value).__name__} as a Cypher literal")
    escaped = value.replace("\\", "\\\\").replace("'", "\\'")
    escaped = escaped.replace("\r", "\\r").replace("\n", "\\n")
    return f"'{escaped}'"


# A document with the statements that write it.
Rendered = tuple[GraphDocument, list[CypherStatement]]


def render(docs: Iterable[GraphDocument]) -> list[Rendered]:
    """Every document's statements, rendered once for the script and the store.

    An id the sink refuses raises here, before anything is
    written or sent.
    """
    return [(doc, to_cypher(doc)) for doc in docs]


@cache
def _script_format(text: str) -> tuple[str, tuple[str, ...]]:
    """A statement text as a ``%`` format of its fixed text, plus the names of
    its ``$name`` parameters in order."""
    pieces = _PARAM.split(text)
    fixed = [piece.replace("%", "%%") for piece in pieces[0::2]]
    return "%s".join(fixed) + ";", tuple(pieces[1::2])


def rendered_script(rendered: Iterable[Rendered]) -> str:
    """Offline replay script with parameters inlined as escaped literals.

    Each distinct statement text is split into fixed text and ``$name``
    slots once per process (``_script_format`` is cached, as the templates
    are).  Literals are then formatted into the slots in one pass, so a
    value that itself contains ``$name`` is never substituted again.
    """
    lines = []
    for _doc, statements in rendered:
        for statement in statements:
            line, names = _script_format(statement.text)
            params = statement.params
            lines.append(line % tuple([_cypher_literal(params[name]) for name in names]))
    return "\n".join(lines) + ("\n" if lines else "")


def cypher_script(docs: Iterable[GraphDocument]) -> str:
    """Offline replay script of the documents (see rendered_script)."""
    return rendered_script(render(docs))


@dataclass
class LoadSummary:
    nodes_created: int = 0
    rels_created: int = 0
    nodes_matched: int = 0
    documents_loaded: int = 0
    documents_failed: int = 0


class _Rejected(Exception):
    """The store rolled a transaction back; none of its documents are loaded."""


Commit = Callable[[Sequence[CypherStatement]], tuple[int, int]]


def _http_commit(config: SinkConfig) -> Commit:
    endpoint = f"{config.uri.rstrip('/')}/db/{config.database_name}/tx/commit"
    try:
        credentials = f"{config.user}:{config.password}".encode("latin-1")
    except UnicodeEncodeError as exc:
        raise SinkError("the graph store user and password must be latin-1 text") from exc
    headers = {"Authorization": f"Basic {base64.b64encode(credentials).decode('ascii')}"}

    def commit(statements: Sequence[CypherStatement]) -> tuple[int, int]:
        body = {
            "statements": [
                {
                    "statement": s.text,
                    "parameters": s.params,
                    "includeStats": True,
                }
                for s in statements
            ]
        }
        try:
            status, raw = post_json(endpoint, body, headers, config.request_timeout)
        except TransportError as exc:
            raise SinkError(f"cannot reach graph store at {redact_url(config.uri)}: {exc}") from exc
        if status == 401:
            raise SinkError(
                f"authentication failed for user {config.user!r} at {redact_url(config.uri)}"
            )
        if not 200 <= status < 300:
            raise SinkError(f"graph store at {redact_url(config.uri)} returned status {status}")
        try:
            return _reply_counts(raw)
        except ValueError as exc:
            raise SinkError(
                f"graph store at {redact_url(config.uri)} sent a malformed reply: {exc}"
            ) from exc

    return commit


def _reply_counts(raw: bytes) -> tuple[int, int]:
    """Nodes and relationships a transactional-endpoint reply says it created.

    Raises _Rejected when the reply carries errors, and ValueError when it
    is not JSON or a field has the wrong type.
    """
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError):
        data = None
    if not isinstance(data, dict):
        raise ValueError("the reply is not a JSON object")
    errors = data.get("errors") or []
    results = data.get("results") or []
    if not isinstance(errors, list) or not isinstance(results, list):
        raise ValueError("'errors' and 'results' must be lists")
    if errors:
        if not isinstance(errors[0], dict):
            raise ValueError("an error is not an object")
        # The transactional endpoint rolls the whole request back.
        raise _Rejected(errors[0].get("message", "unknown error"))
    nodes_created = 0
    rels_created = 0
    for result in results:
        stats = (result.get("stats") or {}) if isinstance(result, dict) else None
        if not isinstance(stats, dict):
            raise ValueError("a result or its stats is not an object")
        nodes = stats.get("nodes_created", 0)
        rels = stats.get("relationships_created", 0)
        if type(nodes) is not int or type(rels) is not int:
            raise ValueError("a creation counter is not an integer")
        nodes_created += nodes
        rels_created += rels
    return nodes_created, rels_created


@contextmanager
def _bolt_commit(config: SinkConfig) -> Iterator[Commit]:
    try:
        import neo4j
    except ImportError as exc:
        raise SinkError(
            "bolt:// and neo4j:// URIs need the optional neo4j driver; "
            "install it or point the sink at the http endpoint"
        ) from exc

    try:
        driver = neo4j.GraphDatabase.driver(config.uri, auth=(config.user, config.password))
    except Exception as exc:
        raise SinkError(f"cannot open bolt connection: {type(exc).__name__}") from exc
    try:
        with driver.session(database=config.database_name) as session:

            def commit(statements: Sequence[CypherStatement]) -> tuple[int, int]:
                def work(tx) -> tuple[int, int]:
                    nodes_created = 0
                    rels_created = 0
                    for s in statements:
                        counters = tx.run(s.text, **s.params).consume().counters
                        nodes_created += counters.nodes_created
                        rels_created += counters.relationships_created
                    return nodes_created, rels_created

                try:
                    return session.execute_write(work)
                except Exception as exc:
                    raise _Rejected(str(exc)) from exc

            yield commit
    finally:
        driver.close()


def _commit_batch(
    summary: LoadSummary,
    commit: Commit,
    batch: Sequence[Rendered],
) -> bool:
    """Write one batch in one transaction and count it; False if rolled back."""
    statements = [s for _, doc_statements in batch for s in doc_statements]
    try:
        nodes_created, rels_created = commit(statements)
    except _Rejected as exc:
        if len(batch) == 1:
            summary.documents_failed += 1
            log.warning("document for %r failed: %s", batch[0][0].source_text[:60], exc)
        else:
            log.info("batch of %d documents rolled back (%s); retrying each alone",
                     len(batch), exc)
        return False
    summary.nodes_created += nodes_created
    summary.rels_created += rels_created
    # to_cypher writes each node with exactly one statement.
    summary.nodes_matched += sum(len(doc.nodes) for doc, _ in batch) - nodes_created
    summary.documents_loaded += len(batch)
    return True


def store(config: SinkConfig, docs: Sequence[GraphDocument]) -> LoadSummary:
    """Write documents to Neo4j, one transaction per batch of documents.

    Every document is rendered before anything is sent, so an id the sink
    refuses stops the load with nothing written.  See store_rendered.
    """
    return store_rendered(config, render(docs))


def store_rendered(config: SinkConfig, rendered: Sequence[Rendered]) -> LoadSummary:
    """Write rendered documents to Neo4j, one transaction per batch.

    Batches hold up to ``_BATCH_SIZE`` documents.  A batch the store rolls
    back is sent again one document per transaction, so only the documents
    that fail on their own are lost and counted in ``documents_failed``.
    """
    scheme = config.scheme()
    summary = LoadSummary()
    writer = (
        nullcontext(_http_commit(config)) if scheme in _HTTP_SCHEMES else _bolt_commit(config)
    )
    with writer as commit:
        for start in range(0, len(rendered), _BATCH_SIZE):
            batch = rendered[start : start + _BATCH_SIZE]
            if not _commit_batch(summary, commit, batch) and len(batch) > 1:
                for item in batch:
                    _commit_batch(summary, commit, [item])
    return summary


def export_json(docs: Sequence[GraphDocument]) -> bytes:
    """Canonical JSON array of documents, UTF-8, stable key order."""
    return json_text([document_to_dict(doc) for doc in docs]).encode("utf-8")
