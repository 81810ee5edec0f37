"""Turn backend replies into graph documents.

Two reply shapes exist: the structured payload produced through function
calls ({"nodes": [...], "relationships": [...]}) and the free-text reply of
models without function-call support, which is expected to carry a JSON list
of head-relation-tail records, or a graph object, somewhere in the prose.

Unknown node kinds and relationship kinds are dropped rather than failing
the whole story; the caller can observe how much was lost through the
optional DropCounts accumulator.
"""

from __future__ import annotations

import json
import logging
import re
from typing import Any

from ..errors import ResponseParseError
from ..model import (
    REL_ENDPOINT_KINDS,
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    node_kind_from_name,
    rel_kind_from_name,
)
from .types import DropCounts

log = logging.getLogger(__name__)

_RECORD_KEYS = ("head", "head_type", "relation", "tail", "tail_type")

_BENEFIT_NODE = re.compile(
    r"Node\(\s*id\s*=\s*(['\"])(?P<id>.*?)\1\s*,\s*type\s*=\s*(['\"])Benefit\3\s*\)",
    re.DOTALL,
)

_FENCE = re.compile(r"^```[a-zA-Z0-9_-]*\s*\n(.*?)\n?```\s*$", re.DOTALL)


def extract_first_json(raw: str) -> list | dict:
    """Return the first JSON array or object embedded in free text.

    Scans for candidate start characters and attempts a decode at each, so
    surrounding prose and markdown fences are tolerated.  Decoding starts
    only at ``[`` or ``{``, so the result is always a list or a dict.
    """
    decoder = json.JSONDecoder()
    for i, ch in enumerate(raw):
        if ch in "[{":
            try:
                obj, _end = decoder.raw_decode(raw, i)
            except ValueError:
                continue
            return obj
    raise ResponseParseError("no JSON value found in response", raw=raw)


class _DocumentBuilder:
    """Accumulates nodes, one per exact (kind, id), and edges between them."""

    def __init__(self) -> None:
        self.nodes: dict[tuple[NodeKind, str], GraphNode] = {}
        self.relationships: list[GraphRelationship] = []

    def add_node(self, node_id: str, kind: NodeKind) -> GraphNode:
        node = self.nodes.get((kind, node_id))
        if node is None:
            node = self.nodes[(kind, node_id)] = GraphNode(node_id, kind)
        return node

    def add_relationship(
        self, source_id: str, source_kind: NodeKind,
        target_id: str, target_kind: NodeKind, kind: RelKind,
    ) -> None:
        """An edge asserts both of its ends: missing endpoints become nodes."""
        source = self.add_node(source_id, source_kind)
        target = self.add_node(target_id, target_kind)
        self.relationships.append(GraphRelationship(source, target, kind))

    def build(self) -> GraphDocument:
        return GraphDocument(nodes=list(self.nodes.values()), relationships=self.relationships)


def parse_structured_response(
    payload: dict[str, Any], drops: DropCounts | None = None
) -> GraphDocument:
    """Parse a function-call payload of nodes and relationships.

    A payload carrying neither key is rejected: it cannot be a graph.
    Relationship endpoints missing from the node list are added, since an
    edge asserts the existence of both of its ends.
    """
    drops = drops if drops is not None else DropCounts()
    if not isinstance(payload, dict):
        raise ResponseParseError(
            f"expected a JSON object, got {type(payload).__name__}",
            raw=json.dumps(payload) if payload is not None else None,
        )
    if "nodes" not in payload and "relationships" not in payload:
        raise ResponseParseError(
            "response carries neither 'nodes' nor 'relationships'",
            raw=json.dumps(payload),
        )

    nodes = payload.get("nodes") or []
    relationships = payload.get("relationships") or []
    if not isinstance(nodes, list) or not isinstance(relationships, list):
        raise ResponseParseError(
            "'nodes' and 'relationships' must be lists", raw=json.dumps(payload)
        )

    builder = _DocumentBuilder()
    for item in nodes:
        if not isinstance(item, dict):
            drops.nodes += 1
            continue
        kind = node_kind_from_name(str(item.get("type", "")))
        node_id = str(item.get("id", "")).strip()
        if kind is None or not node_id:
            log.debug("dropping node with unknown shape: %r", item)
            drops.nodes += 1
            continue
        builder.add_node(node_id, kind)

    for item in relationships:
        if not isinstance(item, dict):
            drops.relationships += 1
            continue
        rel_kind = rel_kind_from_name(str(item.get("type", item.get("relation", ""))))
        if rel_kind is None:
            log.debug("dropping relationship with unknown kind: %r", item)
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
        builder.add_relationship(source_id, source_kind, target_id, target_kind, rel_kind)
    return builder.build()


def components_from_records(
    items: list[Any], drops: DropCounts | None = None, raw: str | None = None
) -> GraphDocument:
    """Convert head-relation-tail record dicts into a graph document.

    A record naming an unknown node type loses that node and the edge with
    it; an unknown relation keeps both nodes but loses the edge.
    """
    drops = drops if drops is not None else DropCounts()
    builder = _DocumentBuilder()
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            drops.relationships += 1
            continue
        for key in _RECORD_KEYS:
            if key not in item:
                raise ResponseParseError(f"record {i} is missing key '{key}'", raw=raw)
        head_kind = node_kind_from_name(str(item["head_type"]))
        tail_kind = node_kind_from_name(str(item["tail_type"]))
        rel_kind = rel_kind_from_name(str(item["relation"]))
        head_id = str(item["head"]).strip()
        tail_id = str(item["tail"]).strip()

        if head_kind is not None and head_id:
            builder.add_node(head_id, head_kind)
        else:
            drops.nodes += 1
        if tail_kind is not None and tail_id:
            builder.add_node(tail_id, tail_kind)
        else:
            drops.nodes += 1

        if (
            rel_kind is None
            or head_kind is None
            or tail_kind is None
            or not head_id
            or not tail_id
        ):
            log.debug("dropping record with unknown parts: %r", item)
            drops.relationships += 1
            continue
        builder.add_relationship(head_id, head_kind, tail_id, tail_kind, rel_kind)
    return builder.build()


def parse_unstructured_response(
    raw: str, drops: DropCounts | None = None
) -> GraphDocument:
    """Parse a free-text reply by its first JSON value.

    An object carrying "nodes" or "relationships" is a graph payload; any
    other object is a single record; a list holds records.
    """
    obj = extract_first_json(raw)
    if isinstance(obj, dict):
        if "nodes" in obj or "relationships" in obj:
            return parse_structured_response(obj, drops)
        obj = [obj]
    return components_from_records(obj, drops, raw=raw)


def _strip_fences(text: str) -> str:
    match = _FENCE.match(text.strip())
    return match.group(1) if match else text


def parse_benefit_response(reply: Any) -> str | None:
    """Pull the benefit text out of the benefit-chain reply.

    Accepts the node-literal form (``Node(id='...', type='Benefit')``),
    structured payloads, quoted strings, and bare prose.  Empty or
    whitespace-only replies mean the story has no benefit.  Prose is taken
    at face value: a model that answers with a sentence yields that
    sentence as the benefit.
    """
    if reply is None:
        return None
    if isinstance(reply, dict):
        candidates = reply.get("nodes") if isinstance(reply.get("nodes"), list) else [reply]
        for item in candidates:
            if not isinstance(item, dict):
                continue
            if node_kind_from_name(str(item.get("type", ""))) is NodeKind.BENEFIT:
                text = str(item.get("id", "")).strip()
                return text or None
        return None
    if not isinstance(reply, str):
        return None

    text = _strip_fences(reply).strip()
    if not text:
        return None
    match = _BENEFIT_NODE.search(text)
    if match:
        found = match.group("id").strip()
        return found or None
    if text[0] in "[{":
        try:
            obj = extract_first_json(text)
        except ResponseParseError:
            obj = None
        if isinstance(obj, dict):
            return parse_benefit_response(obj)
        if isinstance(obj, list):
            for item in obj:
                found = parse_benefit_response(item) if isinstance(item, dict) else None
                if found:
                    return found
            return None
    if len(text) >= 2 and text[0] == text[-1] and text[0] in "'\"":
        text = text[1:-1].strip()
    return text or None
