"""Turn backend replies into graph documents.

Two reply shapes exist: the structured payload produced through function
calls ({"nodes": [...], "relationships": [...]}) and the free-text reply of
models without function-call support, which is expected to carry a JSON list
of head-relation-tail records, or a graph object, somewhere in the prose.

Both shapes only map their wire form onto ``types.DocumentBuilder``, which
drops what extraction never returns (unknown kinds, story nodes, ownership
and wrong-kind edges, ids that are blank or not valid Unicode text) rather
than failing the whole story; the caller can observe how much was lost
through the optional DropCounts accumulator.
"""

from __future__ import annotations

import json
import re
from typing import Any

from ..errors import ResponseParseError
from ..model import (
    REL_ENDPOINT_KINDS,
    GraphDocument,
    NodeKind,
    node_kind_from_name,
    rel_kind_from_name,
)
from .types import DocumentBuilder, DropCounts

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
    only at ``[`` or ``{``, so the result is always a list or a dict.  A
    value nested deeper than the decoder can follow fails the reply.
    """
    decoder = json.JSONDecoder()
    for i, ch in enumerate(raw):
        if ch in "[{":
            try:
                obj, _end = decoder.raw_decode(raw, i)
            except ValueError:
                continue
            except RecursionError as exc:
                raise ResponseParseError("JSON value nested too deeply", raw=raw) from exc
            return obj
    raise ResponseParseError("no JSON value found in response", raw=raw)


def parse_structured_response(
    payload: dict[str, Any], drops: DropCounts | None = None
) -> GraphDocument:
    """Parse a function-call payload of nodes and relationships.

    A payload carrying neither key is rejected: it cannot be a graph.
    Relationship endpoints missing from the node list are added, since an
    edge asserts the existence of both of its ends, of the kinds its
    relationship kind expects unless the edge names known ones.
    """
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

    builder = DocumentBuilder(drops if drops is not None else DropCounts())
    # An item that is not an object has no kind, so the builder refuses it.
    for item in (item if isinstance(item, dict) else {} for item in nodes):
        builder.add_node(item.get("id", ""), node_kind_from_name(str(item.get("type", ""))))
    for item in (item if isinstance(item, dict) else {} for item in relationships):
        rel_kind = rel_kind_from_name(str(item.get("type", item.get("relation", ""))))
        expected_src, expected_tgt = REL_ENDPOINT_KINDS.get(rel_kind, (None, None))
        builder.add_relationship(
            item.get("source", ""),
            node_kind_from_name(str(item.get("source_type", ""))) or expected_src,
            item.get("target", ""),
            node_kind_from_name(str(item.get("target_type", ""))) or expected_tgt,
            rel_kind,
        )
    return builder.build()


def components_from_records(
    items: list[Any], drops: DropCounts | None = None, raw: str | None = None
) -> GraphDocument:
    """Convert head-relation-tail record dicts into a graph document.

    A record naming an unknown node type loses that node and the edge with
    it; an unknown relation keeps both nodes but loses the edge.
    """
    builder = DocumentBuilder(drops if drops is not None else DropCounts())
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            # It names no kinds, so the builder refuses it as one lost edge.
            builder.add_relationship(item, None, item, None, None)
            continue
        for key in _RECORD_KEYS:
            if key not in item:
                raise ResponseParseError(f"record {i} is missing key '{key}'", raw=raw)
        head_kind = node_kind_from_name(str(item["head_type"]))
        tail_kind = node_kind_from_name(str(item["tail_type"]))
        builder.add_node(item["head"], head_kind)
        builder.add_node(item["tail"], tail_kind)
        builder.add_relationship(
            item["head"], head_kind, item["tail"], tail_kind,
            rel_kind_from_name(str(item["relation"])),
        )
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
