"""Two-step extraction: main chain, then benefit chain, then merge.

The main prompt yields persona, action, and entity nodes plus the TRIGGERS
and TARGETS edges; the benefit prompt yields at most one benefit text.  The
merge keeps at most one Benefit node, preferring the dedicated chain's
answer over anything the main chain produced.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor

from ..errors import ResponseParseError, StoryGraphError
from ..model import GraphDocument, GraphNode, NodeKind
from .backends import ChatHttpBackend, ReplayFixtureBackend
from .config import ExtractorConfig
from .parsing import (
    parse_benefit_response,
    parse_structured_response,
    parse_unstructured_response,
)
from .prompts import benefit_prompt, main_prompt, render_prompt
from .rule_based import rule_based_extract
from .types import DropCounts

log = logging.getLogger(__name__)


def make_backend(config: ExtractorConfig):
    """Validate the config and build its chat backend; None for rule-based."""
    config.validate()
    if config.backend == "chat-http":
        return ChatHttpBackend(config)
    if config.backend == "replay-fixture":
        return ReplayFixtureBackend.from_path(config.fixture_path)
    return None


def _parse_main_reply(reply: dict | str, drops: DropCounts | None) -> GraphDocument:
    if isinstance(reply, dict):
        return parse_structured_response(reply, drops)
    return parse_unstructured_response(reply, drops)


def _merge_benefit(
    doc: GraphDocument, benefit: str | None, drops: DropCounts | None
) -> GraphDocument:
    """Reduce to at most one Benefit node, placed last.

    The benefit chain's answer wins; the first main-chain benefit node
    survives only when that chain stayed silent.  Edges touching a
    main-chain benefit node go, even when that node survives.
    """
    main_benefits = [n for n in doc.nodes if n.kind is NodeKind.BENEFIT]
    nodes = [n for n in doc.nodes if n.kind is not NodeKind.BENEFIT]
    rels = [
        rel for rel in doc.relationships
        if rel.source.kind is not NodeKind.BENEFIT and rel.target.kind is not NodeKind.BENEFIT
    ]
    if drops is not None:
        drops.relationships += len(doc.relationships) - len(rels)
        if main_benefits:
            drops.nodes += len(main_benefits) - (0 if benefit else 1)

    if benefit:
        nodes.append(GraphNode(benefit, NodeKind.BENEFIT))
    elif main_benefits:
        nodes.append(main_benefits[0])
    return GraphDocument(nodes=nodes, relationships=rels)


def extract_components(
    config: ExtractorConfig,
    story_text: str,
    *,
    backend=None,
    drops: DropCounts | None = None,
) -> GraphDocument:
    """Run the full extraction conversation for one story.

    ``backend`` runs the conversation; without one, the config is validated
    and a backend built from it.  Every relationship endpoint of the
    returned document is one of its nodes.
    """
    if not story_text or not story_text.strip():
        raise ValueError("story_text must be non-empty")
    if backend is None:
        backend = make_backend(config)
    if backend is None:
        return rule_based_extract(story_text)

    main_messages = render_prompt(main_prompt(config.supports_function_calls), story_text)
    try:
        doc = _parse_main_reply(backend.run_main(story_text, main_messages), drops)
    except ResponseParseError:
        if not config.retry_parse_errors:
            raise
        log.warning("main response unparseable, re-asking once")
        doc = _parse_main_reply(backend.run_main(story_text, main_messages), drops)

    benefit_messages = render_prompt(benefit_prompt(), story_text)
    benefit = parse_benefit_response(backend.run_benefit(story_text, benefit_messages))
    return _merge_benefit(doc, benefit, drops)


def extract_many(
    config: ExtractorConfig,
    story_texts: list[str],
    *,
    backend=None,
    drops: DropCounts | None = None,
) -> list[GraphDocument | StoryGraphError]:
    """Extract a batch, bounding in-flight requests.

    Chat and replay backends run on a pool of ``max_concurrency`` threads;
    rule-based extraction runs inline.  A caller that extracts several
    batches passes one ``backend`` to all of them; without one, the config
    is validated and a backend built from it.  Results line up with the
    input order.  A story that fails with a toolchain error contributes the
    exception instead of a document, so one bad story never sinks the batch.
    """
    if backend is None:
        backend = make_backend(config)

    def one(text: str) -> tuple[GraphDocument | StoryGraphError, DropCounts | None]:
        local = DropCounts()
        try:
            return extract_components(config, text, backend=backend, drops=local), local
        except StoryGraphError as exc:
            return exc, None

    if backend is None:
        # Rule-based extraction never waits on I/O, so a pool would only add cost.
        outcomes = [one(text) for text in story_texts]
    else:
        # Built here once, not by each pool thread that misses the cache first.
        main_prompt(config.supports_function_calls)
        with ThreadPoolExecutor(max_workers=config.max_concurrency) as pool:
            outcomes = list(pool.map(one, story_texts))
    if drops is not None:
        for _result, local in outcomes:
            if local is not None:
                drops.merge(local)
    return [result for result, _local in outcomes]
