"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces chosen functions of the ``storygraph`` package
with wrappers at every module binding that refers to them, so a call
through ``storygraph.cli.evaluate_backlog`` is traced just like one through
``storygraph.evaluation.report.evaluate_backlog``.  ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and thread.  Spans stay in
memory until ``write_spans``.  Work that ``extract_many`` hands to its thread
pool is parented to the span that submitted it.  Functions called hundreds
of thousands of times (``normalize_id``, ``compare_element``) are counted,
not spanned, per pipeline stage.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name).  Each layer the benchmark reports has
# its public functions here; several functions may share one span name.
SPANNED = (
    ("storygraph.cli", "cmd_extract", "cli.extract"),
    ("storygraph.cli", "cmd_evaluate", "cli.evaluate"),
    ("storygraph.cli", "cmd_load", "cli.load"),
    ("storygraph.cli", "components_to_story", "cli.components_to_story"),
    ("storygraph.corpus", "load_backlog", "corpus.load_backlog"),
    ("storygraph.extraction.rule_based", "rule_based_extract", "extraction.rule_based"),
    ("storygraph.extraction.connector", "extract_many", "extraction.extract_many"),
    ("storygraph.extraction.connector", "extract_components", "extraction.extract_components"),
    ("storygraph.extraction.backends", "ChatHttpBackend.run_main", "extraction.backends.run_main"),
    ("storygraph.extraction.backends", "ChatHttpBackend.run_benefit", "extraction.backends.run_benefit"),
    ("storygraph.extraction.parsing", "extract_first_json", "extraction.parsing"),
    ("storygraph.extraction.parsing", "components_from_records", "extraction.parsing"),
    ("storygraph.extraction.parsing", "parse_structured_response", "extraction.parsing"),
    ("storygraph.extraction.parsing", "parse_unstructured_response", "extraction.parsing"),
    ("storygraph.extraction.parsing", "parse_benefit_response", "extraction.parsing"),
    ("storygraph.transform", "build_graph_document", "transform.build_graph_document"),
    ("storygraph.transform", "annotations_to_components", "transform.annotations_to_components"),
    ("storygraph.model", "validate_ontology", "model.validate_ontology"),
    ("storygraph.evaluation.compare", "match_sets", "evaluation.compare.match_sets"),
    ("storygraph.evaluation.report", "match_pair_sets", "evaluation.report.match_pair_sets"),
    ("storygraph.evaluation.bertscore", "bertscore", "evaluation.bertscore"),
    ("storygraph.evaluation.report", "evaluate_backlog", "evaluation.report.evaluate_backlog"),
    ("storygraph.evaluation.report", "write_report_files", "evaluation.report.write_report_files"),
    ("storygraph.sink", "cypher_script", "sink.cypher_script"),
    ("storygraph.sink", "to_cypher", "sink.to_cypher"),
    ("storygraph.sink", "store", "sink.store"),
    ("storygraph.sink", "export_json", "sink.export_json"),
)

COUNTED = (
    ("storygraph.model", "normalize_id", "model.normalize_id"),
    ("storygraph.evaluation.compare", "compare_element", "evaluation.compare.compare_element"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.stage = ""
        self.embedders: list = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def _spanned(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current()
            span_id = next(tracer._ids)
            stack = tracer._stack()
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, name, start, end, parent, threading.get_ident())
                )

        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer._lock:
                tracer.counts[(name, tracer.stage)] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function at every ``storygraph`` binding of it."""
        modules = [
            module for name, module in list(sys.modules.items())
            if (name == "storygraph" or name.startswith("storygraph.")) and module
        ]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for module_name, path, name in table:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                wrapper = make(name, original)
                if isinstance(owner, type):
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, binding, wrapper)

        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            """Parents spans on pool threads to the submitting span."""

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = None

                return super().submit(run, *args, **kwargs)

        connector = sys.modules["storygraph.extraction.connector"]
        self._patch(connector, "ThreadPoolExecutor", TracedExecutor)

        embedder_cls = sys.modules["storygraph.evaluation.bertscore"].OneHotEmbedder
        original_init = embedder_cls.__init__

        def init(embedder, *args, **kwargs):
            original_init(embedder, *args, **kwargs)
            tracer.embedders.append(embedder)

        self._patch(embedder_cls, "__init__", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span time minus the time its same-thread child spans cover, per name."""
        children: dict[int, float] = defaultdict(float)
        threads = {span.id: span.thread for span in self.spans}
        for span in self.spans:
            if span.parent is not None and threads.get(span.parent) == span.thread:
                children[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start - children[span.id]
        return totals

    def total_times(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.end - span.start
        return totals

    def span_counts(self) -> Counter:
        return Counter(span.name for span in self.spans)

    def vocab_size(self) -> int:
        return max((len(e.vocab) for e in self.embedders), default=0)

    def write_spans(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(span.__dict__) + "\n")
