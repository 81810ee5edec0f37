"""Command-line pipeline: extract, evaluate, load.

Directory layout convention:

    pos_baseline/                     annotated ground-truth backlogs
    extracted-user-stories/<exp>/     extraction outputs, one file per backlog
    evaluation/<exp>/                 report.json and report.csv

Exit codes: 0 success, 1 any other toolchain error, 2 missing or empty
inputs, 3 backend or sink configuration and connection failures.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import sys
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, NamedTuple

# Each command imports its own stage inside its function, so a process
# loads only the stage it runs: ``--help`` imports no stage at all.
from .atomic import json_text, write_atomic
from .corpus import (
    AnnotatedStory,
    Backlog,
    clean_story_text,
    decode_json,
    drop_invalid_stories,
    load_backlog,
    story_from_dict,
    story_to_dict,
)
from .envfile import load_env_file
from .errors import (
    BacklogParseError,
    BacklogSchemaError,
    ConfigError,
    SinkError,
    StoryGraphError,
)
from .extraction.config import KNOWN_BACKENDS, ExtractorConfig
from .extraction.types import DropCounts
from .model import OntologyViolation, validate_ontology
from .transform import components_to_story, story_document

if TYPE_CHECKING:
    from .sink import Rendered

# Named, not ``__name__``: under ``python -m storygraph.cli`` this module
# runs as ``__main__``, and its lines would miss the ``storygraph`` logger.
log = logging.getLogger("storygraph.cli")

EXIT_OK = 0
EXIT_NO_INPUT = 2
EXIT_BACKEND = 3

# Files in an experiment directory that are not backlog extractions.
_RESERVED_FILES = {"manifest.json", "graph.json"}

# Flawed stories that ``load`` names one per log line; the rest are counted.
_FLAWED_STORIES_LOGGED = 20


class _FileGraphs(NamedTuple):
    """What ``load`` takes from one extraction file.  A dry run's workers
    send back counts, findings and text only: these cross from a worker
    process far faster than the documents would."""

    documents: int
    # (file name, pid, findings) of each document that breaks the ontology.
    flawed: list[tuple[str, str, list[OntologyViolation]]]
    # The file's share of graph.cypher, or the error of an id the sink refuses.
    script: str
    refused: SinkError | None = None
    # For a store load: the documents with the statements that write them.
    rendered: list[Rendered] | None = None


def _backlog_files(directory: Path) -> list[Path]:
    return sorted(
        path for path in directory.glob("*.json")
        if path.name not in _RESERVED_FILES and path.is_file()
    )


def _input_backlog_files(directory: Path) -> list[Path]:
    """``_backlog_files`` of a ground-truth directory, naming what it skips."""
    for name in sorted(_RESERVED_FILES):
        if (directory / name).is_file():
            log.warning(
                "skipping backlog %s: its name is reserved for an experiment's outputs",
                directory / name,
            )
    return _backlog_files(directory)


def cmd_extract(args: argparse.Namespace) -> int:
    from datetime import datetime, timezone

    from .extraction.connector import extract_many, make_backend
    from .extraction.prompts import PROMPT_CATALOG_VERSION
    from .fanout import fan_out

    input_dir = Path(args.input)
    if not input_dir.is_dir():
        log.error("input directory not found: %s", input_dir)
        return EXIT_NO_INPUT
    files = _input_backlog_files(input_dir)
    if not files:
        log.error("no backlog files in %s", input_dir)
        return EXIT_NO_INPUT

    config = ExtractorConfig(**{f.name: getattr(args, f.name) for f in fields(ExtractorConfig)})
    try:
        # One backend serves every backlog of the run.
        backend = make_backend(config)
    except ConfigError as exc:
        log.error("extractor configuration: %s", exc)
        return EXIT_BACKEND

    out_dir = Path(args.output_root) / args.experiment
    out_dir.mkdir(parents=True, exist_ok=True)

    # The manifest goes first so even an interrupted run is attributable.
    manifest = {
        "experiment_name": args.experiment,
        "extractor": config.to_manifest_dict(),
        "input_dir": str(input_dir),
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "prompt_catalog_version": PROMPT_CATALOG_VERSION,
    }
    write_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")

    def extract_backlog(path: Path) -> tuple[int, int, DropCounts] | None:
        """Extract one backlog file and write its extraction file; returns its
        story, failure and drop counts, or None when it cannot be loaded."""
        backlog = _read_backlog(path, f"backlog {path.name}")
        if backlog is None:
            return None
        drops = DropCounts()
        texts = [clean_story_text(story) for story in backlog.stories]
        results = extract_many(config, texts, backend=backend, drops=drops)
        entries = []
        failed = 0
        for story, result in zip(backlog.stories, results):
            if isinstance(result, StoryGraphError):
                log.warning("story %s failed: %s", story.pid, result)
                entries.append(_error_entry(story, str(result)))
                failed += 1
            else:
                extracted = components_to_story(story.pid, story.text, result)
                entries.append(story_to_dict(extracted))

        out_path = out_dir / f"{backlog.name}.json"
        write_atomic(out_path, json_text(entries))
        log.info("wrote %s (%d stories)", out_path, len(entries))
        return len(backlog.stories), failed, drops

    # chat-http stays in one process, so that --concurrency bounds the
    # requests in flight.
    outcomes = fan_out(extract_backlog, files, fork=args.forks and config.backend != "chat-http")
    backlogs = [outcome for outcome in outcomes if outcome is not None]
    if not backlogs:
        log.error("no parseable backlog files in %s", input_dir)
        return EXIT_NO_INPUT
    total = failed = 0
    drops = DropCounts()
    for stories, backlog_failed, backlog_drops in backlogs:
        total += stories
        failed += backlog_failed
        drops.merge(backlog_drops)
    if drops.nodes or drops.relationships:
        log.info(
            "dropped %d nodes and %d relationships from model output",
            drops.nodes, drops.relationships,
        )
    log.info("extracted %d stories (%d failed)", total, failed)
    return EXIT_OK


def _read_backlog(path: Path, label: str) -> Backlog | None:
    """A ground-truth backlog without its invalid stories; None, with one
    warning that names ``label``, when the file cannot be loaded."""
    try:
        backlog = load_backlog(path)
    except (OSError, BacklogParseError, BacklogSchemaError) as exc:
        log.warning("skipping %s: %s", label, exc)
        return None
    return drop_invalid_stories(backlog)[0]


def _error_entry(story: AnnotatedStory, message: str) -> dict[str, Any]:
    return story_to_dict(AnnotatedStory(pid=story.pid, text=story.text)) | {"Error": message}


def _read_extractions(path: Path) -> tuple[list[AnnotatedStory], int] | None:
    """The stories of one extraction file, plus its count of ``Error`` entries.

    None, with a warning, when the file cannot be read, is not a JSON array,
    or ``decode_json`` refuses it as backlog loading does.  A malformed entry
    is logged and skipped on its own.
    """
    try:
        payload = decode_json(path.read_bytes())
    except (OSError, BacklogParseError) as exc:
        log.warning("skipping %s: %s", path.name, exc)
        return None
    if not isinstance(payload, list):
        log.warning("skipping %s: expected a JSON array", path.name)
        return None
    stories = []
    errors = 0
    for i, item in enumerate(payload):
        if isinstance(item, dict) and "Error" in item:
            errors += 1
            continue
        try:
            stories.append(story_from_dict(item, i))
        except BacklogSchemaError as exc:
            log.warning("%s: %s", path.name, exc)
    return stories, errors


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .evaluation import (
        BacklogReport,
        CompareOptions,
        ExperimentReport,
        HttpEmbedder,
        OneHotEmbedder,
        evaluate_backlog,
        strict_f_table,
        write_report_files,
    )
    from .fanout import fan_out

    baseline_dir = Path(args.baseline)
    extracted_dir = Path(args.extracted_root) / args.experiment
    for directory, label in ((baseline_dir, "baseline"), (extracted_dir, "extraction")):
        if not directory.is_dir():
            log.error("%s directory not found: %s", label, directory)
            return EXIT_NO_INPUT

    baseline_files = {path.stem: path for path in _input_backlog_files(baseline_dir)}
    extracted_files = {path.stem: path for path in _backlog_files(extracted_dir)}
    shared = sorted(set(baseline_files) & set(extracted_files))
    for name in sorted(set(baseline_files) - set(extracted_files)):
        log.warning("backlog %s has no extraction; skipping", name)
    for name in sorted(set(extracted_files) - set(baseline_files)):
        log.warning("extraction %s has no baseline; skipping", name)
    if not shared:
        log.error("no backlog names shared between %s and %s", baseline_dir, extracted_dir)
        return EXIT_NO_INPUT

    options = CompareOptions(
        fold_plurals=args.fold_plurals, token_boundary=args.token_boundary
    )
    if args.embeddings_endpoint:
        embedder = HttpEmbedder(args.embeddings_endpoint, args.embeddings_model)
    else:
        embedder = OneHotEmbedder()

    def evaluate_shared(name: str) -> BacklogReport | None:
        """Score one backlog's extraction file; None when either file cannot be read."""
        backlog = _read_backlog(baseline_files[name], f"baseline {name}")
        if backlog is None:
            return None
        extracted = _read_extractions(extracted_files[name])
        if extracted is None:
            return None
        stories, error_entries = extracted
        if error_entries:
            log.info("%s: %d stories carry extraction errors", name, error_entries)
        return evaluate_backlog(backlog, stories, embedder=embedder, options=options)

    report = ExperimentReport(experiment=args.experiment, options=options)
    # An embeddings API is asked from one process, one request at a time.
    scored = fan_out(evaluate_shared, shared, fork=args.forks and not args.embeddings_endpoint)
    report.backlogs = [backlog for backlog in scored if backlog is not None]

    if not report.backlogs:
        log.error("nothing evaluated")
        return EXIT_NO_INPUT

    out_dir = Path(args.evaluation_root) / args.experiment
    json_path, csv_path = write_report_files(report, out_dir)
    log.info("wrote %s and %s", json_path, csv_path)
    print(strict_f_table(report))
    return EXIT_OK


def cmd_load(args: argparse.Namespace) -> int:
    from .fanout import fan_out
    from .sink import SinkConfig, export_json, render, rendered_script, store_rendered

    extracted_dir = Path(args.extracted_root) / args.experiment
    if not extracted_dir.is_dir():
        log.error("extraction directory not found: %s", extracted_dir)
        return EXIT_NO_INPUT
    files = _backlog_files(extracted_dir)
    if not files:
        log.error("no extraction files in %s", extracted_dir)
        return EXIT_NO_INPUT

    config = SinkConfig.from_env(
        uri=args.uri, user=args.user, password=args.password, database_name=args.database
    )
    # Checked before any file is read or written.  A dry run connects to
    # nothing, so a bad NEO4J_URI in the environment does not stop it.
    if not args.dry_run:
        try:
            config.scheme()
        except SinkError as exc:
            log.error("%s", exc)
            return EXIT_BACKEND

    def load_file(path: Path) -> _FileGraphs | None:
        """One extraction file's documents, checked and rendered; None when
        the file cannot be read."""
        extracted = _read_extractions(path)
        if extracted is None:
            return None
        docs = []
        flawed = []
        for story in extracted[0]:
            try:
                doc = story_document(story)
            except ValueError:
                log.warning("%s: story %s has no text; skipped", path.name, story.pid)
                continue
            if findings := validate_ontology(doc):
                flawed.append((path.name, story.pid, findings))
            docs.append(doc)
        try:
            # Rendered once: the script and the store write the same statements.
            rendered = render(docs)
        except SinkError as exc:
            return _FileGraphs(len(docs), flawed, "", refused=exc)
        return _FileGraphs(
            len(docs), flawed, rendered_script(rendered),
            rendered=None if args.dry_run else rendered,
        )

    # A store load keeps its documents in one process: sending them back
    # from a worker would cost more than building them.
    loaded = fan_out(load_file, files, fork=args.forks and args.dry_run)
    graphs = [graph for graph in loaded if graph is not None]
    documents = sum(graph.documents for graph in graphs)
    flawed = [entry for graph in graphs for entry in graph.flawed]
    if not documents:
        log.error("no loadable stories in %s", extracted_dir)
        return EXIT_NO_INPUT
    if flawed:
        log.info("%d of %d documents carry ontology violations", len(flawed), documents)
        kinds = Counter(str(finding) for *_, findings in flawed for finding in findings)
        log.info("ontology findings: %s", ", ".join(f"{k} ({n})" for k, n in kinds.most_common()))
        for name, pid, findings in flawed[:_FLAWED_STORIES_LOGGED]:
            log.info("%s: story %s: %s", name, pid, "; ".join(map(str, findings)))
        if len(flawed) > _FLAWED_STORIES_LOGGED:
            log.info("and %d more", len(flawed) - _FLAWED_STORIES_LOGGED)
    # An id the sink refuses stops the load with nothing written or sent.
    for graph in graphs:
        if graph.refused is not None:
            raise graph.refused

    cypher_path = extracted_dir / "graph.cypher"
    write_atomic(cypher_path, "".join(graph.script for graph in graphs))
    log.info("wrote %s", cypher_path)
    if args.dry_run:
        print(f"dry run: {documents} documents rendered to {cypher_path}")
        return EXIT_OK

    rendered = [document for graph in graphs for document in graph.rendered]
    json_path = extracted_dir / "graph.json"
    write_atomic(json_path, export_json([doc for doc, _statements in rendered]))
    log.info("wrote %s", json_path)

    try:
        summary = store_rendered(config, rendered)
    except SinkError as exc:
        log.error("%s", exc)
        return EXIT_BACKEND
    print(
        f"loaded {summary.documents_loaded} documents: "
        f"{summary.nodes_created} nodes created, "
        f"{summary.nodes_matched} nodes matched, "
        f"{summary.rels_created} relationships created, "
        f"{summary.documents_failed} documents failed"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storygraph",
        description="Extract, evaluate, and persist knowledge graphs from user-story backlogs.",
    )
    parser.add_argument("--env-file", default=".env", help="dotenv file to load (default .env)")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="run extraction over a backlog directory")
    ex.add_argument("--experiment", required=True)
    # Each extractor flag's dest is its ExtractorConfig field, whose default
    # is the flag's default.
    ex.add_argument("--backend", choices=KNOWN_BACKENDS)
    ex.add_argument("--model", dest="model_name", help="model name for chat-http")
    ex.add_argument("--temperature", type=float)
    ex.add_argument("--endpoint", help="chat completions URL")
    ex.add_argument("--function-calls", dest="supports_function_calls", action="store_true",
                    help="model supports function calls")
    ex.add_argument("--fixture", dest="fixture_path", help="replay fixture path")
    ex.add_argument("--input", default="pos_baseline")
    ex.add_argument("--output-root", default="extracted-user-stories")
    ex.add_argument("--concurrency", dest="max_concurrency", type=int)
    ex.add_argument("--timeout", dest="request_timeout", type=float)
    ex.add_argument("--max-retries", type=int)
    ex.add_argument("--retry-parse-errors", action="store_true",
                    help="re-ask once when a response cannot be parsed")
    ex.set_defaults(func=cmd_extract, **asdict(ExtractorConfig()))

    ev = sub.add_parser("evaluate", help="score an experiment against the baseline")
    ev.add_argument("--experiment", required=True)
    ev.add_argument("--baseline", default="pos_baseline")
    ev.add_argument("--extracted-root", default="extracted-user-stories")
    ev.add_argument("--evaluation-root", default="evaluation")
    ev.add_argument("--fold-plurals", action="store_true",
                    help="relaxed mode folds plural and singular forms")
    ev.add_argument("--token-boundary", action="store_true",
                    help="inclusive mode requires token-aligned containment")
    ev.add_argument("--embeddings-endpoint", default="",
                    help="embeddings API for similarity scoring (default: one-hot)")
    ev.add_argument("--embeddings-model", default="")
    ev.set_defaults(func=cmd_evaluate)

    ld = sub.add_parser("load", help="persist an experiment's graphs")
    ld.add_argument("--experiment", required=True)
    ld.add_argument("--extracted-root", default="extracted-user-stories")
    ld.add_argument("--uri", default=None, help="overrides NEO4J_URI")
    ld.add_argument("--user", default=None, help="overrides NEO4J_USER")
    ld.add_argument("--password", default=None, help="overrides NEO4J_PASSWORD")
    ld.add_argument("--database", default=None, help="target database name")
    ld.add_argument("--dry-run", action="store_true",
                    help="render graph.cypher without connecting")
    ld.set_defaults(func=cmd_load)
    return parser


def main(argv: list[str] | None = None, *, forks: bool = False) -> int:
    """Run one command; returns its exit code.  Leaves the collector alone.

    With ``forks`` false, as a library, test or tracer calls it, every
    stage runs in the caller's process; only ``console_main``, the process
    entry, lets the offline stages fork workers for their backlogs.
    """
    args = build_parser().parse_args(argv)
    args.forks = forks
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        load_env_file(args.env_file)
        return args.func(args)
    except StoryGraphError as exc:
        log.error("%s", exc)
        return 1


def console_main() -> int:
    """Process entry: ``main`` on ``sys.argv`` with stage workers allowed,
    then ``gc.freeze()``.

    Freezing moves every object alive at that point out of the collector's
    reach, so the collections the interpreter runs while it shuts down skip
    the heap the imports and the command built.  The ``finally`` covers every
    exit path, including the ``SystemExit`` of ``--help`` and of a usage
    error.  Only the process entry forks and freezes, never ``main``: a
    library or test caller keeps its process and its collector as they were.
    """
    try:
        return main(forks=True)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(console_main())
