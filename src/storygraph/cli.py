"""Command-line pipeline: extract, evaluate, load.

Directory layout convention:

    pos_baseline/                     annotated ground-truth backlogs
    extracted-user-stories/<exp>/     extraction outputs, one file per backlog
    evaluation/<exp>/                 report.json and report.csv

Exit codes: 0 success, 2 missing or empty inputs, 3 backend or sink
configuration and connection failures.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .atomic import write_atomic
from .corpus import (
    AnnotatedStory,
    clean_story_text,
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
from .evaluation import (
    CompareOptions,
    ExperimentReport,
    HttpEmbedder,
    OneHotEmbedder,
    evaluate_backlog,
    strict_f_table,
    write_report_files,
)
from .extraction import (
    KNOWN_BACKENDS,
    PROMPT_CATALOG_VERSION,
    DropCounts,
    ExtractorConfig,
    extract_many,
    make_backend,
)
from .model import validate_ontology
from .sink import SinkConfig, export_json, render, rendered_script, store_rendered
from .transform import components_to_story, story_document

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_NO_INPUT = 2
EXIT_BACKEND = 3

# Files in an experiment directory that are not backlog extractions.
_RESERVED_FILES = {"manifest.json", "graph.json"}


def _backlog_files(directory: Path) -> list[Path]:
    return sorted(
        path for path in directory.glob("*.json")
        if path.name not in _RESERVED_FILES and path.is_file()
    )


def _config_from_args(args: argparse.Namespace) -> ExtractorConfig:
    return ExtractorConfig(
        backend=args.backend,
        endpoint=args.endpoint,
        model_name=args.model,
        temperature=args.temperature,
        supports_function_calls=args.function_calls,
        request_timeout=args.timeout,
        max_retries=args.max_retries,
        retry_parse_errors=args.retry_parse_errors,
        fixture_path=args.fixture,
        max_concurrency=args.concurrency,
    )


def cmd_extract(args: argparse.Namespace) -> int:
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        log.error("input directory not found: %s", input_dir)
        return EXIT_NO_INPUT
    files = _backlog_files(input_dir)
    if not files:
        log.error("no backlog files in %s", input_dir)
        return EXIT_NO_INPUT

    config = _config_from_args(args)
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

    total = 0
    failed = 0
    usable_backlogs = 0
    drops = DropCounts()
    for path in files:
        try:
            backlog = load_backlog(path)
        except (OSError, BacklogParseError, BacklogSchemaError) as exc:
            log.warning("skipping backlog %s: %s", path.name, exc)
            continue
        usable_backlogs += 1
        backlog, _skipped = drop_invalid_stories(backlog)

        texts = [clean_story_text(story) for story in backlog.stories]
        results = extract_many(config, texts, backend=backend, drops=drops)
        entries = []
        for story, result in zip(backlog.stories, results):
            if isinstance(result, StoryGraphError):
                log.warning("story %s failed: %s", story.pid, result)
                entries.append(_error_entry(story, str(result)))
                failed += 1
            else:
                extracted = components_to_story(story.pid, story.text, result, drops=drops)
                entries.append(story_to_dict(extracted))
        total += len(backlog.stories)

        out_path = out_dir / f"{backlog.name}.json"
        write_atomic(out_path, json.dumps(entries, indent=2, ensure_ascii=False) + "\n")
        log.info("wrote %s (%d stories)", out_path, len(entries))

    if usable_backlogs == 0:
        log.error("no parseable backlog files in %s", input_dir)
        return EXIT_NO_INPUT
    if drops.nodes or drops.relationships:
        log.info(
            "dropped %d nodes and %d relationships from model output",
            drops.nodes, drops.relationships,
        )
    log.info("extracted %d stories (%d failed)", total, failed)
    return EXIT_OK


def _error_entry(story: AnnotatedStory, message: str) -> dict[str, Any]:
    return story_to_dict(AnnotatedStory(pid=story.pid, text=story.text)) | {"Error": message}


def _read_extractions(path: Path) -> tuple[list[AnnotatedStory], int] | None:
    """The stories of one extraction file, plus its count of ``Error`` entries.

    None, with a warning, when the file cannot be read or is not a UTF-8
    JSON array.  A malformed entry is logged and skipped on its own.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
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
    baseline_dir = Path(args.baseline)
    extracted_dir = Path(args.extracted_root) / args.experiment
    for directory, label in ((baseline_dir, "baseline"), (extracted_dir, "extraction")):
        if not directory.is_dir():
            log.error("%s directory not found: %s", label, directory)
            return EXIT_NO_INPUT

    baseline_files = {path.stem: path for path in _backlog_files(baseline_dir)}
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

    report = ExperimentReport(experiment=args.experiment, options=options)
    for name in shared:
        try:
            backlog = load_backlog(baseline_files[name])
        except (OSError, BacklogParseError, BacklogSchemaError) as exc:
            log.warning("skipping baseline %s: %s", name, exc)
            continue
        backlog, _skipped = drop_invalid_stories(backlog)
        extracted = _read_extractions(extracted_files[name])
        if extracted is None:
            continue
        stories, error_entries = extracted
        if error_entries:
            log.info("%s: %d stories carry extraction errors", name, error_entries)
        report.backlogs.append(
            evaluate_backlog(backlog, stories, embedder=embedder, options=options)
        )

    if not report.backlogs:
        log.error("nothing evaluated")
        return EXIT_NO_INPUT

    out_dir = Path(args.evaluation_root) / args.experiment
    json_path, csv_path = write_report_files(report, out_dir)
    log.info("wrote %s and %s", json_path, csv_path)
    print(strict_f_table(report))
    return EXIT_OK


def cmd_load(args: argparse.Namespace) -> int:
    extracted_dir = Path(args.extracted_root) / args.experiment
    if not extracted_dir.is_dir():
        log.error("extraction directory not found: %s", extracted_dir)
        return EXIT_NO_INPUT
    files = _backlog_files(extracted_dir)
    if not files:
        log.error("no extraction files in %s", extracted_dir)
        return EXIT_NO_INPUT

    docs = []
    flawed = 0
    for path in files:
        extracted = _read_extractions(path)
        if extracted is None:
            continue
        for story in extracted[0]:
            try:
                doc = story_document(story)
            except ValueError:
                log.warning("%s: story %s has no text; skipped", path.name, story.pid)
                continue
            if validate_ontology(doc):
                flawed += 1
            docs.append(doc)

    if not docs:
        log.error("no loadable stories in %s", extracted_dir)
        return EXIT_NO_INPUT
    if flawed:
        log.info("%d of %d documents carry ontology violations", flawed, len(docs))

    config = SinkConfig.from_env(
        uri=args.uri, user=args.user, password=args.password, database_name=args.database
    )
    # Rendered once: the script and the store write the same statements.
    rendered = render(docs)
    cypher_path = extracted_dir / "graph.cypher"
    write_atomic(cypher_path, rendered_script(rendered))
    log.info("wrote %s", cypher_path)
    if args.dry_run:
        print(f"dry run: {len(docs)} documents rendered to {cypher_path}")
        return EXIT_OK

    json_path = extracted_dir / "graph.json"
    write_atomic(json_path, export_json(docs))
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
    ex.add_argument("--backend", default="rule-based", choices=KNOWN_BACKENDS)
    ex.add_argument("--model", default="", help="model name for chat-http")
    ex.add_argument("--temperature", type=float, default=0.0)
    ex.add_argument("--endpoint", default="", help="chat completions URL")
    ex.add_argument("--function-calls", action="store_true",
                    help="model supports function calls")
    ex.add_argument("--fixture", default=None, help="replay fixture path")
    ex.add_argument("--input", default="pos_baseline")
    ex.add_argument("--output-root", default="extracted-user-stories")
    ex.add_argument("--concurrency", type=int, default=4)
    ex.add_argument("--timeout", type=float, default=60.0)
    ex.add_argument("--max-retries", type=int, default=3)
    ex.add_argument("--retry-parse-errors", action="store_true",
                    help="re-ask once when a response cannot be parsed")
    ex.set_defaults(func=cmd_extract)

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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    load_env_file(args.env_file)
    try:
        return args.func(args)
    except StoryGraphError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
