#!/usr/bin/env python3
"""Pipeline benchmark for storygraph: extract -> evaluate -> load.

Usage (from the repository root):

    python3 bench/run.py --workload offline-large-vocab --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

Each run writes a seeded synthetic corpus, then runs the three CLI stages
as separate processes, over and over for ``--seconds``, and reports the
throughput over the whole run and medians.  With ``--trace 1`` the same workload instead drives
``storygraph.cli.main`` in-process, untraced and then traced, and reports
per-layer numbers.  The chat-completions and Neo4j servers are loopback
stubs from ``stubs.py`` that answer after a fixed delay.

Every run checks the program's outputs (see ``check_outputs``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every check passed.  ``bench/README.md`` describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus_gen
from stubs import ChatStub, Neo4jStub

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_run"

# The chat delay is the 50 ms of the stub run in ROADMAP.md's baseline table.
# That table has no Neo4j row; 10 ms per request makes the round trips, which
# batching would cut, the main cost of the load stage.
CHAT_DELAY_S = 0.05
NEO4J_DELAY_S = 0.01
CONCURRENCY = 2
EXPERIMENT = "bench"
NODE_KINDS = ("Persona", "Action", "Entity", "Benefit")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backlogs: int
    stories: int  # per backlog
    vocab: int
    backend: str  # "rule-based" or "chat-http"
    store: bool  # load into the Neo4j stub instead of --dry-run


WORKLOADS = {
    w.name: w
    # Two workloads, so that each run can be long: on a small shared machine
    # whose speed drifts, a CPU-bound rate spreads less over a longer run.
    # offline-large-vocab is ROADMAP.md's 20 x 500 baseline corpus with a
    # tenth of the stories per backlog.  chat-graph holds both network paths:
    # 60 stories, against the baseline's 80-story chat run, so that a run
    # holds about nine pipeline runs.  The vocabulary targets are below what
    # the corpus draws, so every pool word is used and the distinct-token
    # count barely moves with the seed.
    for w in (
        Workload(
            "offline-large-vocab",
            "CPU-only rule-based extract, one-hot evaluate and load --dry-run over "
            "about 2,500 distinct tokens; shows vocabulary-bound evaluation cost",
            backlogs=20, stories=50, vocab=2400, backend="rule-based", store=False,
        ),
        Workload(
            "chat-graph",
            "chat-http extract against a 50 ms stub at concurrency 2, then load into a "
            "Neo4j stub; shows requests, connection reuse and store writes, bypassed offline",
            backlogs=2, stories=30, vocab=300, backend="chat-http", store=True,
        ),
    )
}

# (name, unit, better).  BENCHMARK.json mirrors these; a test keeps them equal.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_stories_per_s", "stories/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

# Wall time of each stage's process.  Printed, not in the JSON line: a short
# stage is mostly interpreter start and imports, whose time drifts between
# runs by more than any bound (see README.md).
STAGE_WALLS = (
    ("extract_s", "s", "lower"),
    ("evaluate_s", "s", "lower"),
    ("load_s", "s", "lower"),
)

PER_LAYER = (
    ("stage.extract_s", "s", "lower"),
    ("stage.evaluate_s", "s", "lower"),
    ("stage.load_s", "s", "lower"),
    ("cli.extract.self_s", "s", "lower"),
    ("cli.evaluate.self_s", "s", "lower"),
    ("cli.load.self_s", "s", "lower"),
    ("cli.components_to_story.self_s", "s", "lower"),
    ("corpus.load_backlog.self_s", "s", "lower"),
    ("corpus.load_backlog.calls", "count", "lower"),
    ("extraction.rule_based.self_s", "s", "lower"),
    ("extraction.extract_many.self_s", "s", "lower"),
    ("extraction.extract_many.calls", "count", "lower"),
    ("extraction.extract_components.self_s", "s", "lower"),
    ("extraction.backends.run_main.calls", "count", "lower"),
    ("extraction.backends.run_benefit.calls", "count", "lower"),
    ("extraction.backends.client_overhead_s", "s", "lower"),
    ("extraction.parsing.self_s", "s", "lower"),
    ("stub.chat.requests", "count", "lower"),
    ("stub.chat.connections", "count", "lower"),
    ("stub.chat.max_in_flight", "count", "higher"),
    ("stub.chat.busy_s", "s", "lower"),
    ("transform.build_graph_document.self_s", "s", "lower"),
    ("transform.build_graph_document.calls", "count", "lower"),
    ("transform.annotations_to_components.self_s", "s", "lower"),
    ("model.validate_ontology.self_s", "s", "lower"),
    ("model.normalize_id.per_story.evaluate", "calls/story", "lower"),
    ("model.normalize_id.per_story.load", "calls/story", "lower"),
    ("evaluation.compare.match_sets.self_s", "s", "lower"),
    ("evaluation.compare.compare_element.calls", "count", "lower"),
    ("evaluation.report.match_pair_sets.self_s", "s", "lower"),
    ("evaluation.bertscore.self_s", "s", "lower"),
    ("evaluation.bertscore.calls", "count", "lower"),
    ("evaluation.bertscore.vocab_size", "tokens", "lower"),
    ("evaluation.report.evaluate_backlog.self_s", "s", "lower"),
    ("evaluation.report.write_report_files.self_s", "s", "lower"),
    ("sink.cypher_script.self_s", "s", "lower"),
    ("sink.to_cypher.self_s", "s", "lower"),
    ("sink.to_cypher.calls_per_document", "calls/doc", "lower"),
    ("sink.store.self_s", "s", "lower"),
    ("sink.export_json.self_s", "s", "lower"),
    ("stub.neo4j.requests_per_document", "requests/doc", "lower"),
    ("stub.neo4j.connections", "count", "lower"),
    ("stub.neo4j.busy_s", "s", "lower"),
    ("requests_per_story", "requests/story", "lower"),
    ("failed_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_LOADED_LINE = re.compile(
    r"loaded (\d+) documents: (\d+) nodes created, (\d+) nodes matched, "
    r"(\d+) relationships created, (\d+) documents failed"
)
_DRY_LINE = re.compile(r"dry run: (\d+) documents rendered")


class BenchError(Exception):
    """A stage failed or an output check did not hold."""


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _child_env() -> dict[str, str]:
    """Environment for CLI processes: the checkout's sources, no proxies,
    no credentials, bytecode caching on."""
    drop = {"PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "NEO4J_URI", "NEO4J_USER",
            "NEO4J_PASSWORD", "LLM_API_KEY"}
    env = {
        key: value for key, value in os.environ.items()
        if key not in drop and not key.lower().endswith("_proxy")
    }
    env["PYTHONPATH"] = str(SRC)
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


# -- one workload run ------------------------------------------------------


class Run:
    """Corpus, stubs and CLI arguments for one workload and seed."""

    def __init__(self, workload: Workload, seed: int, scale: float, fault: str, work: Path):
        self.workload = workload
        self.work = work
        stories = max(2, round(workload.stories * scale))
        self.corpus = corpus_gen.generate(seed, workload.backlogs, stories, workload.vocab)
        corpus_gen.write_corpus(self.corpus, work / "corpus")
        self.n_stories = workload.backlogs * stories
        self.chat = (
            ChatStub(self.corpus, CHAT_DELAY_S, wrong=fault == "chat-reply")
            if workload.backend == "chat-http" else None
        )
        self.neo4j = (
            Neo4jStub(NEO4J_DELAY_S, wrong=fault == "neo4j-stats")
            if workload.store else None
        )
        self.env_file = str(work / "no.env")

    def close(self) -> None:
        for stub in (self.chat, self.neo4j):
            if stub is not None:
                stub.close()

    def argv(self, stage: str) -> list[str]:
        common = ["--env-file", self.env_file, stage, "--experiment", EXPERIMENT]
        work = self.work
        if stage == "extract":
            args = ["--backend", self.workload.backend, "--input", str(work / "corpus"),
                    "--output-root", str(work / "extracted"),
                    "--concurrency", str(CONCURRENCY)]
            if self.chat is not None:
                args += ["--endpoint", f"{self.chat.url}/v1/chat/completions",
                         "--model", "stub-model"]
            return common + args
        if stage == "evaluate":
            return common + ["--baseline", str(work / "corpus"),
                             "--extracted-root", str(work / "extracted"),
                             "--evaluation-root", str(work / "evaluation")]
        args = ["--extracted-root", str(work / "extracted")]
        if self.neo4j is None:
            return common + args + ["--dry-run"]
        return common + args + ["--uri", self.neo4j.url, "--user", "neo4j",
                                "--password", "bench", "--database", "neo4j"]

    def before_stage(self, stage: str) -> None:
        """Reset stub state so every pipeline run does the same work."""
        if stage == "extract" and self.chat is not None:
            self.chat.reset_counters()
        if stage == "load" and self.neo4j is not None:
            self.neo4j.reset_store()
            self.neo4j.reset_counters()

    # -- checks ------------------------------------------------------------

    def failed_stories(self) -> int:
        """Error entries across the extraction files, which must keep story order."""
        failed = 0
        for name, records in self.corpus.items():
            path = self.work / "extracted" / EXPERIMENT / f"{name}.json"
            entries = json.loads(path.read_text(encoding="utf-8"))
            if [e.get("PID") for e in entries] != [r["PID"] for r in records]:
                raise BenchError(f"{name}: extraction entries do not match the stories")
            failed += sum(1 for e in entries if "Error" in e)
        return failed

    def output_hashes(self) -> dict[str, str]:
        paths = [self.work / "extracted" / EXPERIMENT / f"{name}.json" for name in self.corpus]
        paths += [self.work / "evaluation" / EXPERIMENT / "report.json",
                  self.work / "evaluation" / EXPERIMENT / "report.csv",
                  self.work / "extracted" / EXPERIMENT / "graph.cypher"]
        return {
            str(path.relative_to(self.work)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in paths
        }

    def check_outputs(self, outputs: dict[str, str]) -> dict[str, int]:
        """Check one pipeline run's outputs; return its failure and request counts.

        ``outputs`` maps each stage to what it printed on standard output.
        """
        problems = []
        n = self.n_stories
        failed = self.failed_stories()

        report = json.loads(
            (self.work / "evaluation" / EXPERIMENT / "report.json").read_text(encoding="utf-8")
        )
        for backlog in report["backlogs"]:
            expected = len(self.corpus[backlog["backlog"]])
            if backlog["stories_evaluated"] + backlog["stories_skipped"] != expected:
                problems.append(f"report: {backlog['backlog']} does not cover its stories")
        if len(report["backlogs"]) != len(self.corpus):
            problems.append("report: backlog missing")

        cypher = (self.work / "extracted" / EXPERIMENT / "graph.cypher").read_text(encoding="utf-8")
        story_merges = sum(1 for line in cypher.splitlines() if line.startswith("MERGE (n:Userstory "))
        if story_merges != n - failed:
            problems.append(f"graph.cypher: {story_merges} story nodes for {n - failed} stories")

        chat_requests = 0
        if self.chat is not None:
            chat_requests = self.chat.counters()["requests"]
            strict = {row["kind"]: row for row in report["averages"] if row["mode"] == "strict"}
            for kind in NODE_KINDS:
                row = strict.get(kind)
                if row is None:
                    problems.append(f"chat: report has no strict {kind} row")
                elif not (row["precision"] == row["recall"] == row["f_measure"] == 1.0):
                    problems.append(
                        f"chat: strict {kind} F is {row['f_measure']:.4f}, "
                        "expected 1.0 against the stub's ground-truth replies"
                    )

        documents_failed = 0
        if self.neo4j is not None:
            match = _LOADED_LINE.search(outputs["load"])
            if match is None:
                problems.append("load: no summary line")
            else:
                loaded, created, matched, rels, documents_failed = map(int, match.groups())
                tally = self.neo4j.tally()
                if (loaded, documents_failed) != (n - failed, 0):
                    problems.append(f"load: {loaded} loaded, {documents_failed} failed of {n - failed}")
                if created != tally["nodes"] or rels != tally["rels"]:
                    problems.append(
                        f"load: CLI reports {created} nodes / {rels} relationships created, "
                        f"the store holds {tally['nodes']} / {tally['rels']}"
                    )
                if matched != tally["node_statements"] - created:
                    problems.append(f"load: CLI reports {matched} nodes matched")
        else:
            match = _DRY_LINE.search(outputs["load"])
            if match is None or int(match.group(1)) != n - failed:
                problems.append("load --dry-run: document count differs from stories")

        if failed or documents_failed:
            problems.append(f"{failed} stories and {documents_failed} documents failed")
        if problems:
            raise BenchError("; ".join(problems))
        return {"failed": failed + documents_failed, "chat_requests": chat_requests}


def _check_self_evaluation(run: Run) -> None:
    """Evaluate one generated backlog against itself: every defined cell is 1.0."""
    name = next(iter(run.corpus))
    selfcheck = run.work / "selfcheck"
    (selfcheck / "extracted" / "self").mkdir(parents=True, exist_ok=True)
    shutil.copy(run.work / "corpus" / f"{name}.json", selfcheck / "extracted" / "self" / f"{name}.json")
    argv = ["--env-file", run.env_file, "evaluate", "--experiment", "self",
            "--baseline", str(run.work / "corpus"),
            "--extracted-root", str(selfcheck / "extracted"),
            "--evaluation-root", str(selfcheck / "evaluation")]
    code, _, _, _ = _run_cli(argv, selfcheck)
    if code != 0:
        raise BenchError(f"self-evaluation exited with {code}")
    report = json.loads((selfcheck / "evaluation" / "self" / "report.json").read_text("utf-8"))
    rows = [row for b in report["backlogs"] for row in b["rows"] + b["relations"]]
    bad = [f"{r['kind']}/{r['mode']}" for r in rows
           if not r["precision"] == r["recall"] == r["f_measure"] == 1.0]
    if not rows or bad:
        raise BenchError(f"self-evaluation below 1.0 in {', '.join(bad) or 'every cell'}")


# -- untraced runs: one process per stage ---------------------------------


def _run_cli(argv: list[str], cwd: Path, log_name: str = "stage") -> tuple[int, float, float, str]:
    """Run the CLI once; return exit code, wall seconds, peak RSS (MB) and stdout."""
    out_path, err_path = cwd / f"{log_name}.out", cwd / f"{log_name}.err"
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "storygraph.cli", *argv],
                                cwd=cwd, env=_child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text("utf-8", "replace")[-2000:])
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text("utf-8")


def time_setup(run: Run) -> float:
    """Wall time of one ``storygraph --help``: interpreter plus imports."""
    code, wall, _, _ = _run_cli(["--help"], run.work, "setup")
    if code != 0:
        raise BenchError(f"storygraph --help exited with {code}")
    return wall


def run_untraced(run: Run, seconds: float) -> tuple[dict, int, int]:
    time_setup(run)  # fills the bytecode cache
    samples: dict[str, list[float]] = {
        "setup_s": [], "extract_s": [], "evaluate_s": [], "load_s": [], "rss": []}
    attempted = failed = 0
    chat_requests = []
    reference_hashes = None
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        # Set-up is timed between pipeline runs, so that it sees the same
        # machine conditions over the run as the stages do.
        samples["setup_s"].append(time_setup(run))
        outputs = {}
        peak = 0.0
        for stage in ("extract", "evaluate", "load"):
            run.before_stage(stage)
            code, wall, rss, out = _run_cli(run.argv(stage), run.work, stage)
            if code != 0:
                raise BenchError(f"{stage} exited with {code}")
            outputs[stage] = out
            samples[f"{stage}_s"].append(wall)
            peak = max(peak, rss)
        counts = run.check_outputs(outputs)
        hashes = run.output_hashes()
        if reference_hashes is None:
            reference_hashes = hashes
        elif hashes != reference_hashes:
            raise BenchError("outputs differ between two runs of the same corpus")
        attempted += run.n_stories
        failed += counts["failed"]
        chat_requests.append(counts["chat_requests"])
        samples["rss"].append(peak)
        # Stop before a pipeline run that would end past the deadline.
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break

    if run.workload.name == "offline-large-vocab":
        _check_self_evaluation(run)
    (run.work / "outputs.sha256.json").write_text(json.dumps(reference_hashes, indent=2) + "\n")
    (run.work / "samples.json").write_text(json.dumps(samples, indent=1) + "\n")

    # Stories over the stage time of the whole run, not a median of per-run
    # rates: the machine switches between a fast and a slow speed every few
    # seconds, and a median of such a mixture jumps from one speed to the
    # other when their shares cross, where the total moves with the shares.
    stage_total = sum(sum(samples[name]) for name, _, _ in STAGE_WALLS)
    metrics = {
        "setup_s": _median(samples["setup_s"]),
        "pipeline_stories_per_s": attempted / stage_total,
        "peak_rss_mb": _median(samples["rss"]),
    }
    info = {
        "samples": len(samples["rss"]),
        "setup_samples": len(samples["setup_s"]),
        "stage_walls": {name: _median(samples[name]) for name, _, _ in STAGE_WALLS},
        "requests_per_story": _median(chat_requests) / run.n_stories,
        "failed_share": failed / attempted,
        "hashes": reference_hashes,
    }
    return {"metrics": metrics, "info": info}, attempted, failed


# -- traced runs: in-process ------------------------------------------------


def _import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in list(os.environ):
        if key.lower().endswith("_proxy"):
            del os.environ[key]
    os.environ["NO_PROXY"] = "127.0.0.1,localhost"
    from storygraph import cli

    return cli


def _pipeline_inprocess(cli, run: Run, tracer=None) -> tuple[dict, dict]:
    """Run the three stages through ``cli.main``; return wall times and stdout."""
    outputs, walls = {}, {}
    for stage in ("extract", "evaluate", "load"):
        run.before_stage(stage)
        if tracer is not None:
            tracer.stage = stage
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(run.argv(stage))
        walls[stage] = time.perf_counter() - start
        if code != 0:
            raise BenchError(f"{stage} exited with {code}")
        outputs[stage] = buffer.getvalue()
    return walls, outputs


def _layer_metrics(run: Run, tracer, stub_counts: dict) -> dict[str, float]:
    self_s = tracer.self_times()
    total_s = tracer.total_times()
    calls = tracer.span_counts()
    n = run.n_stories
    chat = stub_counts.get("chat") or {}
    neo4j = stub_counts.get("neo4j") or {}

    def counted(name: str, stage: str) -> int:
        return tracer.counts[(name, stage)]

    metrics = {
        "cli.extract.self_s": self_s["cli.extract"],
        "cli.evaluate.self_s": self_s["cli.evaluate"],
        "cli.load.self_s": self_s["cli.load"],
        "cli.components_to_story.self_s": self_s["cli.components_to_story"],
        "corpus.load_backlog.self_s": self_s["corpus.load_backlog"],
        "corpus.load_backlog.calls": calls["corpus.load_backlog"],
        "extraction.rule_based.self_s": self_s["extraction.rule_based"],
        "extraction.extract_many.self_s": self_s["extraction.extract_many"],
        "extraction.extract_many.calls": calls["extraction.extract_many"],
        "extraction.extract_components.self_s": self_s["extraction.extract_components"],
        "extraction.backends.run_main.calls": calls["extraction.backends.run_main"],
        "extraction.backends.run_benefit.calls": calls["extraction.backends.run_benefit"],
        "extraction.backends.client_overhead_s": (
            total_s["extraction.backends.run_main"] + total_s["extraction.backends.run_benefit"]
            - chat.get("handling_s", 0.0)
        ),
        "extraction.parsing.self_s": self_s["extraction.parsing"],
        "stub.chat.requests": chat.get("requests", 0),
        "stub.chat.connections": chat.get("connections", 0),
        "stub.chat.max_in_flight": chat.get("max_in_flight", 0),
        "stub.chat.busy_s": chat.get("busy_s", 0.0),
        "transform.build_graph_document.self_s": self_s["transform.build_graph_document"],
        "transform.build_graph_document.calls": calls["transform.build_graph_document"],
        "transform.annotations_to_components.self_s": self_s["transform.annotations_to_components"],
        "model.validate_ontology.self_s": self_s["model.validate_ontology"],
        "model.normalize_id.per_story.evaluate": counted("model.normalize_id", "evaluate") / n,
        "model.normalize_id.per_story.load": counted("model.normalize_id", "load") / n,
        "evaluation.compare.match_sets.self_s": self_s["evaluation.compare.match_sets"],
        "evaluation.compare.compare_element.calls": sum(
            counted("evaluation.compare.compare_element", stage)
            for stage in ("extract", "evaluate", "load")
        ),
        "evaluation.report.match_pair_sets.self_s": self_s["evaluation.report.match_pair_sets"],
        "evaluation.bertscore.self_s": self_s["evaluation.bertscore"],
        "evaluation.bertscore.calls": calls["evaluation.bertscore"],
        "evaluation.bertscore.vocab_size": tracer.vocab_size(),
        "evaluation.report.evaluate_backlog.self_s": self_s["evaluation.report.evaluate_backlog"],
        "evaluation.report.write_report_files.self_s": self_s["evaluation.report.write_report_files"],
        "sink.cypher_script.self_s": self_s["sink.cypher_script"],
        "sink.to_cypher.self_s": self_s["sink.to_cypher"],
        "sink.to_cypher.calls_per_document": calls["sink.to_cypher"] / n,
        "sink.store.self_s": self_s["sink.store"],
        "sink.export_json.self_s": self_s["sink.export_json"],
        "stub.neo4j.requests_per_document": neo4j.get("requests", 0) / n,
        "stub.neo4j.connections": neo4j.get("connections", 0),
        "stub.neo4j.busy_s": neo4j.get("busy_s", 0.0),
        "requests_per_story": chat.get("requests", 0) / n,
    }
    return metrics


# Counts that depend on how requests overlap in time, not only on the
# corpus: the peak of concurrent requests, and how many connections a client
# opens once it pools them across worker threads.
TIMING_DEPENDENT = frozenset(
    {"stub.chat.max_in_flight", "stub.chat.connections", "stub.neo4j.connections"}
)


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The count metrics that must repeat exactly for a given seed."""
    return {
        name: metrics[name] for name, unit, _ in PER_LAYER
        if unit != "s" and name not in TIMING_DEPENDENT and name in metrics
    }


def run_traced(run: Run, seconds: float) -> tuple[dict, int, int]:
    from tracing import Tracer

    cli = _import_cli()
    logging.basicConfig(
        filename=str(run.work / "cli.log"), level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    untraced = []
    attempted = 0
    deadline = time.perf_counter() + seconds / 2
    while True:
        walls, outputs = _pipeline_inprocess(cli, run)
        run.check_outputs(outputs)
        attempted += run.n_stories
        untraced.append(walls)
        if len(untraced) >= 3 and time.perf_counter() >= deadline:
            break
    reference_hashes = run.output_hashes()
    untraced = untraced[1:]  # the first run imports modules and warms caches
    untraced_s = _median([sum(walls.values()) for walls in untraced])
    stage_s = {
        f"stage.{stage}_s": _median([walls[stage] for walls in untraced])
        for stage in ("extract", "evaluate", "load")
    }

    layer_runs = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            walls, outputs = _pipeline_inprocess(cli, run, tracer)
        finally:
            tracer.uninstall()
        counts = run.check_outputs(outputs)
        if run.output_hashes() != reference_hashes:
            raise BenchError("traced run changed the outputs")
        attempted += run.n_stories
        stubs = {
            "chat": run.chat.counters() if run.chat else None,
            "neo4j": run.neo4j.counters() if run.neo4j else None,
        }
        metrics = _layer_metrics(run, tracer, stubs)
        metrics.update(stage_s)
        metrics["failed_share"] = counts["failed"] / run.n_stories
        metrics["trace.overhead_s"] = sum(walls.values()) - untraced_s
        layer_runs.append(metrics)
    tracer.write_spans(run.work / "spans.jsonl")

    if exact_counts(layer_runs[0]) != exact_counts(layer_runs[1]):
        diff = {k: (v, layer_runs[1][k]) for k, v in exact_counts(layer_runs[0]).items()
                if layer_runs[1][k] != v}
        raise BenchError(f"count metrics differ between two traced runs: {diff}")
    if run.workload.name == "offline-large-vocab":
        _check_self_evaluation(run)
    info = {"untraced_samples": len(untraced), "untraced_pipeline_s": untraced_s}
    return {"metrics": layer_runs[1], "info": info}, attempted, 0


# -- entry point ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float, fault: str) -> dict:
    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    table = PER_LAYER if trace else END_TO_END
    run = Run(workload, seed, scale, fault, work)
    try:
        result, attempted, failed = (run_traced if trace else run_untraced)(run, seconds)
    except BenchError as exc:
        print(f"[{name}] CHECK FAILED: {exc}")
        return {"correct": False, "attempted": max(run.n_stories, 1),
                "failed": run.n_stories, "metrics": {}}
    finally:
        run.close()

    info = result["info"]
    print(f"[{name}] seed={seed} stories={run.n_stories} "
          + " ".join(f"{k}={v}" for k, v in info.items() if k not in ("hashes", "stage_walls")))
    for key, value in (info.get("hashes") or {}).items():
        print(f"[{name}] sha256 {key} {value}")
    for metric, unit, better in table:
        print(f"[{name}] {metric} = {result['metrics'][metric]:.6g} {unit} ({better} is better)")
    if not trace:
        for metric, unit, better in STAGE_WALLS:
            print(f"[{name}] {metric} = {info['stage_walls'][metric]:.6g} {unit} "
                  f"({better} is better; not in the JSON line)")
        print(f"[{name}] requests_per_story = {info['requests_per_story']:.6g} requests/story "
              f"(lower is better); failed_share = {info['failed_share']:.6g} (expected 0)")
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": result["metrics"][metric], "unit": unit}
            for metric, unit, _ in table
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="storygraph pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply stories per backlog (smoke tests use a small value)")
    parser.add_argument("--inject-fault", choices=("none", "chat-reply", "neo4j-stats"),
                        default="none", help="make a stub answer wrongly (tests the checks)")
    args = parser.parse_args(argv)

    if not (SRC / "storygraph" / "cli.py").is_file():
        print(f"error: no storygraph sources under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [
        run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale,
                     args.inject_fault)
        for name in names
    ]
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in zip(names, results) for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
