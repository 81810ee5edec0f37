"""Tests of the benchmark itself: corpus generator, stubs, checks, contract.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import requests

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import corpus_gen  # noqa: E402
import run as bench_run  # noqa: E402
from stubs import ChatStub, Neo4jStub, main_chain_records  # noqa: E402
from storygraph.corpus import drop_invalid_stories, load_backlog  # noqa: E402
from storygraph.evaluation import evaluate_backlog  # noqa: E402
from storygraph.extraction import ExtractorConfig, extract_many  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tokens(corpus: dict) -> set[str]:
    tokens = set()
    for records in corpus.values():
        for r in records:
            items = (r["Persona"] + r["Action"]["Primary Action"] + r["Action"]["Secondary Action"]
                     + r["Entity"]["Primary Entity"] + r["Entity"]["Secondary Entity"]
                     + [r["Benefit"]])
            for item in items:
                tokens.update(item.lower().split())
    return tokens


# -- corpus generator ---------------------------------------------------------


def test_same_seed_same_bytes_and_other_seed_other_bytes(tmp_path):
    def files(seed: int, name: str) -> dict[str, bytes]:
        paths = corpus_gen.write_corpus(corpus_gen.generate(seed, 3, 20, 500), tmp_path / name)
        return {p.name: p.read_bytes() for p in paths}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_generated_stories_load_and_none_are_dropped(tmp_path):
    corpus = corpus_gen.generate(11, 3, 40, 800)
    for path in corpus_gen.write_corpus(corpus, tmp_path):
        backlog = load_backlog(path)
        kept, skipped = drop_invalid_stories(backlog)
        assert skipped == []
        assert len(kept.stories) == 40


def test_corpus_mixes_story_shapes():
    records = [r for rs in corpus_gen.generate(5, 2, 100, 400).values() for r in rs]
    assert any(r["Benefit"] for r in records) and not all(r["Benefit"] for r in records)
    assert any(r["Action"]["Secondary Action"] for r in records)
    assert any(" my " in r["Text"] for r in records)
    assert any(" the " in r["Text"] for r in records)
    assert any(e.endswith("s") for r in records for e in r["Entity"]["Primary Entity"])


def test_rule_based_scores_partial_matches_and_lenient_modes_do_work(tmp_path):
    corpus = corpus_gen.generate(2, 1, 150, 400)
    records = corpus["g01"]
    backlog = load_backlog(corpus_gen.write_corpus(corpus, tmp_path)[0])
    texts = [re.sub(r"^#[^#]*# ", "", r["Text"]) for r in records]
    results = extract_many(ExtractorConfig(backend="rule-based"), texts)
    report = evaluate_backlog(backlog, {r["PID"]: c for r, c in zip(records, results)})
    f = {(row.kind, row.mode): row.f_measure for row in report.rows}
    assert 0.0 < f[("Entity", "strict")] < 1.0
    assert f[("Entity", "inclusive")] > f[("Entity", "strict")]
    assert f[("Entity", "relaxed")] > f[("Entity", "strict")]
    assert any(value == 1.0 for value in f.values())


def test_vocabulary_knob_separates_the_two_workloads():
    def size(name: str) -> int:
        w = bench_run.WORKLOADS[name]
        return len(_tokens(corpus_gen.generate(1, w.backlogs, w.stories, w.vocab)))

    small, large = size("chat-graph"), size("offline-large-vocab")
    assert 200 <= small <= 500
    assert large >= 2000
    assert large >= 5 * small


# -- stubs -------------------------------------------------------------------------


def test_chat_stub_keeps_connections_alive_and_answers_with_the_annotation():
    corpus = corpus_gen.generate(3, 1, 5, 100)
    record = corpus["g01"][0]
    text = re.sub(r"^#[^#]*# ", "", record["Text"])
    with ChatStub(corpus, delay=0.0) as stub, requests.Session() as session:
        url = f"{stub.url}/v1/chat/completions"
        main = {"messages": [{"role": "system", "content": "Knowledge Graph Constructor"},
                             {"role": "user", "content": f"following input: {text}"}]}
        benefit = {"messages": [{"role": "system", "content": "## Benefit"},
                                {"role": "user", "content": f"following input: {text}"}]}
        reply = session.post(url, json=main).json()["choices"][0]["message"]["content"]
        breply = session.post(url, json=benefit).json()["choices"][0]["message"]["content"]
        assert json.loads(reply) == main_chain_records(record)
        assert (record["Benefit"] in breply) if record["Benefit"] else breply == "''"
        counters = stub.counters()
    assert counters["requests"] == 2
    assert counters["connections"] == 1


def test_neo4j_stub_reports_creations_per_merge_key():
    node = "MERGE (n:Persona {id: $id})"
    rel = ("MATCH (a:Persona {id: $source_id}) MATCH (b:Action {id: $target_id}) "
           "MERGE (a)-[r:TRIGGERS]->(b)")
    body = {"statements": [
        {"statement": node, "parameters": {"id": "user"}},
        {"statement": node.replace("Persona", "Action"), "parameters": {"id": "sync"}},
        {"statement": node, "parameters": {"id": "user"}},
        {"statement": rel, "parameters": {"source_id": "user", "target_id": "sync"}},
    ]}
    with Neo4jStub(delay=0.0) as stub:
        data = requests.post(f"{stub.url}/db/neo4j/tx/commit", json=body).json()
        again = requests.post(f"{stub.url}/db/neo4j/tx/commit", json=body).json()
        tally = stub.tally()
    created = [r["stats"]["nodes_created"] for r in data["results"]]
    assert created == [1, 1, 0, 0]
    assert data["results"][3]["stats"]["relationships_created"] == 1
    assert all(r["stats"] == {"nodes_created": 0, "relationships_created": 0}
               for r in again["results"])
    assert tally == {"nodes": 2, "rels": 1, "node_statements": 6}


# -- whole runs ----------------------------------------------------------------------


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_of_every_workload_passes_its_checks(trace):
    proc = _bench("--workload", "all", "--seed", "4", "--seconds", "0.1",
                  "--scale", "0.05", "--trace", trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    table = bench_run.PER_LAYER if trace == "1" else bench_run.END_TO_END
    for workload in bench_run.WORKLOADS:
        for name, unit, _ in table:
            assert result["metrics"][f"{workload}/{name}"]["unit"] == unit
        printed = table if trace == "1" else table + bench_run.STAGE_WALLS
        for name, unit, _ in printed:
            assert re.search(rf"\[{workload}\] {re.escape(name)} = \S+ {re.escape(unit)} ",
                             proc.stdout)


def test_traced_counts_repeat_and_match_what_the_code_does_today():
    def counts(workload: str) -> dict:
        result = _result(_bench("--workload", workload, "--seed", "9", "--seconds", "0.1",
                                "--scale", "0.1", "--trace", "1"))
        assert result["correct"]
        return bench_run.exact_counts(
            {name: value["value"] for name, value in result["metrics"].items()})

    chat = counts("chat-graph")
    assert chat == counts("chat-graph")
    assert chat["requests_per_story"] == 2.0
    assert chat["stub.chat.requests"] == chat["extraction.backends.run_main.calls"] * 2
    assert chat["sink.to_cypher.calls_per_document"] == 2.0
    assert chat["stub.neo4j.requests_per_document"] == 1.0


def test_chat_check_fails_when_a_strict_row_is_missing(tmp_path):
    run = bench_run.Run(bench_run.WORKLOADS["chat-graph"], 1, 0.1, "none", tmp_path)
    try:
        extracted = tmp_path / "extracted" / bench_run.EXPERIMENT
        evaluation = tmp_path / "evaluation" / bench_run.EXPERIMENT
        extracted.mkdir(parents=True)
        evaluation.mkdir(parents=True)
        for name, records in run.corpus.items():
            (extracted / f"{name}.json").write_text(json.dumps([{"PID": r["PID"]} for r in records]))
        (extracted / "graph.cypher").write_text("MERGE (n:Userstory {id: 'x'})\n" * run.n_stories)
        perfect = {"precision": 1.0, "recall": 1.0, "f_measure": 1.0}
        report = {
            "backlogs": [{"backlog": name, "stories_evaluated": len(records), "stories_skipped": 0}
                         for name, records in run.corpus.items()],
            "averages": [{"kind": kind, "mode": "strict", **perfect}
                         for kind in ("Persona", "Action", "Entity")],
        }
        (evaluation / "report.json").write_text(json.dumps(report))
        outputs = {"load": f"loaded {run.n_stories} documents: 0 nodes created, 0 nodes matched, "
                           "0 relationships created, 0 documents failed"}
        with pytest.raises(bench_run.BenchError, match="no strict Benefit row"):
            run.check_outputs(outputs)
        report["averages"].append({"kind": "Benefit", "mode": "strict", **perfect})
        (evaluation / "report.json").write_text(json.dumps(report))
        assert run.check_outputs(outputs)["failed"] == 0
    finally:
        run.close()


@pytest.mark.parametrize(
    "fault", ["chat-reply", "neo4j-stats"]
)
def test_a_wrong_stub_reply_fails_the_run(fault):
    proc = _bench("--workload", "chat-graph", "--seed", "4", "--seconds", "0.1",
                  "--scale", "0.1", "--inject-fault", fault)
    assert proc.returncode != 0
    assert _result(proc)["correct"] is False
    assert "CHECK FAILED" in proc.stdout


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "chat-graph", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_mirrors_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == bench_run.WORKLOADS[w["name"]].why
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        bench_run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        bench_run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
