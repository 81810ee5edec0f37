"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``[criterion NN] PASS/FAIL/SKIP`` line (visible
with ``pytest -s``) and enforces its stated tolerance.  Criteria 8 and 10
need external services and are skipped unless explicitly enabled through
environment variables.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import REPLAY_FIXTURE, SAMPLE_BACKLOG, SYNC_TEXT
from storygraph.cli import EXIT_OK, main
from storygraph.corpus import drop_invalid_stories, load_backlog, story_from_dict
from storygraph.evaluation import (
    ComparisonMode,
    OneHotEmbedder,
    bertscore,
    compare_element,
    evaluate_backlog,
    mean_scores,
    scores,
)
from storygraph.extraction import (
    ExtractorConfig,
    extract_components,
)
from storygraph.model import (
    GraphDocument,
    GraphNode,
    GraphRelationship,
    NodeKind,
    RelKind,
    validate_ontology,
)
from storygraph.sink import SinkConfig, store
from storygraph.transform import build_graph_document, story_document

TOL = 1e-9

PKG_ROOT = Path(__file__).parent.parent
FULL_BASELINE = PKG_ROOT / "pos_baseline"


@contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"[criterion {n:02d}] SKIP - {label}: {exc}")
        raise
    except BaseException:
        print(f"[criterion {n:02d}] FAIL - {label}")
        raise
    print(f"[criterion {n:02d}] PASS - {label}")


def baseline_files() -> list[Path]:
    """Full annotated dataset when present, bundled sample otherwise."""
    if FULL_BASELINE.is_dir():
        files = sorted(FULL_BASELINE.glob("*.json"))
        if files:
            return files
    return [SAMPLE_BACKLOG]


def test_criterion_01_comparison_mode_examples():
    split = ["user", "webpage"]
    rows = [
        ("webpage", "webpages", ComparisonMode.STRICT, False),
        ("all webpages", "webpages", ComparisonMode.STRICT, False),
        ("user's webpage", split, ComparisonMode.STRICT, False),
        ("webpage", "webpage", ComparisonMode.STRICT, True),
        ("webpage", "webpages", ComparisonMode.INCLUSIVE, True),
        ("all webpages", "webpages", ComparisonMode.INCLUSIVE, False),
        ("user's webpage", split, ComparisonMode.INCLUSIVE, False),
        ("webpage", "webpage", ComparisonMode.INCLUSIVE, True),
        ("webpage", "webpages", ComparisonMode.RELAXED, False),
        ("all webpages", "webpages", ComparisonMode.RELAXED, True),
        ("user's webpage", split, ComparisonMode.RELAXED, False),
        ("webpage", "webpage", ComparisonMode.RELAXED, True),
    ]
    with criterion(1, "12 canonical comparison examples reproduce exactly"):
        start = time.perf_counter()
        for expected, predicted, mode, outcome in rows:
            got = compare_element(expected, predicted, mode)
            assert got is outcome, (expected, predicted, mode.value, got)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_self_evaluation_identity():
    files = baseline_files()
    with criterion(
        2, f"self-evaluation of {len(files)} backlog file(s) scores 1.0 everywhere"
    ):
        start = time.perf_counter()
        for path in files:
            backlog = load_backlog(path)
            backlog, _ = drop_invalid_stories(backlog)
            extractions = backlog.stories
            report = evaluate_backlog(backlog, extractions)
            assert report.stories_evaluated == len(backlog.stories)
            checked = 0
            for row in report.rows:
                if row.mode == "bertscore":
                    continue
                assert math.isclose(row.precision, 1.0, abs_tol=TOL), (
                    backlog.name, row.kind, row.mode, row.precision)
                assert math.isclose(row.recall, 1.0, abs_tol=TOL), (
                    backlog.name, row.kind, row.mode, row.recall)
                assert math.isclose(row.f_measure, 1.0, abs_tol=TOL), (
                    backlog.name, row.kind, row.mode, row.f_measure)
                checked += 1
            assert checked >= 9, f"{backlog.name}: too few defined rows"
        assert time.perf_counter() - start < 30.0


def test_criterion_03_metric_arithmetic():
    with criterion(3, "metric arithmetic and the excluded-story convention"):
        for value in scores(2, 1, 1):
            assert math.isclose(value, 2 / 3, abs_tol=TOL)

        assert scores(1, 0, 0) == (1.0, 1.0, 1.0)

        # one story defined at 1.0, one with no signal: mean stays 1.0
        per_story = [scores(1, 0, 0), scores(0, 0, 0)]
        defined = [cell for cell in per_story if cell is not None]
        assert len(defined) == 1
        assert math.isclose(mean_scores(defined)[2], 1.0, abs_tol=TOL)


def test_criterion_04_end_to_end_replay():
    with criterion(4, "replayed sync story yields the 8-node, 10-edge document"):
        start = time.perf_counter()
        config = ExtractorConfig(
            backend="replay-fixture", fixture_path=str(REPLAY_FIXTURE)
        )
        components = extract_components(config, SYNC_TEXT)
        doc = build_graph_document(components, SYNC_TEXT)

        kind_counts: dict[NodeKind, int] = {}
        for node in doc.nodes:
            kind_counts[node.kind] = kind_counts.get(node.kind, 0) + 1
        assert len(doc.nodes) == 8
        assert kind_counts == {
            NodeKind.USERSTORY: 1,
            NodeKind.PERSONA: 1,
            NodeKind.ACTION: 2,
            NodeKind.ENTITY: 3,
            NodeKind.BENEFIT: 1,
        }

        rel_counts: dict[RelKind, int] = {}
        for rel in doc.relationships:
            rel_counts[rel.kind] = rel_counts.get(rel.kind, 0) + 1
        assert len(doc.relationships) == 10
        assert rel_counts == {
            RelKind.TRIGGERS: 1,
            RelKind.TARGETS: 2,
            RelKind.HAS_PERSONA: 1,
            RelKind.HAS_ACTION: 2,
            RelKind.HAS_ENTITY: 3,
            RelKind.HAS_BENEFIT: 1,
        }
        assert validate_ontology(doc) == []
        assert time.perf_counter() - start < 1.0


# Independent restatement of which ownership edge each satellite kind gets.
_ORACLE_OWNERSHIP = {
    NodeKind.PERSONA: RelKind.HAS_PERSONA,
    NodeKind.ACTION: RelKind.HAS_ACTION,
    NodeKind.ENTITY: RelKind.HAS_ENTITY,
    NodeKind.BENEFIT: RelKind.HAS_BENEFIT,
}


def _ownership_oracle(nodes: list[GraphNode], story_text: str):
    """Ownership edges of the assembled document, by brute force.

    The ids are single lowercase words, so spelling equality is identity.
    """
    kept: list[GraphNode] = []
    for node in nodes:
        if node.kind is NodeKind.USERSTORY and node.id != story_text:
            continue
        if all((k.kind, k.id) != (node.kind, node.id) for k in kept):
            kept.append(node)
    expected = []
    for node in kept:
        if node.kind is NodeKind.USERSTORY:
            continue
        expected.append(
            (story_text, NodeKind.USERSTORY, node.id, node.kind,
             _ORACLE_OWNERSHIP[node.kind])
        )
    return expected


def test_criterion_05_inferred_relations_property():
    rng = random.Random(20260817)
    words = ["alpha", "beta", "gamma", "delta", "echo", "foxtrot"]
    satellite_kinds = [
        NodeKind.PERSONA, NodeKind.ACTION, NodeKind.ENTITY, NodeKind.BENEFIT
    ]
    all_kinds = list(NodeKind)

    with criterion(5, "ownership inference equals brute-force oracle on 1000 sets"):
        for case in range(1000):
            size = rng.randint(1, 20)
            if case % 2 == 0:
                nodes = [
                    GraphNode(rng.choice(words), rng.choice(satellite_kinds))
                    for _ in range(size - 1)
                ]
                nodes.insert(
                    rng.randint(0, len(nodes)),
                    GraphNode(rng.choice(words), NodeKind.USERSTORY),
                )
            else:
                nodes = [
                    GraphNode(rng.choice(words), rng.choice(all_kinds))
                    for _ in range(size)
                ]
            story_text = rng.choice(words)

            doc = build_graph_document(GraphDocument(nodes=nodes), story_text)
            got = [
                (r.source.id, r.source.kind, r.target.id, r.target.kind, r.kind)
                for r in doc.relationships
            ]
            assert got == _ownership_oracle(nodes, story_text)


_ORACLE_BASIS = {"a": (1.0, 0.0, 0.0), "b": (0.0, 1.0, 0.0), "c": (0.0, 0.0, 1.0)}


def _basis_dots() -> dict[str, dict[str, float]]:
    """Pairwise dot products of the fixed basis, with explicit loops."""
    dots: dict[str, dict[str, float]] = {}
    for x, vec_x in _ORACLE_BASIS.items():
        dots[x] = {}
        for y, vec_y in _ORACLE_BASIS.items():
            total = 0.0
            for u, v in zip(vec_x, vec_y):
                total += u * v
            dots[x][y] = total
    return dots


_ORACLE_DOTS = _basis_dots()


def _mean_best_dot(tokens: tuple[str, ...], others: tuple[str, ...]) -> float:
    total = 0.0
    for token in tokens:
        row = _ORACLE_DOTS[token]
        best = row[others[0]]
        for other in others[1:]:
            if row[other] > best:
                best = row[other]
        total += best
    return total / len(tokens)


def _greedy_max_oracle(expected: tuple[str, ...], predicted: tuple[str, ...]):
    """Greedy-max similarity computed with explicit loops and a fixed basis."""
    p = _mean_best_dot(predicted, expected)
    r = _mean_best_dot(expected, predicted)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def test_criterion_06_token_similarity_oracle():
    # The bound covers the program's token-similarity calls only, not the
    # oracle and the assertions that check them.
    elapsed = 0.0

    def timed_bertscore(expected, predicted, embedder):
        nonlocal elapsed
        start = time.perf_counter()
        row = bertscore(expected, predicted, embedder)
        elapsed += time.perf_counter() - start
        return row

    with criterion(6, "token similarity matches the greedy-max oracle"):
        identity = timed_bertscore(["a", "b"], ["a", "b"], OneHotEmbedder())
        assert math.isclose(identity[2], 1.0, abs_tol=TOL)

        half = timed_bertscore(["a", "b"], ["a", "c"], OneHotEmbedder())
        assert half == pytest.approx((0.5, 0.5, 0.5), abs=TOL)

        lists: list[tuple[str, ...]] = []
        for n in range(1, 6):
            lists.extend(itertools.product("abc", repeat=n))
        embedder = OneHotEmbedder()
        for expected in lists:
            for predicted in lists:
                got = timed_bertscore(list(expected), list(predicted), embedder)
                oracle = _greedy_max_oracle(expected, predicted)
                assert got == pytest.approx(oracle, abs=TOL), (expected, predicted)
        assert elapsed < 5.0


def _drop_persona(doc: GraphDocument, i: int) -> GraphDocument:
    keep = [n for n in doc.nodes if n.kind is not NodeKind.PERSONA]
    gone = {id(n) for n in doc.nodes if n.kind is NodeKind.PERSONA}
    rels = [
        r for r in doc.relationships
        if id(r.source) not in gone and id(r.target) not in gone
    ]
    return GraphDocument(nodes=keep, relationships=rels, source_text=doc.source_text)


def _duplicate_benefit(doc: GraphDocument, i: int) -> GraphDocument:
    story = next(n for n in doc.nodes if n.kind is NodeKind.USERSTORY)
    have = sum(1 for n in doc.nodes if n.kind is NodeKind.BENEFIT)
    nodes = list(doc.nodes)
    rels = list(doc.relationships)
    for extra in range(2 - have):
        bonus = GraphNode(id=f"bonus outcome {i}.{extra}", kind=NodeKind.BENEFIT)
        nodes.append(bonus)
        rels.append(GraphRelationship(source=story, target=bonus, kind=RelKind.HAS_BENEFIT))
    return GraphDocument(nodes=nodes, relationships=rels, source_text=doc.source_text)


def _retype_edge_endpoint(doc: GraphDocument, i: int) -> GraphDocument:
    story = next(n for n in doc.nodes if n.kind is NodeKind.USERSTORY)
    wanted = RelKind.TRIGGERS if i % 2 == 0 else RelKind.TARGETS
    rels = []
    broken = False
    for rel in doc.relationships:
        if not broken and rel.kind is wanted:
            rels.append(GraphRelationship(source=rel.source, target=story, kind=rel.kind))
            broken = True
        else:
            rels.append(rel)
    assert broken
    return GraphDocument(nodes=list(doc.nodes), relationships=rels,
                         source_text=doc.source_text)


_MUTATIONS = [
    (_drop_persona, "persona"),
    (_duplicate_benefit, "benefit"),
    (_retype_edge_endpoint, ""),  # keyword chosen per edge kind below
]


def test_criterion_07_ontology_validation_fuzz():
    stories = load_backlog(SAMPLE_BACKLOG).stories
    with criterion(7, "500 single-mutation documents each draw a named violation"):
        for i in range(500):
            story = stories[i % len(stories)]
            mutate, keyword = _MUTATIONS[i % len(_MUTATIONS)]
            doc = story_document(story)
            assert validate_ontology(doc) == [], "precondition: base doc is valid"

            mutated = mutate(doc, i)
            violations = validate_ontology(mutated)
            assert violations, (i, mutate.__name__)
            if not keyword:
                keyword = ("triggers" if i % 2 == 0 else "targets")
            blob = " ".join(v.message for v in violations).lower()
            assert keyword in blob, (i, mutate.__name__, blob)


def test_criterion_08_sink_idempotence():
    with criterion(8, "double load into a live graph store re-creates nothing"):
        if os.environ.get("STORYGRAPH_NEO4J_TEST") != "1":
            pytest.skip("set STORYGRAPH_NEO4J_TEST=1 (plus NEO4J_* variables) to run")
        config = SinkConfig.from_env()
        docs = [story_document(s) for s in load_backlog(SAMPLE_BACKLOG).stories]
        first = store(config, docs)
        assert first.documents_failed == 0
        second = store(config, docs)
        assert second.documents_failed == 0
        assert second.nodes_created == 0
        assert second.rels_created == 0


def test_criterion_09_determinism(tmp_path, monkeypatch):
    with criterion(9, "extraction files and evaluation CSVs are byte-stable"):
        baseline = tmp_path / "pos_baseline"
        baseline.mkdir()
        shutil.copy(SAMPLE_BACKLOG, baseline / "sample.json")
        monkeypatch.chdir(tmp_path)

        extract_argv = ["extract", "--experiment", "det", "--backend", "rule-based"]
        assert main(extract_argv) == EXIT_OK
        extraction = tmp_path / "extracted-user-stories" / "det" / "sample.json"
        first_extraction = extraction.read_bytes()

        assert main(["evaluate", "--experiment", "det"]) == EXIT_OK
        csv_path = tmp_path / "evaluation" / "det" / "report.csv"
        json_path = tmp_path / "evaluation" / "det" / "report.json"
        first_csv = csv_path.read_bytes()
        first_json = json_path.read_bytes()

        assert main(extract_argv) == EXIT_OK
        assert extraction.read_bytes() == first_extraction
        assert main(["evaluate", "--experiment", "det"]) == EXIT_OK
        assert csv_path.read_bytes() == first_csv
        assert json_path.read_bytes() == first_json


def test_criterion_10_live_smoke(tmp_path, monkeypatch):
    with criterion(10, "live backend extract + evaluate completes end to end"):
        if os.environ.get("STORYGRAPH_LIVE_SMOKE") != "1":
            pytest.skip(
                "set STORYGRAPH_LIVE_SMOKE=1 with LLM_ENDPOINT and LLM_MODEL to run"
            )
        endpoint = os.environ.get("LLM_ENDPOINT", "")
        model = os.environ.get("LLM_MODEL", "")
        if not endpoint or not model:
            pytest.skip("LLM_ENDPOINT and LLM_MODEL must both be set")

        baseline = tmp_path / "pos_baseline"
        baseline.mkdir()
        source_files = baseline_files()
        shutil.copy(source_files[0], baseline / source_files[0].name)
        monkeypatch.chdir(tmp_path)

        argv = [
            "extract", "--experiment", "live", "--backend", "chat-http",
            "--endpoint", endpoint, "--model", model, "--temperature", "0",
        ]
        if os.environ.get("LLM_FUNCTION_CALLS") == "1":
            argv.append("--function-calls")
        assert main(argv) == EXIT_OK

        out_file = (
            tmp_path / "extracted-user-stories" / "live" / source_files[0].name
        )
        entries = json.loads(out_file.read_text())
        for i, entry in enumerate(entries):
            if "Error" in entry:
                continue
            story_from_dict(entry, i)

        assert main(["evaluate", "--experiment", "live"]) == EXIT_OK
        report = tmp_path / "evaluation" / "live" / "report.json"
        assert report.is_file()
