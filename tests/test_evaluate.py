"""Story- and backlog-level scoring, aggregation, report serialization."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storygraph.corpus import AnnotatedStory, Backlog, drop_invalid_stories
from storygraph.evaluation import (
    BERTSCORE_MODE,
    CSV_COLUMNS,
    KIND_ORDER,
    BacklogReport,
    CompareOptions,
    ComparisonMode,
    ExperimentReport,
    OneHotEmbedder,
    ReportRow,
    bertscore,
    compare_element,
    evaluate_backlog,
    match_pair_sets,
    match_sets,
    report_to_csv,
    report_to_dict,
    scores,
    strict_f_table,
    write_report_files,
)
from storygraph.evaluation.compare import element_form
from storygraph.evaluation.report import MODES_FOR_KIND, _tokens
from storygraph.model import normalize_id

TOL = 1e-9

STRICT = ComparisonMode.STRICT.value
INCLUSIVE = ComparisonMode.INCLUSIVE.value
RELAXED = ComparisonMode.RELAXED.value


def story_no_benefit() -> AnnotatedStory:
    return AnnotatedStory(
        pid="#N01#",
        text="#N01# As a customer, I want to pay by cash.",
        personas=["customer"],
        primary_actions=["pay"],
        primary_entities=["cash"],
        triggers=[("customer", "pay")],
        targets=[("pay", "cash")],
    )


def story_cells(story: AnnotatedStory, extracted: AnnotatedStory, **options) -> dict:
    """One story's (precision, recall, F) per cell, None when undefined, read
    off a backlog of that story alone: the mean of one score is that score."""
    report = evaluate_backlog(
        Backlog(name="one", stories=[story]), [extracted], **options
    )
    cells: dict = {
        (row.kind, row.mode): (row.precision, row.recall, row.f_measure)
        for row in report.rows
    }
    cells.update((tuple(item.split("/")), None) for item in report.omitted)
    return cells


class TestEvaluateStory:
    def test_identity_extraction_scores_one(self, sample_backlog):
        story = sample_backlog.stories[0]
        results = story_cells(story, story)
        for (kind, mode), cell in results.items():
            assert cell is not None, (kind, mode)
            assert math.isclose(cell[2], 1.0, abs_tol=TOL), (kind, mode)

    def test_benefit_has_no_relaxed_cell(self, sample_backlog):
        story = sample_backlog.stories[0]
        results = story_cells(story, story)
        assert ("Benefit", RELAXED) not in results
        assert ("Benefit", STRICT) in results
        assert ("Benefit", INCLUSIVE) in results
        assert ("Entity", RELAXED) in results

    def test_partial_entity_recall(self, sample_backlog):
        story = sample_backlog.stories[0]
        target = story.primary_entities[0]
        extracted = replace(
            story,
            secondary_entities=[],
            targets=[pair for pair in story.targets if pair[1] == target],
        )
        p, r, _f = story_cells(story, extracted)[("Entity", STRICT)]
        assert math.isclose(p, 1.0, abs_tol=TOL)
        assert math.isclose(r, 1 / 3, abs_tol=TOL)

    def test_no_benefit_both_sides_is_undefined(self):
        story = story_no_benefit()
        results = story_cells(story, story)
        assert results[("Benefit", STRICT)] is None
        assert results[("Benefit", INCLUSIVE)] is None
        assert results[("Benefit", BERTSCORE_MODE)] is None

    def test_hallucinated_benefit_scores_zero(self):
        story = story_no_benefit()
        p, r, _f = story_cells(story, replace(story, benefit="made up"))[("Benefit", STRICT)]
        assert p == 0.0 and r == 0.0

    def test_blank_expected_id_is_not_an_element(self):
        """A blank id is skipped like an empty one, so it neither lowers
        strict recall nor matches inside every prediction inclusively."""
        story = replace(story_no_benefit(), personas=["customer", " "])
        results = story_cells(story, replace(story, personas=["customer", "admin"]))
        for mode in (STRICT, INCLUSIVE):
            p, r, _f = results[("Persona", mode)]
            assert math.isclose(p, 0.5, abs_tol=TOL), mode
            assert math.isclose(r, 1.0, abs_tol=TOL), mode

    def test_bertscore_cell_present_for_shared_tokens(self, sample_backlog):
        story = sample_backlog.stories[0]
        results = story_cells(story, story)
        assert math.isclose(results[("Persona", BERTSCORE_MODE)][2], 1.0, abs_tol=TOL)

    def test_explicit_embedder_is_used(self, sample_backlog):
        class CountingEmbedder(OneHotEmbedder):
            calls = 0

            def embed(self, tokens):
                CountingEmbedder.calls += 1
                return super().embed(tokens)

        story = sample_backlog.stories[0]
        story_cells(story, story, embedder=CountingEmbedder())
        assert CountingEmbedder.calls > 0


@given(st.lists(st.text(alphabet=st.sampled_from("aΣσςΑ İ'\t\u2000."), max_size=6), max_size=4))
def test_tokens_from_forms_equal_tokens_of_joined_text(items):
    """Lowercasing never looks across whitespace, so per-element forms suffice."""
    joined = normalize_id(" ".join(items)).split() if items else []
    assert _tokens([element_form(item) for item in items]) == joined


class TestRelations:
    def test_identity(self, sample_backlog):
        story = sample_backlog.stories[0]
        results = story_cells(story, story)
        for mode in (STRICT, INCLUSIVE, RELAXED):
            assert results[("TRIGGERS", mode)][2] == 1.0
            assert results[("TARGETS", mode)][2] == 1.0

    def test_pair_needs_both_members(self):
        counts = match_pair_sets(
            [("user", "access")], [("user", "see")], ComparisonMode.STRICT
        )
        assert counts == (0, 1, 1)

    def test_pair_greedy_consumption(self):
        counts = match_pair_sets(
            [("u", "a"), ("u", "a")], [("u", "a")], ComparisonMode.STRICT
        )
        assert counts == (1, 0, 1)

    def test_empty_both_sides_undefined(self):
        story = story_no_benefit()
        story.triggers = []
        assert story_cells(story, story)[("TRIGGERS", STRICT)] is None


class TestEvaluateBacklog:
    def test_self_evaluation_is_perfect(self, sample_backlog):
        extractions = sample_backlog.stories
        report = evaluate_backlog(sample_backlog, extractions)
        assert report.stories_evaluated == 3
        assert report.stories_skipped == 0
        for row in report.rows:
            assert math.isclose(row.f_measure, 1.0, abs_tol=TOL), (row.kind, row.mode)

    def test_missing_extraction_counts_skipped(self, sample_backlog, caplog):
        extractions = sample_backlog.stories[1:]
        with caplog.at_level("WARNING"):
            report = evaluate_backlog(sample_backlog, extractions)
        assert report.stories_skipped == 1
        assert any("no extraction" in r.message for r in caplog.records)

    def test_undefined_stories_excluded_from_mean(self, sample_backlog):
        extractions = sample_backlog.stories
        report = evaluate_backlog(sample_backlog, extractions)
        benefit_row = next(
            r for r in report.rows if r.kind == "Benefit" and r.mode == STRICT
        )
        # story 2 has no benefit on either side; it must not drag the mean
        assert benefit_row.stories_counted == 2
        assert benefit_row.stories_undefined == 1
        assert math.isclose(benefit_row.f_measure, 1.0, abs_tol=TOL)

    def test_all_undefined_combo_is_omitted(self):
        story = story_no_benefit()
        backlog = Backlog(name="mini", stories=[story])
        report = evaluate_backlog(
            backlog, [story]
        )
        assert f"Benefit/{STRICT}" in report.omitted
        assert all(r.kind != "Benefit" for r in report.rows)


class TestReportOutput:
    @pytest.fixture()
    def report(self, sample_backlog) -> ExperimentReport:
        extractions = sample_backlog.stories
        backlog_report = evaluate_backlog(sample_backlog, extractions)
        return ExperimentReport(experiment="demo", backlogs=[backlog_report])

    def test_csv_columns_pinned(self, report):
        text = report_to_csv(report)
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_COLUMNS
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)

    def test_csv_has_average_rows(self, report):
        text = report_to_csv(report)
        assert "(average)" in text

    def test_csv_deterministic(self, report):
        assert report_to_csv(report) == report_to_csv(report)

    def test_dict_shape(self, report):
        data = report_to_dict(report)
        assert data["experiment"] == "demo"
        assert data["options"]["qualifier_stop_list_version"] == "1"
        backlog = data["backlogs"][0]
        assert backlog["stories_evaluated"] == 3
        assert {row["mode"] for row in backlog["rows"]} >= {STRICT, BERTSCORE_MODE}
        assert "timestamp" not in data

    def test_average_is_macro_mean(self, sample_backlog):
        extractions = sample_backlog.stories
        one = evaluate_backlog(sample_backlog, extractions)
        two = evaluate_backlog(
            Backlog(name="other", stories=sample_backlog.stories), extractions
        )
        for row in two.rows:
            row.f_measure = 0.0
            row.precision = 0.0
            row.recall = 0.0
        report = ExperimentReport(experiment="demo", backlogs=[one, two])
        persona = next(
            r for r in report.average_rows()
            if r.kind == "Persona" and r.mode == STRICT
        )
        assert math.isclose(persona.f_measure, 0.5, abs_tol=TOL)

    def test_write_report_files(self, report, tmp_path):
        json_path, csv_path = write_report_files(report, tmp_path / "out")
        assert json_path.name == "report.json"
        assert csv_path.name == "report.csv"
        assert json_path.read_text().endswith("\n")

    def test_strict_table_layout(self, report):
        table = strict_f_table(report)
        lines = table.splitlines()
        assert lines[0].split() == ["backlog", "Persona", "Entity", "Action", "Benefit"]
        assert lines[-1].startswith("Average")
        assert "1.00" in lines[-1]

    def test_strict_table_dash_for_omitted(self):
        story = story_no_benefit()
        backlog = Backlog(name="mini", stories=[story])
        backlog_report = evaluate_backlog(
            backlog, [story]
        )
        table = strict_f_table(
            ExperimentReport(experiment="demo", backlogs=[backlog_report])
        )
        assert "-" in table.splitlines()[2]


# -- backlog scores against a cell-by-cell oracle -----------------------------

ORACLE_WORDS = ["user", "the user", "Users", "admin", "page", "web page", "pages",
                "my data", "data", "Data  set", "sync", "", "  "]
oracle_words = st.sampled_from(ORACLE_WORDS)
word_lists = st.lists(oracle_words, max_size=3)
word_pairs = st.lists(st.tuples(oracle_words, oracle_words), max_size=3)


@st.composite
def oracle_stories(draw, pid: str) -> AnnotatedStory:
    return AnnotatedStory(
        pid=pid,
        text=f"{pid} As a user, I want to sync data.",
        personas=draw(word_lists),
        primary_actions=draw(word_lists),
        secondary_actions=draw(word_lists),
        primary_entities=draw(word_lists),
        secondary_entities=draw(word_lists),
        benefit=draw(st.one_of(st.none(), oracle_words, st.just("I see my web page"))),
        # Members need not be among the story's nodes.
        triggers=draw(word_pairs),
        targets=draw(word_pairs),
    )


@st.composite
def oracle_backlogs(draw) -> tuple[Backlog, list[AnnotatedStory]]:
    stories = [draw(oracle_stories(f"#S{i}#")) for i in range(draw(st.integers(0, 4)))]
    extractions = []
    for story in stories:
        kind = draw(st.sampled_from(["self", "drawn", "missing"]))
        if kind == "self":
            extractions.append(story)
        elif kind == "drawn":
            extractions.append(draw(oracle_stories(story.pid)))
    return Backlog(name="b", stories=stories), extractions


def oracle_greedy(expected, predicted, matches) -> tuple[int, int, int]:
    consumed = [False] * len(predicted)
    tp = fn = 0
    for exp in expected:
        for i, pred in enumerate(predicted):
            if not consumed[i] and matches(exp, pred):
                consumed[i] = True
                tp += 1
                break
        else:
            fn += 1
    return tp, consumed.count(False), fn


def oracle_scores(counts: tuple[int, int, int]):
    """(precision, recall, F), None when nothing is expected or predicted."""
    tp, fp, fn = counts
    predicted, expected = tp + fp, tp + fn
    if not predicted and not expected:
        return None
    p = tp / predicted if predicted else 0.0
    r = tp / expected if expected else 0.0
    return p, r, 0.0 if p + r == 0 else 2 * p * r / (p + r)


def oracle_mean(values: list[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def oracle_elements(story: AnnotatedStory):
    """A story's scored elements as the README states them, for ground truth
    and extraction alike: the annotated nodes, then each trigger's and
    target's endpoints, without exact duplicates or empty or blank ids; the
    pairs without those that have an empty or blank member."""
    lists = {kind: [] for kind in KIND_ORDER}
    items = [("Persona", p) for p in story.personas]
    items += [("Action", a) for a in story.primary_actions + story.secondary_actions]
    items += [("Entity", e) for e in story.primary_entities + story.secondary_entities]
    items += [("Benefit", story.benefit)]
    for persona, action in story.triggers:
        items += [("Persona", persona), ("Action", action)]
    for action, entity in story.targets:
        items += [("Action", action), ("Entity", entity)]
    for kind, item in items:
        if item and item.strip() and item not in lists[kind]:
            lists[kind].append(item)
    pairs = {
        label: [(a, b) for a, b in source if a.strip() and b.strip()]
        for label, source in (("TRIGGERS", story.triggers), ("TARGETS", story.targets))
    }
    return lists, pairs


def oracle_report(backlog, extractions, options) -> BacklogReport:
    """Every story's cells as (precision, recall, F) tuples, then the means."""
    cells: dict[tuple[str, str], list] = {}
    report = BacklogReport(backlog=backlog.name)
    for story in backlog.stories:
        extracted = next(
            (e for e in extractions if (e.pid, e.text) == (story.pid, story.text)), None
        )
        if extracted is None:
            report.stories_skipped += 1
            continue
        report.stories_evaluated += 1
        expected, expected_pairs = oracle_elements(story)
        predicted, predicted_pairs = oracle_elements(extracted)
        for kind in KIND_ORDER:
            for mode in MODES_FOR_KIND[kind]:
                counts = oracle_greedy(
                    expected[kind], predicted[kind],
                    lambda e, p: compare_element(e, p, mode, options),
                )
                cells.setdefault((kind, mode.value), []).append(oracle_scores(counts))
            exp_tokens = normalize_id(" ".join(expected[kind])).split()
            pred_tokens = normalize_id(" ".join(predicted[kind])).split()
            row = (bertscore(exp_tokens, pred_tokens, OneHotEmbedder())
                   if exp_tokens and pred_tokens else None)
            cells.setdefault((kind, BERTSCORE_MODE), []).append(row)
        for label, exp_pairs in expected_pairs.items():
            pred_pairs = predicted_pairs[label]
            for mode in ComparisonMode:
                counts = oracle_greedy(
                    exp_pairs, pred_pairs,
                    lambda e, p: all(compare_element(a, b, mode, options)
                                     for a, b in zip(e, p)),
                )
                cells.setdefault((label, mode.value), []).append(oracle_scores(counts))

    node_keys = [(kind, mode) for kind in KIND_ORDER
                 for mode in [m.value for m in MODES_FOR_KIND[kind]] + [BERTSCORE_MODE]]
    relation_keys = [(label, mode.value) for label in ("TRIGGERS", "TARGETS")
                     for mode in ComparisonMode]
    for kind, mode in node_keys + relation_keys:
        rows = cells.get((kind, mode), [])
        defined = [row for row in rows if row is not None]
        if not defined:
            report.omitted.append(f"{kind}/{mode}")
            continue
        report.rows.append(ReportRow(
            backlog=backlog.name, kind=kind, mode=mode,
            precision=oracle_mean([p for p, _r, _f in defined]),
            recall=oracle_mean([r for _p, r, _f in defined]),
            f_measure=oracle_mean([f for _p, _r, f in defined]),
            stories_counted=len(defined),
            stories_undefined=len(rows) - len(defined),
        ))
    return report


@settings(max_examples=300, deadline=None)
@given(oracle_backlogs(), st.builds(CompareOptions, fold_plurals=st.booleans(),
                                    token_boundary=st.booleans()))
def test_backlog_report_equals_cell_by_cell_oracle(backlog_and_extractions, options):
    backlog, extractions = backlog_and_extractions
    report = evaluate_backlog(backlog, extractions, options=options)
    assert report == oracle_report(backlog, extractions, options)


@settings(max_examples=100, deadline=None)
@given(st.lists(oracle_backlogs(), min_size=1, max_size=3))
def test_csv_holds_exactly_the_node_rows_of_the_json(drawn):
    """report.csv holds report.json's node-kind rows, each backlog's in turn
    and then the averages, with equal values at six decimals; report.json
    keeps each backlog's relation rows apart from its node rows."""
    report = ExperimentReport(experiment="drawn", backlogs=[
        evaluate_backlog(Backlog(name=f"b{i}", stories=backlog.stories), extractions)
        for i, (backlog, extractions) in enumerate(drawn)
    ])
    data = report_to_dict(report)
    for backlog in data["backlogs"]:
        assert all(row["kind"] in KIND_ORDER for row in backlog["rows"])
        assert all(row["kind"] in ("TRIGGERS", "TARGETS") for row in backlog["relations"])
    json_rows = [
        row
        for rows in [b["rows"] + b["relations"] for b in data["backlogs"]] + [data["averages"]]
        for row in rows
        if row["kind"] in KIND_ORDER
    ]
    csv_rows = list(csv.DictReader(io.StringIO(report_to_csv(report))))
    assert not {"TRIGGERS", "TARGETS"} & {row["kind"] for row in csv_rows}
    assert len(csv_rows) == len(json_rows)
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert list(csv_row) == list(json_row) == list(CSV_COLUMNS)
        for column, value in json_row.items():
            if isinstance(value, float):
                assert math.isclose(float(csv_row[column]), value, abs_tol=5e-7), column
            else:
                assert csv_row[column] == str(value), column


def test_story_rows_equal_backlog_of_one(sample_backlog):
    """A backlog of one story reads that story's cells: each row holds the
    scores of the story's match counts, and each omitted cell has none."""
    story = sample_backlog.stories[0]
    extracted = replace(story, personas=[], triggers=[])
    cells = story_cells(story, extracted)
    expected, expected_pairs = oracle_elements(story)
    predicted, predicted_pairs = oracle_elements(extracted)
    for kind in KIND_ORDER:
        for mode in MODES_FOR_KIND[kind]:
            counts = match_sets(expected[kind], predicted[kind], mode)
            assert cells[(kind, mode.value)] == scores(*counts)
    for label, pairs in expected_pairs.items():
        for mode in ComparisonMode:
            counts = match_pair_sets(pairs, predicted_pairs[label], mode)
            assert cells[(label, mode.value)] == scores(*counts)


def test_average_rows_add_left_to_right():
    """The built-in sum of Python 3.12+ would give 0.1 here."""
    rows = [ReportRow("b", "Persona", STRICT, 0.1, 0.1, 0.1, 1, 0)]
    report = ExperimentReport(
        experiment="x", backlogs=[BacklogReport(backlog=str(i), rows=rows) for i in range(10)]
    )
    (average,) = report.average_rows()
    assert average.precision == average.recall == average.f_measure == 0.09999999999999999


# -- ground truth against itself ---------------------------------------------


@st.composite
def annotated_stories(draw, pid: str) -> AnnotatedStory:
    """Stories with repeated, empty and case-variant items, and pairs whose
    target is not among the annotated nodes; most pass validation."""
    personas = draw(word_lists)
    primary_actions = draw(word_lists)
    secondary_actions = draw(word_lists)
    triggers = []
    if personas and primary_actions:
        triggers = draw(st.lists(
            st.tuples(st.sampled_from(personas), st.sampled_from(primary_actions)), max_size=3
        ))
    actions = primary_actions + secondary_actions
    targets = []
    if actions:
        targets = draw(st.lists(st.tuples(st.sampled_from(actions), oracle_words), max_size=3))
    return AnnotatedStory(
        pid=pid,
        text=f"{pid} As a user, I want to sync data.",
        personas=personas,
        primary_actions=primary_actions,
        secondary_actions=secondary_actions,
        primary_entities=draw(word_lists),
        secondary_entities=draw(word_lists),
        benefit=draw(st.one_of(st.none(), oracle_words)),
        triggers=triggers,
        targets=targets,
    )


# A repeated persona, and a Targets entity missing from Entity.
REPEATS_AND_UNLISTED_TARGET = AnnotatedStory(
    pid="#D01#",
    text="#D01# As a user, I want to pay by cash.",
    personas=["user", "user"],
    primary_actions=["pay"],
    triggers=[("user", "pay")],
    targets=[("pay", "cash")],
)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[annotated_stories(f"#S{i}#") for i in range(n)])
), st.builds(CompareOptions, fold_plurals=st.booleans(), token_boundary=st.booleans()))
@example(stories=(REPEATS_AND_UNLISTED_TARGET,), options=CompareOptions())
def test_valid_ground_truth_scores_one_against_itself(stories, options):
    backlog, _skipped = drop_invalid_stories(Backlog(name="b", stories=list(stories)))
    extractions = backlog.stories
    report = evaluate_backlog(backlog, extractions, options=options)
    assert report.stories_evaluated == len(backlog.stories)
    for row in report.rows:
        assert (row.precision, row.recall, row.f_measure) == (1.0, 1.0, 1.0), (row.kind, row.mode)
