"""Score extracted stories against annotated ground truth and write reports.

Both sides are annotated stories in one schema: an extraction file holds
the same Persona, Action, Entity, Benefit, Triggers and Targets as the
ground truth.  Node kinds are scored independently: personas against
personas, primary plus secondary actions against actions, likewise
entities, and the benefit (when present).  The benefit is a full clause, so
the relaxed mode is never applied to it.  Relationships are scored as pairs
where both members must match under the active mode.

One function, ``transform.story_elements``, reads both sides, so ground
truth scores 1.0 against itself.

``evaluate_backlog`` is the one scoring entry point; a story scored alone is
a backlog of one.  Each story gives a ``Scores`` tuple per (kind, mode)
cell, None when the cell is undefined, and a backlog row is the mean of its
defined cells, added left to right.  A backlog's rows are one list, the
node-kind rows then the relation rows; the writers split them by kind:
``report.json`` keeps the relations apart, and ``report.csv`` holds the
node kinds only.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ..atomic import json_text, write_atomic
from ..corpus import AnnotatedStory, Backlog
from ..model import NodeKind, RelKind
from ..transform import story_elements
from .bertscore import Embedder, OneHotEmbedder, bertscore
from .compare import (
    DEFAULT_OPTIONS,
    QUALIFIER_STOP_LIST_VERSION,
    CompareOptions,
    ComparisonMode,
    Form,
    count_matches,
    element_form,
)
from .metrics import Scores, mean_scores, scores

log = logging.getLogger(__name__)

KIND_ORDER = ("Persona", "Action", "Entity", "Benefit")
BERTSCORE_MODE = "bertscore"

# Set-comparison modes applicable per node kind. The benefit clause is a
# sentence; substring leniency still makes sense, qualifier stripping not.
MODES_FOR_KIND = {
    "Persona": (ComparisonMode.STRICT, ComparisonMode.INCLUSIVE, ComparisonMode.RELAXED),
    "Action": (ComparisonMode.STRICT, ComparisonMode.INCLUSIVE, ComparisonMode.RELAXED),
    "Entity": (ComparisonMode.STRICT, ComparisonMode.INCLUSIVE, ComparisonMode.RELAXED),
    "Benefit": (ComparisonMode.STRICT, ComparisonMode.INCLUSIVE),
}

RELATION_ORDER = (RelKind.TRIGGERS.value, RelKind.TARGETS.value)

_KIND_OF_NODE = {NodeKind(kind): kind for kind in KIND_ORDER}

# Every scored label in report order, the node kinds then the relations
# (which take every mode): its (mode, cell key) pairs and its
# token-similarity key, None for a relation.  Built once.
_CELLS = tuple(
    (
        label,
        tuple((mode, (label, mode.value)) for mode in MODES_FOR_KIND.get(label, ComparisonMode)),
        (label, BERTSCORE_MODE) if label in MODES_FOR_KIND else None,
    )
    for label in KIND_ORDER + RELATION_ORDER
)
# Every cell key in report order.
_KEYS = [
    key
    for _label, modes, similarity_key in _CELLS
    for key in (*(key for _mode, key in modes), similarity_key)
    if key is not None
]


def _elements(story: AnnotatedStory) -> dict[str, list]:
    """A story's scored elements, expected or predicted alike: per node kind
    its ids, per relation label its (source id, target id) pairs."""
    keys, triggers, targets = story_elements(story)
    elements = {kind: [] for kind in KIND_ORDER} | {"TRIGGERS": triggers, "TARGETS": targets}
    for kind, node_id in keys:
        elements[_KIND_OF_NODE[kind]].append(node_id)
    return elements


def _tokens(forms: Sequence[Form]) -> list[str]:
    """Tokens of the normalized elements, in order.

    The same as normalizing the space-joined elements: normalization never
    looks across whitespace.
    """
    return [token for form in forms for token in form.normalized.split()]


class _StoryForms(dict):
    """Forms of one story's elements, each distinct text computed once."""

    def __init__(self, options: CompareOptions) -> None:
        super().__init__()
        self.options = options

    def __missing__(self, element: str) -> Form:
        form = self[element] = element_form(element, self.options)
        return form

    def of(self, item: str | Sequence[str]) -> Form | tuple[Form, Form]:
        """An id's form, or a pair's: the tuple of its members' forms."""
        if isinstance(item, str):
            return self[item]
        source, target = item
        return self[source], self[target]


Cell = tuple[tuple[str, str], Scores | None]


def _story_cells(
    expected: dict[str, list], predicted: dict[str, list], embedder: Embedder, forms: _StoryForms
) -> Iterator[Cell]:
    """Each cell's key and scores, None when undefined, in report order."""
    for label, modes, similarity_key in _CELLS:
        exp_forms = [forms.of(item) for item in expected[label]]
        pred_forms = [forms.of(item) for item in predicted[label]]
        for mode, key in modes:
            yield key, scores(*count_matches(exp_forms, pred_forms, mode))

        if similarity_key is not None:
            exp_tokens, pred_tokens = _tokens(exp_forms), _tokens(pred_forms)
            defined = exp_tokens and pred_tokens
            yield similarity_key, bertscore(exp_tokens, pred_tokens, embedder) if defined else None


def match_pair_sets(
    expected: Sequence[tuple[str, str]],
    predicted: Sequence[tuple[str, str]],
    mode: ComparisonMode,
    options: CompareOptions = DEFAULT_OPTIONS,
) -> tuple[int, int, int]:
    """Greedy pair matching as ``(tp, fp, fn)``; a pair matches when both
    members match."""
    forms = _StoryForms(options)
    return count_matches(
        [forms.of(pair) for pair in expected], [forms.of(pair) for pair in predicted], mode
    )


@dataclass
class ReportRow:
    backlog: str
    kind: str
    mode: str
    precision: float
    recall: float
    f_measure: float
    stories_counted: int
    stories_undefined: int


# The report's columns, in order: the fields of a row.
CSV_COLUMNS = tuple(f.name for f in fields(ReportRow))


def _mean_row(
    backlog: str, key: tuple[str, str], cells: list[Scores], counted: int, undefined: int
) -> ReportRow:
    """The row of one (kind, mode) key holding the mean of its scores."""
    precision, recall, f = mean_scores(cells)
    return ReportRow(backlog, *key, precision, recall, f, counted, undefined)


@dataclass
class BacklogReport:
    """One backlog's scores.  ``rows`` holds one row per scored (kind, mode)
    key in report order: the node-kind rows, then the relation rows."""

    backlog: str
    rows: list[ReportRow] = field(default_factory=list)
    stories_evaluated: int = 0
    stories_skipped: int = 0
    omitted: list[str] = field(default_factory=list)


def evaluate_backlog(
    backlog: Backlog,
    extractions: Iterable[AnnotatedStory],
    *,
    embedder: Embedder | None = None,
    options: CompareOptions = DEFAULT_OPTIONS,
) -> BacklogReport:
    """Score every story that has an extraction; others count as skipped.

    ``extractions`` holds the stories as extracted.  A story is paired with
    the extraction of the same pid and text, as ``extract`` copies both, so
    stories that share a pid are still scored apart.
    """
    by_story = {(extracted.pid, extracted.text): extracted for extracted in extractions}
    # Per cell key, in report order: the defined per-story scores and the
    # count of undefined ones.
    defined: dict[tuple[str, str], list[Scores]] = {key: [] for key in _KEYS}
    undefined = dict.fromkeys(_KEYS, 0)
    evaluated = 0
    skipped = 0
    shared_embedder = embedder or OneHotEmbedder()

    for story in backlog.stories:
        extracted = by_story.get((story.pid, story.text))
        if extracted is None:
            skipped += 1
            log.warning("no extraction for story %s in backlog %s", story.pid, backlog.name)
            continue
        evaluated += 1
        # One set of forms serves the story's nodes and its pairs.
        forms = _StoryForms(options)
        cells = _story_cells(_elements(story), _elements(extracted), shared_embedder, forms)
        for key, cell in cells:
            if cell is None:
                undefined[key] += 1
            else:
                defined[key].append(cell)

    # The mean row of each key with a defined cell; the others as omitted.
    return BacklogReport(
        backlog=backlog.name,
        rows=[
            _mean_row(backlog.name, key, scored, len(scored), undefined[key])
            for key, scored in defined.items()
            if scored
        ],
        stories_evaluated=evaluated,
        stories_skipped=skipped,
        omitted=["/".join(key) for key, scored in defined.items() if not scored],
    )


@dataclass
class ExperimentReport:
    experiment: str
    backlogs: list[BacklogReport] = field(default_factory=list)
    options: CompareOptions = DEFAULT_OPTIONS

    def average_rows(self) -> list[ReportRow]:
        """Macro average across backlogs per (kind, mode), in first-seen order."""
        grouped: dict[tuple[str, str], list[ReportRow]] = {}
        for report in self.backlogs:
            for row in report.rows:
                grouped.setdefault((row.kind, row.mode), []).append(row)
        return [
            _mean_row(
                "(average)",
                key,
                [(r.precision, r.recall, r.f_measure) for r in rows],
                sum(r.stories_counted for r in rows),
                sum(r.stories_undefined for r in rows),
            )
            for key, rows in grouped.items()
        ]


def report_to_dict(report: ExperimentReport) -> dict:
    return {
        "experiment": report.experiment,
        "options": {
            "fold_plurals": report.options.fold_plurals,
            "token_boundary": report.options.token_boundary,
            "qualifier_stop_list_version": QUALIFIER_STOP_LIST_VERSION,
        },
        "backlogs": [
            {
                "backlog": b.backlog,
                "stories_evaluated": b.stories_evaluated,
                "stories_skipped": b.stories_skipped,
                # The field order of ReportRow is the key order of the report.
                "rows": [dict(vars(row)) for row in b.rows if row.kind in KIND_ORDER],
                "relations": [dict(vars(row)) for row in b.rows if row.kind not in KIND_ORDER],
                "omitted": list(b.omitted),
            }
            for b in report.backlogs
        ],
        "averages": [dict(vars(row)) for row in report.average_rows()],
    }


def report_to_csv(report: ExperimentReport) -> str:
    """Flat CSV of node-kind rows plus cross-backlog averages.

    Deterministic: no timestamps, fixed column list, fixed float format.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)

    def emit(row: ReportRow) -> None:
        # The field order of ReportRow is the column order.
        writer.writerow(f"{v:.6f}" if isinstance(v, float) else v for v in vars(row).values())

    for rows in [b.rows for b in report.backlogs] + [report.average_rows()]:
        for row in rows:
            if row.kind in KIND_ORDER:
                emit(row)
    return buffer.getvalue()


def write_report_files(report: ExperimentReport, out_dir: str | Path) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / "report.json"
    csv_path = out_dir / "report.csv"
    write_atomic(json_path, json_text(report_to_dict(report)))
    write_atomic(csv_path, report_to_csv(report))
    return json_path, csv_path


def strict_f_table(report: ExperimentReport) -> str:
    """Per-backlog strict F-measures, one column per node kind.

    Column order mirrors the usual presentation: Persona, Entity, Action,
    Benefit.
    """
    columns = ("Persona", "Entity", "Action", "Benefit")
    lines = []
    header = f"{'backlog':<14}" + "".join(f"{c:>10}" for c in columns)
    lines.append(header)
    lines.append("-" * len(header))

    def line(name: str, rows: list[ReportRow]) -> str:
        by_kind = {row.kind: row for row in rows if row.mode == ComparisonMode.STRICT.value}
        cells = []
        for kind in columns:
            row = by_kind.get(kind)
            cells.append(f"{row.f_measure:>10.2f}" if row else f"{'-':>10}")
        return f"{name:<14}" + "".join(cells)

    for backlog_report in report.backlogs:
        lines.append(line(backlog_report.backlog, backlog_report.rows))
    lines.append(line("Average", report.average_rows()))
    return "\n".join(lines)
