"""Extraction quality scoring."""

from .bertscore import Embedder, HttpEmbedder, OneHotEmbedder, bertscore
from .compare import (
    DEFAULT_OPTIONS,
    QUALIFIER_STOP_LIST,
    QUALIFIER_STOP_LIST_VERSION,
    CompareOptions,
    ComparisonMode,
    compare_element,
    match_sets,
)
from .metrics import Scores, f_measure, mean_scores, scores
from .report import (
    BERTSCORE_MODE,
    CSV_COLUMNS,
    KIND_ORDER,
    BacklogReport,
    ExperimentReport,
    ReportRow,
    evaluate_backlog,
    match_pair_sets,
    report_to_csv,
    report_to_dict,
    strict_f_table,
    write_report_files,
)

__all__ = [
    "Embedder",
    "HttpEmbedder",
    "OneHotEmbedder",
    "bertscore",
    "DEFAULT_OPTIONS",
    "QUALIFIER_STOP_LIST",
    "QUALIFIER_STOP_LIST_VERSION",
    "CompareOptions",
    "ComparisonMode",
    "compare_element",
    "match_sets",
    "Scores",
    "f_measure",
    "mean_scores",
    "scores",
    "BERTSCORE_MODE",
    "CSV_COLUMNS",
    "KIND_ORDER",
    "BacklogReport",
    "ExperimentReport",
    "ReportRow",
    "evaluate_backlog",
    "match_pair_sets",
    "report_to_csv",
    "report_to_dict",
    "strict_f_table",
    "write_report_files",
]
