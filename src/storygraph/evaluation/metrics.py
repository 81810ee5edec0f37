"""Precision, recall, F-measure with explicit undefined handling.

A story where a kind has nothing expected and nothing predicted gives no
signal: both denominators are zero.  Such rows are "undefined" and excluded
from averages instead of polluting them with an arbitrary filler value.
When only one denominator is zero the corresponding metric is 0.

Means add left to right (``left_sum``), so reports carry the same floats on
every supported Python version.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

from .compare import Counts

# (precision, recall, F) of one story's cell.
Scores = tuple[float, float, float]


@dataclass(frozen=True)
class MetricRow:
    precision: float
    recall: float
    f_measure: float


def precision(counts: Counts) -> float:
    denom = counts.tp + counts.fp
    return counts.tp / denom if denom else 0.0


def recall(counts: Counts) -> float:
    denom = counts.tp + counts.fn
    return counts.tp / denom if denom else 0.0


def f_measure(p: float, r: float) -> float:
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def scores(tp: int, fp: int, fn: int) -> Scores | None:
    """(precision, recall, F) of match counts; None when both denominators are zero."""
    predicted = tp + fp
    expected = tp + fn
    if not predicted and not expected:
        return None
    p = tp / predicted if predicted else 0.0
    r = tp / expected if expected else 0.0
    return p, r, f_measure(p, r)


def counts_to_row(counts: Counts) -> MetricRow | None:
    """None when the counts carry no signal (both denominators zero)."""
    cell = scores(counts.tp, counts.fp, counts.fn)
    return None if cell is None else MetricRow(*cell)


def left_sum(values: Iterable[float]) -> float:
    """Sum floats strictly left to right.

    From Python 3.12 on, the built-in ``sum`` compensates float rounding, so
    its result for the same floats depends on the interpreter version.
    """
    return reduce(add, values, 0.0)


def mean_scores(cells: list[Scores]) -> Scores:
    """Per-metric arithmetic mean of a non-empty list of scores."""
    n = len(cells)
    p, r, f = zip(*cells)
    return left_sum(p) / n, left_sum(r) / n, left_sum(f) / n


def mean_rows(rows: list[MetricRow]) -> MetricRow | None:
    """Arithmetic mean of defined rows; None when nothing is defined."""
    if not rows:
        return None
    return MetricRow(*mean_scores([(row.precision, row.recall, row.f_measure) for row in rows]))
