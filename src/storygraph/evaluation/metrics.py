"""Precision, recall, F-measure with explicit undefined handling.

Every score is a plain ``(precision, recall, F)`` tuple, ``Scores``: there
are 17 cells per story, and a tuple is the cheapest value to build.

A story where a kind has nothing expected and nothing predicted gives no
signal: both denominators are zero.  ``scores`` returns None for such a
cell, and it is excluded from averages instead of polluting them with an
arbitrary filler value.  When only one denominator is zero the corresponding
metric is 0.

Means add left to right (``left_sum``), so reports carry the same floats on
every supported Python version.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable

# (precision, recall, F) of one cell.
Scores = tuple[float, float, float]


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
