"""Element comparison modes and set matching.

Three modes of increasing leniency:

- strict: normalized equality.
- inclusive: the normalized expected element must appear inside the
  predicted one (annotations name the head concept, models often return a
  longer phrase around it).
- relaxed: strict equality after leading qualifiers are peeled off both
  sides, so determiner and possessive noise does not count against a match.

Relaxed is meaningless for benefit clauses (full sentences), which is
enforced one level up, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence, Union

from ..model import normalize_id


class ComparisonMode(str, Enum):
    STRICT = "strict"
    INCLUSIVE = "inclusive"
    RELAXED = "relaxed"


# forms_match runs once per compared pair; reading a member off the Enum
# class costs several times a module global.
_STRICT = ComparisonMode.STRICT
_INCLUSIVE = ComparisonMode.INCLUSIVE

# Leading tokens the relaxed mode peels off. Versioned: results are only
# comparable across runs that used the same list.
QUALIFIER_STOP_LIST_VERSION = "1"
QUALIFIER_STOP_LIST = frozenset(
    {
        "a", "an", "the",
        "all", "any", "some", "each", "every", "both", "few", "several",
        "many", "much", "more", "most", "other", "another", "such",
        "no", "this", "that", "these", "those",
        "my", "your", "his", "her", "its", "our", "their", "own", "new",
    }
)


@dataclass(frozen=True)
class CompareOptions:
    """Opt-in variants; both default off to keep baseline behavior fixed.

    fold_plurals: treat singular and plural token forms as equal (relaxed
    mode only, naive English folding).
    token_boundary: inclusive containment must line up with token edges, so
    "age" no longer hides inside "page".
    """

    fold_plurals: bool = False
    token_boundary: bool = False


DEFAULT_OPTIONS = CompareOptions()


def _strip_normalized(tokens: list[str]) -> str:
    while tokens and (tokens[0] in QUALIFIER_STOP_LIST or tokens[0].endswith("'s")):
        tokens.pop(0)
    return " ".join(tokens)


def _fold_plural(token: str) -> str:
    if len(token) > 3 and token.endswith("ies"):
        return token[:-3] + "y"
    for suffix in ("ses", "xes", "zes", "ches", "shes"):
        if len(token) > len(suffix) + 1 and token.endswith(suffix):
            return token[:-2]
    if len(token) > 3 and token.endswith("s") and not token.endswith("ss"):
        return token[:-1]
    return token


def _fold_plurals(text: str) -> str:
    return " ".join(_fold_plural(token) for token in text.split())


class Form(NamedTuple):
    """What the modes compare of one element, computed once per element.

    ``normalized`` serves strict mode; ``relaxed`` is the normalized text
    without leading qualifiers, plural-folded when the options ask for it;
    ``contained`` serves inclusive mode: the normalized text, padded with a
    space on each side when containment must line up with token edges.
    ``element_form`` applies both options, so the forms alone decide a match.
    """

    normalized: str
    relaxed: str
    contained: str


# A split concept (list-valued prediction) has a list of forms; a pair
# (relationship) has a tuple of its two members' forms.
AnyForm = Union[Form, list, tuple]


def element_form(
    element: str | Sequence[str], options: CompareOptions = DEFAULT_OPTIONS
) -> Form | list:
    """The element's forms; a split concept gives one per fragment."""
    if isinstance(element, (list, tuple)):
        return [element_form(item, options) for item in element]
    normalized = normalize_id(element)
    relaxed = _strip_normalized(normalized.split())
    if options.fold_plurals:
        relaxed = _fold_plurals(relaxed)
    contained = f" {normalized} " if options.token_boundary else normalized
    return Form(normalized, relaxed, contained)


def forms_match(expected: AnyForm, predicted: AnyForm, mode: ComparisonMode) -> bool:
    """Does one predicted form satisfy one expected form?

    A split concept matches only in inclusive mode, when any fragment
    does; a pair matches when both members match.
    """
    if isinstance(predicted, Form):
        if mode is _STRICT:
            return expected.normalized == predicted.normalized
        if mode is _INCLUSIVE:
            return expected.contained in predicted.contained
        return expected.relaxed == predicted.relaxed
    if isinstance(predicted, list):
        return mode is _INCLUSIVE and any(forms_match(expected, item, mode) for item in predicted)
    return forms_match(expected[0], predicted[0], mode) and forms_match(
        expected[1], predicted[1], mode
    )


def compare_element(
    expected: str,
    predicted: str | Sequence[str],
    mode: ComparisonMode,
    options: CompareOptions = DEFAULT_OPTIONS,
) -> bool:
    """Does one predicted element satisfy one expected element?

    A list-valued prediction is a split concept: inclusive mode accepts it
    when any fragment contains the expected element, the other modes never
    accept it.
    """
    return forms_match(element_form(expected, options), element_form(predicted, options), mode)


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0


def count_matches(
    expected: Sequence[AnyForm], predicted: Sequence[AnyForm], mode: ComparisonMode
) -> int:
    """Greedy one-to-one matching in list order; the number of matched pairs.

    Each expected element consumes the first not-yet-consumed predicted
    element it matches.  Takes forms, so a caller scoring several modes
    computes them once.
    """
    if not expected or not predicted:
        return 0
    free = list(predicted)  # a consumed slot becomes None
    matched = 0
    for exp in expected:
        for i, pred in enumerate(free):
            if pred is not None and forms_match(exp, pred, mode):
                free[i] = None
                matched += 1
                break
    return matched


def match_forms(
    expected: Sequence[AnyForm], predicted: Sequence[AnyForm], mode: ComparisonMode
) -> Counts:
    """Greedy one-to-one matching (see count_matches) as counts.

    Leftover expected elements are false negatives, leftover predicted ones
    false positives.
    """
    tp = count_matches(expected, predicted, mode)
    return Counts(tp=tp, fp=len(predicted) - tp, fn=len(expected) - tp)


def match_sets(
    expected: Sequence[str],
    predicted: Sequence[str | Sequence[str]],
    mode: ComparisonMode,
    options: CompareOptions = DEFAULT_OPTIONS,
) -> Counts:
    """Greedy one-to-one matching of elements (see match_forms)."""
    return match_forms(
        [element_form(exp, options) for exp in expected],
        [element_form(pred, options) for pred in predicted],
        mode,
    )
