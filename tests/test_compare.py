"""Comparison modes and greedy set matching."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storygraph.evaluation import (
    ComparisonMode,
    CompareOptions,
    compare_element,
    match_pair_sets,
    match_sets,
)
from storygraph.evaluation.compare import Form, count_matches, element_form
from storygraph.model import normalize_id

STRICT = ComparisonMode.STRICT
INCLUSIVE = ComparisonMode.INCLUSIVE
RELAXED = ComparisonMode.RELAXED

SPLIT = ["user", "webpage"]

# One row per (gt, prediction) pair and mode; split predictions only ever
# match inclusively.
PINNED = [
    ("webpage", "webpages", STRICT, False),
    ("all webpages", "webpages", STRICT, False),
    ("user's webpage", SPLIT, STRICT, False),
    ("webpage", "webpage", STRICT, True),
    ("webpage", "webpages", INCLUSIVE, True),
    ("all webpages", "webpages", INCLUSIVE, False),
    ("user's webpage", SPLIT, INCLUSIVE, False),
    ("webpage", "webpage", INCLUSIVE, True),
    ("webpage", "webpages", RELAXED, False),
    ("all webpages", "webpages", RELAXED, True),
    ("user's webpage", SPLIT, RELAXED, False),
    ("webpage", "webpage", RELAXED, True),
]


@pytest.mark.parametrize("expected,predicted,mode,outcome", PINNED)
def test_pinned_mode_behavior(expected, predicted, mode, outcome):
    assert compare_element(expected, predicted, mode) is outcome


class TestElement:
    def test_strict_ignores_case_and_spacing(self):
        assert compare_element("Web  Page", "web page", STRICT)

    def test_inclusive_needs_gt_inside_pred(self):
        assert compare_element("data", "my data set", INCLUSIVE)
        assert not compare_element("my data set", "data", INCLUSIVE)

    def test_relaxed_strips_both_sides(self):
        assert compare_element("user's webpage", "webpage", RELAXED)
        assert compare_element("webpage", "the webpage", RELAXED)

    def test_relaxed_keeps_interior_tokens(self):
        assert not compare_element("login page", "page", RELAXED)

    def test_relaxed_list_never_matches(self):
        assert not compare_element("webpage", ["webpage"], RELAXED)

    def test_inclusive_split_concept(self):
        assert compare_element("webpage", SPLIT, INCLUSIVE)
        assert not compare_element("account", SPLIT, INCLUSIVE)


def relaxed(text: str) -> str:
    """The relaxed form: normalized, without leading qualifiers and possessives."""
    return element_form(text).relaxed


class TestStripQualifiers:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("all webpages", "webpages"),
            ("the user's own new dashboard", "dashboard"),
            ("my data", "data"),
            ("webpage", "webpage"),
            ("login page", "login page"),
            ("THE Report", "report"),
        ],
    )
    def test_examples(self, raw, expected):
        assert relaxed(raw) == expected

    def test_all_qualifiers_leaves_empty(self):
        assert relaxed("the my own") == ""

    @given(st.text(alphabet="abcdefgh '", max_size=30))
    def test_idempotent(self, text):
        once = relaxed(text)
        assert relaxed(once) == once


class TestOptions:
    def test_plural_folding_off_by_default(self):
        assert not compare_element("webpage", "webpages", RELAXED)

    @pytest.mark.parametrize(
        "expected,predicted",
        [("webpage", "webpages"), ("company", "companies"), ("bus", "buses")],
    )
    def test_plural_folding_on(self, expected, predicted):
        options = CompareOptions(fold_plurals=True)
        assert compare_element(expected, predicted, RELAXED, options)

    def test_folding_does_not_touch_strict(self):
        options = CompareOptions(fold_plurals=True)
        assert not compare_element("webpage", "webpages", STRICT, options)

    def test_token_boundary_off_by_default(self):
        assert compare_element("age", "webpage", INCLUSIVE)

    def test_token_boundary_on(self):
        options = CompareOptions(token_boundary=True)
        assert not compare_element("age", "webpage", INCLUSIVE, options)
        assert compare_element("age", "the age limit", INCLUSIVE, options)


class TestMatchSets:
    def test_identity(self):
        counts = match_sets(["access", "see"], ["access", "see"], STRICT)
        assert counts == (2, 0, 0)

    def test_partial(self):
        counts = match_sets(["access", "see"], ["access", "browse"], STRICT)
        assert counts == (1, 1, 1)

    def test_hallucination(self):
        counts = match_sets([], ["ghost"], STRICT)
        assert counts == (0, 1, 0)

    def test_missing(self):
        counts = match_sets(["real"], [], STRICT)
        assert counts == (0, 0, 1)

    def test_each_prediction_consumed_once(self):
        counts = match_sets(["see", "see"], ["see"], STRICT)
        assert counts == (1, 0, 1)

    def test_greedy_takes_first_unconsumed(self):
        # Inclusive: "page" could match either prediction; the first one
        # is consumed, leaving the second for the more specific gt item.
        counts = match_sets(
            ["page", "login page"], ["the login page", "page"], INCLUSIVE
        )
        assert counts == (1, 1, 1)

    def test_split_prediction_inclusive(self):
        counts = match_sets(["user's webpage"], [SPLIT], INCLUSIVE)
        assert counts == (0, 1, 1)

    @given(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
        st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=6),
        st.sampled_from(list(ComparisonMode)),
    )
    def test_totals_invariant(self, gt, pred, mode):
        counts = match_sets(gt, pred, mode)
        tp, fp, fn = counts
        assert tp + fn == len(gt)
        assert tp + fp == len(pred)
        assert min(counts) >= 0

    @given(st.lists(st.sampled_from(["x", "y", "z"]), max_size=6))
    def test_self_match_is_perfect(self, items):
        counts = match_sets(items, items, STRICT)
        assert counts == (len(items), 0, 0)


@given(
    st.text(alphabet="abc s'", min_size=1, max_size=15),
    st.text(alphabet="abc s'", min_size=1, max_size=15),
)
def test_strict_match_implies_inclusive(expected, predicted):
    if compare_element(expected, predicted, STRICT):
        assert compare_element(expected, predicted, INCLUSIVE)


spaced_text = st.text(alphabet="abAB \t", max_size=12)


@given(spaced_text.filter(lambda text: normalize_id(text).split()), spaced_text, st.booleans())
def test_inclusive_equals_containment_rule(expected, predicted, token_boundary):
    """Inclusive mode against a rule written from scratch: with token
    boundaries, the expected tokens are a contiguous run of the predicted
    ones; without, the normalized expected text is a substring."""
    exp, pred = normalize_id(expected), normalize_id(predicted)
    if token_boundary:
        needle, haystack = exp.split(), pred.split()
        starts = range(len(haystack) - len(needle) + 1)
        rule = any(haystack[i : i + len(needle)] == needle for i in starts)
    else:
        rule = exp in pred
    options = CompareOptions(token_boundary=token_boundary)
    assert compare_element(expected, predicted, INCLUSIVE, options) is rule


# -- precomputed forms against the pairwise matcher ---------------------------

WORDS = ["the", "my", "user's", "page", "pages", "web page", "webpage", "data", "Data  set"]
words = st.sampled_from(WORDS)
elements = st.one_of(words, st.lists(words, max_size=3))
options = st.builds(CompareOptions, fold_plurals=st.booleans(), token_boundary=st.booleans())


def reference_greedy(expected, predicted, matches) -> tuple[int, int, int]:
    """Greedy matching in list order, one pairwise comparison at a time."""
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


@given(
    st.lists(words, max_size=5),
    st.lists(elements, max_size=5),
    st.sampled_from(list(ComparisonMode)),
    options,
)
def test_form_matching_equals_pairwise_greedy(expected, predicted, mode, opts):
    reference = reference_greedy(
        expected, predicted, lambda e, p: compare_element(e, p, mode, opts)
    )
    forms = count_matches(
        [element_form(e, opts) for e in expected],
        [element_form(p, opts) for p in predicted],
        mode,
    )
    assert forms == reference
    assert match_sets(expected, predicted, mode, opts) == reference


@given(
    st.lists(st.tuples(words, words), max_size=4),
    st.lists(st.tuples(words, words), max_size=4),
    st.sampled_from(list(ComparisonMode)),
    options,
)
def test_pair_form_matching_equals_pairwise_greedy(expected, predicted, mode, opts):
    def both(e, p):
        return compare_element(e[0], p[0], mode, opts) and compare_element(e[1], p[1], mode, opts)

    reference = reference_greedy(expected, predicted, both)
    def pair_forms(pairs):
        return [(element_form(src, opts), element_form(tgt, opts)) for src, tgt in pairs]

    forms = count_matches(pair_forms(expected), pair_forms(predicted), mode)
    assert forms == reference
    assert match_pair_sets(expected, predicted, mode, opts) == reference


def test_element_form_normalizes_once(monkeypatch):
    import storygraph.evaluation.compare as compare

    calls = []
    original = compare.normalize_id
    monkeypatch.setattr(compare, "normalize_id", lambda text: calls.append(text) or original(text))
    form = element_form("The  Web Pages", CompareOptions(fold_plurals=True))
    assert form == Form("the web pages", "web page", "the web pages")
    assert calls == ["The  Web Pages"]
