"""Backlog parsing, cleaning, validation, and round-trip serialization."""

from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storygraph.corpus import (
    AnnotatedStory,
    clean_story_text,
    drop_invalid_stories,
    load_backlog,
    parse_backlog_file,
    story_from_dict,
    story_to_dict,
    strip_pid_tag,
    validate_story,
)
from storygraph.errors import BacklogParseError, BacklogSchemaError

from conftest import SAMPLE_BACKLOG


def minimal_story_dict(**overrides):
    obj = {
        "PID": "#X01#",
        "Text": "#X01# As a user, I want to sync my data.",
        "Persona": ["user"],
        "Action": {"Primary Action": ["sync"], "Secondary Action": []},
        "Entity": {"Primary Entity": ["data"], "Secondary Entity": []},
        "Benefit": "",
        "Triggers": [["user", "sync"]],
        "Targets": [["sync", "data"]],
        "Contains": [],
    }
    obj.update(overrides)
    return obj


class TestParse:
    def test_sample_file(self):
        backlog = load_backlog(SAMPLE_BACKLOG)
        assert backlog.name == "sample"
        assert [s.pid for s in backlog.stories] == ["#S01#", "#S02#", "#S03#"]
        s01 = backlog.stories[0]
        assert s01.personas == ["user"]
        assert s01.primary_actions == ["sync"]
        assert s01.secondary_actions == ["access"]
        assert s01.primary_entities == ["data"]
        assert s01.secondary_entities == ["current information", "anywhere"]
        assert s01.benefit == "I can access my information from anywhere"
        assert s01.triggers == [("user", "sync")]
        assert s01.targets == [("sync", "data"), ("access", "current information")]

    def test_malformed_json_reports_byte_offset(self):
        raw = b'[{"PID": "#A#", }]'
        with pytest.raises(BacklogParseError) as exc_info:
            parse_backlog_file(raw)
        assert exc_info.value.byte_offset is not None
        assert 0 < exc_info.value.byte_offset <= len(raw)
        assert "byte offset" in str(exc_info.value)

    def test_byte_offset_counts_bytes_not_chars(self):
        # Multibyte content before the error shifts byte and char offsets apart.
        raw = '[{"PID": "#Ä#", }]'.encode("utf-8")
        with pytest.raises(BacklogParseError) as exc_info:
            parse_backlog_file(raw)
        text = raw.decode("utf-8")
        char_pos = exc_info.value.byte_offset - 1  # one 2-byte char before it
        assert raw[: exc_info.value.byte_offset] == text[:char_pos].encode("utf-8")

    def test_missing_key_names_key_and_index(self):
        obj = minimal_story_dict()
        del obj["Entity"]
        with pytest.raises(BacklogSchemaError, match=r"story 1.*'Entity'"):
            parse_backlog_file(json.dumps([minimal_story_dict(), obj]).encode())

    def test_empty_array_rejected(self):
        with pytest.raises(BacklogSchemaError, match="empty backlog"):
            parse_backlog_file(b"[]")

    def test_non_array_rejected(self):
        with pytest.raises(BacklogSchemaError, match="array"):
            parse_backlog_file(b"{}")

    def test_missing_benefit_is_absent(self):
        obj = minimal_story_dict()
        del obj["Benefit"]
        story = story_from_dict(obj, 0)
        assert story.benefit is None

    def test_empty_benefit_is_absent(self):
        story = story_from_dict(minimal_story_dict(Benefit=""), 0)
        assert story.benefit is None

    def test_present_benefit_kept(self):
        story = story_from_dict(minimal_story_dict(Benefit="I save time"), 0)
        assert story.benefit == "I save time"

    def test_malformed_pair_rejected(self):
        obj = minimal_story_dict(Triggers=[["user"]])
        with pytest.raises(BacklogSchemaError, match="two-element"):
            story_from_dict(obj, 0)

    def test_contains_preserved_verbatim(self):
        payload = [{"weird": ["nested", {"x": 1}]}, "free text"]
        story = story_from_dict(minimal_story_dict(Contains=payload), 0)
        assert story.contains == payload
        assert story_to_dict(story)["Contains"] == payload

    @pytest.mark.parametrize(
        "overrides,where",
        [
            ({"Contains": 5}, r"story 4: Contains: expected a list, got int"),
            ({"Contains": "abc"}, r"story 4: Contains: expected a list, got str"),
            ({"Persona": [{"a": 1}]}, r"story 4: Persona\[0\]: expected a string, got dict"),
            ({"Action": {"Primary Action": ["sync", 3]}},
             r"story 4: Primary Action\[1\]: expected a string, got int"),
            ({"Entity": {"Secondary Entity": [None]}},
             r"story 4: Secondary Entity\[0\]: expected a string, got NoneType"),
            ({"Triggers": [["user", ["sync"]]]},
             r"story 4: Triggers\[0\]\[1\]: expected a string, got list"),
            ({"Targets": [[1.5, "data"]]},
             r"story 4: Targets\[0\]\[0\]: expected a string, got float"),
            ({"Action": ["sync"]}, r"story 4: Action: expected an object, got list"),
            ({"Entity": "data"}, r"story 4: Entity: expected an object, got str"),
            ({"Benefit": 7}, r"story 4: Benefit: expected a string or null, got int"),
            ({"Benefit": ["I save time"]}, r"story 4: Benefit: expected a string or null, got list"),
        ],
    )
    def test_wrong_value_type_names_key_and_index(self, overrides, where):
        with pytest.raises(BacklogSchemaError, match=where):
            story_from_dict(minimal_story_dict(**overrides), 4)

    def test_null_values_are_absent(self):
        story = story_from_dict(
            minimal_story_dict(Action=None, Entity=None, Benefit=None, Contains=None), 0
        )
        assert (
            story.primary_actions, story.secondary_actions,
            story.primary_entities, story.secondary_entities,
            story.benefit, story.contains,
        ) == ([], [], [], [], None, [])

    def test_accepts_file_object(self):
        with open(SAMPLE_BACKLOG, "rb") as fh:
            backlog = parse_backlog_file(fh, name="sample")
        assert len(backlog.stories) == 3


class TestCleanText:
    @pytest.mark.parametrize("raw,expected", [
        ("#G02# As a user, I want things.", "As a user, I want things."),
        ("#G02##G02# rest", "#G02# rest"),
        ("no tag here", "no tag here"),
        ("#G02#no space", "no space"),
        ("  #G02#  spaced", "spaced"),
    ])
    def test_strip_pid_tag(self, raw, expected):
        assert strip_pid_tag(raw) == expected

    @given(st.text(max_size=60))
    def test_idempotent_without_leading_tag(self, text):
        once = strip_pid_tag(text)
        if not once.startswith("#"):
            assert strip_pid_tag(once) == once

    def test_clean_story_text(self):
        story = story_from_dict(minimal_story_dict(), 0)
        assert clean_story_text(story) == "As a user, I want to sync my data."


class TestValidateStory:
    def test_valid(self):
        assert validate_story(story_from_dict(minimal_story_dict(), 0)) == []

    def test_trigger_persona_unknown(self):
        story = story_from_dict(minimal_story_dict(Triggers=[["ghost", "sync"]]), 0)
        problems = validate_story(story)
        assert any("ghost" in p and "persona" in p for p in problems)

    def test_trigger_action_not_primary(self):
        obj = minimal_story_dict(
            Action={"Primary Action": ["sync"], "Secondary Action": ["view"]},
            Triggers=[["user", "view"]],
        )
        problems = validate_story(story_from_dict(obj, 0))
        assert any("view" in p and "primary" in p for p in problems)

    def test_target_action_unknown(self):
        story = story_from_dict(minimal_story_dict(Targets=[["fly", "data"]]), 0)
        assert any("fly" in p for p in validate_story(story))

    def test_empty_text(self):
        story = story_from_dict(minimal_story_dict(Text="   "), 0)
        assert any("empty" in p for p in validate_story(story))

    def test_drop_invalid_stories(self, caplog):
        good = minimal_story_dict()
        bad = minimal_story_dict(PID="#X02#", Triggers=[["ghost", "sync"]])
        backlog = parse_backlog_file(json.dumps([good, bad]).encode(), name="mixed")
        with caplog.at_level("WARNING"):
            kept, skipped = drop_invalid_stories(backlog)
        assert [s.pid for s in kept.stories] == ["#X01#"]
        assert len(skipped) == 1
        assert "#X02#" in caplog.text


story_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=20
).filter(lambda s: s.strip())

stories = st.builds(
    AnnotatedStory,
    pid=story_texts,
    text=story_texts,
    personas=st.lists(story_texts, max_size=3),
    primary_actions=st.lists(story_texts, max_size=3),
    secondary_actions=st.lists(story_texts, max_size=3),
    primary_entities=st.lists(story_texts, max_size=3),
    secondary_entities=st.lists(story_texts, max_size=3),
    benefit=st.one_of(st.none(), story_texts),
    triggers=st.lists(st.tuples(story_texts, story_texts), max_size=2),
    targets=st.lists(st.tuples(story_texts, story_texts), max_size=2),
    contains=st.lists(st.one_of(story_texts, st.integers()), max_size=3),
)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=8,
)
FIELDS = ("PID", "Text", "Persona", "Action", "Entity", "Benefit", "Triggers", "Targets",
          "Contains", "Action.Primary Action", "Action.Secondary Action",
          "Entity.Primary Entity", "Entity.Secondary Entity")


@given(st.dictionaries(st.sampled_from(FIELDS), json_values, max_size=4))
def test_any_json_value_in_any_field_gives_story_or_schema_error(replacements):
    obj = minimal_story_dict()
    for name, value in replacements.items():
        parent, _, child = name.partition(".")
        if child and isinstance(obj[parent], dict):
            obj[parent][child] = value
        elif not child:
            obj[parent] = value
    try:
        story = story_from_dict(obj, 0)
    except BacklogSchemaError:
        return
    for item in (
        story.personas + story.primary_actions + story.secondary_actions
        + story.primary_entities + story.secondary_entities
    ):
        assert isinstance(item, str)
    for pair in story.triggers + story.targets:
        assert all(isinstance(member, str) for member in pair)
    assert story.benefit is None or isinstance(story.benefit, str)
    assert isinstance(story.contains, list)


class TestRoundTrip:
    def test_sample_round_trip(self):
        backlog = load_backlog(SAMPLE_BACKLOG)
        original = json.loads(SAMPLE_BACKLOG.read_text())
        rebuilt = [story_to_dict(story) for story in backlog.stories]
        assert rebuilt == original

    @given(stories)
    def test_story_round_trip(self, story):
        rebuilt = story_from_dict(story_to_dict(story), 0)
        # "" and absent both mean no benefit; everything else is verbatim.
        assert rebuilt == story or (
            story.benefit == "" and rebuilt == AnnotatedStory(**{**story.__dict__, "benefit": None})
        )
