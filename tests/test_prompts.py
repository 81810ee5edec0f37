"""Prompt catalog stability and conversation rendering."""

from __future__ import annotations

import hashlib
import json

import pytest

from storygraph.extraction import (
    BENEFIT_SYSTEM_PROMPT,
    HUMAN_TIP,
    MAIN_SYSTEM_PROMPT,
    benefit_prompt,
    few_shot_records,
    main_prompt,
    render_prompt,
)

from conftest import SYNC_TEXT

# The catalog texts are contractual; any byte change must be deliberate and
# bump PROMPT_CATALOG_VERSION. These pins catch accidental edits.
MAIN_SHA256 = "c576cf8af0011c49694f7d5c502d1aa610ecc744b2c705659d5d0727a059efb3"
BENEFIT_SHA256 = "47b61d98088107362cb69c73e8daa5c018c34c2101ae514161c78ea9cab47d50"
TIP_SHA256 = "d6143fb4e93cc8ca2f27dce40669486011b764a594454e0d2145abd94716350e"

# The whole rendered conversations for SYNC_TEXT, as JSON lists of
# [role, text] pairs: what the chat backend puts on the wire.
RENDERED_SHA256 = {
    "main, function calls": "2a2250f0e0f86be503d8167065a7b64bf830b1632d0351cfe731145f7828c5f4",
    "main, inline records": "38f07ad1c6b63e199f5556251bd426190d7ea1e7823f3fa5edbd73c5b56cc490",
    "benefit": "a9310e5fbab98c779bb8def0aaa1d4e1dee6af69715b22c75515dcb397c8426a",
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestCatalogStability:
    def test_main_prompt_markers(self):
        for marker in (
            "Knowledge Graph Constructor Instructions",
            "Coreference Resolution",
            "Strict Compliance",
        ):
            assert marker in MAIN_SYSTEM_PROMPT

    def test_main_prompt_pinned(self):
        assert sha(MAIN_SYSTEM_PROMPT) == MAIN_SHA256

    def test_benefit_prompt_pinned(self):
        assert sha(BENEFIT_SYSTEM_PROMPT) == BENEFIT_SHA256

    def test_tip_pinned(self):
        assert sha(HUMAN_TIP) == TIP_SHA256

    def test_intentional_quirks_survive(self):
        # These look like typos; they are part of the frozen catalog.
        assert 'as the entity ID.\n\'' in MAIN_SYSTEM_PROMPT
        assert "(e.g. library database, domain).  \n" in MAIN_SYSTEM_PROMPT
        assert "knowledge graph. \n" in MAIN_SYSTEM_PROMPT
        assert "if benefit sentence exists: \n  \n" in BENEFIT_SYSTEM_PROMPT

    def test_main_prompt_carries_worked_example(self):
        assert "'As a user, I want to sync my data so that I can access my information from anywhere.'" in MAIN_SYSTEM_PROMPT
        assert "TARGETS: [['sync', 'data'], ['access', 'current information']]" in MAIN_SYSTEM_PROMPT

    def test_benefit_prompt_carries_both_example_answers(self):
        assert "Node(id='I can access my information from anywhere', type='Benefit')" in BENEFIT_SYSTEM_PROMPT
        assert "answer: '' \n" in BENEFIT_SYSTEM_PROMPT


class TestTemplates:
    def test_main_template_roles(self):
        segments = main_prompt(supports_function_calls=True)
        assert [role for role, _ in segments] == ["system", "human"]
        assert segments[0][1] == MAIN_SYSTEM_PROMPT
        assert segments[1][1] == HUMAN_TIP

    def test_exactly_one_placeholder(self):
        for segments in (main_prompt(True), main_prompt(False), benefit_prompt()):
            assert sum(text.count("{input}") for _role, text in segments) == 1

    @pytest.mark.parametrize(
        "name, segments",
        [
            ("main, function calls", main_prompt(True)),
            ("main, inline records", main_prompt(False)),
            ("benefit", benefit_prompt()),
        ],
    )
    def test_rendered_conversation_pinned(self, name, segments):
        rendered = render_prompt(segments, SYNC_TEXT)
        assert sha(json.dumps(rendered, ensure_ascii=False)) == RENDERED_SHA256[name]

    def test_render_substitutes_input(self):
        messages = render_prompt(main_prompt(True), SYNC_TEXT)
        assert messages[0] == ("system", MAIN_SYSTEM_PROMPT)
        role, text = messages[1]
        assert role == "human"
        assert text.endswith(f"following input: {SYNC_TEXT}")
        assert "{input}" not in text

    def test_render_is_inert_to_braces_in_story(self):
        tricky = "As a user, I want {weird} braces."
        messages = render_prompt(benefit_prompt(), tricky)
        assert tricky in messages[1][1]

    def test_render_rejects_empty_story(self):
        with pytest.raises(ValueError):
            render_prompt(main_prompt(True), "")


class TestFewShot:
    def test_five_valid_records(self):
        records = few_shot_records()
        assert len(records) == 5
        for record in records:
            assert list(record) == ["text", "head", "head_type", "relation", "tail", "tail_type"]
            assert {record["head_type"], record["tail_type"]} <= {
                "Persona", "Action", "Entity", "Benefit",
            }
            assert record["relation"] in {"TRIGGERS", "TARGETS"}

    def test_first_record_is_the_business_owner_example(self):
        record = few_shot_records()[0]
        assert record["text"] == (
            "As a business owner, I want to give my inputs on the product development."
        )
        assert (record["head"], record["head_type"]) == ("business owner", "Persona")
        assert record["relation"] == "TRIGGERS"
        assert (record["tail"], record["tail_type"]) == ("give", "Action")

    def test_unstructured_prompt_embeds_records_before_instructions(self):
        system_text = main_prompt(supports_function_calls=False)[0][1]
        assert system_text.endswith(MAIN_SYSTEM_PROMPT)
        block = system_text[: -len(MAIN_SYSTEM_PROMPT)]
        records = json.loads(block[block.index("[") :].rsplit("\n", 1)[0])
        assert len(records) == 5
        assert records[0]["head"] == "business owner"
