"""Annotated user-story backlogs: parsing, validation, serialization.

A backlog file is a JSON array of story objects keyed by PID, Text, Persona,
Action (Primary/Secondary), Entity (Primary/Secondary), Benefit, Triggers,
Targets, and Contains.  ``Contains`` is carried through untouched.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, BinaryIO

from .errors import BacklogParseError, BacklogSchemaError

log = logging.getLogger(__name__)

_PID_TAG = re.compile(r"^\s*#[^#]*#\s*")

_REQUIRED_KEYS = ("PID", "Text", "Persona", "Action", "Entity", "Triggers", "Targets")


@dataclass
class AnnotatedStory:
    pid: str
    text: str
    personas: list[str] = field(default_factory=list)
    primary_actions: list[str] = field(default_factory=list)
    secondary_actions: list[str] = field(default_factory=list)
    primary_entities: list[str] = field(default_factory=list)
    secondary_entities: list[str] = field(default_factory=list)
    benefit: str | None = None
    triggers: list[tuple[str, str]] = field(default_factory=list)
    targets: list[tuple[str, str]] = field(default_factory=list)
    contains: list[Any] = field(default_factory=list)


@dataclass
class Backlog:
    name: str
    stories: list[AnnotatedStory] = field(default_factory=list)


def strip_pid_tag(text: str) -> str:
    """Remove one leading ``#...#`` marker plus following whitespace.

    Applied once only, so a second marker survives:
    ``"#G02##G02# rest"`` becomes ``"#G02# rest"``.  Idempotent on text
    with at most one leading marker.
    """
    return _PID_TAG.sub("", text, count=1)


def clean_story_text(story: AnnotatedStory) -> str:
    return strip_pid_tag(story.text)


# The helpers below name the offending key as "story <index>: <key>", and
# format that context only when they raise.


def _list(value: Any, index: int, key: str) -> list[Any]:
    if value is None:
        return []
    if not isinstance(value, list):
        raise BacklogSchemaError(
            f"story {index}: {key}: expected a list, got {type(value).__name__}"
        )
    return value


def _object(value: Any, index: int, key: str) -> dict[str, Any]:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise BacklogSchemaError(
            f"story {index}: {key}: expected an object, got {type(value).__name__}"
        )
    return value


def _string_error(items: list[Any], index: int, key: str) -> BacklogSchemaError:
    """The error naming the first item of ``items`` that is not a string."""
    i, item = next((i, item) for i, item in enumerate(items) if not isinstance(item, str))
    return BacklogSchemaError(
        f"story {index}: {key}[{i}]: expected a string, got {type(item).__name__}"
    )


def _string_list(value: Any, index: int, key: str) -> list[str]:
    items = _list(value, index, key)
    strings = [item for item in items if isinstance(item, str)]
    if len(strings) != len(items):
        raise _string_error(items, index, key)
    return strings


def _pair_list(value: Any, index: int, key: str) -> list[tuple[str, str]]:
    pairs = []
    for i, item in enumerate(_list(value, index, key)):
        if not isinstance(item, list) or len(item) != 2:
            raise BacklogSchemaError(f"story {index}: {key}[{i}]: expected a two-element pair")
        source, target = item
        if not (isinstance(source, str) and isinstance(target, str)):
            raise _string_error(item, index, f"{key}[{i}]")
        pairs.append((source, target))
    return pairs


def story_from_dict(obj: dict[str, Any], index: int) -> AnnotatedStory:
    """Build a story from one backlog array element.

    Raises BacklogSchemaError naming the offending key and array index.
    """
    if not isinstance(obj, dict):
        raise BacklogSchemaError(f"story {index}: expected an object")
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise BacklogSchemaError(f"story {index}: missing required key '{key}'")

    action = _object(obj["Action"], index, "Action")
    entity = _object(obj["Entity"], index, "Entity")
    benefit = obj.get("Benefit")
    if benefit is not None and not isinstance(benefit, str):
        raise BacklogSchemaError(
            f"story {index}: Benefit: expected a string or null, got {type(benefit).__name__}"
        )

    return AnnotatedStory(
        pid=str(obj["PID"]),
        text=str(obj["Text"]),
        personas=_string_list(obj["Persona"], index, "Persona"),
        primary_actions=_string_list(action.get("Primary Action"), index, "Primary Action"),
        secondary_actions=_string_list(action.get("Secondary Action"), index, "Secondary Action"),
        primary_entities=_string_list(entity.get("Primary Entity"), index, "Primary Entity"),
        secondary_entities=_string_list(entity.get("Secondary Entity"), index, "Secondary Entity"),
        benefit=benefit or None,
        triggers=_pair_list(obj["Triggers"], index, "Triggers"),
        targets=_pair_list(obj["Targets"], index, "Targets"),
        contains=list(_list(obj.get("Contains"), index, "Contains")),
    )


def story_to_dict(story: AnnotatedStory) -> dict[str, Any]:
    """Serialize back to the backlog schema.

    An absent benefit is written as the empty string, matching how the
    annotation files express it.
    """
    return {
        "PID": story.pid,
        "Text": story.text,
        "Persona": list(story.personas),
        "Action": {
            "Primary Action": list(story.primary_actions),
            "Secondary Action": list(story.secondary_actions),
        },
        "Entity": {
            "Primary Entity": list(story.primary_entities),
            "Secondary Entity": list(story.secondary_entities),
        },
        "Benefit": story.benefit if story.benefit is not None else "",
        "Triggers": [list(pair) for pair in story.triggers],
        "Targets": [list(pair) for pair in story.targets],
        "Contains": list(story.contains),
    }


def parse_backlog_file(raw: bytes | BinaryIO, name: str = "") -> Backlog:
    """Parse a backlog from raw JSON bytes.

    Bytes that are not UTF-8 or not JSON raise BacklogParseError carrying
    the byte offset of the failure; structural problems raise
    BacklogSchemaError.  An empty array is rejected: a backlog without
    stories is useless downstream.
    """
    data = raw.read() if hasattr(raw, "read") else raw
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BacklogParseError(
                f"not UTF-8 at byte offset {exc.start}", byte_offset=exc.start
            ) from exc
    else:
        text = data
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise BacklogParseError(
            f"invalid JSON at byte offset {offset}: {exc.msg}", byte_offset=offset
        ) from exc

    if not isinstance(payload, list):
        raise BacklogSchemaError("expected a JSON array of stories")
    if not payload:
        raise BacklogSchemaError("empty backlog")

    stories = [story_from_dict(obj, i) for i, obj in enumerate(payload)]
    return Backlog(name=name, stories=stories)


def load_backlog(path: str | Path) -> Backlog:
    path = Path(path)
    with path.open("rb") as fh:
        return parse_backlog_file(fh, name=path.stem)


def validate_story(story: AnnotatedStory) -> list[str]:
    """Referential-integrity check; returns violation descriptions.

    The text must hold more than its PID tag.  Triggers must reference
    annotated personas and primary actions; targets must lead out of some
    annotated action.
    """
    problems = []
    if not strip_pid_tag(story.text).strip():
        problems.append("text is empty")
    for persona, action in story.triggers:
        if persona not in story.personas:
            problems.append(f"triggers persona '{persona}' not among personas")
        if action not in story.primary_actions:
            problems.append(f"triggers action '{action}' not among primary actions")
    all_actions = set(story.primary_actions + story.secondary_actions)
    for action, _entity in story.targets:
        if action not in all_actions:
            problems.append(f"targets action '{action}' not among actions")
    return problems


def drop_invalid_stories(backlog: Backlog) -> tuple[Backlog, list[tuple[AnnotatedStory, list[str]]]]:
    """Split a backlog into valid stories and skipped (story, problems) pairs.

    Skipping is logged per story so silent data loss cannot happen.
    """
    kept = []
    skipped = []
    for story in backlog.stories:
        problems = validate_story(story)
        if problems:
            skipped.append((story, problems))
            log.warning(
                "skipping story %s in backlog %s: %s",
                story.pid, backlog.name, "; ".join(problems),
            )
        else:
            kept.append(story)
    return Backlog(name=backlog.name, stories=kept), skipped
