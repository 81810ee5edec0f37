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
from typing import Any

from .errors import BacklogParseError, BacklogSchemaError

log = logging.getLogger(__name__)

_PID_TAG = re.compile(r"^\s*#[^#]*#\s*")

# A JSON escape of a surrogate pair, or of a lone surrogate (group 1), or an
# escaped backslash, matched so that the "u" after it is not read as an escape.
_SURROGATE = re.compile(
    r"\\\\|\\u[dD][89abAB][0-9a-fA-F]{2}\\u[dD][c-fC-F][0-9a-fA-F]{2}"
    r"|(\\u[dD][89a-fA-F][0-9a-fA-F]{2})"
)
# Cheap to search for; the exact scan above runs only where this matches.
_MAYBE_SURROGATE = re.compile(r"\\u[dD][89a-fA-F]")

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

    pid, text = obj["PID"], obj["Text"]
    if not isinstance(pid, (str, int)) or isinstance(pid, bool):
        raise BacklogSchemaError(
            f"story {index}: PID: expected a string or an integer, got {type(pid).__name__}"
        )
    if not isinstance(text, str):
        raise BacklogSchemaError(
            f"story {index}: Text: expected a string, got {type(text).__name__}"
        )
    action = _object(obj["Action"], index, "Action")
    entity = _object(obj["Entity"], index, "Entity")
    benefit = obj.get("Benefit")
    if benefit is not None and not isinstance(benefit, str):
        raise BacklogSchemaError(
            f"story {index}: Benefit: expected a string or null, got {type(benefit).__name__}"
        )

    return AnnotatedStory(
        pid=str(pid),
        text=text,
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


def decode_json(data: bytes) -> Any:
    """The JSON value of a story file's bytes; it takes bytes only.

    Bytes that are not UTF-8, not JSON, or that escape a lone surrogate
    (such as ``"\\ud800"``, text no output file could hold) raise
    BacklogParseError carrying the byte offset of the failure; so do, without
    an offset, a value nested deeper than the decoder can follow and an
    integer longer than the interpreter's digit limit (4,300 by default).
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise BacklogParseError(
            f"not UTF-8 at byte offset {exc.start}", byte_offset=exc.start
        ) from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        offset = len(text[: exc.pos].encode("utf-8"))
        raise BacklogParseError(
            f"invalid JSON at byte offset {offset}: {exc.msg}", byte_offset=offset
        ) from exc
    except RecursionError as exc:
        raise BacklogParseError("JSON value nested too deeply") from exc
    except ValueError as exc:  # the only other ValueError: an over-long integer
        raise BacklogParseError("JSON integer has too many digits") from exc
    # Most files hold no backslash at all, and it is found at memchr speed.
    if "\\" in text and _MAYBE_SURROGATE.search(text):
        for match in _SURROGATE.finditer(text):
            if match.group(1):
                offset = len(text[: match.start()].encode("utf-8"))
                raise BacklogParseError(
                    f"lone surrogate escape at byte offset {offset}", byte_offset=offset
                )
    return payload


def parse_backlog_file(raw: bytes, name: str = "") -> Backlog:
    """Parse a backlog from a story file's raw JSON bytes (bytes only).

    Bytes that ``decode_json`` refuses raise BacklogParseError carrying the
    byte offset of the failure; structural problems raise
    BacklogSchemaError.  An empty array is rejected: a backlog without
    stories is useless downstream.
    """
    payload = decode_json(raw)
    if not isinstance(payload, list):
        raise BacklogSchemaError("expected a JSON array of stories")
    if not payload:
        raise BacklogSchemaError("empty backlog")

    stories = [story_from_dict(obj, i) for i, obj in enumerate(payload)]
    return Backlog(name=name, stories=stories)


def load_backlog(path: str | Path) -> Backlog:
    path = Path(path)
    return parse_backlog_file(path.read_bytes(), name=path.stem)


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
