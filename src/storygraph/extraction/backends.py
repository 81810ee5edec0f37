"""Chat backends: live HTTP and recorded replay.

Both expose one call per prompt chain, taking the story text and returning
the reply's payload: a ``dict`` for a function call or a structured fixture
entry, a ``str`` for free text.  Only the HTTP backend renders conversations,
in the common chat-completions wire shape; when the model supports function
calls a single tool is attached and its arguments are returned pre-parsed.
"""

from __future__ import annotations

import json
import logging
import time
from pathlib import Path
from typing import Any

from ..errors import BackendError, ConfigError, ResponseParseError
from ..http import TransportError, bearer_headers, post_json
from .config import ExtractorConfig
from .prompts import benefit_prompt, main_prompt, render_prompt

log = logging.getLogger(__name__)

_RETRYABLE_STATUS = {429, 500, 502, 503, 504}

# Seconds before the first retry; each later retry waits twice as long.
_RETRY_BACKOFF = 0.5

_ROLE_MAP = {"system": "system", "human": "user", "user": "user", "ai": "assistant"}

_TOOL_SCHEMA = {
    "type": "function",
    "function": {
        "name": "extract_graph_components",
        "description": (
            "Record the nodes and relationships extracted from the user story."
        ),
        "parameters": {
            "type": "object",
            "properties": {
                "nodes": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "id": {"type": "string"},
                            "type": {"type": "string"},
                        },
                        "required": ["id", "type"],
                    },
                },
                "relationships": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "source": {"type": "string"},
                            "source_type": {"type": "string"},
                            "target": {"type": "string"},
                            "target_type": {"type": "string"},
                            "type": {"type": "string"},
                        },
                        "required": ["source", "target", "type"],
                    },
                },
            },
            "required": ["nodes", "relationships"],
        },
    },
}


class ChatHttpBackend:
    def __init__(self, config: ExtractorConfig):
        self.config = config
        # Built here once, not by each pool thread that misses the cache first.
        self._main = main_prompt(config.supports_function_calls)
        self._tools = [_TOOL_SCHEMA] if config.supports_function_calls else None

    def run_main(self, story_text: str) -> dict | str:
        return self._request(render_prompt(self._main, story_text), self._tools)

    def run_benefit(self, story_text: str) -> dict | str:
        return self._request(render_prompt(benefit_prompt(), story_text), None)

    def _request(self, messages, tools) -> dict | str:
        body: dict[str, Any] = {
            "model": self.config.model_name,
            "temperature": self.config.temperature,
            "messages": [
                {"role": _ROLE_MAP.get(role, role), "content": text}
                for role, text in messages
            ],
        }
        if tools:
            body["tools"] = tools

        headers = bearer_headers()
        last_error = "no attempt made"
        attempts = self.config.max_retries + 1
        for attempt in range(attempts):
            if attempt:
                time.sleep(_RETRY_BACKOFF * (2 ** (attempt - 1)))
            try:
                status, raw = post_json(
                    self.config.endpoint, body, headers, self.config.request_timeout
                )
            except TransportError as exc:
                last_error = f"request failed: {exc}"
                log.warning("attempt %d/%d: %s", attempt + 1, attempts, last_error)
                continue
            if status in _RETRYABLE_STATUS:
                last_error = f"server returned status {status}"
                log.warning("attempt %d/%d: %s", attempt + 1, attempts, last_error)
                continue
            if status != 200:
                raise BackendError(f"backend rejected the request with status {status}")
            return self._parse_reply(raw)
        raise BackendError(f"backend unavailable after {attempts} attempts: {last_error}")

    @staticmethod
    def _parse_reply(raw: bytes) -> dict | str:
        try:
            data = json.loads(raw)
            message = data["choices"][0]["message"]
        except (ValueError, LookupError, TypeError, RecursionError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        if not isinstance(message, dict):
            raise BackendError("malformed backend response: the message is not an object")

        calls = message.get("tool_calls") or []
        if calls:
            first = calls[0] if isinstance(calls, list) else None
            call = first.get("function", {}) if isinstance(first, dict) else None
        elif message.get("function_call"):
            call = message["function_call"]
        else:
            content = message.get("content") or ""
            if not isinstance(content, str):
                raise BackendError("malformed backend response: the content is not a string")
            return content
        if not isinstance(call, dict):
            raise BackendError("malformed backend response: the function call is not an object")
        arguments = call.get("arguments", "")
        if isinstance(arguments, str):
            try:
                arguments = json.loads(arguments)
            except (ValueError, RecursionError) as exc:
                raise ResponseParseError(
                    f"function-call arguments are not valid JSON: {exc}", raw=arguments
                ) from exc
        if not isinstance(arguments, dict):
            raise ResponseParseError(
                f"function-call arguments are not a JSON object: {type(arguments).__name__}",
                raw=json.dumps(arguments),
            )
        return arguments


class ReplayFixtureBackend:
    """Replays canned responses keyed by story text.

    Fixture shape: {story_text: {"main_response": str | object,
    "benefit_response": str | object}}.  A dict-valued response is treated
    as an already-structured payload, a string as raw model output, and any
    other JSON value as raw output that holds that value's JSON text.
    """

    def __init__(self, fixture: dict[str, Any]):
        self.fixture = fixture

    @classmethod
    def from_path(cls, path: str | Path) -> "ReplayFixtureBackend":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"replay fixture not found: {path}")
        try:
            # Not corpus.decode_json: the parsers drop a lone surrogate id.
            fixture = json.loads(path.read_bytes())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"replay fixture {path} is not readable JSON: {exc}") from exc
        if not isinstance(fixture, dict):
            raise ConfigError(f"replay fixture must be a JSON object: {path}")
        return cls(fixture)

    def _reply(self, story_text: str, key: str) -> dict | str:
        entry = self.fixture.get(story_text)
        if entry is None:
            raise BackendError(f"no fixture entry for story: {story_text[:100]!r}")
        if not isinstance(entry, dict):
            raise BackendError(
                f"fixture entry is not a JSON object for story: {story_text[:100]!r}"
            )
        value = entry.get(key)
        if value is None:
            return ""
        if isinstance(value, (dict, str)):
            return value
        # Any other JSON value (a record array, a number) is the text a
        # model would have sent: JSON, not a Python repr.
        return json.dumps(value, ensure_ascii=False)

    def run_main(self, story_text: str) -> dict | str:
        return self._reply(story_text, "main_response")

    def run_benefit(self, story_text: str) -> dict | str:
        return self._reply(story_text, "benefit_response")
