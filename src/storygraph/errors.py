"""Exception hierarchy shared across the toolchain, plus credential redaction."""

from __future__ import annotations

from urllib.parse import urlsplit, urlunsplit


class StoryGraphError(Exception):
    """Base class for all toolchain errors."""


class BacklogParseError(StoryGraphError):
    """Backlog file is not valid JSON."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


class BacklogSchemaError(StoryGraphError):
    """Backlog JSON does not match the annotated-story schema."""


class ConfigError(StoryGraphError):
    """Extractor or sink configuration is invalid."""


class BackendError(StoryGraphError):
    """Language-model backend failed after exhausting retries."""


class ResponseParseError(StoryGraphError):
    """Backend response could not be converted into a graph document.

    The unparsed payload is kept on ``raw`` so callers can log it.
    """

    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


class EvaluationError(StoryGraphError):
    """Metric computation received undefined input."""


class SinkError(StoryGraphError):
    """Graph persistence failed."""


def redact_url(url: str) -> str:
    """``url`` without its user and password, for messages and manifests."""
    parts = urlsplit(url)
    if "@" in parts.netloc:
        parts = parts._replace(netloc=parts.netloc.rsplit("@", 1)[1])
    return urlunsplit(parts)
