"""Extractor configuration."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigError, redact_url, split_url

KNOWN_BACKENDS = ("chat-http", "replay-fixture", "rule-based")

# The environment variable the chat backend's bearer token is read from
# when the config carries none.  The embeddings client of ``evaluate`` reads
# the same one.
_AUTH_TOKEN_ENV = "LLM_API_KEY"


def env_auth_token() -> str | None:
    """The bearer token set in the environment, or None when unset or empty."""
    return os.environ.get(_AUTH_TOKEN_ENV) or None


@dataclass
class ExtractorConfig:
    backend: str = "rule-based"
    endpoint: str = ""
    model_name: str = ""
    temperature: float = 0.0
    supports_function_calls: bool = False
    auth_token: str | None = None
    request_timeout: float = 60.0
    max_retries: int = 3
    retry_parse_errors: bool = False
    fixture_path: str | None = None
    max_concurrency: int = 4

    def validate(self) -> None:
        if self.backend not in KNOWN_BACKENDS:
            raise ConfigError(
                f"unknown backend {self.backend!r}; expected one of {', '.join(KNOWN_BACKENDS)}"
            )
        if self.backend == "chat-http" and not self.endpoint:
            raise ConfigError("chat-http backend requires an endpoint URL")
        if self.backend == "chat-http":
            split_url(self.endpoint, ConfigError, "chat-http endpoint")
        if self.backend == "replay-fixture" and not self.fixture_path:
            raise ConfigError("replay-fixture backend requires a fixture path")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature {self.temperature} outside [0, 2]")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0):
            raise ConfigError("request_timeout must be finite and positive")
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")

    def resolved_auth_token(self) -> str | None:
        return self.auth_token or env_auth_token()

    def to_manifest_dict(self) -> dict[str, Any]:
        """Manifest form of the config. Credentials never leave the process."""
        return {
            "backend": self.backend,
            "endpoint": redact_url(self.endpoint),
            "model_name": self.model_name,
            "temperature": self.temperature,
            "supports_function_calls": self.supports_function_calls,
            "request_timeout": self.request_timeout,
            "max_retries": self.max_retries,
            "retry_parse_errors": self.retry_parse_errors,
            "fixture_path": self.fixture_path,
            "max_concurrency": self.max_concurrency,
        }
