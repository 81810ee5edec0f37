"""Extractor configuration."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

from ..errors import ConfigError, check_url, redact_url

KNOWN_BACKENDS = ("chat-http", "replay-fixture", "rule-based")


@dataclass
class ExtractorConfig:
    """Every extractor setting, with its one default.  ``extract`` has one
    flag per field, and the manifest records every field.  The bearer token
    is no setting: ``http.bearer_headers`` reads it from ``LLM_API_KEY``."""

    backend: str = "rule-based"
    endpoint: str = ""
    model_name: str = ""
    temperature: float = 0.0
    supports_function_calls: bool = False
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
            check_url(self.endpoint, ConfigError, "chat-http endpoint")
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

    def to_manifest_dict(self) -> dict[str, Any]:
        """Manifest form of the config: every field, the endpoint without
        its user and password."""
        return asdict(self) | {"endpoint": redact_url(self.endpoint)}
