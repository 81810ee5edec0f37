"""Token-embedding similarity scoring.

Given per-token embeddings for the expected and predicted token lists, the
score is greedy cosine matching: precision averages, over predicted tokens,
the best similarity to any expected token; recall mirrors that over
expected tokens; F is their harmonic mean.

The embedder is pluggable.  The bundled one-hot embedder makes the score a
pure lexical-overlap measure, deterministic and dependency-free: every cosine
is exactly 0.0 or 1.0, so precision is the share of predicted tokens found
among the expected tokens and recall the reverse share.  ``bertscore``
computes that closed form directly for one-hot embeddings, without calling
``embed`` or growing the vocabulary; the result is the same floats as the
cosine path.  Any other embedder, including a subclass that overrides
``embed``, goes through the numpy cosine path, so an HTTP embedder can swap
in contextual vectors without touching the math.  Both paths return one
``(precision, recall, F)`` tuple.
"""

from __future__ import annotations

import json
import logging
from typing import TYPE_CHECKING, Protocol, Sequence

from ..errors import EvaluationError, redact_url
from ..http import TransportError, post_json
from .metrics import Scores, f_measure

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)


class Embedder(Protocol):
    def embed(self, tokens: Sequence[str]) -> list[list[float]]:
        """One vector per token, all of equal dimension within one call."""
        ...


class OneHotEmbedder:
    """Grows a vocabulary across calls; identical tokens share an axis.

    Vectors from different calls may differ in length as the vocabulary
    grows; the cosine path zero-pads, which leaves cosines unchanged.
    ``bertscore`` scores this embedder in closed form and never calls
    ``embed`` or grows ``vocab`` for it; both stay for direct callers.
    """

    def __init__(self) -> None:
        self.vocab: dict[str, int] = {}

    def embed(self, tokens: Sequence[str]) -> list[list[float]]:
        for token in tokens:
            if token not in self.vocab:
                self.vocab[token] = len(self.vocab)
        dim = len(self.vocab)
        vectors = []
        for token in tokens:
            vec = [0.0] * dim
            vec[self.vocab[token]] = 1.0
            vectors.append(vec)
        return vectors


class HttpEmbedder:
    """Fetches embeddings from an embeddings API endpoint."""

    def __init__(
        self,
        endpoint: str,
        model_name: str = "",
        auth_token: str | None = None,
        request_timeout: float = 60.0,
    ):
        self.endpoint = endpoint
        self.model_name = model_name
        self.auth_token = auth_token
        self.request_timeout = request_timeout

    def embed(self, tokens: Sequence[str]) -> list[list[float]]:
        headers = {}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        body = {"model": self.model_name, "input": list(tokens)}
        try:
            status, raw = post_json(self.endpoint, body, headers, self.request_timeout)
        except TransportError as exc:
            raise EvaluationError(
                f"cannot reach embeddings endpoint {redact_url(self.endpoint)}: {exc}"
            ) from exc
        if status != 200:
            raise EvaluationError(
                f"embeddings endpoint {redact_url(self.endpoint)} returned status {status}"
            )
        try:
            return [item["embedding"] for item in json.loads(raw)["data"]]
        except (ValueError, LookupError, TypeError) as exc:
            raise EvaluationError(
                f"embeddings endpoint {redact_url(self.endpoint)} sent a malformed reply: "
                f"{type(exc).__name__}: {exc}"
            ) from exc


def _unit_rows(vectors: list[list[float]], dim: int) -> np.ndarray:
    import numpy as np

    matrix = np.zeros((len(vectors), dim))
    for i, vec in enumerate(vectors):
        matrix[i, : len(vec)] = vec
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return matrix / norms


def _one_hot_score(
    expected_tokens: Sequence[str], predicted_tokens: Sequence[str]
) -> Scores:
    """Greedy one-hot cosine in closed form: exact-token membership shares.

    Each best match is 0.0 or 1.0, so the mean is a count over a length;
    numpy's mean of such a row gives the same float.
    """
    expected_set = set(expected_tokens)
    predicted_set = set(predicted_tokens)
    p = sum(t in expected_set for t in predicted_tokens) / len(predicted_tokens)
    r = sum(t in predicted_set for t in expected_tokens) / len(expected_tokens)
    return p, r, f_measure(p, r)


def bertscore(
    expected_tokens: Sequence[str],
    predicted_tokens: Sequence[str],
    embedder: Embedder,
) -> Scores:
    """Greedy-cosine token similarity between two token lists."""
    if not expected_tokens or not predicted_tokens:
        raise EvaluationError("token similarity is undefined for empty token lists")
    if getattr(type(embedder), "embed", None) is OneHotEmbedder.embed:
        return _one_hot_score(expected_tokens, predicted_tokens)
    import numpy as np

    expected_vecs = embedder.embed(expected_tokens)
    predicted_vecs = embedder.embed(predicted_tokens)
    dim = max(
        max(len(v) for v in expected_vecs),
        max(len(v) for v in predicted_vecs),
    )
    expected_m = _unit_rows(expected_vecs, dim)
    predicted_m = _unit_rows(predicted_vecs, dim)

    sim = predicted_m @ expected_m.T  # rows: predicted, cols: expected
    sim = np.clip(sim, 0.0, 1.0)
    p = float(sim.max(axis=1).mean())
    r = float(sim.max(axis=0).mean())
    return p, r, f_measure(p, r)
