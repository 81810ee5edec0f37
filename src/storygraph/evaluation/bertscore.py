"""Token-embedding similarity scoring.

Given per-token embeddings for the expected and predicted token lists, the
score is greedy cosine matching, as in BERTScore (Zhang et al., ICLR 2020):
precision averages, over predicted tokens, the best similarity to any
expected token; recall mirrors that over expected tokens; F is their
harmonic mean.  Cosines are clipped to [0, 1].

The embedder is pluggable.  The bundled one-hot embedder makes the score a
pure lexical-overlap measure, deterministic and dependency-free: every cosine
is exactly 0.0 or 1.0, so precision is the share of predicted tokens found
among the expected tokens and recall the reverse share.  ``bertscore``
computes that closed form directly for one-hot embeddings, without calling
``embed`` or growing the vocabulary; the result is the same floats as the
cosine path.  Any other embedder, including a subclass that overrides
``embed``, goes through the cosine path: one ``embed`` call per score for
the distinct tokens of both sides, and standard-library math that adds
floats left to right.  Both paths return one ``(precision, recall, F)`` tuple.
"""

from __future__ import annotations

import json
import math
from operator import mul
from typing import Protocol, Sequence

from ..errors import EvaluationError, redact_url
from ..http import TransportError, post_json
from .metrics import Scores, f_measure, left_sum


class Embedder(Protocol):
    def embed(self, tokens: Sequence[str]) -> list[list[float]]:
        """One vector per token, all of one length: ``bertscore`` takes every
        vector of a score from one call, and ``HttpEmbedder`` enforces this."""
        ...


class OneHotEmbedder:
    """Grows a vocabulary across calls; identical tokens share an axis.

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
            vectors = [item["embedding"] for item in json.loads(raw)["data"]]
            _check_vectors(vectors, len(tokens))
        except (ValueError, LookupError, TypeError, OverflowError) as exc:
            raise EvaluationError(
                f"embeddings endpoint {redact_url(self.endpoint)} sent a malformed reply: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        return vectors


def _check_vectors(vectors: list, count: int) -> None:
    """Raise ValueError unless there are ``count`` lists of one non-zero length,
    holding only finite ints and floats (bools are not numbers here)."""
    if len(vectors) != count:
        raise ValueError(f"{len(vectors)} vectors for {count} tokens")
    for vec in vectors:
        if not isinstance(vec, list) or not vec or len(vec) != len(vectors[0]):
            raise ValueError("the vectors are not non-empty lists of one length")
        if not all(type(x) in (int, float) and math.isfinite(x) for x in vec):
            raise ValueError("a vector holds a value that is not a finite number")


def _unit(vec: list[float]) -> list[float]:
    """``vec`` scaled to length 1; a zero vector stays zero.

    Dividing by the largest magnitude first puts every component in
    [-1, 1], so the norm neither overflows nor underflows, and subnormal
    components keep their precision (divided by their own subnormal norm,
    they would not).
    """
    scale = max(map(abs, vec))
    if scale == 0:
        return vec
    scaled = [x / scale for x in vec]
    norm = math.hypot(*scaled)
    return [x / norm for x in scaled]


def _one_hot_score(
    expected_tokens: Sequence[str], predicted_tokens: Sequence[str]
) -> Scores:
    """Greedy one-hot cosine in closed form: exact-token membership shares.

    Each best match is 0.0 or 1.0, so the mean is a count over a length;
    the cosine path's left-to-right mean of such a row gives the same float.
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
    distinct = list(dict.fromkeys([*expected_tokens, *predicted_tokens]))
    unit = {t: _unit(v) for t, v in zip(distinct, embedder.embed(distinct), strict=True)}
    sim = [  # rows: predicted, columns: expected
        [min(max(left_sum(map(mul, unit[pred], unit[exp])), 0.0), 1.0) for exp in expected_tokens]
        for pred in predicted_tokens
    ]
    p = left_sum(map(max, sim)) / len(predicted_tokens)
    r = left_sum(map(max, zip(*sim))) / len(expected_tokens)
    return p, r, f_measure(p, r)
