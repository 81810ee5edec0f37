"""One JSON POST over the standard library, shared by every HTTP caller.

Each call opens its own connection and closes it after the reply.
Proxies come from the ``*_proxy`` and ``no_proxy`` environment variables,
and https checks certificates against the system trust store.
"""

from __future__ import annotations

import functools
import json
import os

from .errors import check_url, redact_url


class TransportError(Exception):
    """The request got no HTTP status: no connection, a timeout, a reply
    cut short or a bad URL.  The message names the cause, never the URL's
    credentials."""


def bearer_headers() -> dict[str, str]:
    """The Authorization header for the token in ``LLM_API_KEY``, read at
    each call; no header when the variable is unset or empty.  The token is
    never written or logged."""
    token = os.environ.get("LLM_API_KEY")
    return {"Authorization": f"Bearer {token}"} if token else {}


@functools.cache
def _opener(scheme: str):
    """One opener per scheme, built on first use.

    It follows no redirect: urllib would copy the Authorization header to
    any host a 3xx names, even over plain http.  A 3xx comes back as its
    status.  All https requests share one TLS context, so the trust store
    (about 50 ms to load) is read once per process, and never by http runs.
    """
    # Imported here: urllib.request costs about 50 ms, and offline runs
    # never send a request.
    from urllib.request import HTTPRedirectHandler, HTTPSHandler, build_opener

    class RefuseRedirects(HTTPRedirectHandler):
        def redirect_request(self, *args, **kwargs):
            return None

    handlers = [RefuseRedirects()]
    if scheme == "https":
        import ssl

        handlers.append(HTTPSHandler(context=ssl.create_default_context()))
    return build_opener(*handlers)


def post_json(url: str, body, headers: dict[str, str], timeout: float) -> tuple[int, bytes]:
    """POST ``body`` as JSON; returns the status and the raw reply body.

    A non-2xx status is returned, not raised.  Any ``user:password@`` in
    ``url`` is dropped before sending, so credentials go only in headers.
    """
    from http.client import HTTPException
    from urllib.error import HTTPError
    from urllib.request import Request

    scheme = check_url(url, TransportError, "request URL")
    try:
        request = Request(
            redact_url(url),
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json", **headers},
        )
        try:
            with _opener(scheme).open(request, timeout=timeout) as response:
                return response.status, response.read()
        except HTTPError as exc:
            with exc:
                return exc.code, exc.read()
    except (OSError, HTTPException, ValueError) as exc:
        # URLError wraps the socket error that says what went wrong.
        reason = getattr(exc, "reason", None)
        cause = reason if isinstance(reason, Exception) else exc
        raise TransportError(f"{type(cause).__name__}: {cause}") from exc
