"""The shared HTTP client, seen through its three callers: chat extraction,
the embeddings endpoint and the Neo4j sink."""

from __future__ import annotations

import ssl

import pytest

from conftest import SAMPLE_BACKLOG, SYNC_TEXT, CutShort, Redirect, StubHttpServer
from storygraph import http
from storygraph.corpus import load_backlog
from storygraph.errors import BackendError, EvaluationError, SinkError, redact_url
from storygraph.evaluation import HttpEmbedder
from storygraph.extraction import ExtractorConfig, make_backend
from storygraph.sink import SinkConfig, store
from storygraph.transform import story_document

DOC = story_document(load_backlog(SAMPLE_BACKLOG).stories[0])


@pytest.fixture(autouse=True)
def bearer_token(monkeypatch):
    """The chat and embeddings callers send a bearer token."""
    monkeypatch.setenv("LLM_API_KEY", "t0ken")


def chat(url: str):
    config = ExtractorConfig(
        backend="chat-http", endpoint=f"{url}/v1/chat/completions", model_name="m",
        request_timeout=2.0, max_retries=1,
    )
    return make_backend(config).run_benefit(SYNC_TEXT)


def embeddings(url: str):
    return HttpEmbedder(f"{url}/v1/embeddings", request_timeout=2.0).embed(["a"])


def neo4j(url: str):
    return store(SinkConfig(uri=url, user="u", password="p", request_timeout=2.0), [DOC])


CALLERS = {"chat": (chat, BackendError), "embeddings": (embeddings, EvaluationError),
           "neo4j": (neo4j, SinkError)}


def with_userinfo(url: str) -> str:
    return url.replace("http://", "http://bob:s3cret@")


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("failure", ["cut-short", "refused", "bad-port"])
def test_request_without_a_status_is_the_callers_error(stub_server, caller, failure):
    call, error = CALLERS[caller]
    url = {
        "cut-short": stub_server.url,
        "refused": "http://127.0.0.1:9",
        "bad-port": "http://127.0.0.1:notaport",
    }[failure]
    stub_server.behaviors.extend([(200, CutShort(b'{"choices": []}'))] * 2)
    with pytest.raises(error) as info:
        call(with_userinfo(url))
    assert "s3cret" not in str(info.value)
    if failure == "cut-short":
        assert "IncompleteRead" in str(info.value)


@pytest.mark.parametrize("caller", CALLERS)
def test_userinfo_never_reaches_the_request(stub_server, caller):
    stub_server.behaviors.append((400, {}))
    with pytest.raises(CALLERS[caller][1], match="status 400"):
        CALLERS[caller][0](with_userinfo(stub_server.url))
    (head,) = stub_server.heads
    assert head.startswith("POST /")
    assert "bob" not in head and "s3cret" not in head


@pytest.mark.parametrize("caller", CALLERS)
def test_only_the_chat_backend_retries_a_503(stub_server, caller):
    call, error = CALLERS[caller]
    stub_server.behaviors.append((503, {}))
    if caller == "chat":
        assert call(stub_server.url) == "[]"
        assert len(stub_server.requests) == 2
    else:
        with pytest.raises(error, match="status 503"):
            call(stub_server.url)
        assert len(stub_server.requests) == 1


def test_sink_credentials_sent_as_latin1_basic_auth(stub_server):
    stub_server.behaviors.append((200, {"results": [], "errors": []}))
    store(SinkConfig(uri=stub_server.url, user="jörg", password="p"), [DOC])
    # base64(b"j\xf6rg:p"), as requests encoded it.
    assert stub_server.auth_headers == ["Basic avZyZzpw"]
    with pytest.raises(SinkError, match="latin-1"):
        store(SinkConfig(uri=stub_server.url, user="ユーザー"), [DOC])


@pytest.fixture()
def other_server():
    server = StubHttpServer()
    yield server
    server.close()


@pytest.mark.parametrize("caller", CALLERS)
@pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
def test_redirect_is_the_callers_error_and_never_followed(
    stub_server, other_server, caller, code
):
    call, error = CALLERS[caller]
    stub_server.behaviors.append((code, Redirect(f"{other_server.url}/elsewhere")))
    with pytest.raises(error, match=f"status {code}"):
        call(stub_server.url)
    assert stub_server.auth_headers[0].split()[0] in ("Bearer", "Basic")
    # The credentials never reach the host the redirect names.
    assert other_server.heads == []


@pytest.fixture()
def tls_contexts(monkeypatch):
    """Counts the TLS contexts made, starting from unbuilt openers."""
    made = []

    def counting():
        made.append(context := real())
        return context

    real = ssl.create_default_context
    monkeypatch.setattr(ssl, "create_default_context", counting)
    http._opener.cache_clear()
    yield made
    http._opener.cache_clear()


def test_https_requests_share_one_tls_context(stub_server, tls_contexts):
    # The stub speaks plain http, so every handshake fails.
    url = stub_server.url.replace("http://", "https://")
    for _ in range(3):
        with pytest.raises(BackendError, match="SSL"):
            chat(url)
    assert len(tls_contexts) == 1
    assert tls_contexts[0].verify_mode == ssl.CERT_REQUIRED


def test_http_requests_load_no_trust_store(stub_server, tls_contexts):
    chat(stub_server.url)
    embeddings_reply = {"data": [{"embedding": [1.0]}]}
    stub_server.behaviors.append((200, embeddings_reply))
    assert embeddings(stub_server.url) == [[1.0]]
    assert tls_contexts == []


def test_redact_url_never_raises():
    """Error messages call it, also on a URL that ``urlsplit`` refuses."""
    assert redact_url("http://user:pw@host:7474/db") == "http://host:7474/db"
    assert redact_url("http://[::1") == "<invalid URL>"
