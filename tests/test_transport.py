import json
import math
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from gesturelink import transport
from gesturelink.errors import AuthError, FixtureExhausted, MalformedInput, TransportError
from gesturelink.transport import (
    BackendConfig,
    ChatMessage,
    CompletionRequest,
    LiveBackend,
    RetryingBackend,
    ScriptedBackend,
    UsageRecord,
    approx_tokens,
    backend_factory,
)


def req(*contents):
    return CompletionRequest(messages=tuple(ChatMessage("user", c) for c in contents))


# --- message / request validation ----------------------------------------------

def test_chat_message_rejects_empty_user_content():
    with pytest.raises(MalformedInput):
        ChatMessage("user", "")
    ChatMessage("assistant", "")  # assistants may reply empty


def test_chat_message_rejects_unknown_role():
    with pytest.raises(MalformedInput):
        ChatMessage("tool", "hi")


def test_request_needs_messages_and_sane_temperature():
    with pytest.raises(MalformedInput):
        CompletionRequest(messages=())


def test_usage_record_rejects_negative_counts():
    with pytest.raises(MalformedInput):
        UsageRecord(input_tokens=-1, output_tokens=0)


# --- scripted backend ------------------------------------------------------------

def test_sequence_fixtures_returned_in_order():
    backend = ScriptedBackend(
        [{"match": "sequence", "response": "one"}, {"match": "sequence", "response": "two"}]
    )
    assert backend.complete(req("a"))[0] == "one"
    assert backend.complete(req("b"))[0] == "two"


def test_third_call_on_two_fixtures_exhausts():
    backend = ScriptedBackend([{"response": "one"}, {"response": "two"}])
    backend.complete(req("a"))
    backend.complete(req("b"))
    with pytest.raises(FixtureExhausted):
        backend.complete(req("c"))


def test_sequence_fixtures_hash_only_for_the_exhausted_message(monkeypatch):
    hashed = []
    monkeypatch.setattr(
        transport, "message_hash", lambda messages: hashed.append(messages) or "feedface"
    )
    backend = ScriptedBackend([{"response": "one"}])
    backend.complete(req("a"))
    assert hashed == []
    with pytest.raises(FixtureExhausted, match="hash feedface"):
        backend.complete(req("b"))
    assert len(hashed) == 1


def test_scripted_usage_is_approximate_and_zero_latency():
    backend = ScriptedBackend([{"response": "abcdefgh"}])
    text, usage = backend.complete(req("12345678", "12"))
    assert usage.input_tokens == approx_tokens("12345678") + approx_tokens("12")
    assert usage.input_tokens == math.ceil(8 / 4) + math.ceil(2 / 4)
    assert usage.output_tokens == math.ceil(len(text) / 4)
    assert usage.latency == 0.0


def test_scripted_backend_is_pure(tmp_path):
    fixtures = [{"match": "sequence", "response": "r1"}, {"match": "sequence", "response": "r2"}]
    path = tmp_path / "fx.json"
    path.write_text(json.dumps(fixtures))
    runs = []
    for _ in range(2):
        backend = ScriptedBackend.from_file(str(path))
        runs.append([backend.complete(req("a")), backend.complete(req("b"))])
    assert runs[0] == runs[1]


def test_bad_fixture_file_rejected(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text("{}")
    with pytest.raises(MalformedInput):
        ScriptedBackend.from_file(str(path))


# --- live backend ------------------------------------------------------------------

def test_live_backend_auth_error_before_any_network(monkeypatch):
    monkeypatch.delenv("GESTURELINK_TEST_KEY", raising=False)
    backend = LiveBackend(
        BackendConfig(provider_url="http://127.0.0.1:1/never", api_key_env="GESTURELINK_TEST_KEY")
    )
    with pytest.raises(AuthError):
        backend.complete(req("hello"))


def ok_body(content="hi", usage=None):
    return json.dumps(
        {"choices": [{"message": {"content": content}}], "usage": usage or {}}
    ).encode()


class Loopback:
    """HTTP server on 127.0.0.1, served from one thread. Each POST gets the
    next scripted (status, body, delay[, headers]) reply; requests are
    recorded."""

    def __init__(self):
        self.replies: list[tuple] = []
        self.requests: list[tuple[dict, dict]] = []
        loop = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                loop.requests.append((dict(self.headers), json.loads(body)))
                status, reply, delay, *headers = loop.replies.pop(0)
                time.sleep(delay)
                try:
                    self.send_response(status)
                    for name, value in (headers[0] if headers else {}).items():
                        self.send_header(name, value)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(reply)))
                    self.end_headers()
                    self.wfile.write(reply)
                except OSError:
                    pass  # the client timed out and hung up

            def log_message(self, *args):
                pass

        self.server = HTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, args=(0.05,), daemon=True
        )
        self.thread.start()

    def backend(self, timeout=5.0):
        return LiveBackend(
            BackendConfig(
                provider_url=f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions",
                model_id="loop-model",
                timeout=timeout,
                api_key_env="GESTURELINK_TEST_KEY",
            )
        )

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    monkeypatch.setenv("GESTURELINK_TEST_KEY", "secret")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    server = Loopback()
    yield server
    server.close()


def test_live_backend_success_over_loopback(loopback):
    loopback.replies.append(
        (200, ok_body("hello", {"prompt_tokens": 12, "completion_tokens": 3}), 0.0)
    )
    text, usage = loopback.backend().complete(req("a", "b"))
    assert text == "hello"
    assert (usage.input_tokens, usage.output_tokens) == (12, 3)
    assert usage.latency >= 0
    headers, body = loopback.requests[0]
    assert headers["Authorization"] == "Bearer secret"
    assert body["model"] == "loop-model"
    assert body["temperature"] == 0
    assert body["messages"] == [
        {"role": "user", "content": "a"}, {"role": "user", "content": "b"}
    ]


@pytest.mark.parametrize(
    "status, error", [(429, TransportError), (401, AuthError), (403, AuthError), (500, TransportError)]
)
def test_live_backend_maps_http_errors(loopback, status, error):
    loopback.replies.append((status, b'{"error": "nope"}', 0.0))
    with pytest.raises(TransportError) as exc:
        loopback.backend().complete(req("x"))
    assert type(exc.value) is error
    prefix = {429: "rate limited", 500: "HTTP 500"}.get(status, "credentials rejected")
    assert str(exc.value).startswith(f"{prefix}: ") and "nope" in str(exc.value)


@pytest.mark.parametrize(
    "body",
    [b"<html>bad gateway</html>", ok_body(None), b'{"choices": []}', b"[1, 2]",
     ok_body(usage=[1]),
     b'{"choices": [{"message": {"content": "hi"}}], "usage": {"prompt_tokens": 1e999}}',
     ok_body(usage={"completion_tokens": -3})],
    ids=["not-json", "null-content", "no-choices", "not-object", "list-usage",
         "infinite-usage", "negative-usage"],
)
def test_live_backend_bad_200_body_is_transport_error(loopback, body):
    loopback.replies.append((200, body, 0.0))
    with pytest.raises(TransportError, match="unexpected response shape"):
        loopback.backend().complete(req("x"))


def test_live_backend_timeout_is_transport_error(loopback):
    loopback.replies.append((200, ok_body(), 1.0))
    with pytest.raises(TransportError, match="request failed"):
        loopback.backend(timeout=0.2).complete(req("x"))


def test_retrying_live_backend_recovers_from_500(loopback):
    loopback.replies += [(500, b"busy", 0.0), (200, ok_body("second"), 0.0)]
    sleeps = []
    backend = RetryingBackend(loopback.backend(), seed=1, sleep=sleeps.append)
    assert backend.complete(req("x"))[0] == "second"
    assert len(sleeps) == 1
    assert len(loopback.requests) == 2


@pytest.mark.parametrize(
    "status, retry_after, slept",
    [(429, "2", 2.0), (503, "120", 30.0), (429, "soon", random.Random(1).uniform(0, 0.5))],
    ids=["429-honoured", "503-capped-at-max-delay", "unparseable-falls-back-to-jitter"],
)
def test_retrying_live_backend_sleeps_for_retry_after(loopback, status, retry_after, slept):
    loopback.replies += [
        (status, b"busy", 0.0, {"Retry-After": retry_after}), (200, ok_body("second"), 0.0)
    ]
    sleeps = []
    assert (transport.BASE_DELAY, transport.MAX_DELAY) == (0.5, 30.0)
    backend = RetryingBackend(loopback.backend(), seed=1, sleep=sleeps.append)
    assert backend.complete(req("x"))[0] == "second"
    assert sleeps == [slept]


def test_backend_config_from_file(tmp_path):
    path = tmp_path / "backend.json"
    path.write_text(json.dumps({"model_id": "local-model", "timeout": 5}))
    cfg = BackendConfig.from_file(str(path))
    assert cfg.model_id == "local-model"
    assert cfg.timeout == 5.0
    assert cfg.api_key_env == "OPENAI_API_KEY"


# --- retry wrapper -----------------------------------------------------------------

class FlakyBackend:
    def __init__(self, failures, error=TransportError("rate limited: slow down")):
        self.failures = failures
        self.error = error
        self.calls = 0

    def complete(self, request):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error
        return "ok", UsageRecord(1, 1, 0.0)


def test_retry_succeeds_after_transient_failures():
    sleeps = []
    inner = FlakyBackend(failures=2)
    backend = RetryingBackend(inner, seed=7, sleep=sleeps.append)
    text, _ = backend.complete(req("x"))
    assert text == "ok"
    assert inner.calls == 3
    assert len(sleeps) == 2
    assert all(s >= 0 for s in sleeps)


def test_retry_gives_up_after_budget():
    inner = FlakyBackend(failures=5)
    sleeps = []
    backend = RetryingBackend(inner, sleep=sleeps.append)
    with pytest.raises(TransportError, match="rate limited: slow down"):
        backend.complete(req("x"))
    assert inner.calls == transport.MAX_ATTEMPTS == 3
    assert len(sleeps) == 2  # none after the last attempt


def test_auth_error_never_retried():
    inner = FlakyBackend(failures=5, error=AuthError("bad key"))
    backend = RetryingBackend(inner, sleep=lambda s: None)
    with pytest.raises(AuthError):
        backend.complete(req("x"))
    assert inner.calls == 1


def test_deterministic_backend_never_retried():
    scripted = ScriptedBackend([])  # any call would exhaust
    backend = RetryingBackend(scripted, sleep=lambda s: None)
    with pytest.raises(FixtureExhausted):
        backend.complete(req("x"))
    assert scripted.calls == 1


def test_load_backend_scripted_spec(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([{"response": "hi"}]))
    backend = backend_factory(f"scripted:{path}")()
    assert backend.complete(req("x"))[0] == "hi"


def test_backend_factory_reads_the_fixture_file_once_and_replays_it_afresh(tmp_path):
    path = tmp_path / "fx.json"
    path.write_text(json.dumps([{"response": "hi"}, {"response": "again"}]))
    new_backend = backend_factory(f"scripted:{path}")
    path.unlink()
    first = new_backend()
    assert [first.complete(req("x"))[0] for _ in range(2)] == ["hi", "again"]
    second = new_backend()
    assert (second.calls, second.complete(req("y"))[0], first.calls) == (0, "hi", 2)
    with pytest.raises(FixtureExhausted):
        first.complete(req("z"))


def test_backend_factory_builds_each_live_backend_with_a_fresh_jitter(tmp_path):
    path = tmp_path / "backend.json"
    path.write_text(json.dumps({"model_id": "local-model"}))
    new_backend = backend_factory(str(path), seed=5)
    path.unlink()
    backends = [new_backend(), new_backend()]
    assert backends[0] is not backends[1] and backends[0]._rng is not backends[1]._rng
    for backend in backends:
        assert backend.inner.config.model_id == "local-model"
        assert backend._rng.getstate() == random.Random(5).getstate()


def test_load_backend_live_spec_retries_with_the_default_policy(tmp_path):
    path = tmp_path / "backend.json"
    path.write_text(json.dumps({"model_id": "local-model"}))
    backend = backend_factory(str(path), seed=5)()
    assert isinstance(backend, RetryingBackend)
    assert isinstance(backend.inner, LiveBackend)
    assert backend.inner.config.model_id == "local-model"
    assert backend._rng.getstate() == random.Random(5).getstate()  # the jitter's seed
