import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from gateforge.backends import (
    BackendError,
    ChatMessage,
    SamplingParams,
    ScriptRule,
    ScriptedBackend,
    create_backend,
    HttpChatBackend,
)

PARAMS = SamplingParams(temperature=0.0, max_tokens=64)


def msg(text):
    return [ChatMessage("user", text)]


def test_scripted_rules_match_in_order():
    backend = ScriptedBackend([
        ScriptRule(replies=["adder reply"], contains="adder"),
        ScriptRule(replies=["fallback"], contains=None),
    ])
    assert backend.complete(msg("please build an adder"), PARAMS) == "adder reply"
    assert backend.complete(msg("something else"), PARAMS) == "fallback"


def test_scripted_replies_advance_and_repeat_last():
    backend = ScriptedBackend([ScriptRule(replies=["first", "second"])])
    out = [backend.complete(msg("x"), PARAMS) for _ in range(3)]
    assert out == ["first", "second", "second"]


def test_scripted_cursors_reset_per_sample():
    backend = ScriptedBackend([ScriptRule(replies=["first", "second"])])
    backend.complete(msg("x"), PARAMS)
    backend.start_sample("task", 1)
    assert backend.complete(msg("x"), PARAMS) == "first"


def test_scripted_cursors_are_per_thread():
    # Sample B runs on another thread while sample A is half way through
    # its replies; neither rewinds nor advances the other.
    backend = ScriptedBackend([ScriptRule(replies=["one", "two", "three"])])
    seen = {}

    def sample_b():
        backend.start_sample("task", 1)
        seen["b"] = [backend.complete(msg("x"), PARAMS) for _ in range(2)]

    backend.start_sample("task", 0)
    seen["a"] = [backend.complete(msg("x"), PARAMS)]
    worker = threading.Thread(target=sample_b)
    worker.start()
    worker.join()
    seen["a"].append(backend.complete(msg("x"), PARAMS))
    assert seen == {"a": ["one", "two"], "b": ["one", "two"]}


def test_scripted_from_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({
        "rules": [{"contains": "Task: fa", "replies": ["netlist here"]}],
        "default": ["garbage"],
    }))
    backend = create_backend(f"scripted:{path}")
    assert backend.complete(msg("Task: fa please"), PARAMS) == "netlist here"
    assert backend.complete(msg("unknown"), PARAMS) == "garbage"


class _StubHandler(BaseHTTPRequestHandler):
    fail_first = 0
    requests = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests.append((dict(self.headers), body))
        if type(self).fail_first > 0:
            type(self).fail_first -= 1
            self.send_response(503)
            self.end_headers()
            return
        reply = {"choices": [{"message": {
            "content": f"echo:{body['messages'][-1]['content']}"}}]}
        data = json.dumps(reply).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    _StubHandler.fail_first = 0
    _StubHandler.requests = []
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions"
    server.shutdown()


def test_http_backend_round_trip(stub_server, monkeypatch):
    monkeypatch.setenv("GATEFORGE_API_KEY", "sk-secret")
    backend = HttpChatBackend(stub_server, model="test-model")
    out = backend.complete(msg("hello"), PARAMS)
    assert out == "echo:hello"
    headers, body = _StubHandler.requests[-1]
    assert headers["Authorization"] == "Bearer sk-secret"
    assert body["model"] == "test-model"
    assert body["temperature"] == 0.0
    assert body["max_tokens"] == 64
    assert body["messages"][0]["role"] == "user"


def test_http_backend_retries_transient_errors(stub_server):
    _StubHandler.fail_first = 2
    backend = HttpChatBackend(stub_server, model="m", backoff_base=0.01)
    assert backend.complete(msg("again"), PARAMS) == "echo:again"
    assert len(_StubHandler.requests) == 3


def test_http_backend_gives_up_after_bounded_retries(stub_server):
    _StubHandler.fail_first = 10
    backend = HttpChatBackend(stub_server, model="m", max_retries=2,
                              backoff_base=0.01)
    with pytest.raises(BackendError, match="unreachable"):
        backend.complete(msg("x"), PARAMS)
    assert len(_StubHandler.requests) == 3  # initial try + 2 retries


def test_http_backend_unreachable_host():
    backend = HttpChatBackend("http://127.0.0.1:9/nope", model="m",
                              max_retries=1, backoff_base=0.01)
    with pytest.raises(BackendError):
        backend.complete(msg("x"), PARAMS)


def test_http_backend_logs_never_leak_the_key(stub_server, monkeypatch,
                                              caplog):
    import logging

    monkeypatch.setenv("GATEFORGE_API_KEY", "sk-very-secret-token")
    backend = HttpChatBackend(stub_server, model="m")
    with caplog.at_level(logging.DEBUG, logger="gateforge.backends"):
        backend.complete(msg("hello"), PARAMS)
    assert caplog.records  # request/response lines were emitted
    assert "sk-very-secret-token" not in caplog.text


def test_create_backend_selectors(tmp_path):
    with pytest.raises(ValueError, match="model"):
        create_backend("http://example.invalid/v1")
    with pytest.raises(ValueError, match="unknown backend"):
        create_backend("carrier-pigeon:coop")
    backend = create_backend("http://example.invalid/v1", model="m")
    assert backend.identity == "http:m"


class _FakeReply:
    def __init__(self, payload):
        self._data = json.dumps(payload).encode()

    def read(self):
        return self._data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


@pytest.fixture
def fake_http(monkeypatch):
    """urlopen replays the queued replies: an int is an HTTP error with
    that status (a (status, headers) pair sets headers), anything else a
    200 with that text. Sleeps are recorded, not taken."""
    import time
    import urllib.error
    import urllib.request
    from email.message import Message

    queue, sleeps = [], []

    def urlopen(req, timeout):
        reply = queue.pop(0)
        if isinstance(reply, (int, tuple)):
            status, headers = reply if isinstance(reply, tuple) else (reply, {})
            hdrs = Message()
            for k, v in headers.items():
                hdrs[k] = v
            raise urllib.error.HTTPError(req.full_url, status, "status", hdrs,
                                         None)
        return _FakeReply({"choices": [{"message": {"content": reply}}]})

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    monkeypatch.setattr(time, "sleep", sleeps.append)
    return queue, sleeps


def test_http_429_is_retried(fake_http):
    queue, sleeps = fake_http
    queue.extend([429, "ok"])
    backend = HttpChatBackend("http://stub.invalid/v1", model="m",
                              backoff_base=0.5)
    assert backend.complete(msg("x"), PARAMS) == "ok"
    assert sleeps == [0.5]
    assert queue == []


def test_http_429_retry_after_sets_the_delay(fake_http):
    queue, sleeps = fake_http
    queue.extend([(429, {"Retry-After": "2"}), (429, {"Retry-After": "600"}),
                  "ok"])
    backend = HttpChatBackend("http://stub.invalid/v1", model="m",
                              backoff_base=0.5)
    assert backend.complete(msg("x"), PARAMS) == "ok"
    assert sleeps == [2.0, 60.0]


@pytest.mark.parametrize("payload,field", [
    ({"choices": [{"message": {"content": 5}}]},
     "reply.choices[0].message.content: must be a string or null"),
    ({"choices": [{"message": {}}]},
     "reply.choices[0].message.content: must be a string or null"),
    ({"choices": [{"message": ["hi"]}]},
     "reply.choices[0].message: must be an object"),
    ({"choices": []}, "reply.choices: must be a non-empty list of objects"),
    ({"choices": ["hi"]}, "reply.choices: must be a non-empty list of objects"),
    ({}, "reply.choices: must be a non-empty list of objects"),
    (["hi"], "reply: must be an object"),
], ids=["content-integer", "content-missing", "message-list", "choices-empty",
        "choice-string", "choices-missing", "reply-list"])
def test_a_malformed_reply_fails_at_once(fake_http, monkeypatch, payload,
                                         field):
    import urllib.request

    calls = []

    def urlopen(req, timeout):
        calls.append(req)
        return _FakeReply(payload)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    backend = HttpChatBackend("http://stub.invalid/v1", model="m")
    with pytest.raises(BackendError) as exc:
        backend.complete(msg("x"), PARAMS)
    assert str(exc.value) == f"malformed backend response: {field}"
    assert len(calls) == 1 and fake_http[1] == []   # no retry, no sleep
    # A null content is an empty reply.
    assert HttpChatBackend._reply_text(
        {"choices": [{"message": {"content": None}}]}) == ""


def test_http_400_still_fails_at_once(fake_http):
    queue, sleeps = fake_http
    queue.extend([400, "ok"])
    backend = HttpChatBackend("http://stub.invalid/v1", model="m")
    with pytest.raises(BackendError, match="HTTP 400"):
        backend.complete(msg("x"), PARAMS)
    assert sleeps == []
    assert queue == ["ok"]
