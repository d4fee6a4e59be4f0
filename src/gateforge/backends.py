"""Pluggable language-model backends.

The contract is a single completion call over role-tagged messages. Two
interchangeable implementations ship here: a scripted backend that replays
canned replies deterministically (the workhorse for tests and offline runs)
and an HTTP backend speaking the common chat-completion JSON shape with
bounded retries and credential redaction.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

API_KEY_ENV = "GATEFORGE_API_KEY"
# Longest wait honoured from a rate-limit reply's Retry-After header.
RETRY_AFTER_CAP_S = 60.0


@dataclass(frozen=True)
class ChatMessage:
    role: str      # system | user | assistant
    content: str


@dataclass(frozen=True)
class SamplingParams:
    temperature: float = 0.2
    max_tokens: int = 2048


class BackendError(RuntimeError):
    """Transport or protocol failure after retries."""


class ModelBackend:
    """Base contract: complete() returns the assistant reply text."""

    identity: str = "backend"

    def complete(self, messages: list[ChatMessage],
                 params: SamplingParams) -> str:
        raise NotImplementedError

    def start_sample(self, task_id: str, sample_index: int) -> None:
        """Hook called at the start of each independent task sample."""


@dataclass
class ScriptRule:
    """Replies served when `contains` occurs in the prompt text.

    Replies are consumed in order within one sample; after exhaustion the
    last reply repeats. A None `contains` matches everything.
    """

    replies: list[str]
    contains: str | None = None
    name: str = ""
    _cursor: int = field(default=0, repr=False)

    def matches(self, prompt: str) -> bool:
        return self.contains is None or self.contains in prompt

    def next_reply(self) -> str:
        if not self.replies:
            return ""
        i = min(self._cursor, len(self.replies) - 1)
        self._cursor += 1
        return self.replies[i]

    def reset(self) -> None:
        self._cursor = 0


class ScriptedBackend(ModelBackend):
    """Deterministic backend: first matching rule wins, cursors reset per
    sample. Identical scripts and prompts always produce identical replies.

    Cursor updates are atomic, but reply *progression* only makes sense for
    one task sample at a time; multi-worker benchmarks should key every
    rule on its task and give it a single (repeating) reply.
    """

    def __init__(self, rules: list[ScriptRule], identity: str = "scripted"):
        self.rules = rules
        self.identity = identity
        self.calls = 0
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rules = [ScriptRule(replies=list(r["replies"]),
                            contains=r.get("contains"),
                            name=r.get("name", ""))
                 for r in doc.get("rules", [])]
        if "default" in doc:
            rules.append(ScriptRule(replies=list(doc["default"]),
                                    contains=None, name="default"))
        return cls(rules, identity=doc.get("identity", "scripted"))

    def start_sample(self, task_id: str, sample_index: int) -> None:
        with self._lock:
            for r in self.rules:
                r.reset()

    def complete(self, messages: list[ChatMessage],
                 params: SamplingParams) -> str:
        prompt = "\n".join(m.content for m in messages)
        with self._lock:
            self.calls += 1
            for rule in self.rules:
                if rule.matches(prompt):
                    return rule.next_reply()
        return ""


class HttpChatBackend(ModelBackend):
    """Chat-completion JSON over HTTP(S) with bounded exponential backoff.

    Server errors, transport failures and HTTP 429 are retried; a 429's
    Retry-After in seconds replaces the backoff delay. Other 4xx replies
    fail at once.

    The request body carries the model identifier, the role-tagged message
    list, temperature and max output tokens. Credentials come from the
    GATEFORGE_API_KEY environment variable and never reach the logs.
    """

    def __init__(self, url: str, model: str, timeout: float = 60.0,
                 max_retries: int = 3, backoff_base: float = 0.5,
                 max_inflight: int = 4, api_key_env: str = API_KEY_ENV):
        self.url = url
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.api_key_env = api_key_env
        self.identity = f"http:{model}"
        # Concurrent task workers share one client; cap in-flight requests.
        self._inflight = threading.BoundedSemaphore(max_inflight)

    def complete(self, messages: list[ChatMessage],
                 params: SamplingParams) -> str:
        with self._inflight:
            return self._complete_once_with_retries(messages, params)

    def _complete_once_with_retries(self, messages: list[ChatMessage],
                                    params: SamplingParams) -> str:
        body = json.dumps({
            "model": self.model,
            "messages": [{"role": m.role, "content": m.content}
                         for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_tokens,
        }).encode()
        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        # Never log headers: they carry the bearer token.
        log.debug("request model=%s messages=%d url=%s auth=%s",
                  self.model, len(messages), self.url,
                  "redacted" if api_key else "none")

        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = (retry_after if retry_after is not None
                         else self.backoff_base * (2 ** (attempt - 1)))
                log.warning("backend retry %d/%d after %.2fs: %s",
                            attempt, self.max_retries, delay, last_error)
                time.sleep(delay)
            retry_after = None
            try:
                req = urllib.request.Request(self.url, data=body,
                                             headers=headers, method="POST")
                with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                    payload = json.loads(resp.read().decode("utf-8"))
                text = self._reply_text(payload)
                log.debug("response chars=%d", len(text))
                return text
            except urllib.error.HTTPError as exc:
                if exc.code == 429:
                    retry_after = _retry_after_seconds(exc)
                elif 400 <= exc.code < 500:
                    raise BackendError(
                        f"backend rejected the request: HTTP {exc.code}") from exc
                last_error = exc
            except (urllib.error.URLError, TimeoutError, OSError,
                    json.JSONDecodeError) as exc:
                last_error = exc
        raise BackendError(f"backend unreachable after "
                           f"{self.max_retries} retries: {last_error}")

    @staticmethod
    def _reply_text(payload: dict) -> str:
        try:
            return payload["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError("malformed backend response: "
                               "missing choices[0].message.content") from exc


def _retry_after_seconds(exc: urllib.error.HTTPError) -> float | None:
    """The delta-seconds form of Retry-After, capped; None for the
    HTTP-date form or no header, so the caller backs off as usual."""
    value = (exc.headers.get("Retry-After") or "").strip()
    if not (value.isascii() and value.isdigit()):
        return None
    return min(float(value), RETRY_AFTER_CAP_S)


def create_backend(selector: str, model: str | None = None) -> ModelBackend:
    """Build a backend from a CLI/config selector.

    Forms: "scripted:<path.json>" or an http(s) URL (model required).
    """
    if selector.startswith("scripted:"):
        return ScriptedBackend.from_file(selector[len("scripted:"):])
    if selector.startswith(("http://", "https://")):
        if not model:
            raise ValueError("http backends need a model identifier")
        return HttpChatBackend(selector, model)
    raise ValueError(f"unknown backend selector: {selector}")
