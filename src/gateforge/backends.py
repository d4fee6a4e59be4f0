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
from collections.abc import Sequence
from dataclasses import dataclass

from .jsonfields import FieldError, is_json, take

log = logging.getLogger(__name__)

API_KEY_ENV = "GATEFORGE_API_KEY"
# Longest wait honoured from a rate-limit reply's Retry-After header.
RETRY_AFTER_CAP_S = 60.0
# Most requests one HttpChatBackend has in flight; samples on worker threads
# share one client.
MAX_INFLIGHT = 4


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
        """Hook called as each task sample starts, on the sample's thread."""


@dataclass(frozen=True)
class ScriptRule:
    """Replies served when `contains` occurs in the prompt text.

    Replies are served in order within one sample; after exhaustion the
    last reply repeats. A None `contains` matches everything.
    """

    replies: Sequence[str]
    contains: str | None = None
    name: str = ""

    def matches(self, prompt: str) -> bool:
        return self.contains is None or self.contains in prompt


class _Cursors(threading.local):
    """Replies served so far per rule index, on the current thread."""

    def __init__(self) -> None:
        self.served: dict[int, int] = {}


class ScriptedBackend(ModelBackend):
    """Deterministic backend: first matching rule wins, cursors reset per
    sample. Identical scripts and prompts always produce identical replies.
    Cursors are per thread, and a thread runs one sample at a time.
    """

    def __init__(self, rules: list[ScriptRule], identity: str = "scripted"):
        self.rules = rules
        self.identity = identity
        self._cursors = _Cursors()

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not is_json(doc, dict):
            raise ValueError(f"script {path} must hold a JSON object")
        try:
            rules = []
            for i, r in enumerate(take(doc, "rules", "", list[dict],
                                       default=[])):
                at = f"rules[{i}]"
                rules.append(ScriptRule(
                    replies=tuple(take(r, "replies", at, list[str],
                                       need="list of strings")),
                    contains=take(r, "contains", at, str, None, default=None,
                                  need="string or null"),
                    name=take(r, "name", at, str, default="", need="string")))
            default = take(doc, "default", "", list[str], default=None)
            identity = take(doc, "identity", "", str, default="scripted")
        except FieldError as exc:
            raise ValueError(f"script {path}: " + (
                f"{exc.where} needs a {exc.key!r} {exc.need}" if exc.where
                else exc.quoted)) from None
        if default is not None:
            rules.append(ScriptRule(replies=tuple(default), contains=None,
                                    name="default"))
        return cls(rules, identity=identity)

    def start_sample(self, task_id: str, sample_index: int) -> None:
        self._cursors.served.clear()

    def complete(self, messages: list[ChatMessage],
                 params: SamplingParams) -> str:
        prompt = "\n".join(m.content for m in messages)
        for i, rule in enumerate(self.rules):
            if rule.matches(prompt):
                if not rule.replies:
                    return ""
                served = self._cursors.served.get(i, 0)
                self._cursors.served[i] = served + 1
                return rule.replies[min(served, len(rule.replies) - 1)]
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
                 max_retries: int = 3, backoff_base: float = 0.5):
        self.url = url
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.identity = f"http:{model}"
        self._inflight = threading.BoundedSemaphore(MAX_INFLIGHT)

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
        api_key = os.environ.get(API_KEY_ENV, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        # Never log headers: they carry the bearer token.
        log.debug("request model=%s messages=%d url=%s auth=%s",
                  self.model, len(messages), self.url,
                  "redacted" if api_key else "none")

        # The HTTP stack costs tens of milliseconds to import, and only this
        # backend needs it.
        import urllib.error
        import urllib.request

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
                    retry_after = _retry_after_seconds(exc.headers)
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
    def _reply_text(payload) -> str:
        try:
            reply = take({"reply": payload}, "reply", "", dict)
            choices = take(reply, "choices", "reply", list[dict], ok=len,
                           need="a non-empty list of objects")
            message = take(choices[0], "message", "reply.choices[0]", dict)
            return take(message, "content", "reply.choices[0].message",
                        str, None) or ""
        except FieldError as exc:
            raise BackendError(f"malformed backend response: {exc}") from None


def _retry_after_seconds(headers) -> float | None:
    """The delta-seconds form of a rate-limit reply's Retry-After header,
    capped; None for the HTTP-date form or no header, so the caller backs
    off as usual."""
    value = (headers.get("Retry-After") or "").strip()
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
