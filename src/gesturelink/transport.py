"""Chat-completion backends: a live HTTP provider and a deterministic
scripted backend for offline replay, plus a retry wrapper.

Scripted fixtures make every downstream stage reproducible: the backend
returns canned responses in call order, with token usage approximated as
ceil(chars / 4) so accounting tests run offline.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .errors import AuthError, FixtureExhausted, MalformedInput, TransportError, finite_float, parse_json

DEFAULT_MODEL_ID = "gpt-4-1106-preview"


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str
    # approx_tokens(content), counted once: a session resends every earlier
    # message on each call, and recounting them made its cost quadratic.
    tokens: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise MalformedInput(f"bad message role: {self.role!r}")
        if self.role in ("system", "user") and not self.content:
            raise MalformedInput(f"{self.role} message content must be non-empty")
        object.__setattr__(self, "tokens", approx_tokens(self.content))


@dataclass(frozen=True)
class CompletionRequest:
    messages: tuple[ChatMessage, ...]

    def __post_init__(self):
        if not self.messages:
            raise MalformedInput("request needs at least one message")


@dataclass(frozen=True)
class UsageRecord:
    input_tokens: int
    output_tokens: int
    latency: float = 0.0

    def __post_init__(self):
        if self.input_tokens < 0 or self.output_tokens < 0:
            raise MalformedInput("token counts must be >= 0")


def approx_tokens(text: str) -> int:
    """Offline token approximation: ceil(chars / 4), in integers."""
    return -(-len(text) // 4)


def message_hash(messages: tuple[ChatMessage, ...]) -> str:
    """Stable short digest of the request messages, for error messages."""
    doc = json.dumps([{"role": m.role, "content": m.content} for m in messages],
                     sort_keys=True, allow_nan=False)
    return hashlib.sha256(doc.encode()).hexdigest()[:16]


class ScriptedBackend:
    """Replays fixture responses in call order; pure given the fixture
    file and the call sequence."""

    def __init__(self, fixtures: list[dict]):
        self._queue: list[str] = []
        for i, fx in enumerate(fixtures):
            if not (isinstance(fx, dict) and isinstance(fx.get("response"), str)):
                raise MalformedInput(f"fixture #{i} must be an object with a string 'response'")
            if fx.get("match", "sequence") != "sequence":
                raise MalformedInput(f"fixture #{i} has unknown match {fx['match']!r}")
            self._queue.append(fx["response"])
        self.calls = 0

    @classmethod
    def from_file(cls, path: str) -> "ScriptedBackend":
        try:
            fixtures = parse_json(Path(path).read_bytes())
            if not isinstance(fixtures, list):
                raise MalformedInput("must hold a JSON array")
            return cls(fixtures)
        except MalformedInput as exc:
            raise MalformedInput(f"bad fixture file {path}: {exc}") from exc

    def complete(self, req: CompletionRequest) -> tuple[str, UsageRecord]:
        self.calls += 1
        if self.calls > len(self._queue):
            raise FixtureExhausted(
                f"no fixture for call {self.calls} (hash {message_hash(req.messages)}, "
                f"{len(self._queue)} sequence fixtures consumed)"
            )
        response = self._queue[self.calls - 1]
        usage = UsageRecord(
            input_tokens=sum(map(attrgetter("tokens"), req.messages)),
            output_tokens=approx_tokens(response),
            latency=0.0,
        )
        return response, usage


@dataclass(frozen=True)
class BackendConfig:
    """Live provider settings; the API key itself stays in the environment."""

    provider_url: str = "https://api.openai.com/v1/chat/completions"
    model_id: str = DEFAULT_MODEL_ID
    timeout: float = 120.0
    api_key_env: str = "OPENAI_API_KEY"

    @classmethod
    def from_file(cls, path: str) -> "BackendConfig":
        try:
            doc = parse_json(Path(path).read_bytes())
            if not isinstance(doc, dict):
                raise MalformedInput("must hold a JSON object")
            for name in ("provider_url", "model_id", "api_key_env"):
                if not isinstance(doc.get(name, ""), str):
                    raise MalformedInput(f"{name} must be a string")
            try:
                timeout = finite_float(doc.get("timeout", cls.timeout), "timeout")
            except (TypeError, ValueError, OverflowError) as exc:
                raise MalformedInput(f"timeout: {exc}") from exc
            if not timeout > 0:
                raise MalformedInput("timeout must be > 0 seconds")
        except MalformedInput as exc:
            raise MalformedInput(f"bad backend config {path}: {exc}") from exc
        return cls(
            provider_url=doc.get("provider_url", cls.provider_url),
            model_id=doc.get("model_id", cls.model_id),
            timeout=timeout,
            api_key_env=doc.get("api_key_env", cls.api_key_env),
        )


class LiveBackend:
    """OpenAI-compatible chat-completions client over HTTP. Every request
    asks the configured model for temperature 0."""

    def __init__(self, config: BackendConfig | None = None):
        self.config = config or BackendConfig()

    def complete(self, req: CompletionRequest) -> tuple[str, UsageRecord]:
        api_key = os.environ.get(self.config.api_key_env)
        if not api_key:
            raise AuthError(
                f"no API key in ${self.config.api_key_env}; set it or use a scripted backend"
            )
        body = json.dumps(
            {
                "model": self.config.model_id,
                "temperature": 0.0,
                "messages": [
                    {"role": m.role, "content": m.content} for m in req.messages
                ],
            },
            allow_nan=False,
        ).encode()
        request = urllib.request.Request(
            self.config.provider_url,
            data=body,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
            method="POST",
        )
        started = time.monotonic()
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout) as resp:
                reply = resp.read()
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")[:500]
            retry_after = (
                _delta_seconds(exc.headers.get("Retry-After")) if exc.code in (429, 503) else None
            )
            if exc.code == 429:
                raise TransportError(f"rate limited: {detail}", retry_after) from exc
            if exc.code in (401, 403):
                raise AuthError(f"credentials rejected: {detail}") from exc
            raise TransportError(f"HTTP {exc.code}: {detail}", retry_after) from exc
        except (urllib.error.URLError, TimeoutError, OSError) as exc:
            raise TransportError(f"request failed: {exc}") from exc
        latency = time.monotonic() - started
        try:
            payload = json.loads(reply)  # a provider reply, not an input file
            text = payload["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not a string")
            usage = payload.get("usage", {})
            # An infinite count raises OverflowError, a negative one MalformedInput.
            record = UsageRecord(
                input_tokens=int(usage.get("prompt_tokens", 0)),
                output_tokens=int(usage.get("completion_tokens", 0)),
                latency=latency,
            )
        except (ValueError, KeyError, IndexError, TypeError, AttributeError, OverflowError,
                MalformedInput) as exc:
            raise TransportError(f"unexpected response shape: {exc}") from exc
        return text, record


def _delta_seconds(value: str | None) -> float | None:
    """A delta-seconds Retry-After value; None when absent or in any other form."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


# Retry schedule for transient failures.
MAX_ATTEMPTS = 3
BASE_DELAY = 0.5  # seconds; doubles with each attempt
MAX_DELAY = 30.0  # seconds; caps every wait, Retry-After included


class RetryingBackend:
    """Retries transient failures with exponential backoff + full jitter,
    or after the server's Retry-After delay when the failure carries one;
    either wait is capped at MAX_DELAY. seed seeds the jitter.

    AuthError and FixtureExhausted are permanent, so a scripted replay
    is never retried.
    """

    def __init__(self, inner, seed: int | None = None, sleep=time.sleep):
        self.inner = inner
        self._sleep = sleep
        self._rng = random.Random(seed)

    def complete(self, req: CompletionRequest) -> tuple[str, UsageRecord]:
        last_error: TransportError | None = None
        for attempt in range(1, MAX_ATTEMPTS + 1):
            try:
                return self.inner.complete(req)
            except (AuthError, FixtureExhausted):
                raise
            except TransportError as exc:
                last_error = exc
                if attempt == MAX_ATTEMPTS:
                    break
                delay = exc.retry_after
                if delay is None:
                    delay = self._rng.uniform(0, min(BASE_DELAY * 2 ** (attempt - 1), MAX_DELAY))
                self._sleep(min(delay, MAX_DELAY))
        raise last_error


def backend_factory(spec: str, seed: int | None = None) -> Callable[[], object]:
    """CLI backend selector: "scripted:<fixtures.json>" for replay, or the
    path to a live BackendConfig JSON, retried with jitter seeded by seed.
    The file is read and checked here, once; each call of the returned
    factory builds a fresh backend from what was read."""
    if spec.startswith("scripted:"):
        replay = ScriptedBackend.from_file(spec.split(":", 1)[1])
        return lambda: copy.copy(replay)  # each copy starts at call 0: replay is never called
    config = BackendConfig.from_file(spec)
    return lambda: RetryingBackend(LiveBackend(config), seed)
