"""Model transports: live chat-completion HTTP and replay of recorded responses.

The live transport opens one connection per call through ``urllib.request``,
so the threads of a concurrent eval share no connection, only a TLS context.
It alone imports the network stack (``urllib.request``, ``ssl``,
``http.client``), on its first request, so offline commands never load it.
The harness never needs network access to be exercised: replay transports
serve recorded responses keyed by instance id, and the named mocks are
response maps for the degenerate all-unknown / all-number / echo-gold
behaviours.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import InvalidConfigError, TransientTransportError, TransportError
from ..jsonmap import from_json, read_json_lines
from ..pipeline import Dataset, ProblemInstance
from .prompts import Message, ModelProfile, answer_line

if TYPE_CHECKING:  # pragma: no cover
    import urllib.request

BACKOFF_BASE_SECONDS = 0.5
BACKOFF_CAP_SECONDS = 30.0


def build_payload(profile: ModelProfile, messages: list[Message]) -> dict:
    """Chat-completion request body for one profile.

    Reasoning profiles use max_completion_tokens and reasoning_effort and
    must not carry a temperature.
    """
    payload: dict = {
        "model": profile.model,
        "messages": [{"role": m.role, "content": m.content} for m in messages],
    }
    if profile.is_reasoning:
        payload["max_completion_tokens"] = profile.max_completion_tokens
        payload["reasoning_effort"] = profile.reasoning_effort
    else:
        payload["max_tokens"] = profile.max_tokens
        payload["temperature"] = profile.temperature
    return payload


@cache
def _opener() -> urllib.request.OpenerDirector:
    """urlopen's handlers with one TLS context: loading the system trust store takes tens of ms."""
    import ssl
    import urllib.request

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])  # as http.client does for a context it makes
    return urllib.request.build_opener(urllib.request.HTTPSHandler(context=context))


@dataclass(frozen=True)
class LiveTransport:
    """POSTs to a chat-completion endpoint; the API key is read from the environment once, when made."""

    profile: ModelProfile
    api_key: Optional[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        name = self.profile.api_key_env
        key = os.environ.get(name) if name else None
        if name and not key:  # fail before the first request, as every request would
            raise TransportError(f"environment variable {name} is not set")
        object.__setattr__(self, "api_key", key)

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        return headers

    def complete(self, messages: list[Message], instance_id: Optional[str] = None) -> str:
        import http.client
        import urllib.error
        import urllib.request

        try:
            request = urllib.request.Request(
                self.profile.endpoint,
                data=json.dumps(build_payload(self.profile, messages)).encode(),
                method="POST",
            )
            for name, value in self._headers().items():  # unredirected: the key never follows a 3xx
                request.add_unredirected_header(name, value)
            try:
                with _opener().open(request, timeout=self.profile.timeout_seconds) as resp:
                    status, body = resp.status, resp.read()
            except urllib.error.HTTPError as exc:  # a status urlopen does not return
                with exc:
                    status, body = exc.code, exc.read()
        # refused, timed out or cut short; or an endpoint or header urllib cannot send
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise TransientTransportError(str(exc)) from exc
        if status != 200:
            error = TransientTransportError if status == 429 or status >= 500 else TransportError
            raise error(f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}")
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise TransportError(f"malformed completion response: {exc}") from exc
        if not isinstance(content, str):  # null for a refusal or a reply cut short, or a list of parts
            raise TransportError(f"malformed completion response: content {json.dumps(content)[:100]} is not a string")
        return content


@dataclass(frozen=True)
class _ReplayLine:
    instance_id: str
    response_text: str


class ReplayTransport:
    """Serves recorded responses keyed by instance id."""

    def __init__(self, responses: dict[str, str]):
        self.responses = responses

    @classmethod
    def from_file(cls, path: str | Path) -> "ReplayTransport":
        """One ``{"instanceId": ..., "responseText": ...}`` object per line, each id on one line."""
        lines = read_json_lines(path, lambda data: from_json(_ReplayLine, data), "instanceId")
        return cls({line.instance_id: line.response_text for line in lines})

    def complete(self, messages: list[Message], instance_id: Optional[str] = None) -> str:
        if instance_id not in self.responses:
            raise TransportError(f"replay file has no response for instance {instance_id!r}")
        return self.responses[instance_id]


# each named mock's response to an instance: all unknown, all 5, or the right answer line
MOCKS: dict[str, Callable[[ProblemInstance], str]] = {
    "unknown": lambda instance: "Answer: unknown.",
    "five": lambda instance: "Answer: 5",
    "gold": answer_line,
}
MOCK_NAMES = tuple(MOCKS)


def _check_mock(name: str) -> None:
    if name not in MOCKS:
        raise InvalidConfigError(f"unknown mock {name!r}, expected one of {MOCK_NAMES}")


def mock_responses(name: str, dataset: Dataset) -> dict[str, str]:
    """The named mock's response per instance id, for a ReplayTransport."""
    _check_mock(name)
    return {inst.id: MOCKS[name](inst) for inst in dataset.instances}


def check_transport_spec(spec: str) -> None:
    """Raise unless the spec is live, replay:<file> or mock:<a known name>; reads no file."""
    kind, _, arg = spec.partition(":")
    if spec != "live" and not (kind in ("replay", "mock") and arg):
        raise InvalidConfigError(
            f"transport must be live, replay:<file> or mock:<name>, got {spec!r}"
        )
    if kind == "mock":
        _check_mock(arg)


def make_transport(spec: str, profile: ModelProfile, dataset: Dataset):
    """The transport a spec names, once `check_transport_spec` passes it: live | replay:<file> | mock:<name>."""
    check_transport_spec(spec)
    if spec == "live":
        return LiveTransport(profile)
    kind, _, arg = spec.partition(":")
    if kind == "replay":
        return ReplayTransport.from_file(arg)
    return ReplayTransport(mock_responses(arg, dataset))


def query_model(
    profile: ModelProfile,
    messages: list[Message],
    transport,
    instance_id: Optional[str] = None,
    sleep=time.sleep,
) -> tuple[str, float]:
    """One completion with capped exponential backoff on transient failures.

    Returns (response text, latency in milliseconds).  Raises TransportError
    once profile.max_retries retries are exhausted.
    """
    attempts = profile.max_retries + 1
    start = time.perf_counter()
    for attempt in range(attempts):
        try:
            text = transport.complete(messages, instance_id)
            return text, (time.perf_counter() - start) * 1000.0
        except TransientTransportError:
            if attempt == attempts - 1:
                raise
            sleep(min(BACKOFF_BASE_SECONDS * 2**attempt, BACKOFF_CAP_SECONDS))
    raise AssertionError("unreachable")
