from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from pricetree.errors import (
    DatasetParseError,
    InvalidConfigError,
    TransientTransportError,
    TransportError,
)
from pricetree.harness.prompts import Message
from pricetree.harness.transport import (
    LiveTransport,
    ReplayTransport,
    build_payload,
    make_transport,
    mock_responses,
    query_model,
)

from factories import make_corpus, make_profile


class TestBuildPayload:
    def test_non_reasoning_parameters(self):
        payload = build_payload(make_profile(), [Message("system", "s"), Message("user", "u")])
        assert payload["max_tokens"] == 4000
        assert payload["temperature"] == 0.0
        assert "max_completion_tokens" not in payload
        assert "reasoning_effort" not in payload
        assert payload["messages"] == [
            {"role": "system", "content": "s"},
            {"role": "user", "content": "u"},
        ]

    def test_reasoning_parameters_never_include_temperature(self):
        payload = build_payload(make_profile(is_reasoning=True), [Message("user", "u")])
        assert payload["max_completion_tokens"] == 32000
        assert payload["reasoning_effort"] == "high"
        assert "temperature" not in payload
        assert "max_tokens" not in payload


class TestReplay:
    def test_byte_for_byte(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text(
            json.dumps({"instanceId": "p000000-answerable", "responseText": "Answer: 9 "})
            + "\n",
            encoding="utf-8",
        )
        transport = ReplayTransport.from_file(path)
        assert transport.complete([], "p000000-answerable") == "Answer: 9 "

    def test_missing_id_is_a_permanent_failure(self):
        transport = ReplayTransport({})
        with pytest.raises(TransportError, match="no response"):
            transport.complete([], "missing-id")

    def test_malformed_replay_line_names_the_line(self, tmp_path):
        path = tmp_path / "replay.jsonl"
        path.write_text('{"instanceId": "a", "responseText": "x"}\n{"nope": 1}\n')
        with pytest.raises(Exception, match="line 2"):
            ReplayTransport.from_file(path)

    @pytest.mark.parametrize("text", [None, 9, ["Answer: 9"]], ids=["null", "number", "list"])
    def test_response_text_must_be_a_string(self, tmp_path, text):
        path = tmp_path / "replay.jsonl"
        lines = [{"instanceId": "a", "responseText": "x"}, {"instanceId": "b", "responseText": text}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        with pytest.raises(DatasetParseError, match="replay.jsonl line 2: .*responseText"):
            ReplayTransport.from_file(path)


class TestMocks:
    def test_named_behaviours(self):
        corpus = make_corpus(count=1)
        answerable, unanswerable = corpus.instances
        unknown = ReplayTransport(mock_responses("unknown", corpus))
        five = ReplayTransport(mock_responses("five", corpus))
        gold = ReplayTransport(mock_responses("gold", corpus))
        assert unknown.complete([], answerable.id) == "Answer: unknown."
        assert five.complete([], answerable.id) == "Answer: 5"
        assert gold.complete([], answerable.id) == f"Answer: {answerable.gold_answer}"
        assert gold.complete([], unanswerable.id) == "Answer: unknown."

    def test_unknown_mock_name_rejected(self):
        corpus = make_corpus(count=1)
        with pytest.raises(InvalidConfigError, match="sometimes"):
            mock_responses("sometimes", corpus)
        with pytest.raises(InvalidConfigError, match="sometimes"):
            make_transport("mock:sometimes", make_profile(), corpus)


class TestMakeTransport:
    def test_spec_parsing(self, tmp_path):
        corpus = make_corpus(count=1)
        profile = make_profile()
        assert isinstance(make_transport("live", profile, corpus), LiveTransport)
        replay = tmp_path / "r.jsonl"
        replay.write_text("")
        assert isinstance(make_transport(f"replay:{replay}", profile, corpus), ReplayTransport)
        mock = make_transport("mock:gold", profile, corpus)
        assert isinstance(mock, ReplayTransport)
        assert mock.responses == mock_responses("gold", corpus)
        with pytest.raises(InvalidConfigError):
            make_transport("telepathy", profile, corpus)


class FlakyTransport:
    def __init__(self, failures: int, response: str = "Answer: 3"):
        self.failures = failures
        self.calls = 0
        self.response = response

    def complete(self, messages, instance_id=None):
        self.calls += 1
        if self.calls <= self.failures:
            raise TransientTransportError("flaky")
        return self.response


class TestQueryModel:
    def test_retries_with_capped_backoff(self):
        sleeps = []
        transport = FlakyTransport(failures=3)
        text, latency = query_model(
            make_profile(max_retries=3), [], transport, "id", sleep=sleeps.append
        )
        assert text == "Answer: 3"
        assert transport.calls == 4
        assert sleeps == [0.5, 1.0, 2.0]
        assert latency >= 0

    def test_exhausted_retries_raise(self):
        sleeps = []
        transport = FlakyTransport(failures=10)
        with pytest.raises(TransientTransportError):
            query_model(make_profile(max_retries=2), [], transport, "id", sleep=sleeps.append)
        assert transport.calls == 3

    def test_backoff_is_capped(self):
        sleeps = []
        transport = FlakyTransport(failures=9)
        query_model(make_profile(max_retries=9), [], transport, "id", sleep=sleeps.append)
        assert max(sleeps) == 30.0


class _ChatHandler(BaseHTTPRequestHandler):
    seen_payloads: list[dict] = []
    responses: list[tuple[int, dict]] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen_payloads.append({"body": body, "auth": self.headers.get("Authorization")})
        status, payload = self.responses.pop(0) if self.responses else (
            200,
            {"choices": [{"message": {"content": "Answer: 7"}}]},
        )
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.seen_payloads = []
    _ChatHandler.responses = []
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    server.shutdown()


class TestLiveTransport:
    def test_round_trip_with_auth_header(self, chat_server, monkeypatch):
        server, url = chat_server
        monkeypatch.setenv("TEST_API_KEY", "sk-local")
        profile = make_profile(endpoint=url, api_key_env="TEST_API_KEY")
        transport = LiveTransport(profile)
        assert transport.complete([Message("user", "hello")]) == "Answer: 7"
        seen = _ChatHandler.seen_payloads[-1]
        assert seen["auth"] == "Bearer sk-local"
        assert seen["body"]["model"] == "stub-model"
        assert seen["body"]["messages"] == [{"role": "user", "content": "hello"}]

    def test_missing_api_key_fails_fast(self, chat_server, monkeypatch):
        _, url = chat_server
        monkeypatch.delenv("TEST_API_KEY", raising=False)
        transport = LiveTransport(make_profile(endpoint=url, api_key_env="TEST_API_KEY"))
        with pytest.raises(TransportError, match="TEST_API_KEY"):
            transport.complete([Message("user", "hello")])

    def test_server_errors_are_transient(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(503, {"error": "overloaded"})]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransientTransportError):
            transport.complete([Message("user", "hello")])

    def test_client_errors_are_permanent(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(400, {"error": "bad request"})]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransportError) as excinfo:
            transport.complete([Message("user", "hello")])
        assert not isinstance(excinfo.value, TransientTransportError)

    def test_ok_status_without_a_completion_is_permanent(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(200, {"error": "no choices here"})]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransportError, match="malformed completion") as excinfo:
            transport.complete([Message("user", "hello")])
        assert not isinstance(excinfo.value, TransientTransportError)

    def test_refused_connection_is_transient_and_retried(self):
        with socket.socket() as sock:  # a port that was bound, then closed
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        profile = make_profile(endpoint=f"http://127.0.0.1:{port}/v1/chat/completions", max_retries=2)
        transport = LiveTransport(profile)
        with pytest.raises(TransientTransportError):
            transport.complete([Message("user", "hello")])
        sleeps = []
        with pytest.raises(TransientTransportError):
            query_model(profile, [Message("user", "hi")], transport, sleep=sleeps.append)
        assert sleeps == [0.5, 1.0]

    def test_retry_recovers_through_query_model(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(429, {"error": "slow down"})]
        profile = make_profile(endpoint=url)
        text, _ = query_model(profile, [Message("user", "hi")], LiveTransport(profile), sleep=lambda s: None)
        assert text == "Answer: 7"
