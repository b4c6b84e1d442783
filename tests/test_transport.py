from __future__ import annotations

import json
import socket
import ssl
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from pricetree.errors import (
    DatasetParseError,
    InvalidConfigError,
    TransientTransportError,
    TransportError,
)
from pricetree.harness.prompts import Message, answer_line
from pricetree.harness import transport as transport_module
from pricetree.harness.scoring import OUTCOME_CORRECT_UNANSWERABLE, OUTCOME_FALSE_UNANSWERABLE, run_eval
from pricetree.harness.transport import (
    MOCK_NAMES,
    LiveTransport,
    ReplayTransport,
    build_payload,
    check_transport_spec,
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

    def test_repeated_id_names_both_lines(self, tmp_path):
        # the last response would otherwise win without a sign, and be scored
        path = tmp_path / "replay.jsonl"
        lines = [
            {"instanceId": "s3-p000000-answerable", "responseText": "Answer: 7"},
            {"instanceId": "s3-p000000-unanswerable", "responseText": "Answer: unknown."},
            {"instanceId": "s3-p000000-answerable", "responseText": "Answer: unknown."},
        ]
        path.write_text(json.dumps(lines[0]) + "\n\n" + "".join(json.dumps(line) + "\n" for line in lines[1:]))
        message = f"{path} line 4: instanceId 's3-p000000-answerable' repeats line 1"
        with pytest.raises(DatasetParseError) as excinfo:
            ReplayTransport.from_file(path)
        assert str(excinfo.value) == message


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

    def test_gold_mock_is_the_answer_line(self):
        corpus = make_corpus(count=3)
        assert mock_responses("gold", corpus) == {inst.id: answer_line(inst) for inst in corpus.instances}

    def test_mock_names_pinned(self):
        assert MOCK_NAMES == ("unknown", "five", "gold")

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

    @pytest.mark.parametrize("spec", ["replay:", "mock:"])
    def test_a_spec_without_its_argument_is_rejected_by_name(self, spec):
        # "replay:" once read the working directory and failed with "error: : cannot read (Is a directory)"
        with pytest.raises(InvalidConfigError) as error:
            make_transport(spec, make_profile(), make_corpus(count=1))
        assert str(error.value) == f"transport must be live, replay:<file> or mock:<name>, got {spec!r}"

    def test_spec_check_reads_no_file(self, tmp_path):
        for spec in ("live", "mock:gold", f"replay:{tmp_path / 'missing.jsonl'}"):
            check_transport_spec(spec)  # the replay file is read by make_transport alone
        with pytest.raises(InvalidConfigError) as error:
            check_transport_spec("mock:nope")
        assert str(error.value) == "unknown mock 'nope', expected one of ('unknown', 'five', 'gold')"


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
    """Replies with the next of `responses`: (status, JSON payload or raw bytes), or a callable
    that writes its own reply; once they run out, a completion reading `default_answer`."""

    seen_payloads: list[dict] = []
    responses: list = []
    default_answer = "Answer: 7"
    released = threading.Event()  # set when the server stops

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen_payloads.append({"body": body, "auth": self.headers.get("Authorization")})
        reply = self.responses.pop(0) if self.responses else (
            200,
            {"choices": [{"message": {"content": self.default_answer}}]},
        )
        if callable(reply):
            reply(self)
            return
        status, payload = reply
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def _stall(handler):
    """No reply until the server stops, long after the client's timeout."""
    _ChatHandler.released.wait(timeout=30)


def _cut_short(handler):
    """Headers promising 100 bytes, then 13 of them and a closed connection."""
    handler.send_response(200)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", "100")
    handler.end_headers()
    handler.wfile.write(b'{"choices": [')
    handler.close_connection = True


@pytest.fixture
def chat_server():
    _ChatHandler.seen_payloads = []
    _ChatHandler.responses = []
    _ChatHandler.default_answer = "Answer: 7"
    _ChatHandler.released = threading.Event()
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    _ChatHandler.released.set()
    server.shutdown()
    server.server_close()


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
        with pytest.raises(TransportError, match="TEST_API_KEY"):
            LiveTransport(make_profile(endpoint=url, api_key_env="TEST_API_KEY"))

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

    @pytest.mark.parametrize("endpoint", ["", "127.0.0.1:1/none"], ids=["empty", "no-scheme"])
    def test_endpoint_that_cannot_be_sent_is_transient(self, endpoint):
        transport = LiveTransport(make_profile(endpoint=endpoint))
        with pytest.raises(TransientTransportError):
            transport.complete([Message("user", "hello")])

    def test_redirect_carries_no_api_key(self, chat_server, monkeypatch):
        _, url = chat_server
        seen = []

        class Elsewhere(BaseHTTPRequestHandler):
            def do_GET(self):
                seen.append(self.headers.get("Authorization"))
                self.send_response(404)
                self.send_header("Content-Length", "0")
                self.end_headers()

            do_POST = do_GET

            def log_message(self, *args):
                pass

        elsewhere = ThreadingHTTPServer(("127.0.0.1", 0), Elsewhere)
        threading.Thread(target=elsewhere.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()

        def redirect(handler):
            handler.send_response(302)
            handler.send_header("Location", f"http://127.0.0.1:{elsewhere.server_address[1]}/v1")
            handler.send_header("Content-Length", "0")
            handler.end_headers()

        _ChatHandler.responses = [redirect]
        monkeypatch.setenv("TEST_API_KEY", "sk-local")
        transport = LiveTransport(make_profile(endpoint=url, api_key_env="TEST_API_KEY"))
        try:
            with pytest.raises(TransportError, match="^HTTP 404: $"):
                transport.complete([Message("user", "hello")])
        finally:
            elsewhere.shutdown()
            elsewhere.server_close()
        assert _ChatHandler.seen_payloads[-1]["auth"] == "Bearer sk-local"
        assert seen == [None]

    def test_trust_store_is_loaded_once(self, chat_server, monkeypatch):
        _, url = chat_server
        made = []
        create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda: made.append(1) or create())
        transport_module._opener.cache_clear()
        try:
            transport = LiveTransport(make_profile(endpoint=url))
            for _ in range(3):
                assert transport.complete([Message("user", "hello")]) == "Answer: 7"
        finally:
            transport_module._opener.cache_clear()
        assert made == [1]

    def test_retry_recovers_through_query_model(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(429, {"error": "slow down"})]
        profile = make_profile(endpoint=url)
        text, _ = query_model(profile, [Message("user", "hi")], LiveTransport(profile), sleep=lambda s: None)
        assert text == "Answer: 7"

    def test_read_past_the_timeout_is_transient(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [_stall]
        transport = LiveTransport(make_profile(endpoint=url, timeout_seconds=0.2))
        with pytest.raises(TransientTransportError):
            transport.complete([Message("user", "hello")])

    def test_body_shorter_than_its_content_length_is_transient(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [_cut_short]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransientTransportError):
            transport.complete([Message("user", "hello")])

    def test_ok_status_with_a_body_that_is_not_json_is_permanent(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(200, b"<html>gateway</html>")]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransportError, match="malformed completion") as excinfo:
            transport.complete([Message("user", "hello")])
        assert not isinstance(excinfo.value, TransientTransportError)

    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "Answer: 7"}]], ids=["null", "parts"])
    def test_content_that_is_not_a_string_is_permanent(self, chat_server, content):
        # a refusal, or a reply cut at the token limit, comes back with null content
        _, url = chat_server
        _ChatHandler.responses = [(200, {"choices": [{"message": {"content": content}}]})]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransportError) as excinfo:
            transport.complete([Message("user", "hello")])
        assert not isinstance(excinfo.value, TransientTransportError)
        assert str(excinfo.value) == f"malformed completion response: content {json.dumps(content)} is not a string"

    @pytest.mark.parametrize("content", [None, [{"type": "text", "text": "Answer: 7"}]], ids=["null", "parts"])
    def test_eval_excludes_only_the_record_whose_content_is_not_a_string(self, chat_server, content):
        # such a reply once crashed the whole run in extract_answer, losing every response gathered
        _, url = chat_server
        _ChatHandler.responses = [(200, {"choices": [{"message": {"content": content}}]})]
        corpus = make_corpus(count=2)
        profile = make_profile(endpoint=url, concurrency=1, max_retries=2, timeout_seconds=30)
        records = run_eval(corpus, profile, "zero", LiveTransport(profile))
        assert [r.transport_failed for r in records] == [True, False, False, False]
        assert records[0].outcome is None and records[0].response is None
        assert [r.response for r in records[1:]] == ["Answer: 7"] * 3
        assert len(_ChatHandler.seen_payloads) == 4  # the permanent error is not retried

    def test_success_status_other_than_200_is_permanent(self, chat_server):
        _, url = chat_server
        _ChatHandler.responses = [(201, {"id": "queued"})]
        transport = LiveTransport(make_profile(endpoint=url))
        with pytest.raises(TransportError, match=r'^HTTP 201: \{"id": "queued"\}$') as excinfo:
            transport.complete([Message("user", "hello")])
        assert not isinstance(excinfo.value, TransientTransportError)

    def test_concurrent_eval_scores_every_record(self, chat_server):
        _, url = chat_server
        _ChatHandler.default_answer = "Answer: unknown."
        corpus = make_corpus(count=6)
        profile = make_profile(endpoint=url, concurrency=4, max_retries=0, timeout_seconds=30)
        records = run_eval(corpus, profile, "zero", LiveTransport(profile))
        assert [r.instance_id for r in records] == [i.id for i in corpus.instances]
        assert not any(r.transport_failed for r in records)
        assert [r.outcome for r in records] == [
            OUTCOME_FALSE_UNANSWERABLE if i.variant == "answerable" else OUTCOME_CORRECT_UNANSWERABLE
            for i in corpus.instances
        ]
        assert len(_ChatHandler.seen_payloads) == len(corpus.instances)
