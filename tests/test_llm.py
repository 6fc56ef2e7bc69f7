"""Prompt rendering, the completion client, and response parsing."""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ccmine.errors import (
    ResponseParseError,
    ServiceError,
    TransportError,
    ValidationError,
)
from ccmine.llm import (
    CC_GENERATION,
    PART_REMOVAL,
    VISIBILITY,
    LLMClient,
    _http_transport,
    ask_cc,
    ask_visibility,
    parse_cc_list,
    parse_visibility,
    render,
    visibility_oracle,
)

from conftest import LLM_CC_ANSWER, send

GOLDEN = Path(__file__).parent / "golden"

ROAD_RESPONSE = (
    "building, tree, car, pedestrian, sky, streetlight, sidewalk, bicycle, "
    "parked car, traffic sign"
)
ROAD_CONCEPTS = [
    "building",
    "tree",
    "car",
    "pedestrian",
    "sky",
    "streetlight",
    "sidewalk",
    "bicycle",
    "parked car",
    "traffic sign",
]


def make_client(tmp_path, transport, **kwargs):
    sleeps = []
    kwargs.setdefault("cache_dir", tmp_path / "cache")
    client = LLMClient(
        endpoint="http://localhost:0/v1/completions",
        transport=transport,
        sleep=sleeps.append,
        **kwargs,
    )
    return client, sleeps


class TestRender:
    @pytest.mark.parametrize(
        "golden_name,template,q,markers",
        [
            ("cc_generation_bottle.txt", CC_GENERATION, "bottle", True),
            ("visibility_liberty.txt", VISIBILITY, "liberty", True),
            ("part_removal_building.txt", PART_REMOVAL, "building", True),
            ("cc_generation_bottle_nomarkers.txt", CC_GENERATION, "bottle", False),
        ],
    )
    def test_golden_bytes(self, golden_name, template, q, markers):
        expected = (GOLDEN / golden_name).read_bytes()
        assert render(template, q, include_markers=markers).encode("utf-8") == expected

    def test_query_normalized(self):
        assert render(VISIBILITY, "  Fire   Hydrant ") == render(VISIBILITY, "fire hydrant")

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            render(VISIBILITY, "   ")

    def test_template_needs_exactly_one_slot(self):
        from ccmine.llm import PromptTemplate

        with pytest.raises(ValidationError):
            PromptTemplate(kind="bad", body="no slot here")


class TestClient:
    def test_success_and_cache(self, tmp_path):
        calls = []

        def transport(url, payload, timeout):
            calls.append(payload)
            return 200, json.dumps({"text": "yes"})

        client, _ = make_client(tmp_path, transport)
        assert client.complete("p") == "yes"
        assert client.complete("p") == "yes"
        assert len(calls) == 1
        assert calls[0] == {"prompt": "p", "max_tokens": 256, "temperature": 0.0}

    def test_retry_backoff_then_success(self, tmp_path):
        statuses = iter([500, 503, 200])

        def transport(url, payload, timeout):
            return next(statuses), json.dumps({"text": "ok"})

        client, sleeps = make_client(tmp_path, transport, backoff_base=0.5)
        assert client.complete("p") == "ok"
        assert sleeps == [0.5, 1.0]

    def test_retries_exhausted_raises_last_error(self, tmp_path):
        def transport(url, payload, timeout):
            return 503, "busy"

        client, sleeps = make_client(tmp_path, transport, max_attempts=3)
        with pytest.raises(ServiceError):
            client.complete("p")
        assert sleeps == [0.5, 1.0]

    def test_transport_errors_retried(self, tmp_path):
        attempts = []

        def transport(url, payload, timeout):
            attempts.append(1)
            raise TransportError("connection refused")

        client, _ = make_client(tmp_path, transport, max_attempts=4)
        with pytest.raises(TransportError):
            client.complete("p")
        assert len(attempts) == 4

    def test_non_retryable_status_fails_fast(self, tmp_path):
        attempts = []

        def transport(url, payload, timeout):
            attempts.append(1)
            return 404, "not found"

        client, _ = make_client(tmp_path, transport)
        with pytest.raises(ServiceError):
            client.complete("p")
        assert len(attempts) == 1

    def test_chat_style(self, tmp_path):
        seen = {}

        def transport(url, payload, timeout):
            seen.update(payload)
            body = {"choices": [{"message": {"content": "hello"}}]}
            return 200, json.dumps(body)

        client, _ = make_client(tmp_path, transport, api_style="chat", model="m1")
        assert client.complete("p") == "hello"
        assert seen["model"] == "m1"
        assert seen["messages"] == [{"role": "user", "content": "p"}]

    def test_malformed_response(self, tmp_path):
        def transport(url, payload, timeout):
            return 200, json.dumps({"unexpected": 1})

        client, _ = make_client(tmp_path, transport)
        with pytest.raises(ResponseParseError):
            client.complete("p")

    def test_bad_api_style_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            LLMClient(endpoint="http://x", api_style="soap", cache_dir=tmp_path)

    def test_cache_key_varies_with_every_request_setting(self, tmp_path):
        # an answer is served from the cache only to the request that got
        # it: a list cut short at a small max_tokens is not served to a
        # larger one, say
        calls = []

        def transport(url, payload, timeout):
            calls.append(payload)
            return 200, json.dumps({"text": "yes", "choices": [{"message": {"content": "yes"}}]})

        client, _ = make_client(tmp_path, transport)
        variants = [
            {},
            {"ask": ask_cc},  # the other template
            {"q": "rail"},
            {"markers": False},
            {"model": "other"},
            {"api_style": "chat"},
            {"max_tokens": 16},
            {"temperature": 0.5},
        ]
        for variant in variants:
            fields = {"ask": ask_visibility, "q": "road", "markers": True, **variant}
            ask, q, markers = fields.pop("ask"), fields.pop("q"), fields.pop("markers")
            for _ in range(2):  # the second is a cache hit
                ask(dataclasses.replace(client, **fields), q, markers)
        assert len(calls) == len(variants)
        assert len(list(client.cache_dir.glob("*.json"))) == len(variants)

    def test_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCMINE_LLM_CACHE", str(tmp_path / "envcache"))
        client = LLMClient(endpoint="http://x")
        assert client.cache_dir == tmp_path / "envcache"

    def test_cache_dir_expands_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        client, _ = make_client(tmp_path, lambda *a: (200, json.dumps({"text": "yes"})),
                                cache_dir="~/.cache/ccmine")
        assert client.cache_dir == tmp_path / ".cache" / "ccmine"
        client.complete("p")
        assert len(list((tmp_path / ".cache" / "ccmine").glob("*.json"))) == 1

    @pytest.mark.parametrize(
        "content",
        [b"", b'{"model": "default", "prompt": "p", "te', b"\xff\xfe", b"[]", b'{"model": "m"}',
         b'{"text": 3}', b"[" * 100_000],
    )
    def test_unusable_cache_file_is_a_miss_and_overwritten(self, tmp_path, content):
        calls = []

        def transport(url, payload, timeout):
            calls.append(payload)
            return 200, json.dumps({"text": "fresh"})

        client, _ = make_client(tmp_path, transport)
        path = client.cache_dir / f"{client.cache_key('p')}.json"
        path.parent.mkdir(parents=True)
        path.write_bytes(content)
        assert client.complete("p") == "fresh"
        assert json.loads(path.read_text(encoding="utf-8"))["text"] == "fresh"
        assert client.complete("p") == "fresh"
        assert len(calls) == 1


class TestClientBounds:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("max_attempts", 0),
            ("max_tokens", 0),
            ("timeout", 0.0),
            ("timeout", -1.0),
            ("timeout", float("inf")),
            ("timeout", 1e12),  # past threading.TIMEOUT_MAX, where a socket overflows
            ("timeout", float("nan")),
            ("temperature", -0.1),
            ("temperature", float("nan")),
            ("backoff_base", -1.0),
            ("backoff_base", float("inf")),
        ],
    )
    def test_out_of_bounds_rejected(self, tmp_path, name, value):
        calls = []
        with pytest.raises(ValidationError, match=f"LLM {name} must be"):
            make_client(tmp_path, lambda *a: calls.append(a), **{name: value})
        assert calls == []

    def test_bounds_are_inclusive(self, tmp_path):
        client, _ = make_client(
            tmp_path, lambda *a: None, max_attempts=1, max_tokens=1, temperature=0.0, backoff_base=0.0
        )
        assert (client.max_attempts, client.temperature, client.backoff_base) == (1, 0.0, 0.0)

    def test_the_longest_timeout_is_one_a_socket_takes(self, tmp_path):
        client, _ = make_client(tmp_path, lambda *a: None, timeout=threading.TIMEOUT_MAX)
        with socket.socket() as sock:
            sock.settimeout(client.timeout)
            assert sock.gettimeout() == threading.TIMEOUT_MAX


class TestAsks:
    def test_ask_cc_parses_and_caches_by_concept(self, tmp_path):
        calls = []

        def transport(url, payload, timeout):
            calls.append(payload["prompt"])
            return 200, json.dumps({"text": ROAD_RESPONSE})

        client, _ = make_client(tmp_path, transport)
        assert ask_cc(client, "road") == ROAD_CONCEPTS
        assert ask_cc(client, "Road ") == ROAD_CONCEPTS
        assert len(calls) == 1

    def test_ask_visibility(self, tmp_path):
        client, _ = make_client(tmp_path, lambda *a: (200, json.dumps({"text": "No."})))
        assert ask_visibility(client, "liberty") is False

    def test_visibility_oracle_adapter(self, tmp_path):
        client, _ = make_client(tmp_path, lambda *a: (200, json.dumps({"text": "yes"})))
        oracle = visibility_oracle(client)
        assert oracle("boat") is True


def reply(status: int, body: bytes = b"{}", **kwargs):
    """A scripted answer: one reply with this status and body."""
    return lambda handler, payload: send(handler, status, body, **kwargs)


# an unclosed response, error body or socket fails the test, since
# pyproject.toml turns ResourceWarning and the unraisable-exception warning
# that a finalizer's ResourceWarning arrives as into errors; the server
# fixture collects garbage at teardown so that objects held in reference
# cycles are finalized too
class TestHTTPTransport:
    """The default transport against a real server on 127.0.0.1."""

    def client(self, tmp_path, url, **kwargs):
        sleeps = []
        kwargs.setdefault("timeout", 5.0)
        client = LLMClient(url, cache_dir=tmp_path / "cache", sleep=sleeps.append, **kwargs)
        return client, sleeps

    @pytest.mark.parametrize("api_style", ["raw", "chat"])
    def test_reply_in_each_style(self, tmp_path, llm_server, api_style):
        client, sleeps = self.client(tmp_path, llm_server.url, api_style=api_style)
        assert client.complete("list things") == LLM_CC_ANSWER
        (request,) = llm_server.requests
        assert request["path"] == "/v1/completions"
        assert request["content_type"] == "application/json"
        assert json.loads(request["body"]) == client._payload("list things")
        assert sleeps == []

    def test_retryable_status_is_retried_once(self, tmp_path, llm_server):
        llm_server.script = [reply(503)]
        client, sleeps = self.client(tmp_path, llm_server.url)
        assert client.complete("p") == LLM_CC_ANSWER
        assert len(llm_server.requests) == 2
        assert sleeps == [client.backoff_base]

    def test_other_status_fails_fast_with_its_body(self, tmp_path, llm_server):
        llm_server.script = [reply(404, b"no such model")]
        client, sleeps = self.client(tmp_path, llm_server.url)
        with pytest.raises(ServiceError, match="404: no such model"):
            client.complete("p")
        assert len(llm_server.requests) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [302, 307])
    def test_redirect_is_not_followed(self, tmp_path, llm_server, status):
        llm_server.script = [reply(status, Location=llm_server.url)]
        client, _ = self.client(tmp_path, llm_server.url)
        with pytest.raises(ServiceError, match=str(status)):
            client.complete("p")
        assert len(llm_server.requests) == 1

    def test_undecodable_bytes_are_replaced(self, tmp_path, llm_server):
        llm_server.script = [reply(200, b'{"text": "caf\xe9"}')]
        client, _ = self.client(tmp_path, llm_server.url)
        assert client.complete("p") == "caf\ufffd"

    def test_reply_slower_than_the_timeout(self, tmp_path, llm_server):
        llm_server.script = [llm_server.stall]
        client, _ = self.client(tmp_path, llm_server.url, timeout=0.2, max_attempts=1)
        with pytest.raises(TransportError):
            client.complete("p")

    def test_body_slower_than_the_timeout(self, tmp_path, llm_server):
        def headers_then_stall(handler, payload):
            send(handler, 200, b"", length=20)
            handler.wfile.flush()
            llm_server.stall(handler, payload)

        llm_server.script = [headers_then_stall]
        client, _ = self.client(tmp_path, llm_server.url, timeout=0.2, max_attempts=1)
        with pytest.raises(TransportError):
            client.complete("p")

    def test_truncated_body(self, tmp_path, llm_server):
        llm_server.script = [reply(200, b'{"text": ', length=100)]
        client, _ = self.client(tmp_path, llm_server.url, max_attempts=1)
        with pytest.raises(TransportError):
            client.complete("p")

    def test_closed_port(self, tmp_path):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        client, sleeps = self.client(tmp_path, f"http://127.0.0.1:{port}/", max_attempts=2)
        with pytest.raises(TransportError, match="unreachable"):
            client.complete("p")
        assert sleeps == [client.backoff_base]

    @pytest.mark.parametrize("url", ["http://127.0.0.1:notaport/", "http://[::1/", "no-scheme"])
    def test_malformed_url(self, url):
        with pytest.raises(TransportError):
            _http_transport(url, {}, 1.0)

    def test_only_http_endpoints(self, tmp_path, monkeypatch):
        answer = tmp_path / "answer.json"
        answer.write_text(json.dumps({"text": "read from disk"}), encoding="utf-8")

        def no_connection(*args, **kwargs):
            raise AssertionError("a connection was opened")

        monkeypatch.setattr(socket, "create_connection", no_connection)
        for url in (answer.as_uri(), "ftp://127.0.0.1/answer.json", "FILE://" + str(answer)):
            with pytest.raises(TransportError, match="http"):
                _http_transport(url, {}, 1.0)


class TestParseCCList:
    def test_documented_road_row(self):
        assert parse_cc_list(ROAD_RESPONSE) == ROAD_CONCEPTS

    def test_bracketed_quoted(self):
        text = '["bottle", "knife", "table", "napkin", "bread"]'
        assert parse_cc_list(text) == ["bottle", "knife", "table", "napkin", "bread"]

    def test_bracketed_bare(self):
        assert parse_cc_list("[car, tree, sky]") == ["car", "tree", "sky"]

    def test_preamble_and_dedup(self):
        assert parse_cc_list("Sure! Here: cat, cat, dog") == ["cat", "dog"]

    def test_newline_bullets(self):
        text = "Here is the list:\n- car\n- tree\n2. sky\n"
        assert parse_cc_list(text) == ["car", "tree", "sky"]

    def test_empty_text(self):
        assert parse_cc_list("") == []
        assert parse_cc_list("Here is the list:") == []

    def test_items_normalized(self):
        assert parse_cc_list('["ParKed  Car.", "sky"]') == ["parked car", "sky"]

    @given(
        st.lists(
            st.text(
                alphabet=st.sampled_from("abcdefgh "),
                min_size=1,
                max_size=12,
            ).map(lambda s: " ".join(s.split())).filter(bool),
            max_size=8,
        )
    )
    def test_reparse_fixed_point(self, items):
        first = parse_cc_list(", ".join(items))
        assert parse_cc_list(", ".join(first)) == first


class TestParseVisibility:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("yes", True),
            ("Yes.", True),
            ("  YES indeed", True),
            ("no", False),
            ("No!", False),
            ('"no"', False),
            ("\nNo\n", False),
        ],
    )
    def test_matrix(self, text, expected):
        assert parse_visibility(text) is expected

    @pytest.mark.parametrize("text", ["maybe", "", "42", "yesterday no"])
    def test_rejects_non_answers(self, text):
        with pytest.raises(ResponseParseError):
            parse_visibility(text)
