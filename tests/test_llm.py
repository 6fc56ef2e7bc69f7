"""Prompt rendering, the completion client, and response parsing."""

from __future__ import annotations

import json
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
    ask_cc,
    ask_cc_many,
    ask_visibility,
    parse_cc_list,
    parse_visibility,
    render,
    visibility_oracle,
)

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
            PromptTemplate(kind="bad", version="bad/v1", body="no slot here")


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

    def test_concept_key_varies_by_template_and_model(self, tmp_path):
        client, _ = make_client(tmp_path, lambda *a: (200, "{}"))
        k1 = client.concept_cache_key(CC_GENERATION.version, "road")
        k2 = client.concept_cache_key(VISIBILITY.version, "road")
        client.model = "other"
        k3 = client.concept_cache_key(CC_GENERATION.version, "road")
        assert len({k1, k2, k3}) == 3

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
         b'{"text": 3}'],
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

    def test_ask_cc_many(self, tmp_path):
        def transport(url, payload, timeout):
            q = payload["prompt"].split("input object ")[-1].split(" without")[0]
            return 200, json.dumps({"text": f"thing for {q}, other"})

        client, _ = make_client(tmp_path, transport)
        out = ask_cc_many(client, ["road", "car"], workers=2)
        assert out == {
            "road": ["thing for road", "other"],
            "car": ["thing for car", "other"],
        }


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
