"""Prompt templates, completion client, and response parsers.

The three prompt templates are pinned byte-for-byte: the surrounding-objects
prompt that generates contrastive concepts, the visibility yes/no prompt
used by the abstract-concept filter, and the part-listing prompt of the
paper's optional part-removal step, which no command runs.  All carry
instruction markers by default; a render flag strips them for endpoints
that add their own chat framing.

Completions go over HTTP as JSON and every response is cached on disk, so
reruns with a warm cache never touch the network.  Requests are retried
with exponential backoff on transport errors and retryable status codes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .corpus import normalize_concept
from .errors import ResponseParseError, ServiceError, TransportError, ValidationError
from .ioutil import atomic_write_text

_MARKER_PREFIX = "<s> [INST] "
_MARKER_SUFFIX = " [/INST]"


@dataclass(frozen=True)
class PromptTemplate:
    """A fixed prompt body with exactly one ``{q}`` slot."""

    kind: str
    body: str

    def __post_init__(self):
        if self.body.count("{q}") != 1:
            raise ValidationError(f"template {self.kind!r} must contain exactly one {{q}} slot")


CC_GENERATION = PromptTemplate(
    kind="cc-generation",
    body=(
        "<s> [INST] You are a helpful AI assistant with visual abilities.\n"
        "\n"
        "Given an input object O, I want you to generate a list of words related "
        "to objects that can be surrounding input object O in an image to help me "
        "perform semantic segmentation.\n"
        "\n"
        "For example:\n"
        "\n"
        "* If the input object is 'fork', you can generate a list of words such as "
        "'[\"bottle\", \"knife\", \"table\", \"napkin\", \"bread\"]'.\n"
        "\n"
        "* If the input object is 'child', you can generate a list of words such as "
        "'[\"toy\", \"drawing\", \"bed\", \"room\", \"playground\"]'.\n"
        "\n"
        "You should not generate synonyms of input object O, nor parts of input "
        "object O.\n"
        "\n"
        "Generate a list of objects surrounding the input object {q} without any "
        "synonym nor parts, nor content of it. Answer with a list of words. No "
        "explanation.\n"
        "\n"
        "Answer: [/INST]"
    ),
)

VISIBILITY = PromptTemplate(
    kind="visibility",
    body=(
        "<s> [INST] Please specify whether {q} is something that one can see.\n"
        "\n"
        "Reply with 'yes' or 'no' only. No explanation.\n"
        "\n"
        "Answer: [/INST]"
    ),
)

PART_REMOVAL = PromptTemplate(
    kind="part-removal",
    body=(
        "<s> [INST] You are a helpful AI assistant with visual abilities.\n"
        "\n"
        "Given an input object O, I want you to generate a list of words that are "
        "parts of an object O.\n"
        "\n"
        "For example:\n"
        "\n"
        "* If the input object is 'rabbit', you can generate a list of words such "
        "as '[\"paw\", \"tail\", \"fur\", \"ears\", \"muzzle\"]'.\n"
        "\n"
        "* If the input object is 'building', you can generate a list of words "
        "such as '[\"door\", \"window\", \"wall\", \"hall\", \"floor\"]'.\n"
        "\n"
        "Generate a list of parts of the input object {q}. Answer with a list of "
        "words. Do not give any word that is not a part of the input object. No "
        "explanation.\n"
        "\n"
        "Answer: [/INST]"
    ),
)

def render(template: PromptTemplate, q: str, include_markers: bool = True) -> str:
    """Fill the template's single slot with a normalized concept string."""
    q = normalize_concept(q)
    if not q:
        raise ValidationError("cannot render a prompt for an empty concept")
    body = template.body
    if not include_markers:
        body = body.removeprefix(_MARKER_PREFIX).removesuffix(_MARKER_SUFFIX)
    return body.replace("{q}", q)


# ---- completion client ----

# transport: (url, payload, timeout) -> (status code, response body text)
Transport = Callable[[str, dict, float], tuple[int, str]]


def _http_transport(url: str, payload: dict, timeout: float) -> tuple[int, str]:
    """POST ``payload`` as JSON.  Every status comes back to the caller, 3xx
    too (a POST is never re-sent on a redirect); any other failure, a
    timeout included, is a ``TransportError``."""
    # imported here: only a live endpoint needs them, and they are slow to import
    import http.client
    import urllib.error
    import urllib.request

    class NoRedirect(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # so the 3xx is raised as an HTTPError, not followed

    try:
        body = json.dumps(payload).encode("utf-8")  # with a body, the method is POST
        request = urllib.request.Request(url, body, {"Content-Type": "application/json"})
        if request.type not in ("http", "https"):  # urlopen would read file:// and ftp://
            raise TransportError(f"completion endpoint must be an http(s) URL: {url!r}")
        try:
            resp = urllib.request.build_opener(NoRedirect).open(request, timeout=timeout)
        except urllib.error.HTTPError as exc:  # a non-2xx status, with its body
            resp = exc
        with resp:
            return resp.status, resp.read().decode("utf-8", errors="replace")
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise TransportError(f"completion endpoint unreachable: {exc}") from exc


_RETRYABLE_STATUS = {429, 500, 502, 503, 504}
API_STYLES = ("raw", "chat")


@dataclass
class LLMClient:
    """Minimal JSON-over-HTTP completion client with a disk cache.

    ``api_style`` selects the wire shape: ``raw`` posts
    ``{"prompt", "max_tokens", "temperature"}`` and reads ``{"text"}``;
    ``chat`` posts an OpenAI-style messages payload and reads the first
    choice's message content.
    """

    endpoint: str | None = None  # required; None raises ValidationError
    model: str = "default"
    api_style: str = "raw"
    temperature: float = 0.0
    max_tokens: int = 256
    timeout: float = 30.0
    max_attempts: int = 4
    backoff_base: float = 0.5
    cache_dir: str | Path | None = None
    transport: Transport = field(default=_http_transport, repr=False)
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    def __post_init__(self):
        if self.endpoint is None:
            raise ValidationError("an LLM endpoint is required")
        if self.api_style not in API_STYLES:
            raise ValidationError(f"api_style must be 'raw' or 'chat', got {self.api_style!r}")
        # comparisons with NaN are false, so NaN fails every bound
        for name, ok, need in (
            ("max_attempts", self.max_attempts >= 1, "at least 1"),
            ("max_tokens", self.max_tokens >= 1, "at least 1"),
            # a socket timeout past TIMEOUT_MAX overflows the platform's clock
            ("timeout", 0 < self.timeout <= threading.TIMEOUT_MAX,
             f"above 0 and at most {threading.TIMEOUT_MAX:.0f} s"),
            ("temperature", 0 <= self.temperature < math.inf, "finite and at least 0"),
            ("backoff_base", 0 <= self.backoff_base < math.inf, "finite and at least 0"),
        ):
            if not ok:
                raise ValidationError(f"LLM {name} must be {need}, got {getattr(self, name)!r}")
        if self.cache_dir is None:
            env = os.environ.get("CCMINE_LLM_CACHE")
            self.cache_dir = Path(env) if env else Path.home() / ".cache" / "ccmine" / "llm"
        self.cache_dir = Path(self.cache_dir).expanduser()

    # ---- cache ----

    def _cached(self, path: Path) -> str | None:
        """The cached completion text, or None on a miss.  A file that is
        not a complete cache record is a miss; ``complete`` overwrites it."""
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, ValueError, RecursionError):  # not UTF-8 or JSON, or too deep
            return None
        text = record.get("text") if isinstance(record, dict) else None
        return text if isinstance(text, str) else None

    def cache_key(self, prompt: str) -> str:
        """The cache key of a completion: every setting that shapes the
        answer, the rendered prompt and so its template, query and markers
        included."""
        material = json.dumps(
            [self.api_style, self.model, prompt, self.max_tokens, self.temperature],
            ensure_ascii=False,
        )
        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    # ---- request plumbing ----

    def _payload(self, prompt: str) -> dict:
        if self.api_style == "chat":
            return {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "max_tokens": self.max_tokens,
                "temperature": self.temperature,
            }
        return {
            "prompt": prompt,
            "max_tokens": self.max_tokens,
            "temperature": self.temperature,
        }

    def _extract_text(self, body: str) -> str:
        try:
            data = json.loads(body)
        except ValueError:
            raise ResponseParseError("completion response is not JSON") from None
        try:
            if self.api_style == "chat":
                text = data["choices"][0]["message"]["content"]
            else:
                text = data["text"]
        except (KeyError, IndexError, TypeError):
            raise ResponseParseError(
                f"completion response lacks the expected field for {self.api_style!r} style"
            ) from None
        if not isinstance(text, str):
            raise ResponseParseError("completion text field is not a string")
        return text

    def complete(self, prompt: str) -> str:
        """Return the completion for a prompt, consulting the cache first."""
        path = self.cache_dir / f"{self.cache_key(prompt)}.json"
        cached = self._cached(path)
        if cached is not None:
            return cached
        payload = self._payload(prompt)
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if attempt:
                self.sleep(self.backoff_base * (2 ** (attempt - 1)))
            try:
                status, body = self.transport(self.endpoint, payload, self.timeout)
            except TransportError as exc:
                last_error = exc
                continue
            if status in _RETRYABLE_STATUS:
                last_error = ServiceError(f"completion endpoint answered {status}")
                continue
            if status != 200:
                raise ServiceError(f"completion endpoint answered {status}: {body[:200]}")
            text = self._extract_text(body)
            record = {"model": self.model, "prompt": prompt, "text": text}
            atomic_write_text(path, json.dumps(record, ensure_ascii=False))
            return text
        assert last_error is not None
        raise last_error


# ---- concept-level asks ----


def ask_cc(client: LLMClient, q: str, include_markers: bool = True) -> list[str]:
    """Generate contrastive concepts for a query via the LLM."""
    return parse_cc_list(client.complete(render(CC_GENERATION, q, include_markers)))


def ask_visibility(client: LLMClient, q: str, include_markers: bool = True) -> bool:
    """Ask whether a concept names something visible."""
    return parse_visibility(client.complete(render(VISIBILITY, q, include_markers)))


def visibility_oracle(client: LLMClient, include_markers: bool = True):
    """Adapt the client into the filter module's oracle callable."""

    def ask(concept: str) -> bool:
        return ask_visibility(client, concept, include_markers)

    return ask


# ---- response parsing ----

_QUOTED = re.compile(r"\"([^\"]*)\"|'([^']*)'")
_BRACKETED = re.compile(r"\[(.*?)\]", re.S)
_BULLET = re.compile(r"^\s*(?:[-*•]|\d+[.)])\s*")
_ALPHA = re.compile(r"[A-Za-z]+")


def _clean_item(item: str) -> str:
    item = item.strip()
    item = _BULLET.sub("", item)
    item = item.strip().strip("\"'").rstrip(".").strip()
    return normalize_concept(item)


def _dedup(items: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for item in items:
        if item and item not in seen:
            seen.add(item)
            out.append(item)
    return out


def parse_cc_list(text: str) -> list[str]:
    """Extract a concept list from a model response.

    Accepts a bracketed list (quoted or bare items), a comma-separated
    line, or one concept per line; leading chatter before a colon is
    ignored.  Items are normalized, deduplicated keeping first occurrence,
    and empties dropped.  Reapplying the parser to a comma-joined result
    returns the same list.
    """
    match = _BRACKETED.search(text)
    if match:
        inner = match.group(1)
        quoted = _QUOTED.findall(inner)
        if quoted:
            raw = [a if a else b for a, b in quoted]
        else:
            raw = inner.split(",")
        return _dedup([_clean_item(r) for r in raw])
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return []
    for line in lines:
        if "," in line:
            if ":" in line:
                line = line.rsplit(":", 1)[1]
            return _dedup([_clean_item(r) for r in line.split(",")])
    items = []
    for line in lines:
        if ":" in line and not _BULLET.match(line):
            # "Here is the list:" style preamble, possibly with the first
            # item on the same line
            _, _, tail = line.rpartition(":")
            if not tail.strip():
                continue
            line = tail
        items.append(line)
    return _dedup([_clean_item(r) for r in items])


def parse_visibility(text: str) -> bool:
    """Read a yes/no answer; the first alphabetic token decides."""
    match = _ALPHA.search(text)
    if match:
        token = match.group(0).lower()
        if token == "yes":
            return True
        if token == "no":
            return False
    raise ResponseParseError(f"expected a yes/no answer, got {text[:80]!r}")
