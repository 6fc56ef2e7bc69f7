"""Shared fixtures: a tiny caption corpus with a known co-occurrence
structure, a hand-checked embedding geometry, a synthetic two-region
scene where mined contrastive concepts provably help, and a completion
endpoint on a loopback socket."""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import json
import os
import re
import struct
import sys
import threading
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ccmine.ccgen import DEFAULT_DELTA, CCDictionary
from ccmine.cooc import CoocMatrix, _sum_by_key
from ccmine.corpus import Lexicon, normalize_concept
from ccmine.embed import EmbeddingTable, cosines
from ccmine.errors import FormatError
from ccmine.filters import DEFAULT_STOPWORDS, VisibilityTable, filter_rows
from ccmine.ioutil import decode_utf8
from ccmine.metrics import GroundTruth
from ccmine.segment import FeatureMap, SegMap

TOY_CONCEPTS = ["boat", "water", "dock", "cat", "photo", "sunset", "trailer"]

TOY_CAPTIONS = [
    {"id": "c1", "text": "a boat on the water"},
    {"id": "c2", "text": "a boat near the dock at sunset"},
    {"id": "c3", "text": "a photo of a cat"},
    {"id": "c4", "text": "boat and boat trailer"},
]

# occurrence counts implied by the captions above
TOY_OCCURRENCE = {
    "boat": 3,
    "water": 1,
    "dock": 1,
    "cat": 1,
    "photo": 1,
    "sunset": 1,
    "trailer": 1,
}

# symmetric pair counts implied by the captions above
TOY_PAIRS = {
    ("boat", "water"): 1,
    ("boat", "dock"): 1,
    ("boat", "sunset"): 1,
    ("dock", "sunset"): 1,
    ("cat", "photo"): 1,
    ("boat", "trailer"): 1,
}

# unit-ish 3-d embedding geometry (normalized on construction):
# - trailer is nearly parallel to boat (cos 0.95), so the semantic filter
#   at delta=0.8 drops it from boat's candidates and vice versa;
# - ship reproduces the documented near-synonym pair with boat;
# - everything else stays pairwise below the filter threshold.
TOY_VECTORS = {
    "boat": (1.0, 0.0, 0.0),
    "water": (0.0, 1.0, 0.0),
    "dock": (0.0, -0.6, 0.8),
    "cat": (0.0, 0.0, -1.0),
    "photo": (-0.8, 0.0, 0.6),
    "sunset": (0.0, -1.0, 0.0),
    "trailer": (0.95, 0.31224989991991992, 0.0),
    "background": (0.0, 0.0, 1.0),
    "ship": (0.9903, 0.1392, 0.0),
    "liberty": (0.0, 0.1392, 0.9903),
}

# filtered dictionary for the toy corpus at gamma=0.01, delta=0.8 with
# every lexicon concept visible, derived by hand before implementation:
# candidates per concept (descending frequency, ties by name) are
#   boat -> [dock, sunset, trailer, water]   (all 1/3)
#   water -> [boat]; dock -> [boat, sunset]; sunset -> [boat, dock]
#   cat -> [photo]; photo -> [cat]; trailer -> [boat]
# then photo is a stop-word and the trailer/boat pair exceeds delta.
EXPECTED_DICT_G001 = {
    "boat": ["dock", "sunset", "water"],
    "water": ["boat"],
    "dock": ["boat", "sunset"],
    "sunset": ["boat", "dock"],
    "cat": [],
    "photo": ["cat"],
    "trailer": [],
}

# at gamma=0.99 only full-frequency rows survive selection: every concept
# that occurs once keeps its partners (frequency 1.0), while boat's row
# (all 1/3) empties out.
EXPECTED_DICT_G099 = {
    "boat": [],
    "water": ["boat"],
    "dock": ["boat", "sunset"],
    "sunset": ["boat", "dock"],
    "cat": [],
    "photo": ["cat"],
    "trailer": [],
}


@pytest.fixture
def toy_lexicon() -> Lexicon:
    return Lexicon(list(TOY_CONCEPTS))


@pytest.fixture
def toy_corpus_path(tmp_path) -> Path:
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps(c) + "\n" for c in TOY_CAPTIONS), encoding="utf-8")
    return path


@pytest.fixture
def toy_corpus_gz_path(tmp_path) -> Path:
    path = tmp_path / "corpus.jsonl.gz"
    data = "".join(json.dumps(c) + "\n" for c in TOY_CAPTIONS).encode("utf-8")
    path.write_bytes(gzip.compress(data))
    return path


@pytest.fixture
def toy_lexicon_path(tmp_path) -> Path:
    path = tmp_path / "lexicon.txt"
    path.write_text(
        "# toy lexicon\n" + "".join(c + "\n" for c in TOY_CONCEPTS), encoding="utf-8"
    )
    return path


def make_toy_embeddings() -> EmbeddingTable:
    names = sorted(TOY_VECTORS)
    return EmbeddingTable(names, np.array([TOY_VECTORS[n] for n in names]))


@pytest.fixture
def toy_embeddings() -> EmbeddingTable:
    return make_toy_embeddings()


@pytest.fixture
def toy_embeddings_path(tmp_path, toy_embeddings) -> Path:
    path = tmp_path / "toy.emb"
    toy_embeddings.save(path)
    return path


def make_toy_visibility() -> VisibilityTable:
    entries = {c: (True, "manual") for c in TOY_CONCEPTS}
    entries["ship"] = (True, "manual")
    entries["liberty"] = (False, "manual")
    return VisibilityTable(entries)


@contextlib.contextmanager
def substituted(data: bytes):
    """A path that reads ``data`` from a pipe, as a shell's ``<(cat file)``
    gives.  Opening the path again gives the same pipe, part read, so a
    reader that opens it twice fails instead of waiting for a writer."""
    read_end, write_end = os.pipe()

    def feed():
        with contextlib.suppress(BrokenPipeError), open(write_end, "wb", buffering=0) as fh:
            fh.write(data)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        yield f"/dev/fd/{read_end}"
    finally:
        os.close(read_end)  # a writer still blocked on a full pipe gets EPIPE
        writer.join(10)
        assert not writer.is_alive()


def traced_peak(fn):
    """``(fn(), peak)``: what ``fn`` returns and the peak of the memory
    ``tracemalloc`` traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def peak_inside(monkeypatch, owner, name: str, fn):
    """``(fn(), peak)``: what ``fn`` returns and the ``tracemalloc`` peak
    inside ``owner.name`` while ``fn`` ran.  The peak is reset when
    ``owner.name`` is entered and read when it returns, so it counts all
    that is alive during the call, not what was freed before it; over
    several calls the largest is kept."""
    inner = getattr(owner, name)
    peaks = []

    def traced(*args, **kwargs):
        tracemalloc.reset_peak()
        try:
            return inner(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    with monkeypatch.context() as patch:
        patch.setattr(owner, name, traced)
        result, _ = traced_peak(fn)
    assert peaks, f"{name} was never called"
    return result, max(peaks)


def cosine(a, b) -> float:
    """Per-pair oracle: the one-row case of ``cosines``, so a threshold set
    to an exact similarity means the same on both sides."""
    a = np.asarray(a, dtype=np.float64).reshape(1, -1)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1)
    return float(cosines(a, b)[0])


@st.composite
def near_tables(draw, names):
    """Tables whose cosines crowd the thresholds: Gaussian rows, each later
    one maybe a near duplicate or a rescaled copy of an earlier one; the
    rows are sometimes stored as float32 (a CCEMB1 round trip), and
    sometimes a name has none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 2, 3, 7, 16, 33, 300]))
    rows = rng.standard_normal((len(names), dim))
    for k in range(1, len(names)):
        source = rows[draw(st.integers(0, k - 1))]
        kind = draw(st.sampled_from(["own", "near", "scaled"]))
        if kind == "near":
            rows[k] = source + draw(st.sampled_from([1e-12, 1e-9, 1e-6])) * rng.standard_normal(dim)
        elif kind == "scaled":
            rows[k] = source * draw(st.sampled_from([1e-3, 0.5, 3.0, 1e4]))
    absent = draw(st.sets(st.sampled_from(names), max_size=2)) if draw(st.booleans()) else set()
    present = [name for name in names if name not in absent]
    table = EmbeddingTable(present, rows[[names.index(n) for n in present]].reshape(-1, dim))
    return EmbeddingTable.loads(table.dumps()) if draw(st.booleans()) else table


def cooc_matrix(dim: int, pairs: dict) -> CoocMatrix:
    """A matrix from ``{(a, b): count}``; the order within a pair does not
    matter, and a pair given in both orders sums its counts."""
    codes = np.array([min(a, b) * dim + max(a, b) for a, b in pairs], dtype=np.int64)
    counts = np.array(list(pairs.values()), dtype=np.int64)
    return CoocMatrix._from_codes(dim, *_sum_by_key([(codes, counts)]))


def embeddings_loads_by_record(data: bytes) -> EmbeddingTable:
    """Reference CCEMB1 reader, one record at a time: each record's length,
    name and vector norm are checked before the next is read, so the error
    is the first faulty record's.  Each row's norm is its own ``dot``."""
    if data[:6] != b"CCEMB1":
        raise FormatError("not a CCEMB1 embedding table")
    if len(data) < 14:
        raise FormatError("truncated embedding table header")
    dim, count = struct.unpack_from("<II", data, 6)
    offset = 14
    if dim == 0:
        raise FormatError("embedding table dimension is zero")
    if count * (2 + 4 * dim) > len(data) - offset:
        raise FormatError("truncated embedding table entry")
    names: list[str] = []
    unit = np.empty((count, dim), dtype=np.float64)
    norms = np.empty(count)
    for k in range(count):
        if len(data) < offset + 2:
            raise FormatError("truncated embedding table entry")
        (name_len,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if len(data) < offset + name_len + 4 * dim:
            raise FormatError("truncated embedding table entry")
        name = decode_utf8(data[offset : offset + name_len], f"embedding entry {k}'s name")
        offset += name_len
        row = unit[k]
        row[:] = np.frombuffer(data, dtype="<f4", count=dim, offset=offset)
        offset += 4 * dim
        norm = norms[k] = float(np.sqrt(row.dot(row)))
        if not abs(norm - 1.0) <= 1e-4:
            raise FormatError(f"embedding for {name!r} is not unit norm ({norm:.6f})")
        names.append(name)
    if offset != len(data):
        raise FormatError("trailing bytes after embedding table entries")
    if names != sorted(names):
        raise FormatError("embedding table names are not sorted ascending")
    if len(names) != len(set(names)):
        raise FormatError("embedding table contains duplicate names")
    table = EmbeddingTable.__new__(EmbeddingTable)
    table._set_rows(names, unit / norms[:, None], None)
    return table


def cc_dictionary_loads_by_entry(text: str) -> CCDictionary:
    """Reference ``cc.json`` reader, one entry at a time: each entry's shape
    is checked in key order, then every key and list item is normalized,
    and then no key and no item of one list may repeat another.  No object
    may name a raw key twice, the innermost object first."""

    def no_repeat(pairs):
        keys = [k for k, _ in pairs]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise FormatError(f"CC dictionary repeats the key {key!r}")
        return dict(pairs)

    try:
        payload = json.loads(text, object_pairs_hook=no_repeat)
    except (ValueError, RecursionError):
        raise FormatError("CC dictionary is not valid JSON") from None
    if not isinstance(payload, dict) or "cc" not in payload:
        raise FormatError("CC dictionary must be an object with a 'cc' member")
    cc = payload["cc"]
    if not isinstance(cc, dict):
        raise FormatError("CC dictionary 'cc' member must be an object")
    for k, v in cc.items():
        if not isinstance(k, str) or not isinstance(v, list) or not all(
            isinstance(x, str) for x in v
        ):
            raise FormatError(f"CC dictionary entry {k!r} must map a string to a string list")
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("CC dictionary 'meta' member must be an object")
    # a repeat is named as the most repeated string, the first of a tie
    norm = normalize_concept
    keys = Counter(map(norm, cc))
    if len(keys) < len(cc):
        concept = max(keys, key=keys.get)
        raise FormatError(f"CC dictionary repeats concept {concept!r} once normalized")
    normalized = {norm(k): [norm(v) for v in vals] for k, vals in cc.items()}
    for key, vals in normalized.items():
        counts = Counter(vals)
        if len(counts) < len(vals):
            twice = max(counts, key=counts.get)
            raise FormatError(f"CC dictionary entry {key!r} lists {twice!r} twice")
    return CCDictionary(normalized, meta)


# a plain ASCII decimal: no sign, no leading zero, no other script's digits
PLAIN = "(0|[1-9][0-9]*)"


def read_table_by_line(text: str, header: str, width: int):
    """Reference reader for the digest-framed count artifacts, one line at a
    time: the header dimension and the rows as int tuples, or None where
    the text is not a header line, lines of ``width`` plain decimals joined
    by tabs, and the digest of those lines, every line ended by a newline."""
    *lines, last = text.split("\n")
    if last or len(lines) < 2:
        return None
    head, *body, trailer = lines
    found = re.fullmatch(re.escape(header) + " " + PLAIN, head)
    digest = hashlib.sha256("".join(line + "\n" for line in body).encode("utf-8")).hexdigest()
    if found is None or trailer != "#sha256:" + digest:
        return None
    row = re.compile("\t".join([PLAIN] * width))
    rows = [row.fullmatch(line) for line in body]
    if None in rows:
        return None
    return int(found[1]), [tuple(map(int, fields.groups())) for fields in rows]


def pair_counts(matrix: CoocMatrix) -> dict:
    """A matrix's stored pairs as ``{(i, j): count}``, ``i < j``."""
    return dict(zip(map(tuple, matrix.pairs.tolist()), matrix.count.tolist()))


@dataclass
class StageLists:
    """One target's candidates by the filter stage that removed them."""

    kept: list = field(default_factory=list)
    removed_stopword: list = field(default_factory=list)
    removed_invisible: list = field(default_factory=list)
    removed_similar: list = field(default_factory=list)
    unresolved_kept: list = field(default_factory=list)


def split_masks(names, targets, row, col, masks, delta=DEFAULT_DELTA) -> list[StageLists]:
    """``filter_rows``'s per-pair outcome at ``delta`` cut into each
    target's lists; every pair must be in exactly one stage."""
    out = [StageLists() for _ in range(targets)]
    similar, kept = masks.semantic(delta)
    for p, (r, c) in enumerate(zip(row.tolist(), col.tolist())):
        stages = {
            "kept": kept[p],
            "removed_stopword": masks.stopword[p],
            "removed_invisible": masks.invisible[p],
            "removed_similar": similar[p],
        }
        (stage,) = [name for name, hit in stages.items() if hit]
        getattr(out[r], stage).append(names[c])
        if stage == "kept" and masks.unresolved[p]:
            out[r].unresolved_kept.append(names[c])
    return out


def filter_one(
    candidates,
    target,
    embeddings,
    visibility=None,
    stopwords=DEFAULT_STOPWORDS,
    delta=DEFAULT_DELTA,
    oracle=None,
):
    """``filter_rows`` for one target's candidate list, split by stage."""
    names = list(dict.fromkeys([target, *candidates]))
    col = np.array([names.index(c) for c in candidates], dtype=np.int64)
    row = np.zeros(len(col), dtype=np.int64)
    visibility = VisibilityTable() if visibility is None else visibility
    masks = filter_rows(names, 1, row, col, embeddings, visibility, stopwords, oracle)
    (outcome,) = split_masks(names, 1, row, col, masks, delta)
    return outcome


@pytest.fixture
def toy_visibility() -> VisibilityTable:
    return make_toy_visibility()


@pytest.fixture
def toy_visibility_path(tmp_path, toy_visibility) -> Path:
    path = tmp_path / "visibility.jsonl"
    toy_visibility.save(path)
    return path


# ---- the two-region scene ----
#
# A 4x4 patch grid: the left half is a boat, the third column is generic
# clutter aligned with the background direction, and the last column looks
# like water.  Querying "boat" alone claims everything (IoU 1/2); adding
# "background" recovers the clutter column (IoU 2/3); the mined dictionary
# also brings "water", which absorbs the last column (IoU 1).

SCENE_BOAT = (0.95, 0.2, 0.1)
SCENE_CLUTTER = (0.2, 0.5, 0.84)
SCENE_WATERISH = (0.5, 0.84, 0.2)


def make_scene_features() -> FeatureMap:
    grid = np.zeros((4, 4, 3))
    grid[:, 0:2] = SCENE_BOAT
    grid[:, 2] = SCENE_CLUTTER
    grid[:, 3] = SCENE_WATERISH
    return FeatureMap(grid)


def make_scene_gt() -> GroundTruth:
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[:, 0:2] = 1
    return GroundTruth(ids, {1: "boat"}, ignore_id=None, background_id=0)


@pytest.fixture
def scene_features() -> FeatureMap:
    return make_scene_features()


@pytest.fixture
def scene_gt() -> GroundTruth:
    return make_scene_gt()


def write_gt_file(path: Path, gt: GroundTruth) -> None:
    """Write a ground-truth grid in the segmentation file format.

    The grid bytes go through SegMap for format fidelity; the sidecar is
    then rewritten with the ground truth's own label set, which may leave
    the background id unnamed.
    """
    names = dict(gt.labels)
    for idx in np.unique(gt.ids):
        names.setdefault(int(idx), f"_tmp_{int(idx)}")
    SegMap(gt.ids, names).save(path)
    sidecar = {
        "labels": {str(k): v for k, v in sorted(gt.labels.items())},
        "ignore_id": gt.ignore_id,
        "background_id": gt.background_id,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def write_scene_dataset(root: Path, image_ids=("img0",)) -> tuple[Path, Path]:
    """Materialize the scene as a features/gt directory pair."""
    features_dir = root / "features"
    gt_dir = root / "gt"
    features_dir.mkdir(parents=True, exist_ok=True)
    gt_dir.mkdir(parents=True, exist_ok=True)
    for image_id in image_ids:
        make_scene_features().save(features_dir / f"{image_id}.feat")
        write_gt_file(gt_dir / f"{image_id}.seg", make_scene_gt())
    return features_dir, gt_dir


# ---- sweep fixture ----
#
# Same layout, but features are graded in similarity to the boat prompt
# alone: ground truth at cos 0.8, clutter at cos 0.2 and 0.5.  The sigmoid
# threshold sweep then rises from 2/3 to 1.0 and collapses to 0.

SWEEP_GT_VEC = (0.8, 0.6, 0.0)
SWEEP_LOW_VEC = (0.2, 0.9797958971132712, 0.0)
SWEEP_MID_VEC = (0.5, 0.8660254037844386, 0.0)


def make_sweep_features() -> FeatureMap:
    grid = np.zeros((4, 4, 3))
    grid[:, 0:2] = SWEEP_GT_VEC
    grid[:, 2] = SWEEP_LOW_VEC
    grid[:, 3] = SWEEP_MID_VEC
    return FeatureMap(grid)


# ---- a completion endpoint on 127.0.0.1 ----

LLM_CC_ANSWER = "building, tree, car"


def default_answer(handler, payload: dict) -> None:
    """Answer in the payload's style: "yes" to a visibility prompt, the
    ``LLM_CC_ANSWER`` list to anything else."""
    prompt = payload["messages"][0]["content"] if "messages" in payload else payload["prompt"]
    text = "yes" if "something that one can see" in prompt else LLM_CC_ANSWER
    if "messages" in payload:
        reply = {"choices": [{"message": {"role": "assistant", "content": text}}]}
    else:
        reply = {"text": text}
    send(handler, 200, json.dumps(reply).encode("utf-8"))


def send(handler, status: int, body: bytes, length: int | None = None, **headers) -> None:
    """Write one reply; ``length`` may claim more bytes than ``body`` holds."""
    handler.send_response(status)
    handler.send_header("Content-Type", "application/json")
    handler.send_header("Content-Length", str(len(body) if length is None else length))
    for name, value in headers.items():
        handler.send_header(name, value)
    handler.end_headers()
    handler.wfile.write(body)


class _CompletionHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append(
            {"path": self.path, "content_type": self.headers["Content-Type"], "body": body}
        )
        answer = self.server.script.pop(0) if self.server.script else default_answer
        answer(self, json.loads(body))

    def log_message(self, *args):
        pass


class CompletionServer(ThreadingHTTPServer):
    """Records each POST in ``requests`` and answers it with the next
    callable of ``script`` (``answer(handler, payload)``), or with
    ``default_answer`` once the script is used up.  ``release`` ends every
    ``stall``; ``errors`` keeps what a handler raised (a client that timed
    out and hung up, say)."""

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _CompletionHandler)
        self.requests: list[dict] = []
        self.script: list = []
        self.errors: list[BaseException] = []
        self.release = threading.Event()
        self.url = f"http://127.0.0.1:{self.server_address[1]}/v1/completions"

    def stall(self, handler, payload) -> None:
        self.release.wait(10)

    def handle_error(self, request, client_address):
        self.errors.append(sys.exc_info()[1])


_PROXY_VARS = ("http_proxy", "https_proxy", "all_proxy", "no_proxy")


@pytest.fixture
def llm_server(monkeypatch):
    for name in _PROXY_VARS:  # loopback traffic must not go through a proxy
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    server = CompletionServer()
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.release.set()
        server.shutdown()
        server.server_close()
        thread.join()
        gc.collect()  # finalize what a test left in reference cycles
