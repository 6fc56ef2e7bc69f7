"""Shared fixtures: a tiny caption corpus with a known co-occurrence
structure, a hand-checked embedding geometry, a synthetic two-region
scene where mined contrastive concepts provably help, and a completion
endpoint on a loopback socket."""

from __future__ import annotations

import gc
import gzip
import json
import sys
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from ccmine.cooc import CoocMatrix, _sum_by_key
from ccmine.corpus import Lexicon
from ccmine.embed import EmbeddingTable, cosines
from ccmine.filters import VisibilityTable, filter_rows
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


def cosine(a, b) -> float:
    """Per-pair oracle: the one-row case of ``cosines``, so a threshold set
    to an exact similarity means the same on both sides."""
    a = np.asarray(a, dtype=np.float64).reshape(1, -1)
    b = np.asarray(b, dtype=np.float64).reshape(1, -1)
    return float(cosines(a, b)[0])


def cooc_matrix(dim: int, pairs: dict) -> CoocMatrix:
    """A matrix from ``{(a, b): count}``; the order within a pair does not
    matter, and a pair given in both orders sums its counts."""
    codes = np.array([min(a, b) * dim + max(a, b) for a, b in pairs], dtype=np.int64)
    counts = np.array(list(pairs.values()), dtype=np.int64)
    return CoocMatrix._from_codes(dim, *_sum_by_key(codes, counts))


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


def split_masks(names, targets, row, col, masks) -> list[StageLists]:
    """``filter_rows``'s per-pair masks cut into each target's lists; every
    pair must be in exactly one stage."""
    out = [StageLists() for _ in range(targets)]
    for p, (r, c) in enumerate(zip(row.tolist(), col.tolist())):
        stages = {
            "kept": masks.kept[p],
            "removed_stopword": masks.stopword[p],
            "removed_invisible": masks.invisible[p],
            "removed_similar": masks.similar[p],
        }
        (stage,) = [name for name, hit in stages.items() if hit]
        getattr(out[r], stage).append(names[c])
        if stage == "kept" and masks.unresolved[p]:
            out[r].unresolved_kept.append(names[c])
    return out


def filter_one(candidates, target, embeddings, visibility=None, config=None, oracle=None):
    """``filter_rows`` for one target's candidate list, split by stage."""
    names = list(dict.fromkeys([target, *candidates]))
    col = np.array([names.index(c) for c in candidates], dtype=np.int64)
    row = np.zeros(len(col), dtype=np.int64)
    visibility = VisibilityTable() if visibility is None else visibility
    masks = filter_rows(names, 1, row, col, embeddings, visibility, config, oracle)
    (outcome,) = split_masks(names, 1, row, col, masks)
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
