"""Seeded inputs for the ccmine benchmark, and the references they imply.

Everything here depends only on the seed and the scale.  The generator
writes every input file in its documented on-disk format itself, so the
program under test only ever reads them:

- a gzip JSONL caption corpus: Zipf concept frequencies inside topic
  clusters, about one concept in ten multi-token, caption lengths that vary
  so the pairs per caption vary, and about 1% malformed records;
- a lexicon of several thousand concepts, including the default stop-words;
- a 512-d embedding table where same-topic concepts are closer than others
  and some concepts have a near-synonym above the semantic-filter delta;
- a visibility table that leaves some concepts invisible and some unknown;
- a segmentation dataset: 32x32x512 patch features with ground truth at
  448x448 that carries several lexicon classes per image, a background id
  and an ignore band along class borders.

Sizes that set the work of a job are the same for every seed: caption
count, concept count, the dataset classes' dictionary entries, the merged
prompts of the classic protocol and the (image, class) fields.  So runs
with different seeds measure the same amount of work.

Alongside the inputs it computes the brute-force pair and occurrence counts
of the corpus and the filtered dictionary those counts imply, so the
benchmark can check the program's artifacts.  Captions separate concept
mentions with filler words drawn from a vocabulary disjoint from every
concept token, so the concepts a caption contains are exactly the ones
placed in it.
"""

from __future__ import annotations

import gzip
import json
import struct
from itertools import combinations
from pathlib import Path

import numpy as np

GEN_VERSION = 5

STOPWORDS = ("image", "photo", "picture", "view")
BACKGROUND = "background"
IGNORE_ID = 255
BACKGROUND_ID = 0
DELTA = 0.8
BETA = 0.9
# cosines closer than this to delta or beta would make the reference's
# filter decisions depend on rounding, so the generator refuses them
COSINE_MARGIN = 0.03

SCALES = {
    "full": dict(
        topics=60, per_topic=40, captions=20_000, dim=512, gamma=0.03,
        images=4, classes=6, entries=20,
        pairs_per_partner=3, size=448, patches=32, iou_samples=2,
    ),
    "tiny": dict(
        topics=6, per_topic=12, captions=1_500, dim=64, gamma=0.03,
        images=2, classes=3, entries=6,
        pairs_per_partner=3, size=56, patches=8, iou_samples=2,
    ),
}

_FILLER = (
    "a an the of on in at by with near under over beside behind and or "
    "some two three many one its their this that is are was were being "
    "seen shown here there while during after before around across"
).split()
_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < count:
        lengths = rng.integers(4, 10, size=count)
        letters = rng.integers(0, 26, size=(count, 9))
        for n, row in zip(lengths, letters):
            w = "".join(_LETTERS[row[:n]])
            if w not in taken:
                taken.add(w)
                out.append(w)
                if len(out) == count:
                    break
    return out


def _unit_rows(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def _write_gzip(path: Path, data: bytes) -> None:
    with open(path, "wb") as raw, gzip.GzipFile(
        filename="", mode="wb", fileobj=raw, mtime=0, compresslevel=6
    ) as gz:
        gz.write(data)


def _write_embeddings(path: Path, names: list[str], vectors: np.ndarray) -> None:
    order = sorted(range(len(names)), key=names.__getitem__)
    out = bytearray(b"CCEMB1" + struct.pack("<II", vectors.shape[1], len(names)))
    f32 = vectors.astype("<f4")
    for k in order:
        name = names[k].encode("utf-8")
        out += struct.pack("<H", len(name)) + name + f32[k].tobytes()
    path.write_bytes(bytes(out))


def _write_features(path: Path, feats: np.ndarray) -> None:
    h, w, d = feats.shape
    path.write_bytes(b"CCFEAT1" + struct.pack("<III", h, w, d) + feats.astype("<f4").tobytes())


def _write_gt(path: Path, grid: np.ndarray, labels: dict[int, str]) -> None:
    h, w = grid.shape
    path.write_bytes(b"CCSEG1" + struct.pack("<II", h, w) + grid.astype("<u2").tobytes())
    sidecar = {
        "labels": {str(k): v for k, v in sorted(labels.items())},
        "background_id": BACKGROUND_ID,
        "ignore_id": IGNORE_ID,
    }
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def brute_force_counts(sets: list[np.ndarray], dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occurrences and (i < j) pair counts of per-caption concept-id sets.

    Sets of equal size are stacked and every index pair of the stack is
    encoded as ``i * dim + j``; ``np.unique`` then counts the codes.
    Returns (occurrence, pair codes ascending, pair counts).
    """
    occurrence = np.zeros(dim, dtype=np.int64)
    by_size: dict[int, list[np.ndarray]] = {}
    for s in sets:
        occurrence[s] += 1
        if len(s) >= 2:
            by_size.setdefault(len(s), []).append(s)
    codes = [np.zeros(0, dtype=np.int64)]
    for k, group in by_size.items():
        stack = np.vstack(group).astype(np.int64)
        for a, b in combinations(range(k), 2):
            codes.append(stack[:, a] * dim + stack[:, b])
    pair_codes, pair_counts = np.unique(np.concatenate(codes), return_counts=True)
    return occurrence, pair_codes, pair_counts


def reference_dictionary(
    concepts: list[str],
    occurrence: np.ndarray,
    pair_codes: np.ndarray,
    pair_counts: np.ndarray,
    unit: np.ndarray,
    visible: dict[str, bool],
    gamma: float,
) -> tuple[dict[str, list[str]], dict[str, int]]:
    """The filtered dictionary the counts imply under ``--unknown-visibility
    accept``: candidates with frequency strictly above gamma ordered by
    descending frequency then name, minus stop-words, invisible concepts and
    concepts with cosine above DELTA to the target.  Also returns how many
    candidates each stage removed."""
    dim = len(concepts)
    i, j = pair_codes // dim, pair_codes % dim
    row = np.concatenate([i, j])
    col = np.concatenate([j, i])
    count = np.concatenate([pair_counts, pair_counts])
    freq = count / occurrence[row]
    keep = freq > gamma
    row, col, freq = row[keep], col[keep], freq[keep]
    name_rank = np.empty(dim, dtype=np.int64)
    name_rank[sorted(range(dim), key=concepts.__getitem__)] = np.arange(dim)
    order = np.lexsort((name_rank[col], -freq, row))
    row, col = row[order], col[order]
    stop = np.array([c in STOPWORDS for c in concepts])
    invisible = np.array([visible.get(c) is False for c in concepts])
    cos = np.einsum("ij,ij->i", unit[row], unit[col])
    stage1 = ~stop[col]
    stage2 = stage1 & ~invisible[col]
    near = np.abs(cos[stage2] - DELTA) < COSINE_MARGIN
    if near.any():
        raise RuntimeError("generated embeddings put a candidate cosine too close to delta")
    kept = stage2 & (cos <= DELTA)
    removed = {
        "candidates": int(len(col)),
        "stopword": int((~stage1).sum()),
        "invisible": int((stage1 & ~stage2).sum()),
        "similar": int((stage2 & ~kept).sum()),
        "kept": int(kept.sum()),
    }
    cc: dict[str, list[str]] = {c: [] for c in concepts}
    for r, c in zip(row[kept].tolist(), col[kept].tolist()):
        cc[concepts[r]].append(concepts[c])
    return cc, removed


def generate(out: Path, seed: int, scale: str) -> dict:
    """Write every input for ``seed`` under ``out`` and return the manifest.

    The mine and build-cc artifacts that later workloads consume are not
    made here; the caller runs the program for those.
    """
    p = SCALES[scale]
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    taken = set(_FILLER) | set(STOPWORDS) | {BACKGROUND}

    # ---- lexicon: topics of single-token and two-token concepts ----
    n_topics, per_topic = p["topics"], p["per_topic"]
    n_topic_concepts = n_topics * per_topic
    n_multi = n_topic_concepts // 10
    singles = _words(rng, n_topic_concepts - n_multi, taken)
    # two-token concepts draw their tokens from their own pool, so no
    # token of a multi-token concept is a concept by itself
    parts = _words(rng, max(8, n_multi // 2), taken)
    multi: list[str] = []
    seen_multi: set[str] = set()
    while len(multi) < n_multi:
        a, b = rng.choice(len(parts), size=2, replace=False)
        phrase = f"{parts[a]} {parts[b]}"
        if phrase not in seen_multi:
            seen_multi.add(phrase)
            multi.append(phrase)
    topic_concepts = singles + multi
    rng.shuffle(topic_concepts)
    classes = sorted(_words(rng, p["classes"], taken))
    concepts = topic_concepts + list(STOPWORDS) + classes
    concepts = [concepts[k] for k in rng.permutation(len(concepts))]
    cid = {c: k for k, c in enumerate(concepts)}
    # members[t, r]: concept id of rank r in topic t
    members = np.array(
        [[cid[c] for c in topic_concepts[t * per_topic:(t + 1) * per_topic]] for t in range(n_topics)]
    )
    class_ids = np.array([cid[c] for c in classes])
    (out / "lexicon.txt").write_text("# benchmark lexicon\n" + "".join(c + "\n" for c in concepts))

    # ---- embeddings: topic centroids plus noise; near-synonym pairs ----
    dim = p["dim"]
    centroids = _unit_rows(rng.standard_normal((n_topics, dim)))
    vectors = _unit_rows(rng.standard_normal((len(concepts) + 1, dim)))
    n_syn = max(1, per_topic // 10)
    for t in range(n_topics):
        ids = members[t]
        noise = _unit_rows(rng.standard_normal((per_topic, dim)))
        vectors[ids] = _unit_rows(0.55 * centroids[t] + 0.835 * noise)
        # the least frequent ranks of each topic are near-synonyms of the
        # most frequent ones, so they co-occur and the semantic filter has
        # something to remove
        for r in range(n_syn):
            jitter = _unit_rows(rng.standard_normal(dim))
            vectors[ids[per_topic - 1 - r]] = _unit_rows(0.985 * vectors[ids[r]] + 0.17 * jitter)
    names = concepts + [BACKGROUND]
    _write_embeddings(out / "embeddings.ccemb", names, vectors)
    # what the loader will see: float32 storage, renormalized in float64
    stored = vectors.astype("<f4").astype(np.float64)
    unit = stored / np.linalg.norm(stored, axis=1, keepdims=True)

    # ---- visibility: some invisible, some unknown ----
    u = rng.random(len(concepts))
    u[class_ids] = 1.0
    visible: dict[str, bool] = {}
    for c, x in zip(concepts, u):
        if x < 0.08:
            visible[c] = False
        elif x >= 0.18:
            visible[c] = True
    (out / "visibility.jsonl").write_text(
        "".join(
            json.dumps({"concept": c, "visible": visible[c], "source": "manual"}) + "\n"
            for c in sorted(visible)
        )
    )

    # ---- corpus ----
    # The dataset classes occur only in designed two-concept captions: class
    # i meets each of its partners ``pairs_per_partner`` times, and its
    # partners are a window of a visible, synonym-free pool shifted by two
    # per class.  Every seed then gives each class the same number of
    # dictionary entries and the classic protocol the same merged prompts.
    n_entries, repeat = p["entries"], p["pairs_per_partner"]
    eligible = [c for c in members[:, : per_topic - n_syn].ravel()
                if visible.get(concepts[c]) is True and c not in members[:, :n_syn]]
    pool = rng.choice(eligible, size=2 * (len(classes) - 1) + n_entries, replace=False)
    designed = [
        [int(class_ids[i]), int(partner)]
        for i in range(len(classes))
        for partner in pool[2 * i: 2 * i + n_entries]
        for _ in range(repeat)
    ]
    n_cap = p["captions"]
    n_rand = n_cap - len(designed)
    topic_w = 1.0 / np.arange(1, n_topics + 1) ** 0.8
    rank_w = 1.0 / np.arange(1, per_topic + 1) ** 1.1
    topic_cdf = np.cumsum(topic_w) / topic_w.sum()
    rank_cdf = np.cumsum(rank_w) / rank_w.sum()
    cap_topic = np.searchsorted(topic_cdf, rng.random(n_rand))
    n_mentions = np.minimum(rng.geometric(0.28, size=n_rand), 14)
    n_mentions[rng.random(n_rand) < 0.08] = 0
    total = int(n_mentions.sum())
    owner = np.repeat(np.arange(n_rand), n_mentions)
    other_topic = np.searchsorted(topic_cdf, rng.random(total))
    mention_topic = np.where(rng.random(total) < 0.85, cap_topic[owner], other_topic)
    mention_rank = np.minimum(np.searchsorted(rank_cdf, rng.random(total)), per_topic - 1)
    mention_ids = members[mention_topic, mention_rank]
    starts = np.concatenate([[0], np.cumsum(n_mentions)])
    stop_ids = np.array([cid[s] for s in STOPWORDS])
    stop_pick = np.where(
        rng.random(n_rand) < 0.06, stop_ids[rng.integers(0, len(stop_ids), size=n_rand)], -1
    )
    mentions = [
        mention_ids[starts[k]:starts[k + 1]].tolist() + ([int(stop_pick[k])] if stop_pick[k] >= 0 else [])
        for k in range(n_rand)
    ] + designed
    order = rng.permutation(n_cap)
    malformed = rng.random(n_cap) < 0.01
    malformed[order >= n_rand] = False  # designed captions stay well-formed
    bad_kind = rng.integers(0, 4, size=n_cap)
    upper = rng.random(n_cap) < 0.5
    n_slots = sum(len(m) for m in mentions) + n_cap
    fill_n = rng.integers(1, 3, size=n_slots)
    fill_w = rng.integers(0, len(_FILLER), size=(n_slots, 2))
    comma = rng.random(n_slots) < 0.1

    lines: list[str] = []
    sets: list[np.ndarray] = []
    slot = 0
    for k in range(n_cap):
        ids = mentions[order[k]]
        toks = [_FILLER[fill_w[slot, 0]]]
        slot += 1
        for c in ids:
            phrase = concepts[c]
            toks.append(phrase + "," if comma[slot] else phrase)
            toks.extend(_FILLER[w] for w in fill_w[slot, : fill_n[slot]])
            slot += 1
        toks[-1] += "."
        text = " ".join(toks)
        if upper[k]:
            text = text[0].upper() + text[1:]
        rec_id = f"c{k:07d}"
        if malformed[k]:
            kind = bad_kind[k]
            if kind == 0:
                line = json.dumps({"id": rec_id, "text": text})[:-7]
            elif kind == 1:
                line = json.dumps([rec_id, text])
            elif kind == 2:
                line = json.dumps({"id": k, "text": text})
            else:
                line = json.dumps({"id": rec_id, "caption": text})
        else:
            line = json.dumps({"id": rec_id, "text": text})
            sets.append(np.unique(np.array(ids, dtype=np.int64)))
        lines.append(line)
    _write_gzip(out / "corpus.jsonl.gz", ("\n".join(lines) + "\n").encode("utf-8"))
    occurrence, pair_codes, pair_counts = brute_force_counts(sets, len(concepts))
    np.savez(out / "counts.npz", occurrence=occurrence, pair_codes=pair_codes, pair_counts=pair_counts)

    # ---- reference dictionary ----
    cc, stages = reference_dictionary(
        concepts, occurrence, pair_codes, pair_counts, unit[: len(concepts)], visible, p["gamma"]
    )
    (out / "expected_cc.json").write_text(json.dumps(cc, sort_keys=True))
    if any(len(cc[c]) != n_entries for c in classes):
        raise RuntimeError("a dataset class did not get its designed dictionary entry")
    for stage in ("stopword", "invisible", "similar"):
        if stages[stage] == 0:
            raise RuntimeError(f"the {stage} filter removes no candidate; inputs are degenerate")

    # ---- segmentation dataset ----
    dataset = _make_dataset(out, rng, p, classes, pool, unit, cid)

    manifest = {
        "gen_version": GEN_VERSION,
        "seed": seed,
        "scale": scale,
        "captions": n_cap,
        "malformed": int(malformed.sum()),
        "matched_captions": int(sum(1 for s in sets if len(s))),
        "concepts": len(concepts),
        "pairs": int(len(pair_codes)),
        "pair_increments": int(sum(len(s) * (len(s) - 1) // 2 for s in sets)),
        "gamma": p["gamma"],
        "filter_stages": stages,
        "classes": classes,
        **dataset,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))
    return manifest


def _make_dataset(out, rng, p, classes, partners, unit, cid) -> dict:
    """Images alternate three and four classes, so every seed has the same
    number of (image, class) fields.  Class patches mix in one of the
    classes' contrastive partners, background patches a random concept."""
    size, patches = p["size"], p["patches"]
    feat_dir = out / "features"
    gt_dir = out / "gt"
    feat_dir.mkdir(exist_ok=True)
    gt_dir.mkdir(exist_ok=True)
    labels = {k + 1: c for k, c in enumerate(classes)}
    yy, xx = np.mgrid[0:size, 0:size]
    centers = ((np.arange(patches) + 0.5) * (size / patches)).astype(np.int64)
    n_concepts = unit.shape[0] - 1
    images = []
    for k in range(p["images"]):
        present = sorted(rng.choice(len(classes), size=min(len(classes), 3 + k % 2), replace=False))
        while True:
            grid = np.zeros((size, size), dtype=np.int64)
            for cls in present:
                for _ in range(int(rng.integers(1, 3))):
                    cy, cx = rng.uniform(0.15, 0.85, size=2) * size
                    ry, rx = rng.uniform(0.1, 0.3, size=2) * size
                    grid[((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0] = cls + 1
            border = np.zeros_like(grid, dtype=bool)
            for axis in (0, 1):
                for shift in (1, 2):
                    border |= grid != np.roll(grid, shift, axis=axis)
            gt = np.where(border, IGNORE_ID, grid)
            if all(np.count_nonzero(gt == cls + 1) >= size * size // 50 for cls in present):
                break
        patch_label = grid[np.ix_(centers, centers)]
        label_ids = np.array([n_concepts] + [cid[c] for c in classes])[patch_label]
        distract = np.where(
            patch_label > 0,
            rng.choice(partners, size=patch_label.shape),
            rng.integers(0, n_concepts, size=patch_label.shape),
        )
        noise = _unit_rows(rng.standard_normal((patches, patches, unit.shape[1])))
        weight = np.where(patch_label > 0, 0.5, 0.3)[..., None]
        feats = _unit_rows(weight * unit[label_ids] + 0.35 * unit[distract] + 0.5 * noise)
        name = f"img{k:03d}"
        _write_features(feat_dir / f"{name}.feat", feats)
        _write_gt(gt_dir / f"{name}.seg", gt, labels)
        images.append({"id": name, "classes": [classes[c] for c in present]})
    fields = [(im["id"], c) for im in images for c in im["classes"]]
    pick = rng.choice(len(fields), size=min(p["iou_samples"], len(fields)), replace=False)
    return {
        "images": images,
        "fields": len(fields),
        "iou_sample": [list(fields[i]) for i in sorted(pick)],
        "size": size,
    }
