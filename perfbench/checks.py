"""Output checks, run outside timing on every benchmark run.

Each check returns a list of (name, ok, detail).  The references here are
plain numpy/float64 code written from the documented formats and
protocols; they share nothing with the program but the input files.
Bilinear upsampling is done separably with two interpolation matrices,
which differs from the program's gathers only in the last bits.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from gen import BACKGROUND, BETA, COSINE_MARGIN, IGNORE_ID

Check = tuple[str, bool, str]


def _digest_framed(path: Path, header: str) -> tuple[int, list[str]]:
    """Header dimension and body lines of a digest-framed text artifact."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith(header + " ") or not lines[-1].startswith("#sha256:"):
        raise ValueError(f"{path.name} is not framed as {header}")
    body = lines[1:-1]
    digest = hashlib.sha256("".join(ln + "\n" for ln in body).encode()).hexdigest()
    if digest != lines[-1][len("#sha256:"):]:
        raise ValueError(f"{path.name} digest trailer does not match its body")
    return int(lines[0].rsplit(" ", 1)[1]), body


def check_mine(inp: Path, man: dict, matrix: Path, counts: Path, summary: str | None) -> list[Check]:
    with np.load(inp / "counts.npz") as npz:
        ref = dict(npz)
    out: list[Check] = []
    try:
        dim, body = _digest_framed(matrix, "ccmine-cooc v1")
        triples = np.array([ln.split("\t") for ln in body], dtype=np.int64).reshape(-1, 3)
        codes = triples[:, 0] * dim + triples[:, 1]
        ok = (
            dim == man["concepts"]
            and np.array_equal(codes, ref["pair_codes"])
            and np.array_equal(triples[:, 2], ref["pair_counts"])
        )
        out.append(("mine.pairs_match_brute_force", bool(ok), f"{len(codes)} pairs"))
        dim, body = _digest_framed(counts, "ccmine-counts v1")
        occ = np.array([ln.split("\t") for ln in body], dtype=np.int64).reshape(-1, 2)
        ok = np.array_equal(occ[:, 0], np.arange(dim)) and np.array_equal(occ[:, 1], ref["occurrence"])
        out.append(("mine.occurrence_match_brute_force", bool(ok), f"{dim} concepts"))
    except ValueError as exc:
        out.append(("mine.artifacts_parse", False, str(exc)))
    if summary is not None:
        try:
            got = json.loads(summary)
        except ValueError:
            got = {}
        want = {k: man[k] for k in ("captions", "malformed", "matched_captions", "pairs")}
        ok = all(got.get(k) == v for k, v in want.items())
        out.append(("mine.summary", ok, f"got {got}, want {want}"))
    return out


def check_build(expected: Path, cc_path: Path) -> list[Check]:
    want = json.loads(expected.read_text())
    try:
        got = json.loads(cc_path.read_text())["cc"]
    except (ValueError, KeyError) as exc:
        return [("build.dictionary", False, f"unreadable: {exc}")]
    bad = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    return [("build.dictionary_matches_reference", not bad, f"{len(bad)} entries differ {bad[:3]}")]


# ---- float64 segmentation reference ----


def _features(path: Path) -> np.ndarray:
    data = path.read_bytes()
    h, w, d = struct.unpack_from("<III", data, 7)
    arr = np.frombuffer(data, dtype="<f4", offset=19).reshape(h, w, d).astype(np.float64)
    return arr / np.linalg.norm(arr, axis=2)[:, :, None]


def _ground_truth(path: Path) -> tuple[np.ndarray, dict]:
    data = path.read_bytes()
    h, w = struct.unpack_from("<II", data, 6)
    grid = np.frombuffer(data, dtype="<u2", offset=14).reshape(h, w).astype(np.int64)
    return grid, json.loads(Path(str(path) + ".json").read_text())


def _embeddings(path: Path) -> dict[str, np.ndarray]:
    data = path.read_bytes()
    dim, count = struct.unpack_from("<II", data, 6)
    off = 14
    table = {}
    for _ in range(count):
        (n,) = struct.unpack_from("<H", data, off)
        name = data[off + 2: off + 2 + n].decode()
        off += 2 + n
        v = np.frombuffer(data, dtype="<f4", count=dim, offset=off).astype(np.float64)
        off += 4 * dim
        table[name] = v / np.linalg.norm(v)
    return table


def _interp(n_in: int, n_out: int) -> np.ndarray:
    """Rows of half-pixel, edge-clamped linear interpolation weights."""
    pos = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    lo = np.floor(pos)
    frac = pos - lo
    lo = lo.astype(np.int64)
    m = np.zeros((n_out, n_in))
    rows = np.arange(n_out)
    np.add.at(m, (rows, np.clip(lo, 0, n_in - 1)), 1.0 - frac)
    np.add.at(m, (rows, np.clip(lo + 1, 0, n_in - 1)), frac)
    return m


def _upsample(planes: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    h, w = planes.shape[:2]
    rows = np.einsum("Yh,hwl->Ywl", _interp(h, out_h), planes)
    return np.einsum("Xw,Ywl->YXl", _interp(w, out_w), rows)


def _segment(feats: np.ndarray, vectors: list[np.ndarray], out_h: int, out_w: int) -> np.ndarray:
    prompts = np.vstack(vectors)
    prompts = prompts / np.linalg.norm(prompts, axis=1, keepdims=True)
    logits = np.clip(feats @ prompts.T, -1.0, 1.0)
    return _upsample(logits, out_h, out_w).argmax(axis=2)


def _cc_d(query: str, cc: dict[str, list[str]]) -> list[str]:
    return [BACKGROUND] + [c for c in cc[query] if c != query and c != BACKGROUND]


def _i_u(pred: np.ndarray, truth: np.ndarray, keep: np.ndarray) -> tuple[int, int]:
    pred, truth = pred & keep, truth & keep
    return int(np.count_nonzero(pred & truth)), int(np.count_nonzero(pred | truth))


def check_eval_single(inp: Path, man: dict, report_path: Path, cc_path: Path) -> list[Check]:
    report = json.loads(report_path.read_text())
    failures = sum(len(im["failures"]) for im in report["per_image"])
    out: list[Check] = [("eval.single.zero_class_failures", failures == 0, f"{failures} failures")]
    cc = json.loads(cc_path.read_text())["cc"]
    emb = _embeddings(inp / "embeddings.ccemb")
    per_image = {im["id"]: im["classes"] for im in report["per_image"]}
    for image_id, label in man["iou_sample"]:
        feats = _features(inp / "features" / f"{image_id}.feat")
        grid, side = _ground_truth(inp / "gt" / f"{image_id}.seg")
        class_id = next(int(k) for k, v in side["labels"].items() if v == label)
        labels = [label] + [c for c in _cc_d(label, cc) if c != label]
        pix = _segment(feats, [emb[x] for x in labels], *grid.shape)
        i, u = _i_u(pix == 0, grid == class_id, grid != IGNORE_ID)
        got = per_image.get(image_id, {}).get(label)
        out.append((f"eval.single.iou[{image_id},{label}]", got == i / u, f"got {got}, want {i}/{u}"))
    return out


def check_eval_classic(inp: Path, man: dict, report_path: Path, cc_path: Path) -> list[Check]:
    report = json.loads(report_path.read_text())
    cc = json.loads(cc_path.read_text())["cc"]
    emb = _embeddings(inp / "embeddings.ccemb")
    classes = sorted({c for im in man["images"] for c in im["classes"]} | set(man["classes"]))
    queries = [BACKGROUND] + classes
    merged: list[str] = []
    for q in classes:
        for c in _cc_d(q, cc):
            if c not in merged:
                merged.append(c)
    kept = []
    for c in merged:
        if c in queries:
            continue
        cos = np.array([emb[c] @ emb[q] for q in queries])
        if np.any(np.abs(cos - BETA) < COSINE_MARGIN):
            return [("eval.classic.reference", False, f"{c!r} sits within the margin of beta")]
        if np.all(cos <= BETA):
            kept.append(c)
    labels = queries + kept
    vectors = [emb[x] for x in labels]
    acc: dict[str, list[int]] = {}
    for im in man["images"]:
        feats = _features(inp / "features" / f"{im['id']}.feat")
        grid, side = _ground_truth(inp / "gt" / f"{im['id']}.seg")
        pix = _segment(feats, vectors, *grid.shape)
        pix[pix >= len(queries)] = 0  # contrastive concepts go to background
        ids = {v: int(k) for k, v in side["labels"].items()}
        ids[BACKGROUND] = side["background_id"]
        keep = grid != IGNORE_ID
        for k, label in enumerate(queries):
            i, u = _i_u(pix == k, grid == ids.get(label, -1), keep)
            bucket = acc.setdefault(label, [0, 0])
            bucket[0] += i
            bucket[1] += u
    want = {label: [i, u] for label, (i, u) in acc.items() if u > 0}
    got = {label: [v["intersection"], v["union"]] for label, v in report["per_class"].items()}
    return [("eval.classic.per_class_counts", got == want, f"{len(want)} classes")]


def check_sweep(inp: Path, man: dict, report_path: Path, steps: int) -> list[Check]:
    report = json.loads(report_path.read_text())
    emb = _embeddings(inp / "embeddings.ccemb")
    fields = []
    for im in man["images"]:
        feats = _features(inp / "features" / f"{im['id']}.feat")
        grid, side = _ground_truth(inp / "gt" / f"{im['id']}.seg")
        keep = grid != IGNORE_ID
        for class_id in sorted(set(np.unique(grid).tolist()) - {IGNORE_ID, side["background_id"]}):
            label = side["labels"][str(class_id)]
            cos = np.clip(feats @ emb[label], -1.0, 1.0)
            score = _upsample((1.0 / (1.0 + np.exp(-cos)))[:, :, None], *grid.shape)[:, :, 0]
            fields.append((im["id"], label, score, grid == class_id, keep))
    lo = min(float(f[2].min()) for f in fields)
    hi = max(float(f[2].max()) for f in fields)
    rows = []
    for t in np.linspace(lo, hi, steps):
        by_image: dict[str, list[float]] = {}
        acc: dict[str, list[int]] = {}
        for image_id, label, score, truth, keep in fields:
            i, u = _i_u(score > t, truth, keep)
            if u > 0:
                by_image.setdefault(image_id, []).append(i / u)
            bucket = acc.setdefault(label, [0, 0])
            bucket[0] += i
            bucket[1] += u
        means = [sum(v) / len(v) for v in by_image.values()]
        ious = [i / u for i, u in acc.values() if u > 0]
        rows.append((sum(ious) / len(ious) if ious else 0.0, sum(means) / len(means) if means else 0.0))
    got = [(r["mean_class"], r["mean_image"]) for r in report["rows"]]
    # the end thresholds equal the extreme scores, which edge-clamped flat
    # regions repeat over many pixels; whether those pixels pass then
    # depends on the last bit, so only interior thresholds are compared
    ok = len(got) == len(rows) and np.allclose(got[1:-1], rows[1:-1], rtol=0, atol=1e-9)
    ok = ok and abs(report["score_min"] - lo) < 1e-12 and abs(report["score_max"] - hi) < 1e-12
    return [(f"sweep.steps{steps}.rows_match_reference", bool(ok), f"{len(rows)} rows")]
