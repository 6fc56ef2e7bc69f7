"""End-to-end command-line runs, exit codes, and artifact determinism."""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import pickle
import re
import stat
import subprocess
import sys
import threading
import weakref
from collections import Counter
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ccmine import ccgen, cli, cooc, ioutil
from ccmine.ccgen import CCDictionary
from ccmine.cli import main
from ccmine.cooc import CoocMatrix
from ccmine.corpus import Lexicon
from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError, FormatError
from ccmine.filters import VisibilityTable
from ccmine.ioutil import HashedInput
from ccmine.llm import CC_GENERATION, render
from ccmine.metrics import GroundTruth
from ccmine.segment import BOTTOM, FeatureMap, SegMap, sigmoid

from conftest import (
    EXPECTED_DICT_G001,
    TOY_CAPTIONS,
    TOY_CONCEPTS,
    TOY_VECTORS,
    make_scene_features,
    make_sweep_features,
    pair_counts,
    peak_inside,
    send,
    substituted,
    traced_peak,
    write_gt_file,
    write_scene_dataset,
)


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def mined(tmp_path, toy_corpus_path, toy_lexicon_path, capsys):
    matrix_path = tmp_path / "pairs.cooc"
    counts_path = tmp_path / "occ.counts"
    code, _, _ = run(
        capsys,
        "mine",
        "--corpus", toy_corpus_path,
        "--lexicon", toy_lexicon_path,
        "--out-matrix", matrix_path,
        "--out-counts", counts_path,
    )
    assert code == 0
    return matrix_path, counts_path


@pytest.fixture
def dict_path(tmp_path):
    path = tmp_path / "cc.json"
    CCDictionary({k: list(v) for k, v in EXPECTED_DICT_G001.items()}).save(path)
    return path


def write_two_class_dataset(root: Path, features: dict, scale: int = 1) -> tuple[Path, Path]:
    """One image per ``features`` entry, each with a 4x4 ground truth of
    boat, background and water columns, scaled ``scale`` times per side."""
    features_dir = root / "features"
    gt_dir = root / "gt"
    features_dir.mkdir(parents=True)
    gt_dir.mkdir(parents=True)
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[:, 0:2] = 1
    ids[:, 3] = 2
    ids = np.kron(ids, np.ones((scale, scale), dtype=np.int32))
    gt = GroundTruth(ids, {0: "background", 1: "boat", 2: "water"}, background_id=0)
    for image_id, feature_map in features.items():
        feature_map.save(features_dir / f"{image_id}.feat")
        write_gt_file(gt_dir / f"{image_id}.seg", gt)
    return features_dir, gt_dir


def write_classic_dataset(root: Path) -> tuple[Path, Path]:
    return write_two_class_dataset(root / "classic", {"img0": make_scene_features()})


class TestMine:
    def test_summary_and_artifacts(self, mined, capsys, toy_lexicon):
        matrix_path, counts_path = mined
        matrix = CoocMatrix.load(matrix_path)
        assert len(matrix.pairs) == 6
        boat, water = sorted((toy_lexicon.index["boat"], toy_lexicon.index["water"]))
        assert pair_counts(matrix)[(boat, water)] == 1

    def test_summary_json(self, tmp_path, toy_corpus_path, toy_lexicon_path, capsys):
        code, out, _ = run(
            capsys,
            "mine",
            "--corpus", toy_corpus_path,
            "--lexicon", toy_lexicon_path,
            "--out-matrix", tmp_path / "m",
            "--out-counts", tmp_path / "c",
            "--workers", "2",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["captions"] == 4
        assert summary["malformed"] == 0
        assert summary["pairs"] == 6
        assert summary["workers"] == 2

    def test_deterministic_across_workers(
        self, tmp_path, toy_corpus_path, toy_lexicon_path, capsys
    ):
        blobs = []
        for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            m = tmp_path / f"m{tag}"
            c = tmp_path / f"c{tag}"
            code, _, _ = run(
                capsys,
                "mine",
                "--corpus", toy_corpus_path,
                "--lexicon", toy_lexicon_path,
                "--out-matrix", m,
                "--out-counts", c,
                "--workers", workers,
            )
            assert code == 0
            blobs.append((m.read_bytes(), c.read_bytes()))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_summary_echoes_workers_past_the_usable_cpus(
        self, mined, tmp_path, toy_corpus_path, toy_lexicon_path, capsys, monkeypatch
    ):
        # the pool never outgrows the usable CPUs: one counts in process
        monkeypatch.setattr(cooc, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(cooc, "ProcessPoolExecutor", mock.Mock(side_effect=AssertionError))
        code, out, _ = run(
            capsys,
            "mine",
            "--corpus", toy_corpus_path,
            "--lexicon", toy_lexicon_path,
            "--out-matrix", tmp_path / "m",
            "--out-counts", tmp_path / "c",
            "--workers", "10000",
        )
        assert code == 0
        assert json.loads(out)["workers"] == 10000
        assert [(tmp_path / name).read_bytes() for name in "mc"] == [p.read_bytes() for p in mined]

    def test_workers_env(
        self, tmp_path, toy_corpus_path, toy_lexicon_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("CCMINE_WORKERS", "2")
        code, out, _ = run(
            capsys,
            "mine",
            "--corpus", toy_corpus_path,
            "--lexicon", toy_lexicon_path,
            "--out-matrix", tmp_path / "m",
            "--out-counts", tmp_path / "c",
        )
        assert code == 0
        assert json.loads(out)["workers"] == 2

    def test_missing_corpus_is_io_error(self, tmp_path, toy_lexicon_path, capsys):
        code, _, err = run(
            capsys,
            "mine",
            "--corpus", tmp_path / "nope.jsonl",
            "--lexicon", toy_lexicon_path,
            "--out-matrix", tmp_path / "m",
            "--out-counts", tmp_path / "c",
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("compress", [False, True])
    def test_undecodable_lines_are_malformed(
        self, tmp_path, toy_lexicon_path, capsys, compress, workers
    ):
        good = [json.dumps(c).encode() + b"\n" for c in TOY_CAPTIONS]
        bad = [
            b'{"id": "x1", "text": "a boat \xff on the water"}\n',
            b'{"id": "x2", "text": "a boat near the dock \xc3"}\n',
            b'{"id": "x3", "text": "caf\xc3\xa9 \xed\xa0\x80 boat"}\n',
            b'{"id": "x4", "text": "boat \xe2\x82"}',  # truncated at end of file
        ]
        outputs = []
        for tag, body in (("clean", b"".join(good)), ("dirty", b"".join(
            [good[0], bad[0], good[1], bad[1], bad[2], good[2], good[3], bad[3]]
        ))):
            corpus = tmp_path / f"{tag}.jsonl"
            corpus.write_bytes(gzip.compress(body) if compress else body)
            code, out, _ = run(
                capsys,
                "mine",
                "--corpus", corpus,
                "--lexicon", toy_lexicon_path,
                "--out-matrix", tmp_path / f"{tag}.m",
                "--out-counts", tmp_path / f"{tag}.c",
                "--workers", workers,
            )
            assert code == 0
            summary = json.loads(out)
            outputs.append(
                ((tmp_path / f"{tag}.m").read_bytes(), (tmp_path / f"{tag}.c").read_bytes())
            )
        assert summary["captions"] == len(good) + len(bad)
        assert summary["malformed"] == len(bad)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_piped_corpus_mines_as_the_file_does(
        self, tmp_path, toy_lexicon_path, capsys, compress, workers
    ):
        records = [*TOY_CAPTIONS, {"id": "p1", "text": "A boat, at the dock... (sunset)!"}]
        body = "".join(json.dumps(r) + "\n" for r in records).encode()
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(gzip.compress(body) if compress else body)
        outputs = []
        for piped in (False, True):
            m, c = tmp_path / f"m{piped}", tmp_path / f"c{piped}"
            with substituted(corpus.read_bytes()) if piped else contextlib.nullcontext(corpus) as path:
                code, out, err = run(
                    capsys, "mine", "--corpus", path, "--lexicon", toy_lexicon_path,
                    "--out-matrix", m, "--out-counts", c, "--workers", workers,
                )
            assert code == 0, err
            outputs.append((m.read_bytes(), c.read_bytes(), out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][2])["captions"] == len(records)

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "damage, message",
        [
            ("cut", "Compressed file ended before the end-of-stream marker was reached"),
            ("deflate", "invalid distance too far back"),
            ("crc", "CRC check failed"),
        ],
        ids=["cut", "deflate", "crc"],
    )
    def test_damaged_gzip_corpus_exits_2(
        self, tmp_path, toy_lexicon_path, capsys, damage, message, workers
    ):
        # a stream cut short raises EOFError and corrupt deflate data
        # zlib.error; both are I/O errors, as a failed CRC is
        rng = np.random.default_rng(5)
        words = np.array(["boat", "water", "dock", "sunset", "a", "the", "on", "red", "small"])
        body = "".join(
            json.dumps({"id": str(k), "text": " ".join(rng.choice(words, 8))}) + "\n"
            for k in range(2000)
        ).encode()
        data = bytearray(gzip.compress(body, mtime=0))
        if damage == "cut":
            del data[len(data) // 2 :]
        elif damage == "deflate":
            data[2000:2100] = bytes(b ^ 0xFF for b in data[2000:2100])
        else:
            data[-8] ^= 1
        work = tmp_path / "work"
        work.mkdir()
        corpus = tmp_path / "corpus.jsonl.gz"
        corpus.write_bytes(data)
        code, out, err = run(
            capsys, "mine", "--corpus", corpus, "--lexicon", toy_lexicon_path,
            "--out-matrix", work / "m", "--out-counts", work / "c", "--workers", workers,
        )
        assert code == 2
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err and out == ""
        assert list(work.iterdir()) == []

    def test_bad_workers_rejected(
        self, tmp_path, toy_corpus_path, toy_lexicon_path, capsys
    ):
        code, _, _ = run(
            capsys,
            "mine",
            "--corpus", toy_corpus_path,
            "--lexicon", toy_lexicon_path,
            "--out-matrix", tmp_path / "m",
            "--out-counts", tmp_path / "c",
            "--workers", "0",
        )
        assert code == 3


class TestBuildCC:
    def build(self, capsys, mined, paths, out, *extra):
        matrix_path, counts_path = mined
        return run(
            capsys,
            "build-cc",
            "--matrix", matrix_path,
            "--counts", counts_path,
            "--lexicon", paths["lexicon"],
            "--embeddings", paths["embeddings"],
            "--out", out,
            *extra,
        )

    @pytest.fixture
    def paths(self, toy_lexicon_path, toy_embeddings_path, toy_visibility_path):
        return {
            "lexicon": toy_lexicon_path,
            "embeddings": toy_embeddings_path,
            "visibility": toy_visibility_path,
        }

    def test_matches_expected_dictionary(self, capsys, mined, paths, tmp_path):
        out = tmp_path / "cc.json"
        code, stdout, _ = self.build(
            capsys, mined, paths, out, "--visibility", paths["visibility"]
        )
        assert code == 0
        built = CCDictionary.load(out)
        assert built.cc == EXPECTED_DICT_G001
        assert built.meta["gamma"] == 0.01
        assert len(built.meta["lexicon_digest"]) == 64
        assert len(built.meta["corpus_digest"]) == 64
        summary = json.loads(stdout)
        assert summary == {"concepts": 7, "with_cc": 5}

    def test_matrix_is_freed_before_selection(self, capsys, mined, paths, tmp_path, monkeypatch):
        # only normalize reads the counts matrix; selection and filtering
        # run without it
        load, select_all = CoocMatrix.load.__func__, ccgen.select_all
        loaded, alive = [], []

        def tracked_load(cls, path):
            matrix = load(cls, path)
            loaded.append(weakref.ref(matrix))
            return matrix

        def checked_select_all(*args):
            alive.append([ref() is not None for ref in loaded])
            return select_all(*args)

        monkeypatch.setattr(CoocMatrix, "load", classmethod(tracked_load))
        monkeypatch.setattr(ccgen, "select_all", checked_select_all)
        code, _, err = self.build(
            capsys, mined, paths, tmp_path / "cc.json", "--unknown-visibility", "accept"
        )
        assert code == 0, err
        assert alive == [[False]]

    def test_reject_policy_empties_unknowns(self, capsys, mined, paths, tmp_path):
        out = tmp_path / "cc.json"
        code, _, _ = self.build(capsys, mined, paths, out)
        assert code == 0
        built = CCDictionary.load(out)
        assert all(v == [] for v in built.cc.values())

    def test_accept_policy_without_table(self, capsys, mined, paths, tmp_path):
        out = tmp_path / "cc.json"
        code, _, _ = self.build(
            capsys, mined, paths, out, "--unknown-visibility", "accept"
        )
        assert code == 0
        assert CCDictionary.load(out).cc == EXPECTED_DICT_G001

    def test_byte_deterministic(self, capsys, mined, paths, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"cc{tag}.json"
            code, _, _ = self.build(
                capsys, mined, paths, out, "--visibility", paths["visibility"]
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "policy,digest",
        [
            ("accept", "61271c79323290f30c064669ef23902dda8efaffca54b2bef104ce84e96ed69d"),
            ("reject", "c4a2751f08b71736287ac691e4b66cbe2741b05a44c23eeb99a553250eae4640"),
            ("llm", "0e915c0d935657b1ccfa2954e084a52513f894cf5b526b3f7db77fcac04d12a0"),
        ],
    )
    def test_cc_json_bytes_are_pinned(self, capsys, tmp_path, monkeypatch, policy, digest):
        # ship's cosine to boat, water and gull is exactly 0.5, the delta;
        # dock is above it for boat, ship and water; photo is a stop-word;
        # gull has no visibility answer, and the llm oracle fails on it
        vectors = {
            "boat": (1.0, 0.0, 0.0, 0.0),
            "dock": (0.6, 0.8, 0.0, 0.0),
            "gull": (0.0, 0.0, 0.0, 1.0),
            "photo": (0.0, 0.0, 1.0, 0.0),
            "ship": (0.5, 0.5, 0.5, 0.5),
            "water": (0.0, 1.0, 0.0, 0.0),
        }
        captions = [
            "a boat and a ship on the water",
            "a photo of a boat at the dock",
            "a gull over the water near the boat",
            "the ship at the dock",
            "a gull on the ship",
        ]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(json.dumps({"id": f"c{k}", "text": t}) + "\n" for k, t in enumerate(captions))
        )
        lexicon = tmp_path / "lexicon.txt"
        lexicon.write_text("".join(c + "\n" for c in vectors))
        embeddings = tmp_path / "embeddings.emb"
        EmbeddingTable(list(vectors), np.array(list(vectors.values()))).save(embeddings)
        visibility = tmp_path / "visibility.jsonl"
        VisibilityTable({c: (True, "manual") for c in vectors if c != "gull"}).save(visibility)

        def oracle(concept):
            raise CCMineError("visibility service down")

        monkeypatch.setattr(cli, "visibility_oracle", lambda client, markers: oracle)
        monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
        matrix, counts, out = tmp_path / "pairs.cooc", tmp_path / "occ.counts", tmp_path / "cc.json"
        code, _, _ = run(
            capsys, "mine", "--corpus", corpus, "--lexicon", lexicon,
            "--out-matrix", matrix, "--out-counts", counts,
        )
        assert code == 0
        # only the llm policy reads an endpoint; the others refuse one
        endpoint = []
        if policy == "llm":
            endpoint = ["--llm-endpoint", "http://127.0.0.1:1/v1/completions"]
        code, _, _ = run(
            capsys, "build-cc", "--matrix", matrix, "--counts", counts, "--lexicon", lexicon,
            "--embeddings", embeddings, "--visibility", visibility, "--delta", "0.5",
            "--unknown-visibility", policy, *endpoint, "--out", out,
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_meta_records_digests_and_filter_diagnostics(
        self, capsys, mined, paths, tmp_path, monkeypatch
    ):
        calls = []

        def oracle(concept):
            calls.append(concept)
            if concept == "sunset":
                raise CCMineError("visibility service down")
            return True

        monkeypatch.setattr(cli, "visibility_oracle", lambda client, markers: oracle)
        out = tmp_path / "cc.json"
        code, _, _ = self.build(
            capsys,
            mined,
            paths,
            out,
            "--unknown-visibility", "llm",
            "--llm-endpoint", "http://127.0.0.1:1/v1/completions",
        )
        assert code == 0
        built = CCDictionary.load(out)
        # the concept the oracle could not answer is kept and flagged
        assert built.cc == EXPECTED_DICT_G001
        assert calls.count("sunset") == 1
        assert built.meta["unresolved_kept"] == ["sunset"]
        assert built.meta["filter_counts"] == {
            "candidates": 12,
            "stopword": 1,
            "invisible": 0,
            "similar": 2,
            "kept": 9,
        }

        def sha(path):
            return hashlib.sha256(Path(path).read_bytes()).hexdigest()

        matrix_path, counts_path = mined
        assert built.meta["lexicon_digest"] == sha(paths["lexicon"])
        assert built.meta["corpus_digest"] == sha(matrix_path)
        assert built.meta["counts_digest"] == sha(counts_path)
        assert built.meta["embeddings_digest"] == sha(paths["embeddings"])
        assert built.meta["visibility_digest"] is None

        code, _, _ = self.build(capsys, mined, paths, out, "--visibility", paths["visibility"])
        assert code == 0
        built = CCDictionary.load(out)
        assert built.meta["visibility_digest"] == sha(paths["visibility"])
        assert built.meta["unresolved_kept"] == []

    def test_save_visibility(self, capsys, mined, paths, tmp_path):
        out = tmp_path / "cc.json"
        saved = tmp_path / "vis-out.jsonl"
        code, _, _ = self.build(
            capsys,
            mined,
            paths,
            out,
            "--visibility", paths["visibility"],
            "--save-visibility", saved,
        )
        assert code == 0
        assert saved.exists()

    def partial_table(self, tmp_path) -> Path:
        """A visibility table that leaves some candidates unknown."""
        path = tmp_path / "vis-in.jsonl"
        known = {c: (True, "manual") for c in ("boat", "water", "dock")}
        VisibilityTable({**known, "liberty": (False, "manual")}).save(path)
        return path

    @pytest.mark.parametrize("policy", ["reject", "accept"])
    def test_save_visibility_leaves_policy_answers_out(
        self, capsys, mined, paths, tmp_path, policy
    ):
        # a policy's answer is no finding: a later llm run must still ask
        loaded = self.partial_table(tmp_path)
        saved = tmp_path / "vis-out.jsonl"
        code, _, _ = self.build(
            capsys, mined, paths, tmp_path / "cc.json",
            "--visibility", loaded,
            "--unknown-visibility", policy,
            "--save-visibility", saved,
        )
        assert code == 0
        assert saved.read_bytes() == loaded.read_bytes()

    def test_save_visibility_adds_llm_answers(self, capsys, mined, paths, tmp_path, monkeypatch):
        calls = []

        def oracle(concept):
            calls.append(concept)
            return concept != "cat"

        monkeypatch.setattr(cli, "visibility_oracle", lambda client, markers: oracle)
        loaded = self.partial_table(tmp_path)
        saved = tmp_path / "vis-out.jsonl"
        code, _, _ = self.build(
            capsys, mined, paths, tmp_path / "cc.json",
            "--visibility", loaded,
            "--unknown-visibility", "llm",
            "--llm-endpoint", "http://127.0.0.1:1/v1/completions",
            "--save-visibility", saved,
        )
        assert code == 0
        assert sorted(calls) == ["cat", "sunset", "trailer"]
        want = VisibilityTable.from_file(loaded)
        for concept in calls:
            want.set(concept, concept != "cat", source="llm")
        want.save(tmp_path / "want.jsonl")
        assert saved.read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    def test_corrupt_matrix_is_validation_error(self, capsys, mined, paths, tmp_path):
        matrix_path, counts_path = mined
        data = matrix_path.read_text().replace("\t1\n", "\t2\n", 1)
        matrix_path.write_text(data)
        code, _, err = self.build(capsys, mined, paths, tmp_path / "cc.json")
        assert code == 3
        assert "digest" in err

    def test_counts_with_non_integer_field_is_format_error(self, capsys, mined, paths, tmp_path):
        _, counts_path = mined
        lines = counts_path.read_text().splitlines()
        lines[1] = "a\t" + lines[1].split("\t")[1]
        body = "".join(line + "\n" for line in lines[1:-1])
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        counts_path.write_text(f"{lines[0]}\n{body}#sha256:{digest}\n")
        code, _, err = self.build(capsys, mined, paths, tmp_path / "cc.json")
        assert code == 3
        assert "bad counts line" in err

    def test_counts_above_32_bits_is_format_error(self, capsys, mined, paths, tmp_path):
        _, counts_path = mined
        lines = counts_path.read_text().splitlines()
        lines[1] = lines[1].split("\t")[0] + "\t" + "9" * 24
        body = "".join(line + "\n" for line in lines[1:-1])
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        counts_path.write_text(f"{lines[0]}\n{body}#sha256:{digest}\n")
        code, _, err = self.build(capsys, mined, paths, tmp_path / "cc.json")
        assert code == 3
        assert err.startswith("error: occurrence count out of range") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "target",
        [
            "matrix", "counts", "lexicon", "visibility", "config", "cc_dict", "classes_file",
            "embeddings",
        ],
    )
    def test_non_utf8_input_is_format_error(
        self, capsys, mined, paths, tmp_path, dict_path, target
    ):
        files = {"matrix": mined[0], "counts": mined[1], **paths, "cc_dict": dict_path}
        files["config"] = tmp_path / "run.json"
        files["config"].write_text('{"gamma": 0.5}\n')
        files["classes_file"] = tmp_path / "classes.txt"
        files["classes_file"].write_text("car\nroad\n")
        path = files[target]
        data = path.read_bytes()
        # the byte after the magic and header of a CCEMB1 file starts the
        # first entry's name; elsewhere, the second byte of the file
        at = 16 if target == "embeddings" else 1
        path.write_bytes(data[:at] + b"\xff" + data[at + 1 :])
        if target == "cc_dict":
            argv = ["gen-cc", "--mode", "dict", "--query", "boat", "--cc-dict", path,
                    "--embeddings", files["embeddings"]]
        elif target == "classes_file":
            argv = ["gen-cc", "--mode", "privileged", "--query", "car", "--classes-file", path]
        else:
            argv = ["build-cc", "--matrix", files["matrix"], "--counts", files["counts"],
                    "--lexicon", files["lexicon"], "--embeddings", files["embeddings"],
                    "--visibility", files["visibility"], "--config", files["config"],
                    "--out", tmp_path / "cc.json"]
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not UTF-8" in err
        assert ("entry 0's name" if target == "embeddings" else str(path)) in err

    def test_gamma_flag(self, capsys, mined, paths, tmp_path):
        out = tmp_path / "cc.json"
        code, _, _ = self.build(
            capsys,
            mined,
            paths,
            out,
            "--visibility", paths["visibility"],
            "--gamma", "0.99",
        )
        assert code == 0
        built = CCDictionary.load(out)
        assert built.cc["boat"] == []
        assert built.cc["dock"] == ["boat", "sunset"]


class TestGenCC:
    def test_bg_default(self, capsys):
        code, out, _ = run(capsys, "gen-cc", "--query", "Boat ")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "concepts": ["background"],
            "kind": "bg",
            "query": "boat",
            "source_concept": None,
        }

    def test_dict_mode(self, capsys, dict_path, toy_embeddings_path, tmp_path):
        out_path = tmp_path / "cc-set.json"
        code, _, _ = run(
            capsys,
            "gen-cc",
            "--mode", "dict",
            "--query", "boat",
            "--cc-dict", dict_path,
            "--embeddings", toy_embeddings_path,
            "--out", out_path,
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["concepts"] == ["background", "dock", "sunset", "water"]
        assert payload["source_concept"] == "boat"

    @pytest.mark.parametrize("flag,value", [("--provider", "toy"), ("--toy-seed", "3")])
    def test_provider_flags_are_usage_errors(
        self, capsys, dict_path, toy_embeddings_path, flag, value
    ):
        # an unknown query takes its vector from --embeddings, and from nothing else
        with pytest.raises(SystemExit) as exc:
            main([
                "gen-cc", "--mode", "dict", "--query", "ferry", "--cc-dict", str(dict_path),
                "--embeddings", str(toy_embeddings_path), flag, value,
            ])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_dict_mode_unknown_query_table_provider(
        self, capsys, dict_path, toy_embeddings_path
    ):
        code, _, err = run(
            capsys,
            "gen-cc",
            "--mode", "dict",
            "--query", "ferry",
            "--cc-dict", dict_path,
            "--embeddings", toy_embeddings_path,
        )
        assert code == 3
        assert "ferry" in err

    def test_privileged_mode(self, capsys):
        code, out, _ = run(
            capsys,
            "gen-cc",
            "--mode", "privileged",
            "--query", "car",
            "--classes", "car,road,sky",
        )
        assert code == 0
        assert json.loads(out)["concepts"] == ["road", "sky"]

    def test_classes_file_lines_end_only_in_newline(self, capsys, tmp_path):
        # \x85 and \x1c end a line for str.splitlines, not for the lexicon
        path = tmp_path / "classes.txt"
        path.write_text("car\ntraffic\x85light\r\n# a comment\nsky\x1croad\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "gen-cc", "--mode", "privileged", "--query", "car", "--classes-file", path
        )
        assert code == 0
        assert json.loads(out)["concepts"] == ["traffic light", "sky road"]
        assert Lexicon.from_file(path).concepts == ("car", "traffic light", "sky road")

    def test_mode_from_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cc_mode": "privileged"}))
        code, out, _ = run(
            capsys,
            "gen-cc",
            "--config", config,
            "--query", "car",
            "--classes", "car,road",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "privileged"

    def test_flag_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cc_mode": "privileged"}))
        code, out, _ = run(
            capsys,
            "gen-cc",
            "--config", config,
            "--mode", "bg",
            "--query", "car",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "bg"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cc_mod": "bg"}))
        code, _, err = run(capsys, "gen-cc", "--config", config, "--query", "car")
        assert code == 3
        assert "cc_mod" in err

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"gamma": 0.5, "gamma": 0.01}', "gamma"),
            ('{"llm": {"model": "a", "model": "b"}}', "model"),
        ],
    )
    def test_repeated_config_key_rejected(self, capsys, tmp_path, text, key):
        config = tmp_path / "run.json"
        config.write_text(text)
        code, _, err = run(capsys, "gen-cc", "--config", config, "--query", "car")
        assert code == 3
        assert f"run config {config} repeats the key {key!r}" in err

    def test_llm_mode_unreachable_endpoint(self, capsys, tmp_path):
        code, _, _ = run(
            capsys,
            "gen-cc",
            "--mode", "llm",
            "--query", "road",
            "--llm-endpoint", "http://127.0.0.1:1/v1/completions",
            "--llm-attempts", "1",
            "--llm-timeout", "2",
            "--llm-cache", tmp_path / "cache",
        )
        assert code == 4

    def test_llm_mode_requires_endpoint(self, capsys):
        code, _, err = run(capsys, "gen-cc", "--mode", "llm", "--query", "road")
        assert code == 3
        assert "endpoint" in err


class TestSegment:
    def seg(self, capsys, tmp_path, dict_path, toy_embeddings_path, *extra):
        features_path = tmp_path / "img.feat"
        make_scene_features().save(features_path)
        out_path = tmp_path / "out.seg"
        code, _, err = run(
            capsys,
            "segment",
            "--features", features_path,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out", out_path,
            *extra,
        )
        return code, out_path, err

    def test_single_query_erases_cc(self, capsys, tmp_path, dict_path, toy_embeddings_path):
        code, out_path, _ = self.seg(
            capsys, tmp_path, dict_path, toy_embeddings_path, "--query", "boat"
        )
        assert code == 0
        seg = SegMap.load(out_path)
        assert seg.label_names == {0: "boat"}
        expected = np.full((4, 4), BOTTOM, dtype=np.int32)
        expected[:, 0:2] = 0
        assert np.array_equal(seg.labels, expected)

    def test_keep_cc_preserves_names(self, capsys, tmp_path, dict_path, toy_embeddings_path):
        code, out_path, _ = self.seg(
            capsys, tmp_path, dict_path, toy_embeddings_path, "--query", "boat", "--keep-cc"
        )
        assert code == 0
        seg = SegMap.load(out_path)
        assert seg.label_names == {
            0: "boat",
            1: "background",
            2: "dock",
            3: "sunset",
            4: "water",
        }
        assert set(np.unique(seg.labels)) == {0, 1, 4}

    def test_remap_background_multi_query(
        self, capsys, tmp_path, dict_path, toy_embeddings_path
    ):
        code, out_path, _ = self.seg(
            capsys,
            tmp_path,
            dict_path,
            toy_embeddings_path,
            "--query", "boat",
            "--query", "background",
            "--remap-background",
        )
        assert code == 0
        seg = SegMap.load(out_path)
        assert seg.label_names == {0: "boat", 1: "background"}
        expected = np.ones((4, 4), dtype=np.int32)
        expected[:, 0:2] = 0
        assert np.array_equal(seg.labels, expected)

    @pytest.mark.parametrize("mode", ["bg", "none"])
    @pytest.mark.parametrize("queries", [["boat"], ["boat", "water"]])
    @pytest.mark.parametrize("label", [None, "sky"])
    def test_remap_background_needs_its_query(self, capsys, tmp_path, mode, queries, label):
        # checked before any file opens: none of these paths exists
        argv = [
            "segment", "--features", tmp_path / "missing.feat", "--embeddings",
            tmp_path / "missing.emb", "--cc-mode", mode, "--remap-background",
            "--out", tmp_path / "out.seg",
        ]
        for query in queries:
            argv += ["--query", query]
        if label is not None:
            argv += ["--background-label", label]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert err == f"error: --remap-background needs --query {label or 'background'}\n"
        assert out == ""
        assert not list(tmp_path.iterdir())

    def test_upsample_size_flags(self, capsys, tmp_path, dict_path, toy_embeddings_path):
        code, out_path, _ = self.seg(
            capsys,
            tmp_path,
            dict_path,
            toy_embeddings_path,
            "--query", "boat",
            "--height", "8",
            "--width", "12",
        )
        assert code == 0
        assert SegMap.load(out_path).labels.shape == (8, 12)

    @pytest.mark.parametrize("size", [("--height", "0"), ("--width", "0"), ("--height", "-3")])
    def test_upsample_size_must_be_positive(
        self, capsys, tmp_path, dict_path, toy_embeddings_path, size
    ):
        code, out_path, err = self.seg(
            capsys, tmp_path, dict_path, toy_embeddings_path, "--query", "boat", *size
        )
        assert code == 3
        assert err == "error: output size must be positive\n"
        assert not out_path.exists()

    def test_query_required(self, capsys, tmp_path, dict_path, toy_embeddings_path):
        code, _, err = self.seg(capsys, tmp_path, dict_path, toy_embeddings_path)
        assert code == 3
        assert "query" in err


class TestEval:
    def eval_single(self, capsys, tmp_path, toy_embeddings_path, mode, dict_path=None, *extra):
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        out_json = tmp_path / "report.json"
        argv = [
            "eval",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--metric", "iou-single",
            "--out-json", out_json,
        ]
        if mode is not None:
            argv += ["--cc-mode", mode]
        if dict_path is not None:
            argv += ["--cc-dict", dict_path]
        code, out, err = run(capsys, *argv, *extra)
        return code, out_json, out, err

    def test_cc_modes_ordered(self, capsys, tmp_path, toy_embeddings_path, dict_path):
        means = {}
        for mode in ("none", "bg", "dict"):
            code, out_json, stdout, _ = self.eval_single(
                capsys,
                tmp_path / mode,
                toy_embeddings_path,
                mode,
                dict_path if mode == "dict" else None,
            )
            assert code == 0
            report = json.loads(out_json.read_text())
            means[mode] = report["mean"]
            assert json.loads(stdout)["mean"] == report["mean"]
        assert means["none"] == pytest.approx(0.5)
        assert means["bg"] == pytest.approx(2 / 3)
        assert means["dict"] == pytest.approx(1.0)

    def test_report_contents(self, capsys, tmp_path, toy_embeddings_path, dict_path):
        code, out_json, _, _ = self.eval_single(
            capsys,
            tmp_path,
            toy_embeddings_path,
            "dict",
            dict_path,
            "--out-tsv", tmp_path / "report.tsv",
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["per_class"]["boat"]["iou"] == 1.0
        assert report["images_scored"] == 2
        assert report["meta"]["cc_mode"] == "dict"
        assert report["meta"]["embeddings_digest"] == sha256_file(toy_embeddings_path)
        assert report["meta"]["cc_dict_digest"] == sha256_file(dict_path)
        assert report["meta"]["image_failures"] == []
        tsv = (tmp_path / "report.tsv").read_text()
        assert "class\tboat\t1.000000" in tsv

    def test_aggregation_flag(self, capsys, tmp_path, toy_embeddings_path, dict_path):
        code, out_json, _, _ = self.eval_single(
            capsys,
            tmp_path,
            toy_embeddings_path,
            "dict",
            dict_path,
            "--aggregation", "image",
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["aggregation"] == "image"
        assert report["mean"] == report["mean_image"]

    def test_sigmoid_segmenter(self, capsys, tmp_path, toy_embeddings_path):
        threshold = str(float(sigmoid(0.8)))
        code, out_json, _, _ = self.eval_single(
            capsys,
            tmp_path,
            toy_embeddings_path,
            None,
            None,
            "--segmenter", "sigmoid",
            "--sigmoid-threshold", threshold,
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["mean"] == pytest.approx(1.0)
        assert report["meta"]["segmenter"] == "sigmoid"

    def test_sigmoid_segmenter_needs_threshold(
        self, capsys, tmp_path, toy_embeddings_path
    ):
        code, _, _, err = self.eval_single(
            capsys, tmp_path, toy_embeddings_path, None, None, "--segmenter", "sigmoid"
        )
        assert code == 3
        assert "sigmoid-threshold" in err

    def test_sigmoid_segmenter_builds_no_cc_source(self, capsys, tmp_path, toy_embeddings_path):
        # a run-config's llm mode without an endpoint: fine, since the
        # sigmoid test asks no LLM (the --cc-mode flag itself is refused)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cc_mode": "llm"}))
        code, out_json, _, err = self.eval_single(
            capsys,
            tmp_path,
            toy_embeddings_path,
            None,
            None,
            "--segmenter", "sigmoid",
            "--sigmoid-threshold", "0.6",
            "--config", config,
        )
        assert code == 0, err
        assert json.loads(out_json.read_text())["meta"]["cc_mode"] is None

    @pytest.mark.parametrize(
        "job,flag,value",
        [
            ("--metric miou-classic", "--aggregation", "image"),
            ("--metric miou-classic", "--segmenter", "sigmoid"),
            ("--metric miou-classic", "--segmenter", "argmax"),
            ("--metric miou-classic", "--sigmoid-threshold", "0.5"),
            ("--metric iou-single", "--sigmoid-threshold", "0.5"),
            ("--metric iou-single", "--beta", "0.1"),
            ("--metric iou-single", "--beta-scope", "source"),
            ("--metric iou-single", "--background-label", "zzz"),
            ("--segmenter sigmoid", "--upsample", "labels"),
            ("--segmenter sigmoid", "--beta", "0.1"),
            ("--segmenter sigmoid", "--beta-scope", "all"),
            ("--segmenter sigmoid", "--background-label", "background"),
            ("--segmenter sigmoid", "--cc-mode", "dict"),
            ("--segmenter sigmoid", "--cc-dict", "cc.json"),
            ("--segmenter sigmoid", "--classes", "boat"),
            ("--segmenter sigmoid", "--classes-file", "classes.txt"),
            ("--metric iou-single with cc-mode bg", "--cc-dict", "cc.json"),
            ("--metric iou-single with cc-mode bg", "--classes", "zzz"),
            ("--metric iou-single with cc-mode bg", "--classes-file", "classes.txt"),
            ("--metric iou-single with cc-mode none", "--cc-dict", "cc.json"),
            ("--metric iou-single with cc-mode dict", "--classes", "boat"),
            ("--metric iou-single with cc-mode privileged", "--cc-dict", "cc.json"),
            ("--metric iou-single with cc-mode llm", "--cc-dict", "cc.json"),
            ("--metric iou-single with cc-mode llm", "--classes", "boat"),
            ("--metric miou-classic with cc-mode bg", "--cc-dict", "cc.json"),
            ("--metric miou-classic with cc-mode privileged", "--cc-dict", "cc.json"),
            # only llm mode reads the LLM flags, and the sigmoid segmenter none
            ("--segmenter sigmoid", "--llm-endpoint", "http://127.0.0.1:9/v1"),
            ("--segmenter sigmoid", "--no-markers", None),
            ("--metric iou-single with cc-mode dict", "--llm-endpoint", "http://127.0.0.1:9/v1"),
            ("--metric iou-single with cc-mode dict", "--no-markers", None),
            ("--metric iou-single with cc-mode bg", "--api-style", "chat"),
            ("--metric iou-single with cc-mode none", "--llm-attempts", "2"),
            ("--metric iou-single with cc-mode privileged", "--llm-cache", "cache"),
            ("--metric miou-classic with cc-mode bg", "--llm-model", "m"),
            ("--metric iou-single with cc-mode dict (run-config)", "--llm-timeout", "5"),
        ],
    )
    def test_flag_that_does_nothing_exits_3(
        self, capsys, tmp_path, toy_embeddings_path, dict_path, job, flag, value
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        out_json = tmp_path / "report.json"
        job, via_config = job.removesuffix(" (run-config)"), job.endswith(" (run-config)")
        metric, _, mode = job.partition(" with cc-mode ")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cc_mode": mode or "llm"}))
        job_flags = {
            "--metric miou-classic": ["--metric", "miou-classic"],
            "--metric iou-single": [],
            "--segmenter sigmoid": ["--segmenter", "sigmoid", "--sigmoid-threshold", "0.6"],
        }[metric]
        if metric != "--segmenter sigmoid":
            # every job that reads a CC mode names it; the case's job without
            # one is in dict mode
            job = job if mode else f"{job} with cc-mode dict"
            # the llm mode comes from a run-config, every other from --cc-mode
            # unless the case says otherwise
            job_flags += {
                "": ["--cc-mode", "dict", "--cc-dict", dict_path], "llm": ["--config", config]
            }.get(mode, ["--config", config] if via_config else ["--cc-mode", mode])
        given = [flag] if value is None else [flag, value]
        code, _, err = run(
            capsys, "eval", "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, *job_flags, *given,
            "--out-json", out_json,
        )
        assert code == 3
        assert err == f"error: {flag} does nothing in eval {job}\n"
        assert not out_json.exists()

    @pytest.mark.parametrize(
        "job_flags",
        [
            ["--metric", "miou-classic", "--cc-mode", "bg", "--classes", "boat"],
            ["--cc-mode", "privileged", "--classes", "boat,water"],
        ],
    )
    def test_cc_flags_the_mode_reads_are_taken(
        self, capsys, tmp_path, toy_embeddings_path, job_flags
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        code, _, err = run(
            capsys, "eval", "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, *job_flags, "--out-json", tmp_path / "r.json",
        )
        assert code == 0, err

    def test_images_are_loaded_one_at_a_time(
        self, capsys, tmp_path, toy_embeddings_path, dict_path, monkeypatch
    ):
        events = []
        load = cli.FeatureMap.load.__func__
        score = cli.metrics.iou_single_image

        def spy_load(cls, path):
            events.append(("load", Path(path).stem))
            return load(cls, path)

        def spy_score(features, gt, *args, image_id="", **kwargs):
            events.append(("score", image_id))
            return score(features, gt, *args, image_id=image_id, **kwargs)

        monkeypatch.setattr(cli.FeatureMap, "load", classmethod(spy_load))
        monkeypatch.setattr(cli.metrics, "iou_single_image", spy_score)
        code, _, _, _ = self.eval_single(
            capsys, tmp_path, toy_embeddings_path, "dict", dict_path
        )
        assert code == 0
        assert events == [
            ("load", "img0"), ("score", "img0"), ("load", "img1"), ("score", "img1")
        ]

    def test_sidecar_that_is_not_json_is_an_image_failure(
        self, capsys, tmp_path, toy_embeddings_path, dict_path
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        (gt_dir / "img1.seg.json").write_text("{not json")
        out_json = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "eval",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 3
        failures = json.loads(out_json.read_text())["meta"]["image_failures"]
        assert [f["id"] for f in failures] == ["img1"]
        assert "not valid JSON" in failures[0]["error"]

    @pytest.mark.parametrize("key", ["ignore_id", "background_id"])
    def test_boolean_sidecar_id_is_an_image_failure(
        self, capsys, tmp_path, toy_embeddings_path, dict_path, key
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        sidecar_path = gt_dir / "img1.seg.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar_path.write_text(json.dumps({**sidecar, key: True}))
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "eval",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 3
        (failure,) = json.loads(out_json.read_text())["meta"]["image_failures"]
        assert failure["id"] == "img1"
        assert key in failure["error"]

    def test_non_canonical_sidecar_id_is_an_image_failure(
        self, capsys, tmp_path, toy_embeddings_path, dict_path
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        sidecar_path = gt_dir / "img1.seg.json"
        sidecar = json.loads(sidecar_path.read_text())
        sidecar["labels"]["01"] = "water"
        sidecar_path.write_text(json.dumps(sidecar))
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "eval",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 3
        (failure,) = json.loads(out_json.read_text())["meta"]["image_failures"]
        assert failure["id"] == "img1"
        assert "'01'" in failure["error"]

    def test_broken_image_recorded_and_exit_3(
        self, capsys, tmp_path, toy_embeddings_path, dict_path
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        bad = features_dir / "img1.feat"
        bad.write_bytes(bad.read_bytes()[:-4])
        out_json = tmp_path / "report.json"
        code, _, err = run(
            capsys,
            "eval",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 3
        report = json.loads(out_json.read_text())
        assert report["images_scored"] == 1
        assert [f["id"] for f in report["meta"]["image_failures"]] == ["img1"]

    def test_no_scored_class_names_the_first_failure(self, capsys, tmp_path):
        embeddings_path = tmp_path / "water.emb"
        EmbeddingTable(["water"], np.array([[0.0, 1.0, 0.0]])).save(embeddings_path)
        code, out_json, _, err = self.eval_single(capsys, tmp_path, embeddings_path, "none")
        assert code == 3
        assert not out_json.exists()
        assert (
            "no image produced a defined IoU score; 2 class failures, the first:"
            " image 'img0', class 'boat': no embedding available for concept: 'boat'"
        ) in err

    def test_classic_metric(self, capsys, tmp_path, toy_embeddings_path, dict_path):
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "eval",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--metric", "miou-classic",
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["mean"] == pytest.approx(1.0)
        assert sorted(report["per_class"]) == ["background", "boat", "water"]

    def test_empty_dataset_rejected(self, capsys, tmp_path, toy_embeddings_path):
        (tmp_path / "empty").mkdir()
        code, _, err = run(
            capsys,
            "eval",
            "--features-dir", tmp_path / "empty",
            "--gt-dir", tmp_path / "empty",
            "--embeddings", toy_embeddings_path,
            "--out-json", tmp_path / "report.json",
        )
        assert code == 3
        assert "feat" in err


_SWEEP_VALUES = {"gamma": "0.01,0.99", "delta": "0.5,0.9", "beta": "0.5,0.99"}


class TestSweep:
    @pytest.fixture
    def param_flags(self, mined, toy_lexicon_path, toy_visibility_path, dict_path):
        """The flags each sweep needs besides the dataset's and its grid."""
        matrix_path, counts_path = mined
        build = [
            "--matrix", matrix_path,
            "--counts", counts_path,
            "--lexicon", toy_lexicon_path,
            "--visibility", toy_visibility_path,
        ]
        cc = ["--cc-mode", "dict", "--cc-dict", dict_path]
        return {"sigmoid": [], "gamma": build, "delta": build, "beta": cc}

    @pytest.mark.parametrize("param", ["sigmoid", "beta"])
    def test_row_equals_eval_at_its_value(
        self, capsys, tmp_path, toy_embeddings_path, param_flags, param
    ):
        # gamma and delta: test_gamma_sweep_row_equals_build_then_eval
        features = {"img0": make_sweep_features(), "img1": make_scene_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path, features)
        data = [
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
        ]
        if param == "sigmoid":
            grid = ["--steps", "12"]
        else:
            grid = ["--values", "0.5,0.9,0.99", *param_flags["beta"]]
        sweep_json = tmp_path / "sweep.json"
        code, _, _ = run(capsys, "sweep", "--param", param, *grid, *data, "--out-json", sweep_json)
        assert code == 0
        eval_json = tmp_path / "eval.json"
        for row in json.loads(sweep_json.read_text())["rows"]:
            if param == "sigmoid":
                flags = ["--segmenter", "sigmoid", "--sigmoid-threshold", repr(row["threshold"])]
            else:
                flags = ["--metric", "miou-classic", "--beta", repr(row["value"])]
                flags += param_flags["beta"]
            code, _, _ = run(capsys, "eval", *data, *flags, "--out-json", eval_json)
            assert code == 0
            report = json.loads(eval_json.read_text())
            if param == "sigmoid":
                assert row["mean_class"] == report["mean_class"]
                assert row["mean_image"] == report["mean_image"]
            else:
                assert row["mean_class"] == report["mean"]

    @pytest.mark.parametrize("param", ["gamma", "delta", "beta"])
    def test_images_are_loaded_one_at_a_time(
        self, capsys, tmp_path, toy_embeddings_path, param_flags, monkeypatch, param
    ):
        events = []
        load = cli.FeatureMap.load.__func__
        name = "classic_image" if param == "beta" else "iou_single_image"
        score = getattr(cli.metrics, name)

        def spy_load(cls, path):
            events.append(("load", Path(path).stem))
            return load(cls, path)

        def spy_score(*args, **kwargs):
            events.append("score")
            return score(*args, **kwargs)

        monkeypatch.setattr(cli.FeatureMap, "load", classmethod(spy_load))
        monkeypatch.setattr(cli.metrics, name, spy_score)
        features = {"img0": make_scene_features(), "img1": make_scene_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path, features)
        code, _, _ = run(
            capsys, "sweep", "--param", param, "--values", _SWEEP_VALUES[param],
            "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, *param_flags[param],
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 0
        # every value scores an image before the next one loads
        assert events == [("load", "img0"), "score", "score", ("load", "img1"), "score", "score"]

    @pytest.mark.parametrize("param", ["sigmoid", "gamma", "delta", "beta"])
    def test_peak_memory_does_not_grow_with_images(
        self, tmp_path, toy_embeddings_path, param_flags, param
    ):
        grid = ["--steps", "30"] if param == "sigmoid" else ["--values", _SWEEP_VALUES[param]]

        def peak(n: int, tag: str) -> int:
            root = tmp_path / tag
            features = {f"img{k}": make_scene_features() for k in range(n)}
            features_dir, gt_dir = write_two_class_dataset(root, features, scale=64)
            argv = [
                "sweep", "--param", param, *grid,
                "--features-dir", features_dir, "--gt-dir", gt_dir,
                "--embeddings", toy_embeddings_path, *param_flags[param],
                "--out-json", root / "sweep.json",
            ]
            code, peak = traced_peak(lambda: main([str(a) for a in argv]))
            assert code == 0
            return peak

        peak(2, "warm-up")  # first-call caches out of the way
        two, eight = peak(2, "two"), peak(8, "eight")
        if param == "sigmoid":
            # until the score range is known each (image, class) field is
            # kept as its 4x4 patch grid and two 8 KiB packed masks: the
            # twelve more fields stay under one 256x256 float64 score field
            assert eight < two + 8 * 256 * 256
        else:
            # an image's 256x256 int32 ground truth alone is 256 KiB
            assert eight < two + (64 << 10)

    def test_values_share_one_lexicon_view(self, capsys, tmp_path, toy_corpus_path):
        # "ship" is embedded but not in the lexicon, so cc_d looks it up in
        # a lexicon view of the table, here 1,007 x 512 float64 rows (4 MB)
        dim = 512
        fillers = [f"filler{k:04d}" for k in range(1000)]
        vectors = {name: np.pad(v, (0, dim - 3)) for name, v in TOY_VECTORS.items()}
        vectors.update(zip(fillers, np.random.default_rng(7).normal(size=(len(fillers), dim))))
        names = sorted(vectors)
        embeddings_path = tmp_path / "wide.emb"
        EmbeddingTable(names, np.array([vectors[n] for n in names])).save(embeddings_path)
        lexicon_path = tmp_path / "lexicon.txt"
        lexicon_path.write_text("".join(c + "\n" for c in TOY_CONCEPTS + fillers))
        matrix_path, counts_path = tmp_path / "pairs.cooc", tmp_path / "occ.counts"
        code, _, _ = run(
            capsys, "mine", "--corpus", toy_corpus_path, "--lexicon", lexicon_path,
            "--out-matrix", matrix_path, "--out-counts", counts_path,
        )
        assert code == 0
        features_dir, gt_dir = tmp_path / "features", tmp_path / "gt"
        features_dir.mkdir()
        gt_dir.mkdir()
        FeatureMap(np.pad(make_scene_features().unit, ((0, 0), (0, 0), (0, dim - 3)))).save(
            features_dir / "img0.feat"
        )
        ids = np.zeros((4, 4), dtype=np.int32)
        ids[:, 0:2] = 1
        ids[:, 3] = 2
        gt = GroundTruth(ids, {0: "background", 1: "ship", 2: "water"}, background_id=0)
        write_gt_file(gt_dir / "img0.seg", gt)

        def peak(values: str) -> int:
            argv = [
                "sweep", "--param", "gamma", "--values", values,
                "--features-dir", features_dir, "--gt-dir", gt_dir,
                "--embeddings", embeddings_path, "--matrix", matrix_path,
                "--counts", counts_path, "--lexicon", lexicon_path,
                "--out-json", tmp_path / "sweep.json",
            ]
            code, peak = traced_peak(lambda: main([str(a) for a in argv]))
            assert code == 0
            return peak

        peak("0.01")  # first-call caches out of the way
        one, four = peak("0.01"), peak("0.01,0.02,0.03,0.05")
        assert four < one + (2 << 20)

    def test_sigmoid_sweep(self, capsys, tmp_path, toy_embeddings_path):
        features_dir = tmp_path / "feat"
        gt_dir = tmp_path / "gt"
        features_dir.mkdir()
        gt_dir.mkdir()
        make_sweep_features().save(features_dir / "img0.feat")
        ids = np.zeros((4, 4), dtype=np.int32)
        ids[:, 0:2] = 1
        write_gt_file(
            gt_dir / "img0.seg", GroundTruth(ids, {1: "boat"}, background_id=0)
        )

        out_json = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys,
            "sweep",
            "--param", "sigmoid",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--steps", "10",
            "--out-json", out_json,
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert len(report["rows"]) == 10
        values = [row["mean_class"] for row in report["rows"]]
        assert max(values) == pytest.approx(1.0)
        assert values[-1] == 0.0

    def test_gamma_sweep(
        self, capsys, tmp_path, mined, toy_lexicon_path, toy_embeddings_path, toy_visibility_path
    ):
        matrix_path, counts_path = mined
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        out_json = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys,
            "sweep",
            "--param", "gamma",
            "--values", "0.01,0.99",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--matrix", matrix_path,
            "--counts", counts_path,
            "--lexicon", toy_lexicon_path,
            "--visibility", toy_visibility_path,
            "--out-json", out_json,
        )
        assert code == 0
        rows = json.loads(out_json.read_text())["rows"]
        assert rows[0]["value"] == 0.01
        assert rows[0]["mean_class"] == pytest.approx(1.0)
        assert rows[1]["value"] == 0.99
        assert rows[1]["mean_class"] == pytest.approx(2 / 3)

    def test_beta_sweep(self, capsys, tmp_path, toy_embeddings_path, dict_path):
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        out_json = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys,
            "sweep",
            "--param", "beta",
            "--values", "0.5,0.99",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 0
        rows = json.loads(out_json.read_text())["rows"]
        assert [row["mean_class"] for row in rows] == [pytest.approx(1.0)] * 2

    @pytest.mark.parametrize("with_visibility", [True, False])
    def test_gamma_sweep_row_equals_build_then_eval(
        self,
        capsys,
        tmp_path,
        mined,
        toy_lexicon_path,
        toy_embeddings_path,
        toy_visibility_path,
        with_visibility,
    ):
        # the delta sweep too; values in falling order, so that the one
        # build's smallest gamma is not the first
        matrix_path, counts_path = mined
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"stopwords": ["water"]}))
        build = ["--matrix", matrix_path, "--counts", counts_path, "--lexicon", toy_lexicon_path]
        if with_visibility:
            build += ["--visibility", toy_visibility_path]
        data = [
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--config", config,
        ]
        rows = {}
        for param, values in (("gamma", "0.99,0.01"), ("delta", "0.99,0.8,-0.5")):
            sweep_json = tmp_path / f"sweep-{param}.json"
            code, _, _ = run(
                capsys, "sweep", "--param", param, "--values", values,
                *data, *build, "--out-json", sweep_json,
            )
            assert code == 0
            rows[param] = json.loads(sweep_json.read_text())["rows"]
            for row in rows[param]:
                cc_json = tmp_path / f"cc-{param}-{row['value']}.json"
                eval_json = tmp_path / f"eval-{param}-{row['value']}.json"
                code, _, _ = run(
                    capsys, "build-cc", f"--{param}", row["value"], *build,
                    "--embeddings", toy_embeddings_path, "--config", config, "--out", cc_json,
                )
                assert code == 0
                code, _, _ = run(
                    capsys, "eval", *data, "--cc-mode", "dict", "--cc-dict", cc_json,
                    "--out-json", eval_json,
                )
                assert code == 0
                report = json.loads(eval_json.read_text())
                assert row["mean_class"] == report["mean_class"]
                assert row["mean_image"] == report["mean_image"]
        assert [row["value"] for row in rows["gamma"]] == [0.99, 0.01]
        # the config's stop-word bites: without it, gamma 0.01 scores 1.0
        assert rows["gamma"][1]["mean_class"] < 1.0
        if with_visibility:
            # trailer, kept only at delta 0.99, takes the boat's pixels
            assert rows["delta"][0]["mean_class"] < rows["delta"][1]["mean_class"]

    def test_gamma_sweep_asks_each_concept_once(
        self, capsys, tmp_path, mined, toy_lexicon_path, toy_embeddings_path, monkeypatch
    ):
        calls = []

        def oracle(concept):
            calls.append(concept)
            if concept == "sunset":
                raise CCMineError("visibility service down")
            return True

        monkeypatch.setattr(cli, "visibility_oracle", lambda client, markers: oracle)
        matrix_path, counts_path = mined
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        config = write_config(
            tmp_path,
            {"unknown_visibility": "llm", "llm": {"endpoint": "http://127.0.0.1:1/v1/completions"}},
        )
        build = [
            "--matrix", matrix_path, "--counts", counts_path, "--lexicon", toy_lexicon_path,
            "--embeddings", toy_embeddings_path, "--config", config,
        ]
        code, _, _ = run(
            capsys, "sweep", "--param", "gamma", "--values", "0.99,0.01,0.5",
            "--features-dir", features_dir, "--gt-dir", gt_dir, *build,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 0
        swept = calls[:]
        calls.clear()
        code, _, _ = run(capsys, "build-cc", "--gamma", "0.01", *build, "--out", tmp_path / "cc.json")
        assert code == 0
        # what the smallest gamma's build asks, in its order; the failed
        # answer too is asked once
        assert swept == calls
        assert sorted(swept) == ["boat", "cat", "dock", "sunset", "trailer", "water"]

    @pytest.mark.parametrize("param", ["gamma", "sigmoid"])
    def test_class_failure_is_skipped_and_exits_3(
        self, capsys, caplog, tmp_path, toy_embeddings_path, param_flags, param
    ):
        # as eval does: the class whose label has no embedding is skipped,
        # the report is written, and the run exits 3
        features_dir, gt_dir = tmp_path / "features", tmp_path / "gt"
        features_dir.mkdir()
        gt_dir.mkdir()
        make_scene_features().save(features_dir / "img0.feat")
        ids = np.zeros((4, 4), dtype=np.int32)
        ids[:, 0:2] = 1
        ids[:, 3] = 2
        labels = {0: "background", 1: "boat", 2: "zzunembedded"}
        write_gt_file(gt_dir / "img0.seg", GroundTruth(ids, labels, background_id=0))
        boat_only = write_scene_dataset(tmp_path / "boat-only")
        grid = ["--steps", "5"] if param == "sigmoid" else ["--values", "0.01,0.99"]
        grid += param_flags.get(param, [])

        def sweep(features_dir, gt_dir, out_json):
            code, _, _ = run(
                capsys, "sweep", "--param", param, *grid, "--features-dir", features_dir,
                "--gt-dir", gt_dir, "--embeddings", toy_embeddings_path, "--out-json", out_json,
            )
            return code, json.loads(out_json.read_text())

        code, report = sweep(features_dir, gt_dir, tmp_path / "sweep.json")
        assert code == 3
        assert "0 image failures, 1 class failures" in caplog.text
        # the rows are those of the dataset without the class
        want_code, want = sweep(*boat_only, tmp_path / "boat-only.json")
        assert want_code == 0
        assert report == want

    def test_beta_sweep_asks_each_class_once(
        self, capsys, tmp_path, toy_embeddings_path, dict_path, monkeypatch
    ):
        calls = []
        real = cli.cc_d

        def spy(q, **kwargs):
            calls.append(q)
            return real(q, **kwargs)

        monkeypatch.setattr(cli, "cc_d", spy)
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        code, _, _ = run(
            capsys,
            "sweep",
            "--param", "beta",
            "--values", "0.5,0.9,0.99",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 0
        assert sorted(calls) == ["boat", "water"]

    @pytest.mark.parametrize(
        "param,flag,value",
        [
            ("sigmoid", "--values", "0.5"),
            ("gamma", "--gamma", "0.1"),
            ("gamma", "--cc-mode", "dict"),
            ("gamma", "--cc-dict", "cc.json"),
            ("gamma", "--steps", "5"),
            ("delta", "--delta", "0.5"),
            ("delta", "--cc-mode", "bg"),
            ("delta", "--cc-dict", "cc.json"),
            ("delta", "--steps", "5"),
            ("beta", "--steps", "5"),
            ("sigmoid", "--classes", "boat"),
            ("sigmoid", "--classes-file", "classes.txt"),
            ("sigmoid", "--cc-mode", "llm"),
            ("sigmoid", "--cc-dict", "cc.json"),
            ("sigmoid", "--gamma", "0.5"),
            ("sigmoid", "--delta", "0.5"),
            ("sigmoid", "--matrix", "nope"),
            ("sigmoid", "--counts", "nope"),
            ("sigmoid", "--lexicon", "nope"),
            ("sigmoid", "--visibility", "nope"),
            ("sigmoid", "--beta-scope", "all"),
            ("sigmoid", "--background-label", "background"),
            ("gamma", "--classes", "boat"),
            ("gamma", "--classes-file", "classes.txt"),
            ("gamma", "--beta-scope", "all"),
            ("gamma", "--background-label", "background"),
            ("delta", "--classes", "boat"),
            ("delta", "--classes-file", "classes.txt"),
            ("delta", "--beta-scope", "all"),
            ("delta", "--background-label", "background"),
            ("beta", "--gamma", "0.5"),
            ("beta", "--delta", "0.5"),
            ("beta", "--matrix", "nope"),
            ("beta", "--counts", "nope"),
            ("beta", "--lexicon", "nope"),
            ("beta", "--visibility", "nope"),
            ("beta with cc-mode bg", "--cc-dict", "cc.json"),
            ("beta with cc-mode privileged", "--cc-dict", "cc.json"),
            ("beta with cc-mode llm", "--cc-dict", "cc.json"),
            ("beta with cc-mode bg (run-config)", "--cc-dict", "cc.json"),
        ],
    )
    def test_flag_that_does_nothing_exits_3(
        self, capsys, tmp_path, toy_embeddings_path, param_flags, param, flag, value
    ):
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        param, via_config = param.removesuffix(" (run-config)"), param.endswith(" (run-config)")
        param, _, mode = param.partition(" with cc-mode ")
        job_flags, job = param_flags[param], f"a {param} sweep"
        if mode:
            # the llm mode comes from a run-config, every other from --cc-mode
            # unless the case says otherwise
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"cc_mode": mode}))
            from_config = mode == "llm" or via_config
            job_flags = ["--config", config] if from_config else ["--cc-mode", mode]
        if param == "beta":  # the one sweep that reads a CC mode names it
            job += f" with cc-mode {mode or 'dict'}"
        grid = ["--steps", "5"] if param == "sigmoid" else ["--values", "0.5"]
        code, _, err = run(
            capsys, "sweep", "--param", param, *grid, *job_flags, flag, value,
            "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--out-json", tmp_path / "sweep.json",
        )
        assert code == 3
        assert err == f"error: {flag} does nothing in {job}\n"
        assert not (tmp_path / "sweep.json").exists()

    @pytest.mark.parametrize("param", ["sigmoid", "gamma", "delta", "beta"])
    def test_unreadable_image_is_skipped(
        self, capsys, caplog, tmp_path, toy_embeddings_path, param_flags, param
    ):
        grid = ["--steps", "12"] if param == "sigmoid" else ["--values", _SWEEP_VALUES[param]]

        def sweep(root: Path, features: dict, cut: str | None = None):
            features_dir, gt_dir = write_two_class_dataset(root, features)
            if cut is not None:
                bad = features_dir / f"{cut}.feat"
                bad.write_bytes(bad.read_bytes()[:-4])
            code, _, _ = run(
                capsys, "sweep", "--param", param, *grid, *param_flags[param],
                "--features-dir", features_dir, "--gt-dir", gt_dir,
                "--embeddings", toy_embeddings_path, "--out-json", root / "sweep.json",
            )
            return code, json.loads((root / "sweep.json").read_text())

        readable = {"img0": make_sweep_features(), "img2": make_scene_features()}
        # img1 would change every row, were it read
        every = {**readable, "img1": FeatureMap(np.random.default_rng(1).normal(size=(4, 4, 3)))}
        code, with_bad = sweep(tmp_path / "all", every, cut="img1")
        assert code == 3
        assert "image img1 failed to load" in caplog.text
        code, expected = sweep(tmp_path / "readable", readable)
        assert code == 0
        assert with_bad == expected

    def test_gamma_sweep_needs_inputs(self, capsys, tmp_path, toy_embeddings_path):
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        code, _, err = run(
            capsys,
            "sweep",
            "--param", "gamma",
            "--values", "0.01",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 3
        assert "matrix" in err


class TestReportBytes:
    """The report bytes of each kind of eval and sweep on the two-image
    scene dataset are pinned."""

    @pytest.mark.parametrize(
        "job,digest",
        [
            ("eval-iou-single", "7afa69c8e84d420e27a76d1e10de2757d9f763d7ff055942c3c6257039e26fc2"),
            ("eval-miou-classic", "745de3a90f6e0c9b4b626370ac6d254de0b8613420d14d1dec9c932dd4b95876"),
            ("eval-sigmoid", "3c7948c3a482c312b384db817024fd8346fed4af0faafb40de9cc35bc5e4fe6d"),
            ("sweep-sigmoid", "36857b9f48c1c7447f0fbb3c423bfaf7fdb4da71f630cf81f950d5e1bde6b01a"),
            ("sweep-gamma", "782e23c50d14b07a5563991234ca5a756062f1b3f052ed8fef0b283502ecab86"),
            ("sweep-delta", "1a42213cc308f5653049ef883de69e10a21791b52994b0983fde67db9e740bd6"),
            ("sweep-beta", "9367d0f63ce6bb14d803a83053acbcaadf09bf6be2ebfa1409365658190531a0"),
        ],
    )
    def test_report_bytes_are_pinned(
        self, capsys, tmp_path, mined, toy_lexicon_path, toy_visibility_path,
        toy_embeddings_path, dict_path, job, digest,
    ):
        matrix_path, counts_path = mined
        build = [
            "--matrix", matrix_path, "--counts", counts_path,
            "--lexicon", toy_lexicon_path, "--visibility", toy_visibility_path,
        ]
        cc = ["--cc-mode", "dict", "--cc-dict", dict_path]
        job_flags = {
            "eval-iou-single": ["eval", *cc],
            "eval-miou-classic": ["eval", "--metric", "miou-classic", *cc],
            "eval-sigmoid": ["eval", "--segmenter", "sigmoid", "--sigmoid-threshold", "0.6"],
            "sweep-sigmoid": ["sweep", "--param", "sigmoid", "--steps", "12"],
            "sweep-gamma": ["sweep", "--param", "gamma", "--values", "0.01,0.99", *build],
            "sweep-delta": ["sweep", "--param", "delta", "--values", "0.5,0.9", *build],
            "sweep-beta": ["sweep", "--param", "beta", "--values", "0.5,0.99", *cc],
        }[job]
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        out_json = tmp_path / "report.json"
        code, _, err = run(
            capsys, *job_flags, "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--out-json", out_json,
        )
        assert code == 0, err
        assert hashlib.sha256(out_json.read_bytes()).hexdigest() == digest


class TestPickledScorers:
    """Every scorer ``_set_up`` returns pickles, so a worker process can
    take it, and the copy scores as the original does."""

    @pytest.mark.parametrize(
        "job",
        ["eval-dict", "eval-bg", "eval-privileged", "eval-none", "eval-llm", "eval-miou-classic",
         "eval-sigmoid", "sweep-sigmoid", "sweep-gamma", "sweep-delta", "sweep-beta"],
    )
    def test_scorers_survive_a_pickle_round_trip(
        self, capsys, tmp_path, monkeypatch, request, mined, toy_lexicon_path,
        toy_visibility_path, toy_embeddings_path, dict_path, job,
    ):
        matrix_path, counts_path = mined
        build = [
            "--matrix", matrix_path, "--counts", counts_path,
            "--lexicon", toy_lexicon_path, "--visibility", toy_visibility_path,
        ]
        cc = ["--cc-mode", "dict", "--cc-dict", dict_path]
        job_flags = {
            "eval-dict": ["eval", *cc],
            "eval-bg": ["eval", "--cc-mode", "bg"],
            "eval-privileged": ["eval", "--cc-mode", "privileged", "--classes", "boat,water,dock"],
            "eval-none": ["eval", "--cc-mode", "none"],
            "eval-llm": ["eval", "--cc-mode", "llm", "--llm-cache", tmp_path / "cache"],
            "eval-miou-classic": ["eval", "--metric", "miou-classic", *cc],
            "eval-sigmoid": ["eval", "--segmenter", "sigmoid", "--sigmoid-threshold", "0.6"],
            "sweep-sigmoid": ["sweep", "--param", "sigmoid", "--steps", "12"],
            "sweep-gamma": ["sweep", "--param", "gamma", "--values", "0.01,0.99", *build],
            "sweep-delta": ["sweep", "--param", "delta", "--values", "0.5,0.9", *build],
            "sweep-beta": ["sweep", "--param", "beta", "--values", "0.5,0.99", *cc],
        }[job]
        if job == "eval-llm":
            job_flags += ["--llm-endpoint", request.getfixturevalue("llm_server").url]
        made = []
        set_up = cli._set_up

        def spy(*args, **kwargs):
            made.append(set_up(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(cli, "_set_up", spy)
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        run(
            capsys, *job_flags, "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--out-json", tmp_path / "report.json",
        )
        [(image_ids, scorers)] = made
        copies = pickle.loads(pickle.dumps(scorers))
        images = partial(cli._load_dataset, features_dir, gt_dir, image_ids)
        if job == "sweep-sigmoid":
            assert cli.metrics.sigmoid_sweep(images(), copies, 12) == cli.metrics.sigmoid_sweep(
                images(), scorers, 12
            )
        else:
            assert cli._score_images(images(), copies) == cli._score_images(images(), scorers)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@contextlib.contextmanager
def fed(root: Path, files: dict, piped: bool):
    """The paths of ``files`` (name to path) as strings; with ``piped``,
    FIFOs under ``root`` instead, each fed its file's bytes by a thread."""
    if not piped:
        yield {name: str(path) for name, path in files.items()}
        return
    fifos, writers = {}, []
    for name, path in files.items():
        fifos[name] = fifo = root / f"{name}.pipe"
        os.mkfifo(fifo)

        def feed(fifo=fifo, data=Path(path).read_bytes()):
            with contextlib.suppress(BrokenPipeError):  # a reader that stopped early
                fifo.write_bytes(data)

        writers.append((fifo, threading.Thread(target=feed, daemon=True)))
        writers[-1][1].start()
    try:
        yield {name: str(fifo) for name, fifo in fifos.items()}
    finally:
        for fifo, writer in writers:
            while writer.is_alive():  # never opened: open it so the writer ends
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
                writer.join(0.1)


class TestRecordedDigests:
    """``build-cc`` and ``eval`` record the sha256 of each input they read,
    hashed as its loader reads it: every input, a pipe too, is opened
    once.  The jobs that record no digest hash nothing."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """How often ``ioutil`` opened each path; a FIFO opened again is an
        error, as it would wait for a writer that is gone."""
        opens = Counter()

        def counting_open(file, *args, **kwargs):
            opens[file] += 1
            if opens[file] > 1 and stat.S_ISFIFO(os.stat(file).st_mode):
                raise AssertionError(f"{file} opened again")
            return open(file, *args, **kwargs)

        monkeypatch.setattr(ioutil, "open", counting_open, raising=False)
        return opens

    @pytest.mark.parametrize("piped", [False, True], ids=["files", "pipes"])
    def test_build_cc(
        self, capsys, tmp_path, mined, toy_lexicon_path, toy_visibility_path,
        toy_embeddings_path, opened, piped,
    ):
        matrix_path, counts_path = mined
        inputs = {
            "lexicon": toy_lexicon_path,
            "corpus": matrix_path,
            "counts": counts_path,
            "visibility": toy_visibility_path,
            "embeddings": toy_embeddings_path,
        }
        out = tmp_path / "cc.json"
        with fed(tmp_path, inputs, piped) as paths:
            code, _, err = run(
                capsys, "build-cc", "--lexicon", paths["lexicon"], "--matrix", paths["corpus"],
                "--counts", paths["counts"], "--visibility", paths["visibility"],
                "--embeddings", paths["embeddings"], "--out", out,
            )
        assert code == 0, err
        meta = CCDictionary.load(out).meta
        assert {name: meta[f"{name}_digest"] for name in inputs} == {
            name: sha256_file(path) for name, path in inputs.items()
        }
        assert [opened[path] for path in paths.values()] == [1] * len(inputs)

    @pytest.mark.parametrize("piped", [False, True], ids=["files", "pipes"])
    @pytest.mark.parametrize("job", ["iou-single", "miou-classic", "sigmoid"])
    def test_eval(self, capsys, tmp_path, opened, job, piped):
        # fillers that no class reaches: every job loads a subset of the rows
        table, dictionary = write_padded_inputs(tmp_path / "inputs", 300, pad_dict=False)
        inputs = {"embeddings": table}
        if job != "sigmoid":
            inputs["cc_dict"] = dictionary
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0", "img1"))
        out_json = tmp_path / "report.json"
        with fed(tmp_path, inputs, piped) as paths:
            cc = ["--cc-mode", "dict", "--cc-dict", paths.get("cc_dict")]
            flags = {
                "iou-single": cc,
                "miou-classic": ["--metric", "miou-classic", *cc],
                "sigmoid": ["--segmenter", "sigmoid", "--sigmoid-threshold", "0.6"],
            }[job]
            code, _, err = run(
                capsys, "eval", *flags, "--embeddings", paths["embeddings"],
                "--features-dir", features_dir, "--gt-dir", gt_dir, "--out-json", out_json,
            )
        assert code == 0, err
        meta = json.loads(out_json.read_text())["meta"]
        assert meta["embeddings_digest"] == sha256_file(table)
        assert meta["cc_dict_digest"] == (None if job == "sigmoid" else sha256_file(dictionary))
        assert [opened[path] for path in paths.values()] == [1] * len(inputs)

    @pytest.mark.parametrize(
        "job", ["sweep-sigmoid", "sweep-gamma", "sweep-beta", "gen-cc", "segment"]
    )
    def test_jobs_that_record_no_digest_hash_nothing(
        self, capsys, tmp_path, monkeypatch, mined, toy_lexicon_path, toy_embeddings_path,
        dict_path, job,
    ):
        def refuse(self, path):
            raise AssertionError(f"{path} is hashed")

        monkeypatch.setattr(HashedInput, "__init__", refuse)
        matrix_path, counts_path = mined
        cc = ["--cc-mode", "dict", "--cc-dict", dict_path, "--embeddings", toy_embeddings_path]
        features_dir, gt_dir = write_scene_dataset(tmp_path, ("img0",))
        dataset = [
            "--features-dir", features_dir, "--gt-dir", gt_dir, "--out-json", tmp_path / "r.json"
        ]
        features = tmp_path / "img.feat"
        make_scene_features().save(features)
        argv = {
            "sweep-sigmoid": [
                "sweep", "--param", "sigmoid", "--embeddings", toy_embeddings_path, *dataset
            ],
            "sweep-gamma": [
                "sweep", "--param", "gamma", "--values", "0.01", "--matrix", matrix_path,
                "--counts", counts_path, "--lexicon", toy_lexicon_path,
                "--embeddings", toy_embeddings_path, *dataset,
            ],
            "sweep-beta": ["sweep", "--param", "beta", "--values", "0.5", *cc, *dataset],
            "gen-cc": ["gen-cc", "--query", "boat", *cc],
            "segment": [
                "segment", "--query", "boat", "--features", features, *cc, "--out", tmp_path / "o.seg"
            ],
        }[job]
        if job == "gen-cc":
            argv[argv.index("--cc-mode")] = "--mode"
        code, _, err = run(capsys, *argv)
        assert code == 0, err


def write_padded_inputs(root: Path, fillers: int, pad_dict: bool = True) -> tuple[Path, Path]:
    """The toy embedding table and dictionary, each with ``fillers`` more
    entries that no class of the two-class dataset reaches (the table
    alone unless ``pad_dict``)."""
    names = [f"filler{k:05d}" for k in range(fillers)]
    vectors = dict(TOY_VECTORS)
    vectors.update(zip(names, np.random.default_rng(5).normal(size=(fillers, 3))))
    order = sorted(vectors)
    root.mkdir(parents=True)
    table_path, dict_path = root / "toy.emb", root / "cc.json"
    EmbeddingTable(order, np.array([vectors[n] for n in order])).save(table_path)
    cc = {k: list(v) for k, v in EXPECTED_DICT_G001.items()}
    if pad_dict:
        cc.update((name, ["boat"]) for name in names)
    CCDictionary(cc).save(dict_path)
    return table_path, dict_path


def corrupt_filler_row(table_path: Path) -> str:
    """Scale one filler row of a ``write_padded_inputs`` table off the unit
    sphere; the message ``EmbeddingTable.loads`` raises for the file."""
    data = bytearray(table_path.read_bytes())
    start = data.index(b"filler00007") + len("filler00007")
    vector = np.frombuffer(data, "<f4", 3, start) * np.float32(1.5)
    data[start : start + 12] = vector.astype("<f4").tobytes()
    table_path.write_bytes(bytes(data))
    with pytest.raises(FormatError) as loads_error:
        EmbeddingTable.loads(bytes(data))
    assert "filler00007" in str(loads_error.value)
    return str(loads_error.value)


class TestEmbeddingReach:
    """Eval and the sigmoid and beta sweeps keep only the embedding rows
    they can reach, and still check every record of the table."""

    JOBS = {
        "iou-single": ["eval", "--cc-mode", "dict", "--cc-dict", "{dict}"],
        "miou-classic": [
            "eval", "--metric", "miou-classic", "--cc-mode", "dict", "--cc-dict", "{dict}"
        ],
        "iou-single-bg": ["eval", "--cc-mode", "bg"],
        # the CC sets name a concept that no scored class is
        "iou-single-privileged": [
            "eval", "--cc-mode", "privileged", "--classes", "boat,water,dock"
        ],
        "eval-sigmoid": ["eval", "--segmenter", "sigmoid", "--sigmoid-threshold", "0.6"],
        "sweep-sigmoid": ["sweep", "--param", "sigmoid", "--steps", "5"],
        "sweep-beta": [
            "sweep", "--param", "beta", "--values", "0.5,0.99", "--cc-mode", "dict",
            "--cc-dict", "{dict}",
        ],
    }

    @staticmethod
    def job(name: str, table: Path, dictionary: Path, features_dir: Path, gt_dir: Path, out):
        flags = [str(dictionary) if a == "{dict}" else a for a in TestEmbeddingReach.JOBS[name]]
        return [
            *flags, "--embeddings", table, "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--out-json", out,
        ]

    @pytest.mark.parametrize("name", list(JOBS))
    @pytest.mark.parametrize("ship", [False, True])
    def test_report_is_the_full_tables(self, capsys, tmp_path, monkeypatch, name, ship):
        # with ship, a class that is no dictionary key takes its nearest
        # key's entry, which needs every key's row
        features = {"img0": make_scene_features(), "img1": make_sweep_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path / "data", features)
        if ship:
            for sidecar in gt_dir.glob("*.seg.json"):
                sidecar.write_text(sidecar.read_text().replace('"water"', '"ship"'))
        table_path, dict_path = write_padded_inputs(tmp_path / "inputs", 300, pad_dict=False)
        load = EmbeddingTable.load.__func__
        kept, reports = [], []
        for keep_all in (False, True):

            def spy(cls, path, names=None, keep_all=keep_all):
                table = load(cls, path, None if keep_all else names)
                kept.append(len(table))
                return table

            monkeypatch.setattr(cli.EmbeddingTable, "load", classmethod(spy))
            out = tmp_path / f"report-{keep_all}.json"
            code, _, err = run(
                capsys, *self.job(name, table_path, dict_path, features_dir, gt_dir, out)
            )
            assert code == 0, err
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        reached, every = kept
        assert every == len(TOY_VECTORS) + 300
        assert reached <= len(TOY_VECTORS)  # no filler row, whatever the job

    @pytest.mark.parametrize("name", list(JOBS))
    def test_corrupt_row_no_class_reaches_exits_3(self, capsys, tmp_path, dict_path, name):
        features = {"img0": make_scene_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path / "data", features)
        table_path, _ = write_padded_inputs(tmp_path / "inputs", 20, pad_dict=False)
        message = corrupt_filler_row(table_path)
        out = tmp_path / "out.json"
        code, _, err = run(
            capsys, *self.job(name, table_path, dict_path, features_dir, gt_dir, out)
        )
        assert code == 3
        assert err == f"error: {message}\n"
        assert not out.exists()

    def test_llm_mode_reads_the_table_before_asking(self, capsys, tmp_path, llm_server):
        features = {"img0": make_scene_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path / "data", features)
        code, _, err = run(
            capsys, "eval", "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", tmp_path / "missing.emb", "--cc-mode", "llm",
            "--llm-endpoint", llm_server.url, "--llm-cache", tmp_path / "cache",
            "--out-json", tmp_path / "out.json",
        )
        assert code == 2
        assert "missing.emb" in err
        assert llm_server.requests == []

    @pytest.mark.parametrize("name", ["iou-single", "sweep-sigmoid"])
    def test_peak_does_not_grow_with_rows_no_class_reaches(self, tmp_path, name):
        features = {"img0": make_scene_features(), "img1": make_scene_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path / "data", features)

        def peak(tag: str, fillers: int) -> int:
            table_path, dict_path = write_padded_inputs(tmp_path / tag, fillers, pad_dict=False)
            argv = self.job(name, table_path, dict_path, features_dir, gt_dir, tmp_path / tag / "o")
            code, peak = traced_peak(lambda: main([str(a) for a in argv]))
            assert code == 0
            return peak

        peak("warm-up", 0)  # first-call caches out of the way
        lean, padded = peak("lean", 0), peak("padded", 16_000)
        # the whole job, load included: 16,000 more rows and names are some MB
        assert padded < lean + (256 << 10), (lean, padded)


class TestQueryReach:
    """gen-cc and segment keep only the embedding rows their queries' CC
    sets can reach, and still check every record of the table."""

    JOBS = {
        "segment-several-remap": [
            "segment", "--query", "boat", "--query", "background", "--remap-background",
        ],
        # a background label that is no dictionary key and takes no CC set
        "segment-several-remap-liberty": [
            "segment", "--query", "boat", "--query", "liberty", "--background-label", "liberty",
            "--remap-background",
        ],
        "segment-one": ["segment", "--query", "boat"],
        # no dictionary key: its nearest key's entry needs every key's row
        "segment-one-ship": ["segment", "--query", "ship"],
        "gen-cc": ["gen-cc", "--mode", "dict", "--query", "boat"],
        "gen-cc-ship": ["gen-cc", "--mode", "dict", "--query", "ship"],
    }

    @staticmethod
    def job(name: str, table: Path, dictionary: Path, out: Path) -> list:
        argv = [*TestQueryReach.JOBS[name], "--cc-dict", dictionary, "--embeddings", table]
        if argv[0] == "segment":
            features = out.parent / "img.feat"
            if not features.exists():
                make_scene_features().save(features)
            argv += ["--cc-mode", "dict", "--features", features]
        return [*argv, "--out", out]

    @pytest.mark.parametrize("name", list(JOBS))
    def test_output_is_the_full_tables(self, capsys, tmp_path, monkeypatch, name):
        # the filler keys of a padded dictionary are reached only by a query
        # that is no key
        table_path, dict_path = write_padded_inputs(
            tmp_path / "inputs", 300, pad_dict="ship" not in name
        )
        load = EmbeddingTable.load.__func__
        kept, outputs = [], []
        for keep_all in (False, True):

            def spy(cls, path, names=None, keep_all=keep_all):
                table = load(cls, path, None if keep_all else names)
                kept.append(len(table))
                return table

            monkeypatch.setattr(cli.EmbeddingTable, "load", classmethod(spy))
            out_dir = tmp_path / f"out-{keep_all}"
            out_dir.mkdir()
            code, _, err = run(capsys, *self.job(name, table_path, dict_path, out_dir / "out"))
            assert code == 0, err
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.glob("out*"))})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == (2 if name.startswith("segment") else 1)
        reached, every = kept
        assert every == len(TOY_VECTORS) + 300
        assert reached <= len(TOY_VECTORS)  # no filler row, whatever the query

    @pytest.mark.parametrize("name", ["segment-several-remap", "segment-one", "gen-cc"])
    def test_corrupt_row_no_query_reaches_exits_3(self, capsys, tmp_path, dict_path, name):
        table_path, _ = write_padded_inputs(tmp_path / "inputs", 20, pad_dict=False)
        message = corrupt_filler_row(table_path)
        out = tmp_path / "out"
        code, _, err = run(capsys, *self.job(name, table_path, dict_path, out))
        assert code == 3
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["segment-several-remap", "segment-one", "gen-cc"])
    def test_peak_does_not_grow_with_rows_no_query_reaches(self, tmp_path, name):
        def peak(tag: str, fillers: int) -> int:
            table_path, dict_path = write_padded_inputs(tmp_path / tag, fillers, pad_dict=False)
            argv = self.job(name, table_path, dict_path, tmp_path / tag / "out")
            code, peak = traced_peak(lambda: main([str(a) for a in argv]))
            assert code == 0
            return peak

        peak("warm-up", 0)  # first-call caches out of the way
        lean, padded = peak("lean", 0), peak("padded", 16_000)
        # the whole job, load included: 16,000 more rows and names are some MB
        assert padded < lean + (256 << 10), (lean, padded)

    @pytest.mark.parametrize("name", ["segment-one", "gen-cc"])
    @pytest.mark.parametrize("given", [True, False])
    def test_dictionary_is_reported_before_the_table(self, capsys, tmp_path, name, given):
        table_path, _ = write_padded_inputs(tmp_path / "inputs", 20, pad_dict=False)
        corrupt_filler_row(table_path)
        argv = self.job(name, table_path, tmp_path / "missing.json", tmp_path / "out")
        if not given:
            at = argv.index("--cc-dict")
            del argv[at : at + 2]
        code, _, err = run(capsys, *argv)
        if given:
            assert code == 2
            assert "missing.json" in err
        else:
            assert code == 3
            assert err == "error: cc-mode 'dict' needs --cc-dict and --embeddings\n"
        assert not (tmp_path / "out").exists()


class TestBuildReach:
    """build-cc and the gamma and delta sweeps keep only the embedding rows
    of the lexicon, the background label and the scored classes, read
    their build inputs before the table, and still check every record."""

    JOBS = {
        "build-cc": ["build-cc"],
        "sweep-gamma": ["sweep", "--param", "gamma", "--values", "0.01,0.99"],
        "sweep-delta": ["sweep", "--param", "delta", "--values", "0.5,0.9"],
        # a class that is no lexicon concept looks up its own row
        "sweep-gamma-ship": ["sweep", "--param", "gamma", "--values", "0.01,0.99"],
    }

    @pytest.fixture
    def build(self, mined, toy_lexicon_path, toy_visibility_path) -> list:
        matrix_path, counts_path = mined
        return [
            "--matrix", matrix_path, "--counts", counts_path, "--lexicon", toy_lexicon_path,
            "--visibility", toy_visibility_path,
        ]

    @staticmethod
    def job(name: str, table: Path, build: list, root: Path) -> list:
        """The command line of ``name``, writing its output under ``root``."""
        argv = [*TestBuildReach.JOBS[name], *build, "--embeddings", table]
        if argv[0] == "build-cc":
            return [*argv, "--out", root / "out.json"]
        data = root.parent / f"data-{name}"
        if not data.exists():
            features = {"img0": make_scene_features(), "img1": make_sweep_features()}
            write_two_class_dataset(data, features)
            if name.endswith("-ship"):
                for sidecar in (data / "gt").glob("*.seg.json"):
                    sidecar.write_text(sidecar.read_text().replace('"water"', '"ship"'))
        return [
            *argv, "--features-dir", data / "features", "--gt-dir", data / "gt",
            "--out-json", root / "out.json",
        ]

    def runs(self, capsys, monkeypatch, argv) -> list:
        """(exit code, stderr, output bytes, rows kept) of ``argv`` with
        only the rows the job asks for, then with every row kept."""
        load = EmbeddingTable.load.__func__
        results = []
        for keep_all in (False, True):
            kept = []

            def spy(cls, path, names=None, keep_all=keep_all):
                table = load(cls, path, None if keep_all else names)
                kept.append(len(table))
                return table

            monkeypatch.setattr(cli.EmbeddingTable, "load", classmethod(spy))
            out = Path(argv[-1])
            out.unlink(missing_ok=True)
            code, _, err = run(capsys, *argv)
            results.append((code, err, out.read_bytes() if out.exists() else None, kept))
        return results

    @pytest.mark.parametrize("name", list(JOBS))
    def test_output_is_the_full_tables(self, capsys, tmp_path, monkeypatch, build, name):
        table_path, _ = write_padded_inputs(tmp_path / "inputs", 300, pad_dict=False)
        lean, full = self.runs(capsys, monkeypatch, self.job(name, table_path, build, tmp_path))
        assert lean[0] == 0, lean[1]
        assert lean[:3] == full[:3]
        assert full[3] == [len(TOY_VECTORS) + 300]
        [reached] = lean[3]
        assert reached <= len(TOY_VECTORS)  # no filler row, whatever the job

    @pytest.mark.parametrize("name", list(JOBS))
    def test_corrupt_row_no_build_reaches_exits_3(self, capsys, tmp_path, build, name):
        table_path, _ = write_padded_inputs(tmp_path / "inputs", 20, pad_dict=False)
        message = corrupt_filler_row(table_path)
        argv = self.job(name, table_path, build, tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == f"error: {message}\n"
        assert not Path(argv[-1]).exists()

    @pytest.mark.parametrize("name", ["build-cc", "sweep-gamma", "sweep-delta"])
    def test_lexicon_concept_without_a_row_fails_as_before(
        self, capsys, tmp_path, monkeypatch, build, name
    ):
        # dock's cosine to boat is a semantic-filter check of the build
        names = [n for n in sorted(TOY_VECTORS) if n != "dock"]
        table_path = tmp_path / "no-dock.emb"
        EmbeddingTable(names, np.array([TOY_VECTORS[n] for n in names])).save(table_path)
        lean, full = self.runs(capsys, monkeypatch, self.job(name, table_path, build, tmp_path))
        assert lean[:3] == full[:3] == (3, "error: no embedding available for concept: 'dock'\n", None)

    @pytest.mark.parametrize("name", ["build-cc", "sweep-gamma"])
    def test_peak_does_not_grow_with_rows_no_build_reaches(self, tmp_path, build, name):
        def peak(tag: str, fillers: int) -> int:
            table_path, _ = write_padded_inputs(tmp_path / tag, fillers, pad_dict=False)
            argv = self.job(name, table_path, build, tmp_path / tag)
            code, peak = traced_peak(lambda: main([str(a) for a in argv]))
            assert code == 0
            return peak

        peak("warm-up", 0)  # first-call caches out of the way
        lean, padded = peak("lean", 0), peak("padded", 16_000)
        # the whole job, load included: 16,000 more rows and names are some MB
        assert padded < lean + (256 << 10), (lean, padded)

    @pytest.mark.parametrize("name", ["build-cc", "sweep-gamma", "sweep-delta"])
    def test_matrix_is_reported_before_the_table(self, capsys, tmp_path, build, name):
        table_path, _ = write_padded_inputs(tmp_path / "inputs", 20, pad_dict=False)
        corrupt_filler_row(table_path)
        matrix_path = tmp_path / "corrupt.cooc"
        matrix_path.write_text("not a cooc file\n")
        with pytest.raises(FormatError) as matrix_error:
            CoocMatrix.load(matrix_path)
        build = [matrix_path if a == build[1] else a for a in build]
        argv = self.job(name, table_path, build, tmp_path)
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert err == f"error: {matrix_error.value}\n"
        assert not Path(argv[-1]).exists()


class TestBackgroundLabelNormalized:
    """``--background-label`` is read as a concept, as queries and classes
    are: a label in another case or spacing writes its lowercase run's
    bytes."""

    @staticmethod
    def outputs(capsys, root: Path, argv: list, label: str) -> dict:
        out_dir = root / f"out-{label.strip()}"
        out_dir.mkdir()
        argv = [label if a == "{label}" else a for a in argv]
        code, _, err = run(capsys, *argv, out_dir / "out")
        assert code == 0, err
        return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}

    def test_segment_remap(self, capsys, tmp_path, toy_embeddings_path):
        features = tmp_path / "img.feat"
        make_scene_features().save(features)
        argv = [
            "segment", "--features", features, "--embeddings", toy_embeddings_path,
            "--query", "boat", "--query", "{label}", "--background-label", "{label}",
            "--remap-background", "--out",
        ]
        lower = self.outputs(capsys, tmp_path, argv, "background")
        assert self.outputs(capsys, tmp_path, argv, "Background") == lower
        assert len(lower) == 2

    @pytest.mark.parametrize(
        "job,label",
        [
            (["eval", "--metric", "miou-classic", "--cc-mode", "dict", "--cc-dict", "{dict}"],
             "Background"),
            (["sweep", "--param", "beta", "--values", "0.5,0.99", "--cc-mode", "bg"],
             " Background"),
        ],
    )
    def test_classic_jobs(self, capsys, tmp_path, toy_embeddings_path, dict_path, job, label):
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        argv = [
            *(str(dict_path) if a == "{dict}" else a for a in job),
            "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--background-label", "{label}", "--out-json",
        ]
        lower = self.outputs(capsys, tmp_path, argv, "background")
        assert self.outputs(capsys, tmp_path, argv, label) == lower


class TestEmptyBackgroundLabel:
    """A background label that normalizes to nothing names no query: it is
    refused, exit 3 naming the flag, before any input opens (no input
    path below exists)."""

    def test_segment_of_several_queries(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "segment", "--features", tmp_path / "none.feat",
            "--embeddings", tmp_path / "none.emb", "--query", "cuzzn", "--query", "kaplrm",
            "--background-label", "", "--out", tmp_path / "out.seg",
        )
        assert code == 3
        assert "--background-label" in err
        assert not (tmp_path / "out.seg").exists()

    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_classic_eval(self, capsys, tmp_path, given):
        label = ["--background-label", " "]
        if given == "config":
            label = ["--config", write_config(tmp_path, {"background_label": " "})]
        code, _, err = run(
            capsys, "eval", "--metric", "miou-classic", "--cc-mode", "bg", *label,
            "--features-dir", tmp_path / "none", "--gt-dir", tmp_path / "none",
            "--embeddings", tmp_path / "none.emb", "--out-json", tmp_path / "eval.json",
        )
        assert code == 3
        assert "--background-label" in err
        assert not (tmp_path / "eval.json").exists()


class TestClassesResolvedOnce:
    """Eval and the sweeps resolve each class's prompts before the first
    image and hold only those while they score."""

    # job: (where the image loop runs, the job's flags given its table and dictionary)
    JOBS = {
        "iou-single": (
            "_score_images",
            lambda t, d, build: ["eval", "--embeddings", t, "--cc-mode", "dict", "--cc-dict", d],
        ),
        "miou-classic": (
            "_score_images",
            lambda t, d, build: [
                "eval", "--embeddings", t, "--metric", "miou-classic",
                "--cc-mode", "dict", "--cc-dict", d,
            ],
        ),
        "eval-sigmoid": (
            "_score_images",
            lambda t, d, build: [
                "eval", "--embeddings", t, "--segmenter", "sigmoid", "--sigmoid-threshold", "0.6",
            ],
        ),
        "sweep-sigmoid": (
            "sigmoid_sweep",
            lambda t, d, build: ["sweep", "--param", "sigmoid", "--steps", "5", "--embeddings", t],
        ),
        "sweep-gamma": (
            "_score_images",
            lambda t, d, build: [
                "sweep", "--param", "gamma", "--values", "0.01,0.99", "--embeddings", t, *build,
            ],
        ),
        "sweep-beta": (
            "_score_images",
            lambda t, d, build: [
                "sweep", "--param", "beta", "--values", "0.5,0.99", "--embeddings", t,
                "--cc-mode", "dict", "--cc-dict", d,
            ],
        ),
    }

    @pytest.mark.parametrize("job", list(JOBS))
    def test_image_loop_holds_no_full_table_or_dictionary(
        self, tmp_path, monkeypatch, mined, toy_lexicon_path, toy_visibility_path, job
    ):
        loop, job_flags = self.JOBS[job]
        owner = cli.metrics if loop == "sigmoid_sweep" else cli
        matrix_path, counts_path = mined
        build = [
            "--matrix", matrix_path, "--counts", counts_path,
            "--lexicon", toy_lexicon_path, "--visibility", toy_visibility_path,
        ]
        features = {"img0": make_scene_features(), "img1": make_scene_features()}
        features_dir, gt_dir = write_two_class_dataset(tmp_path / "data", features)

        def peak(tag: str, fillers: int) -> int:
            table_path, dict_path = write_padded_inputs(tmp_path / tag, fillers)
            argv = [
                *job_flags(table_path, dict_path, build),
                "--features-dir", features_dir, "--gt-dir", gt_dir,
                "--out-json", tmp_path / tag / "out.json",
            ]
            code, peak = peak_inside(
                monkeypatch, owner, loop, lambda: main([str(a) for a in argv])
            )
            assert code == 0
            return peak

        peak("warm-up", 0)  # first-call caches out of the way
        lean, padded = peak("lean", 0), peak("padded", 16_000)
        # 16,000 more rows, names and dictionary entries are some MB
        assert padded < lean + (256 << 10)

    def test_classes_are_resolved_once_in_first_seen_order(
        self, capsys, tmp_path, toy_embeddings_path, dict_path, monkeypatch
    ):
        calls = []
        real = cli.cc_d

        def spy(q, **kwargs):
            calls.append(q)
            return real(q, **kwargs)

        monkeypatch.setattr(cli, "cc_d", spy)
        features_dir, gt_dir = tmp_path / "features", tmp_path / "gt"
        features_dir.mkdir()
        gt_dir.mkdir()
        # ids by column; 0 is background and 255 ignored where declared
        images = {
            "img0": ((2, 2, 1, 1), {1: "water", 2: "boat"}, None, None),
            "img1": ((0, 1, 3, 255), {0: "background", 1: "dock", 3: "boat", 255: "void"}, 255, 0),
            "img2": ((4, 4, 7, 7), {4: "water", 7: "sunset"}, None, None),
        }
        for image_id, (columns, labels, ignore_id, background_id) in images.items():
            make_scene_features().save(features_dir / f"{image_id}.feat")
            ids = np.tile(np.array(columns, dtype=np.int32), (4, 1))
            gt = GroundTruth(ids, labels, ignore_id=ignore_id, background_id=background_id)
            write_gt_file(gt_dir / f"{image_id}.seg", gt)
        code, _, err = run(
            capsys, "eval", "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--cc-mode", "dict", "--cc-dict", dict_path,
            "--out-json", tmp_path / "report.json",
        )
        assert code == 0, err
        # image order, then id order; each class once however many images
        # have it, and the ignore and background labels never
        assert calls == ["water", "boat", "dock", "sunset"]

    def test_failed_class_fails_alike_in_every_image(
        self, capsys, tmp_path, toy_embeddings_path
    ):
        cc = {k: list(v) for k, v in EXPECTED_DICT_G001.items()}
        cc["water"] = ["zzmissing"]  # a concept without an embedding
        dict_path = tmp_path / "cc.json"
        CCDictionary(cc).save(dict_path)
        features_dir, gt_dir = tmp_path / "features", tmp_path / "gt"
        features_dir.mkdir()
        gt_dir.mkdir()
        ids = np.tile(np.array([1, 1, 2, 3], dtype=np.int32), (4, 1))
        gt = GroundTruth(ids, {1: "boat", 2: "water", 3: "zzunembedded"})
        for image_id in ("img0", "img1", "img2"):
            make_scene_features().save(features_dir / f"{image_id}.feat")
            write_gt_file(gt_dir / f"{image_id}.seg", gt)
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--cc-mode", "dict", "--cc-dict", dict_path,
            "--out-json", out_json,
        )
        assert code == 3
        report = json.loads(out_json.read_text())
        assert len(report["per_image"]) == 3
        for image in report["per_image"]:
            assert list(image["classes"]) == ["boat"]
            assert image["failures"] == [
                {"class": "water", "error": "no embedding available for concept: 'zzmissing'"},
                {
                    "class": "zzunembedded",
                    "error": "no embedding available for concept: 'zzunembedded'",
                },
            ]

    def test_llm_is_asked_once_per_class(
        self, capsys, tmp_path, toy_embeddings_path, llm_server
    ):
        llm_server.script = [
            lambda handler, payload: send(handler, 400, b"no"),
            lambda handler, payload: send(handler, 200, json.dumps({"text": "dock"}).encode()),
        ]
        features = {f"img{k}": make_scene_features() for k in range(3)}
        features_dir, gt_dir = write_two_class_dataset(tmp_path, features)
        out_json = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "eval", "--features-dir", features_dir, "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path, "--cc-mode", "llm",
            "--llm-endpoint", llm_server.url, "--llm-cache", tmp_path / "cache",
            "--llm-attempts", "1", "--out-json", out_json,
        )
        assert code == 3
        prompts = [json.loads(r["body"])["prompt"] for r in llm_server.requests]
        assert prompts == [render(CC_GENERATION, q) for q in ("boat", "water")]
        # the failed answer fails its class in every image that has it
        for image in json.loads(out_json.read_text())["per_image"]:
            assert image["failures"] == [
                {"class": "boat", "error": "completion endpoint answered 400: no"}
            ]
            assert list(image["classes"]) == ["water"]


# Each subcommand's flags as (required, choices), frozen from the parser
# before its flags were declared through shared groups and the options
# table; ``eval --workers``, which did nothing, is the one flag removed.
_LLM_FLAGS = {
    "--llm-endpoint": (False, None),
    "--llm-model": (False, None),
    "--api-style": (False, ("chat", "raw")),
    "--llm-temperature": (False, None),
    "--llm-max-tokens": (False, None),
    "--llm-timeout": (False, None),
    "--llm-attempts": (False, None),
    "--llm-cache": (False, None),
    "--no-markers": (False, None),
}
_CC_MODES = ("bg", "dict", "llm", "none", "privileged")
_CC_FLAGS = {
    "--cc-mode": (False, _CC_MODES),
    "--cc-dict": (False, None),
    "--classes": (False, None),
    "--classes-file": (False, None),
}
_DATASET_FLAGS = {
    "--features-dir": (True, None),
    "--gt-dir": (True, None),
    "--embeddings": (True, None),
    "--out-json": (True, None),
    "--out-tsv": (False, None),
}
_PROMPT_FLAGS = {
    "--upsample": (False, ("labels", "logits")),
    "--beta": (False, None),
    "--beta-scope": (False, ("all", "source")),
    "--background-label": (False, None),
}
FLAG_INVENTORY = {
    "mine": {
        "--config": (False, None),
        "--corpus": (True, None),
        "--lexicon": (True, None),
        "--out-matrix": (True, None),
        "--out-counts": (True, None),
        "--workers": (False, None),
    },
    "build-cc": {
        "--config": (False, None),
        "--matrix": (True, None),
        "--counts": (True, None),
        "--lexicon": (True, None),
        "--embeddings": (True, None),
        "--visibility": (False, None),
        "--save-visibility": (False, None),
        "--gamma": (False, None),
        "--delta": (False, None),
        "--unknown-visibility": (False, ("accept", "llm", "reject")),
        **_LLM_FLAGS,
        "--out": (True, None),
    },
    "gen-cc": {
        "--config": (False, None),
        "--mode": (False, _CC_MODES),
        "--query": (True, None),
        "--cc-dict": (False, None),
        "--embeddings": (False, None),
        "--classes": (False, None),
        "--classes-file": (False, None),
        **_LLM_FLAGS,
        "--out": (False, None),
    },
    "segment": {
        "--config": (False, None),
        "--features": (True, None),
        "--embeddings": (True, None),
        "--query": (False, None),
        **_CC_FLAGS,
        "--height": (False, None),
        "--width": (False, None),
        **_PROMPT_FLAGS,
        "--keep-cc": (False, None),
        "--remap-background": (False, None),
        **_LLM_FLAGS,
        "--out": (True, None),
    },
    "eval": {
        "--config": (False, None),
        **_DATASET_FLAGS,
        "--metric": (False, ("iou-single", "miou-classic")),
        **_CC_FLAGS,
        "--aggregation": (False, ("class", "image")),
        "--segmenter": (False, ("argmax", "sigmoid")),
        "--sigmoid-threshold": (False, None),
        **_PROMPT_FLAGS,
        **_LLM_FLAGS,
    },
    "sweep": {
        "--config": (False, None),
        "--param": (True, ("beta", "delta", "gamma", "sigmoid")),
        "--values": (False, None),
        "--steps": (False, None),
        **_DATASET_FLAGS,
        "--matrix": (False, None),
        "--counts": (False, None),
        "--lexicon": (False, None),
        "--visibility": (False, None),
        **_CC_FLAGS,
        "--gamma": (False, None),
        "--delta": (False, None),
        "--beta-scope": (False, ("all", "source")),
        "--background-label": (False, None),
    },
}


def subparsers() -> dict:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def write_config(tmp_path, config: dict) -> Path:
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


# a value of the wrong type for each option type
_WRONG = {int: "x", float: "abc", str: 5, bool: "yes", list: 5}


def nest(key: str, value) -> dict:
    """A run-config setting one ``OPTIONS`` key."""
    if key.startswith("llm."):
        return {"llm": {key.removeprefix("llm."): value}}
    return {key: value}


_DATA = ["--features-dir", "f", "--gt-dir", "g", "--embeddings", "e", "--out-json", "o"]
# every job of every command, by the name its refusals give it, with the
# flags that make it that job
JOBS = {
    "mine": ["mine", "--corpus", "c", "--lexicon", "l", "--out-matrix", "m", "--out-counts", "n"],
    **{
        f"build-cc with unknown-visibility {policy}": [
            "build-cc", "--matrix", "m", "--counts", "c", "--lexicon", "l", "--embeddings", "e",
            "--out", "o", "--unknown-visibility", policy,
        ]
        for policy in ("accept", "llm", "reject")
    },
    **{
        f"gen-cc with cc-mode {mode}": ["gen-cc", "--query", "q", "--mode", mode]
        for mode in _CC_MODES
    },
    **{
        f"segment of {several} with cc-mode {mode}": [
            "segment", "--features", "f", "--embeddings", "e", "--out", "o", "--cc-mode", mode,
            *queries,
        ]
        for several, queries in (
            ("one query", ["--query", "q"]), ("several queries", ["--query", "q", "--query", "r"])
        )
        for mode in _CC_MODES
    },
    **{
        f"eval --metric {metric} with cc-mode {mode}": [
            "eval", *_DATA, "--metric", metric, "--cc-mode", mode
        ]
        for metric in ("iou-single", "miou-classic")
        for mode in _CC_MODES
    },
    "eval --segmenter sigmoid": [
        "eval", *_DATA, "--metric", "iou-single", "--segmenter", "sigmoid"
    ],
    **{
        f"a {param} sweep": ["sweep", *_DATA, "--param", param]
        for param in ("sigmoid", "gamma", "delta")
    },
    **{
        f"a beta sweep with cc-mode {mode}": [
            "sweep", *_DATA, "--param", "beta", "--cc-mode", mode
        ]
        for mode in _CC_MODES
    },
}


class _Checked(Exception):
    """Raised in place of running a job once its flags are checked."""


_refuse_unread = cli.Settings.refuse_unread


def _check_only(settings, job):
    _refuse_unread(settings, job)
    raise _Checked(settings.read)


def checked(monkeypatch, argv) -> set[str] | str:
    """The attributes that ``argv``'s job read before checking its flags,
    or the message that refused one.  Nothing after the check runs."""
    monkeypatch.setattr(cli.Settings, "refuse_unread", _check_only)
    args = cli.build_parser().parse_args([str(a) for a in argv])
    try:
        args.func(args)
    except _Checked as done:
        return done.args[0]
    except CCMineError as exc:
        return str(exc)
    raise AssertionError(f"{argv} finished without checking its flags")


def given_alone(monkeypatch, tmp_path, job: str) -> dict:
    """``checked`` of ``job`` with one more flag, for each flag of its
    command that the job's own flags leave out, given with a valid value."""
    argv = JOBS[job]
    config = tmp_path / "run.json"
    config.write_text("{}")
    actions = {flag: a for a in subparsers()[argv[0]]._actions for flag in a.option_strings}
    outcomes = {}
    for flag in FLAG_INVENTORY[argv[0]]:
        if flag in argv:
            continue
        action = actions[flag]
        if action.nargs == 0:
            value = []
        elif flag == "--config":
            value = [config]
        elif action.choices:
            value = [sorted(action.choices)[0]]
        else:
            value = ["2" if action.type is int else "0.5"]
        outcomes[flag] = checked(monkeypatch, [*argv, flag, *value])
    return outcomes


def refused_alone(monkeypatch, tmp_path) -> dict[str, list[str]]:
    """The flags each job refuses when given alone, in inventory order."""
    return {
        job: [
            flag
            for flag, got in given_alone(monkeypatch, tmp_path, job).items()
            if isinstance(got, str)
        ]
        for job in JOBS
    }


def run_python(code: str, *argv) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's ccmine."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [str(a) for a in argv]
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)


class TestWiring:
    def test_import_leaves_requests_unloaded(self):
        # only a live LLM endpoint needs them; every command would pay their import
        code = (
            "import sys, ccmine.cli\n"
            "for name in ('requests', 'urllib.request', 'http.client'):\n"
            "    assert name not in sys.modules, name + ' imported'"
        )
        proc = run_python(code)
        assert proc.returncode == 0, proc.stderr

    def test_jobs_leave_numpy_ma_unloaded(
        self, tmp_path, toy_corpus_path, toy_lexicon_path, toy_embeddings_path, dict_path
    ):
        # a plain np.unique imports numpy.ma, which costs every job ~16 ms
        features_dir, gt_dir = write_scene_dataset(tmp_path)
        data = ["--features-dir", features_dir, "--gt-dir", gt_dir,
                "--embeddings", toy_embeddings_path]
        jobs = [
            ["mine", "--corpus", toy_corpus_path, "--lexicon", toy_lexicon_path,
             "--out-matrix", tmp_path / "m.cooc", "--out-counts", tmp_path / "m.counts"],
            ["eval", *data, "--cc-mode", "dict", "--cc-dict", dict_path,
             "--out-json", tmp_path / "e.json"],
            ["eval", *data, "--metric", "miou-classic", "--cc-mode", "dict",
             "--cc-dict", dict_path, "--out-json", tmp_path / "c.json"],
            ["sweep", "--param", "sigmoid", "--steps", "3", *data,
             "--out-json", tmp_path / "s.json"],
            ["segment", "--features", features_dir / "img0.feat",
             "--embeddings", toy_embeddings_path, "--query", "boat",
             "--out", tmp_path / "seg.seg"],
        ]
        code = (
            "import json, sys\n"
            "from ccmine.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'"
        )
        proc = run_python(code, json.dumps([[str(a) for a in job] for job in jobs]))
        assert proc.returncode == 0, proc.stderr

    def test_flag_inventory(self):
        got = {}
        for name, sub in subparsers().items():
            got[name] = {
                flag: (a.required, tuple(sorted(a.choices)) if a.choices else None)
                for a in sub._actions
                for flag in a.option_strings
                if flag not in ("-h", "--help")
            }
        assert got == FLAG_INVENTORY

    @pytest.mark.parametrize("job", list(JOBS))
    def test_every_flag_is_read_or_refused(self, monkeypatch, tmp_path, job):
        # no flag the command line gives is silently ignored: each is
        # read, or refused with the job's name, whatever else is given
        argv = JOBS[job]
        actions = {flag: a for a in subparsers()[argv[0]]._actions for flag in a.option_strings}
        read = checked(monkeypatch, argv)
        assert {actions[flag].dest for flag in argv if flag in actions} <= read
        for flag, got in given_alone(monkeypatch, tmp_path, job).items():
            if isinstance(got, str):
                assert got == f"{flag} does nothing in {job}"
            else:
                assert actions[flag].dest in got, flag

    def test_readme_lists_the_unread_flags(self, monkeypatch, tmp_path):
        # each section's bullets name the jobs they hold for: a leading
        # selector and an "every mode but `M`", each optional
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        headings = ["### 1. Mine", "### 2. Build", "### 3. Generate", "### 4. Segment",
                    "### 5. Evaluate", "### 6. Sweep", "## Configuration"]
        commands = ["mine", "build-cc", "gen-cc", "segment", "eval", "sweep"]
        listed = {job: set() for job in JOBS}
        for heading, end, command in zip(headings, headings[1:], commands):
            section = readme[readme.index(heading): readme.index(end)]
            marker = "The flags each job refuses, with exit 3:\n\n"
            if marker not in section:
                continue
            bullets = section[section.index(marker) + len(marker):].split("\n\n")[0]
            for key, flags in re.findall(r"^- ([^:]+):(.*?)(?=^- |\Z)", bullets, re.M | re.S):
                selector, _, but = re.sub(r"\s+", " ", key).partition("every ")
                selector = re.sub(r"\bin$", "", selector.replace("`", "").strip()).strip()
                but = re.search(r"but `(\w+)`", but)[1] if but else None
                flags = re.sub(r"\([^)]*\)", "", flags).replace("the LLM flags", " ".join(
                    f"`{flag}`" for flag in _LLM_FLAGS
                ))
                for job, argv in JOBS.items():
                    mode = job.rsplit(" ", 1)[1] if " with " in job else None
                    if argv[0] == command and selector in job and (
                        but is None or mode not in (None, but)
                    ):
                        listed[job].update(re.findall(r"`(--[a-z-]+)`", flags))
        refused = refused_alone(monkeypatch, tmp_path)
        assert {job: sorted(flags) for job, flags in listed.items()} == {
            job: sorted(flags) for job, flags in refused.items()
        }

    def test_readme_config_loads(self, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("## Configuration"):]
        block = section[section.index("```json") + len("```json"): section.index("```\n\n")]
        config = json.loads(block)
        path = write_config(tmp_path, config)
        args = cli.build_parser().parse_args(["gen-cc", "--config", str(path), "--query", "x"])
        settings = cli.Settings(args)
        for key in cli.OPTIONS:
            name = key.removeprefix("llm.")
            expected = (config["llm"] if key.startswith("llm.") else config)[name]
            assert settings.get(key) == expected
        monkeypatch.setenv("HOME", str(tmp_path))
        assert cli.LLMClient(**settings.llm()[0]).cache_dir == tmp_path / ".cache" / "ccmine"

    def test_numbers_for_float_keys_become_floats(self, tmp_path):
        path = write_config(tmp_path, {"gamma": 1, "llm": {"temperature": 0}})
        args = cli.build_parser().parse_args(["gen-cc", "--config", str(path), "--query", "x"])
        settings = cli.Settings(args)
        assert type(settings.get("gamma")) is float
        assert type(settings.get("llm.temperature")) is float

    @pytest.mark.parametrize(
        "key,value",
        [(key, _WRONG[opt.type]) for key, opt in sorted(cli.OPTIONS.items())]
        + [
            ("workers", True),
            ("steps", 2.5),
            ("gamma", False),
            ("stopwords", ["image", 1]),
            ("cc_mode", "nope"),
            ("llm.api_style", "soap"),
        ]
        # written as NaN and Infinity, which Python's json reads though
        # RFC 8259 JSON lacks them
        + [
            (key, value)
            for key, opt in sorted(cli.OPTIONS.items())
            if opt.type is float
            for value in (float("nan"), float("inf"), float("-inf"))
        ],
    )
    def test_bad_config_value_exits_3(self, capsys, tmp_path, key, value):
        path = write_config(tmp_path, nest(key, value))
        code, _, err = run(capsys, "gen-cc", "--config", path, "--query", "car")
        assert code == 3
        assert key in err

    def test_beta_sweep_reaches_config_llm(self, capsys, tmp_path, toy_embeddings_path):
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        path = write_config(
            tmp_path,
            {
                "cc_mode": "llm",
                "llm": {
                    "endpoint": "http://127.0.0.1:1/v1/completions",
                    "max_attempts": 1,
                    "timeout": 2,
                    "cache_dir": str(tmp_path / "cache"),
                },
            },
        )
        code, _, err = run(
            capsys,
            "sweep",
            "--config", path,
            "--param", "beta",
            "--values", "0.5",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 4, err

    def test_beta_sweep_honours_upsample(
        self, capsys, tmp_path, toy_embeddings_path, dict_path, monkeypatch
    ):
        seen = []
        classic_image = cli.metrics.classic_image

        def spy(*args):
            seen.append(args[4])
            return classic_image(*args)

        monkeypatch.setattr(cli.metrics, "classic_image", spy)
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        path = write_config(tmp_path, {"upsample": "labels"})
        code, _, _ = run(
            capsys,
            "sweep",
            "--config", path,
            "--param", "beta",
            "--values", "0.5,0.9",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--cc-mode", "dict",
            "--cc-dict", dict_path,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 0
        assert seen == ["labels", "labels"]

    def test_bad_sweep_values_exit_3(self, capsys, tmp_path, toy_embeddings_path):
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        code, _, err = run(
            capsys,
            "sweep",
            "--param", "beta",
            "--values", "0.5,x",
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 3
        assert "--values" in err


class TestRefusal:
    """A flag the job does not read exits 3 before anything opens: every
    path here is missing, so a later refusal would exit 2."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gen-cc", "--mode", "bg", "--query", "boat", "--cc-dict", "{missing}.json",
              "--classes", "zzz"], "--cc-dict does nothing in gen-cc with cc-mode bg"),
            (["gen-cc", "--mode", "bg", "--query", "boat", "--embeddings", "{missing}.emb"],
             "--embeddings does nothing in gen-cc with cc-mode bg"),
            (["gen-cc", "--mode", "privileged", "--query", "boat", "--classes", "boat,water",
              "--classes-file", "{missing}.txt"],
             "--classes-file does nothing in gen-cc with cc-mode privileged"),
            (["gen-cc", "--mode", "dict", "--query", "boat", "--cc-dict", "{missing}.json",
              "--embeddings", "{missing}.emb", "--llm-model", "m"],
             "--llm-model does nothing in gen-cc with cc-mode dict"),
            (["segment", "--features", "{missing}.feat", "--embeddings", "{missing}.emb",
              "--query", "boat", "--cc-mode", "bg", "--cc-dict", "{missing}.json"],
             "--cc-dict does nothing in segment of one query with cc-mode bg"),
            (["segment", "--features", "{missing}.feat", "--embeddings", "{missing}.emb",
              "--query", "boat", "--beta", "0.3", "--beta-scope", "source",
              "--background-label", "zz"],
             "--beta does nothing in segment of one query with cc-mode bg"),
            (["segment", "--features", "{missing}.feat", "--embeddings", "{missing}.emb",
              "--query", "boat", "--background-label", "zz"],
             "--background-label does nothing in segment of one query with cc-mode bg"),
            (["segment", "--features", "{missing}.feat", "--embeddings", "{missing}.emb",
              "--query", "boat", "--query", "water", "--cc-mode", "privileged",
              "--classes", "boat", "--classes-file", "{missing}.txt"],
             "--classes-file does nothing in segment of several queries with cc-mode privileged"),
            (["build-cc", "--matrix", "{missing}.cooc", "--counts", "{missing}.counts",
              "--lexicon", "{missing}.txt", "--embeddings", "{missing}.emb",
              "--unknown-visibility", "reject", "--llm-endpoint", "http://127.0.0.1:9/v1"],
             "--llm-endpoint does nothing in build-cc with unknown-visibility reject"),
            (["eval", "--features-dir", "{missing}", "--gt-dir", "{missing}",
              "--embeddings", "{missing}.emb", "--cc-mode", "privileged", "--classes", "boat",
              "--classes-file", "{missing}.txt"],
             "--classes-file does nothing in eval --metric iou-single with cc-mode privileged"),
            (["eval", "--features-dir", "{missing}", "--gt-dir", "{missing}",
              "--embeddings", "{missing}.emb", "--metric", "miou-classic", "--classes", "boat",
              "--classes-file", "{missing}.txt"],
             "--classes-file does nothing in eval --metric miou-classic with cc-mode bg"),
        ],
    )
    def test_refused_before_any_input_opens(self, capsys, tmp_path, argv, message):
        missing = str(tmp_path / "missing")
        out = tmp_path / "out"
        argv = [a.replace("{missing}", missing) for a in argv]
        # gen-cc writes to stdout without --out
        outs = ([], ["--out", out]) if argv[0] == "gen-cc" else (["--out", out],)
        if argv[0] == "eval":
            outs = (["--out-json", out],)
        for given in outs:
            code, stdout, err = run(capsys, *argv, *given)
            assert code == 3
            assert err == f"error: {message}\n"
            assert stdout == ""
            assert not out.exists()

    @pytest.mark.parametrize(
        "job", ["eval", "eval-classic", "sweep-beta", "segment", "gen-cc"]
    )
    def test_refused_flag_asks_no_endpoint(
        self, capsys, tmp_path, toy_embeddings_path, llm_server, job
    ):
        # the llm mode and its endpoint come from the run-config, and the
        # same job without the refused flag asks the endpoint
        features_dir, gt_dir = write_two_class_dataset(tmp_path, {"img0": make_scene_features()})
        data = ["--features-dir", features_dir, "--gt-dir", gt_dir,
                "--embeddings", toy_embeddings_path]
        out = tmp_path / "out"
        argv = {
            "eval": ["eval", *data, "--out-json", out],
            "eval-classic": ["eval", *data, "--metric", "miou-classic", "--out-json", out],
            "sweep-beta": [
                "sweep", *data, "--param", "beta", "--values", "0.5", "--out-json", out
            ],
            "segment": ["segment", "--features", features_dir / "img0.feat",
                        "--embeddings", toy_embeddings_path, "--query", "boat", "--out", out],
            "gen-cc": ["gen-cc", "--query", "boat", "--out", out],
        }[job]
        for cache, refused in (("asked", []), ("cold", ["--cc-dict", "cc.json"])):
            out.unlink(missing_ok=True)
            llm = {"endpoint": llm_server.url, "cache_dir": str(tmp_path / cache)}
            config = write_config(tmp_path, {"cc_mode": "llm", "llm": llm})
            code, _, err = run(capsys, *argv, "--config", config, *refused)
            if not refused:
                assert llm_server.requests
                llm_server.requests.clear()
        assert code == 3
        assert err.startswith("error: --cc-dict does nothing in ")
        assert err.endswith(" with cc-mode llm\n")
        assert llm_server.requests == []
        assert not out.exists()


# a run's float flags, each with the arguments its subcommand requires;
# parsing rejects a non-finite value before any of them is read
_FLOAT_FLAGS = [
    ("build-cc", "--gamma"),
    ("build-cc", "--delta"),
    ("build-cc", "--llm-temperature"),
    ("build-cc", "--llm-timeout"),
    ("segment", "--beta"),
    ("eval", "--sigmoid-threshold"),
    ("sweep", "--gamma"),
]
_REQUIRED = {
    "build-cc": ["--matrix", "m", "--counts", "c", "--lexicon", "l", "--embeddings", "e", "--out", "o"],
    "segment": ["--features", "f", "--embeddings", "e", "--out", "o"],
    "eval": ["--features-dir", "f", "--gt-dir", "g", "--embeddings", "e", "--out-json", "o"],
    "sweep": [
        "--param", "gamma", "--values", "0.1",
        "--features-dir", "f", "--gt-dir", "g", "--embeddings", "e", "--out-json", "o",
    ],
}


class TestNonFiniteNumbers:
    def test_every_float_option_is_covered(self):
        assert {f for _, f in _FLOAT_FLAGS} == {
            cli.OPTIONS[k].flag or "--" + k.replace(".", "-").replace("_", "-")
            for k, opt in cli.OPTIONS.items()
            if opt.type is float
        }

    @pytest.mark.parametrize("command,flag", _FLOAT_FLAGS)
    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_flag_exits_3(self, capsys, tmp_path, command, flag, value):
        code, _, err = run(capsys, command, *_REQUIRED[command], f"{flag}={value}")
        assert code == 3
        assert err == f"error: {flag} must be a finite number, got {value!r}\n"

    def test_non_number_flag_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build-cc", *_REQUIRED["build-cc"], "--gamma", "abc"])
        assert exc.value.code == 2
        assert "invalid number value: 'abc'" in capsys.readouterr().err

    def test_process_exit_codes(self):
        # a text that is no number is a usage error; NaN parses but is invalid
        code = "import sys\nfrom ccmine.cli import main\nraise SystemExit(main(sys.argv[1:]))"
        proc = run_python(code, "build-cc", *_REQUIRED["build-cc"], "--gamma", "abc")
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: ")
        proc = run_python(code, "build-cc", *_REQUIRED["build-cc"], "--gamma", "nan")
        assert proc.returncode == 3
        assert proc.stderr == "error: --gamma must be a finite number, got 'nan'\n"

    @pytest.mark.parametrize("values", ["nan", "0.5,inf", "0.5,-Infinity"])
    def test_sweep_values_exit_3(self, capsys, tmp_path, toy_embeddings_path, values):
        features_dir, gt_dir = write_classic_dataset(tmp_path)
        code, _, err = run(
            capsys,
            "sweep",
            "--param", "beta",
            "--values", values,
            "--features-dir", features_dir,
            "--gt-dir", gt_dir,
            "--embeddings", toy_embeddings_path,
            "--out-json", tmp_path / "sweep.json",
        )
        assert code == 3
        assert err.startswith("error: --values must be a finite number") and err.count("\n") == 1
        assert not (tmp_path / "sweep.json").exists()


# LLM client settings out of bounds, as a flag and as run-config values
_LLM_BOUNDS = [
    ("--llm-attempts", "max_attempts", 0),
    ("--llm-attempts", "max_attempts", -3),
    ("--llm-max-tokens", "max_tokens", 0),
    ("--llm-timeout", "timeout", 0),
    ("--llm-timeout", "timeout", -1),
    ("--llm-timeout", "timeout", 1e12),  # a socket timeout this long overflows
    ("--llm-temperature", "temperature", -0.5),
]


class TestLLMBounds:
    @pytest.mark.parametrize("flag,name,value", _LLM_BOUNDS)
    def test_flag_exits_3_without_a_request(self, capsys, tmp_path, llm_server, flag, name, value):
        code, _, err = run(
            capsys,
            "gen-cc",
            "--mode", "llm",
            "--query", "boat",
            "--llm-endpoint", llm_server.url,
            "--llm-cache", tmp_path / "cache",
            flag, value,
        )
        assert code == 3
        assert err.startswith(f"error: LLM {name} must be") and err.count("\n") == 1
        assert llm_server.requests == []

    def test_overlong_timeout_opens_no_socket(self, capsys, tmp_path):
        with mock.patch("socket.socket", side_effect=AssertionError("a socket opened")):
            code, _, err = run(
                capsys,
                "gen-cc",
                "--mode", "llm",
                "--query", "boat",
                "--llm-endpoint", "http://127.0.0.1:9/",
                "--llm-cache", tmp_path / "cache",
                "--llm-timeout", "1e12",
            )
        assert code == 3
        bound = f"{threading.TIMEOUT_MAX:.0f}"
        assert err.startswith(f"error: LLM timeout must be above 0 and at most {bound} s")

    @pytest.mark.parametrize("flag,name,value", _LLM_BOUNDS)
    def test_config_exits_3_without_a_request(self, capsys, tmp_path, llm_server, flag, name, value):
        llm = {"endpoint": llm_server.url, "cache_dir": str(tmp_path / "cache"), name: value}
        path = write_config(tmp_path, {"cc_mode": "llm", "llm": llm})
        code, _, err = run(capsys, "gen-cc", "--config", path, "--query", "boat")
        assert code == 3
        assert err.startswith(f"error: LLM {name} must be") and err.count("\n") == 1
        assert llm_server.requests == []


class TestLLMEndpoint:
    """The CLI against a completion endpoint on 127.0.0.1, in a fresh
    interpreter where the ``requests`` package cannot be imported."""

    NO_REQUESTS = (
        "import sys\n"
        "sys.modules['requests'] = None  # importing it now raises ImportError\n"
        "from ccmine.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )

    def test_gen_cc_and_build_cc_round_trip(
        self, llm_server, mined, tmp_path, toy_lexicon_path, toy_embeddings_path
    ):
        endpoint = ("--llm-endpoint", llm_server.url, "--llm-cache", tmp_path / "cache")
        proc = run_python(self.NO_REQUESTS, "gen-cc", "--mode", "llm", "--query", "road", *endpoint)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["concepts"] == ["background", "building", "tree", "car"]

        matrix_path, counts_path = mined
        out = tmp_path / "cc.json"
        proc = run_python(
            self.NO_REQUESTS,
            "build-cc",
            "--matrix", matrix_path,
            "--counts", counts_path,
            "--lexicon", toy_lexicon_path,
            "--embeddings", toy_embeddings_path,
            "--unknown-visibility", "llm",
            "--out", out,
            *endpoint,
        )
        assert proc.returncode == 0, proc.stderr
        # the endpoint calls every concept visible, as the accept policy does
        assert CCDictionary.load(out).cc == EXPECTED_DICT_G001
        prompts = [json.loads(r["body"])["prompt"] for r in llm_server.requests]
        assert sum("something that one can see" in p for p in prompts) == len(prompts) - 1

    def test_timeout_exits_4(self, llm_server, tmp_path):
        llm_server.script = [llm_server.stall]
        proc = run_python(
            self.NO_REQUESTS,
            "gen-cc",
            "--mode", "llm",
            "--query", "road",
            "--llm-endpoint", llm_server.url,
            "--llm-cache", tmp_path / "cache",
            "--llm-timeout", "0.2",
            "--llm-attempts", "1",
        )
        assert proc.returncode == 4, proc.stderr
        assert "timed out" in proc.stderr
