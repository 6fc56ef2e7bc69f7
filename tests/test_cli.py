"""End-to-end command-line runs, exit codes, and artifact determinism."""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ccmine import cli
from ccmine.ccgen import CCDictionary
from ccmine.cli import main
from ccmine.cooc import CoocMatrix
from ccmine.errors import CCMineError
from ccmine.metrics import GroundTruth
from ccmine.segment import BOTTOM, SegMap, sigmoid

from conftest import (
    EXPECTED_DICT_G001,
    TOY_CAPTIONS,
    TOY_CONCEPTS,
    make_scene_features,
    make_sweep_features,
    pair_counts,
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


def write_classic_dataset(root: Path) -> tuple[Path, Path]:
    features_dir = root / "cfeat"
    gt_dir = root / "cgt"
    features_dir.mkdir()
    gt_dir.mkdir()
    make_scene_features().save(features_dir / "img0.feat")
    ids = np.zeros((4, 4), dtype=np.int32)
    ids[:, 0:2] = 1
    ids[:, 3] = 2
    gt = GroundTruth(
        ids, {0: "background", 1: "boat", 2: "water"}, background_id=0
    )
    write_gt_file(gt_dir / "img0.seg", gt)
    return features_dir, gt_dir


class TestMine:
    def test_summary_and_artifacts(self, mined, capsys, toy_lexicon):
        matrix_path, counts_path = mined
        matrix = CoocMatrix.load(matrix_path)
        assert len(matrix.pairs) == 6
        boat, water = sorted((toy_lexicon.id_of("boat"), toy_lexicon.id_of("water")))
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

    def test_dict_mode_toy_provider(self, capsys, dict_path, toy_embeddings_path):
        code, out, _ = run(
            capsys,
            "gen-cc",
            "--mode", "dict",
            "--query", "ferry",
            "--cc-dict", dict_path,
            "--embeddings", toy_embeddings_path,
            "--provider", "toy",
        )
        assert code == 0
        assert json.loads(out)["source_concept"] in TOY_CONCEPTS

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
            "--classes", "car,road",
        )
        assert code == 0
        assert json.loads(out)["kind"] == "bg"

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cc_mod": "bg"}))
        code, _, err = run(capsys, "gen-cc", "--config", config, "--query", "car")
        assert code == 3
        assert "cc_mod" in err

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
            "--cc-mode", mode,
            "--out-json", out_json,
        ]
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
        assert len(report["meta"]["embeddings_digest"]) == 64
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
            "none",
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
            capsys, tmp_path, toy_embeddings_path, "none", None, "--segmenter", "sigmoid"
        )
        assert code == 3
        assert "sigmoid-threshold" in err

    def test_sigmoid_segmenter_builds_no_cc_source(self, capsys, tmp_path, toy_embeddings_path):
        # llm mode without an endpoint: fine, since the sigmoid test asks no LLM
        code, out_json, _, err = self.eval_single(
            capsys,
            tmp_path,
            toy_embeddings_path,
            "llm",
            None,
            "--segmenter", "sigmoid",
            "--sigmoid-threshold", "0.6",
        )
        assert code == 0, err
        assert json.loads(out_json.read_text())["meta"]["cc_mode"] == "llm"

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


class TestSweep:
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
        sweep_json = tmp_path / "sweep.json"
        code, _, _ = run(
            capsys, "sweep", "--param", "gamma", "--values", "0.01,0.99",
            *data, *build, "--out-json", sweep_json,
        )
        assert code == 0
        rows = json.loads(sweep_json.read_text())["rows"]
        for row in rows:
            cc_json = tmp_path / f"cc-{row['value']}.json"
            eval_json = tmp_path / f"eval-{row['value']}.json"
            code, _, _ = run(
                capsys, "build-cc", "--gamma", row["value"], *build,
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
        # the config's stop-word bites: without it, gamma 0.01 scores 1.0
        assert rows[0]["mean_class"] < 1.0

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
        "--provider": (False, ("table", "toy")),
        "--toy-seed": (False, None),
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
        assert settings.llm_client().cache_dir == tmp_path / ".cache" / "ccmine"

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
