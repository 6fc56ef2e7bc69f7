"""Every loader turns hostile input into a package error, never a crash.

Each test feeds one loader arbitrary bytes or text, and inputs built to
pass its magic, header or digest checks so the deeper checks run too.  A
loader may return, or raise ``CCMineError`` (exit 3 or 4) or ``OSError``
(exit 2); any other exception would reach the user as a traceback.
"""

from __future__ import annotations

import hashlib
import json
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccmine import cli
from ccmine.ccgen import CCDictionary
from ccmine.cooc import MAX_COUNT, CoocMatrix, load_counts
from ccmine.corpus import Lexicon
from ccmine.embed import EmbeddingTable
from ccmine.errors import CCMineError
from ccmine.filters import VisibilityTable
from ccmine.metrics import load_ground_truth
from ccmine.segment import FeatureMap, SegMap

DEEP = "[" * 100_000  # nested past the JSON decoder's recursion limit

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda kids: (
        st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4)
    ),
    max_leaves=12,
)
# lines shaped like cooc triplets and counts rows, sometimes out of range
number_lines = st.lists(
    st.integers(-1, 2**70).map(str) | st.text("0123456789", min_size=1, max_size=30),
    min_size=1,
    max_size=4,
).map("\t".join)
body_lines = st.lists(number_lines | st.text("0123456789\t -+x", max_size=24), max_size=8)
header_dims = st.integers(-2, 12).map(str) | st.text(max_size=6)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


def accepts_or_rejects(load, *args):
    """What ``load`` returns, or None when it raises a package or I/O error."""
    try:
        return load(*args)
    except (CCMineError, OSError):
        return None


def write(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return path


def framed(header: str, dim: str, lines: list[str]) -> str:
    """A text artifact with a valid digest over ``lines``."""
    body = "".join(line + "\n" for line in lines)
    return f"{header} {dim}\n{body}#sha256:{hashlib.sha256(body.encode()).hexdigest()}\n"


def dumps_json(value) -> str:
    return json.dumps(value, ensure_ascii=False)


class TestDigestFramed:
    @settings(deadline=None)
    @given(data=st.binary(max_size=200))
    @example(data=b"ccmine-cooc v1 2\n\xff\n")
    def test_cooc_bytes(self, scratch, data):
        accepts_or_rejects(CoocMatrix.load, write(scratch / "m.cooc", data))

    @settings(deadline=None)
    @given(dim=header_dims, lines=body_lines)
    def test_cooc_framed(self, scratch, dim, lines):
        path = write(scratch / "m.cooc", framed("ccmine-cooc v1", dim, lines))
        accepts_or_rejects(CoocMatrix.load, path)

    @settings(deadline=None)
    @given(data=st.binary(max_size=200))
    @example(data=b"ccmine-counts v1 1\n\xff\n")
    def test_counts_bytes(self, scratch, data):
        accepts_or_rejects(load_counts, write(scratch / "c.counts", data))

    @settings(deadline=None)
    @given(dim=header_dims, lines=body_lines)
    @example(dim="1", lines=["0\t" + "9" * 24])
    def test_counts_framed(self, scratch, dim, lines):
        path = write(scratch / "c.counts", framed("ccmine-counts v1", dim, lines))
        occurrence = accepts_or_rejects(load_counts, path)
        # what loads fits the int64 arrays that normalize builds from it
        assert occurrence is None or all(0 <= n <= MAX_COUNT for n in occurrence)


def embedding_record(name: bytes, row: list[float]) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack(f"<{len(row)}f", *row)


class TestBinary:
    @given(
        dim=st.integers(0, 4) | st.integers(0, 2**32 - 1),
        count=st.integers(0, 4) | st.integers(0, 2**32 - 1),
        tail=st.binary(max_size=120),
    )
    # no entries: the claimed dimension must not size what is read
    @example(dim=2**32 - 1, count=0, tail=b"")
    def test_embeddings_header(self, dim, count, tail):
        data = b"CCEMB1" + struct.pack("<II", dim, count) + tail
        accepts_or_rejects(EmbeddingTable.loads, data)

    @given(
        st.lists(
            st.tuples(
                st.binary(max_size=4) | st.sampled_from([b"a", b"b", b"\xff"]),
                st.lists(
                    st.floats(width=32) | st.sampled_from([0.6, 0.8, 1.0]), min_size=2, max_size=2
                ),
            ),
            max_size=4,
        )
    )
    @example([(b"\xff", [1.0, 0.0])])
    def test_embedding_entries(self, entries):
        data = b"CCEMB1" + struct.pack("<II", 2, len(entries))
        data += b"".join(embedding_record(name, row) for name, row in entries)
        accepts_or_rejects(EmbeddingTable.loads, data)

    @given(
        dims=st.tuples(*[st.integers(0, 3) | st.integers(0, 2**32 - 1)] * 3),
        tail=st.binary(max_size=100),
    )
    @example(dims=(0, 2**30, 2**30), tail=b"")
    def test_features_header(self, dims, tail):
        accepts_or_rejects(FeatureMap.loads, b"CCFEAT1" + struct.pack("<III", *dims) + tail)

    @given(
        dims=st.tuples(*[st.integers(0, 3)] * 3),
        values=st.lists(st.floats(width=32), min_size=27, max_size=27),
    )
    def test_features_payload(self, dims, values):
        h, w, d = dims
        payload = struct.pack(f"<{h * w * d}f", *values[: h * w * d])
        accepts_or_rejects(FeatureMap.loads, b"CCFEAT1" + struct.pack("<III", *dims) + payload)


sidecars = (
    st.text(max_size=40)
    | json_values.map(dumps_json)
    | st.fixed_dictionaries(
        {
            "labels": st.dictionaries(
                st.integers(-2, 70_000).map(str) | st.text(max_size=3),
                json_scalars,
                max_size=4,
            )
        },
        optional={"ignore_id": json_scalars, "background_id": json_scalars},
    ).map(dumps_json)
    | st.just(DEEP)
)


def seg_bytes(h: int, w: int, values: list[int]) -> bytes:
    return b"CCSEG1" + struct.pack("<II", h, w) + struct.pack(f"<{h * w}H", *values[: h * w])


class TestLabelMaps:
    @settings(deadline=None)
    @given(
        grid=st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
            lambda hw: st.tuples(
                st.just(hw),
                st.lists(st.sampled_from([0, 1, 2, 255, 0xFFFF]), min_size=9, max_size=9),
            )
        )
        .map(lambda g: seg_bytes(*g[0], g[1]))
        | st.binary(max_size=40),
        sidecar=sidecars | st.binary(max_size=20),
    )
    @example(grid=seg_bytes(1, 1, [0]), sidecar=b'{"labels": {"0": "\xff"}}')
    def test_seg_and_sidecar(self, scratch, grid, sidecar):
        path = write(scratch / "x.seg", grid)
        write(scratch / "x.seg.json", sidecar)
        accepts_or_rejects(SegMap.load, path)
        accepts_or_rejects(load_ground_truth, path)


visibility_lines = st.lists(
    st.text(max_size=20)
    | st.fixed_dictionaries(
        {
            "concept": json_scalars,
            "visible": json_scalars,
            "source": st.sampled_from(["cached", "llm", "manual"]) | json_scalars,
        }
    ).map(dumps_json)
    | st.just(DEEP),
    max_size=4,
).map("\n".join)


class TestTextTables:
    @settings(deadline=None)
    @given(data=visibility_lines | st.binary(max_size=80))
    def test_visibility(self, scratch, data):
        accepts_or_rejects(VisibilityTable.from_file, write(scratch / "v.jsonl", data))

    @settings(deadline=None)
    @given(data=st.text(max_size=60) | st.binary(max_size=60))
    def test_lexicon(self, scratch, data):
        accepts_or_rejects(Lexicon.from_file, write(scratch / "lex.txt", data))

    @settings(deadline=None)
    @given(
        data=st.fixed_dictionaries(
            {"cc": st.dictionaries(st.text(max_size=6), json_values, max_size=4)},
            optional={"meta": json_values},
        ).map(dumps_json)
        | json_values.map(dumps_json)
        | st.just(DEEP)
        | st.binary(max_size=60)
    )
    def test_cc_dictionary(self, scratch, data):
        accepts_or_rejects(CCDictionary.load, write(scratch / "cc.json", data))

    @settings(deadline=None)
    @given(
        data=st.dictionaries(
            st.sampled_from([*cli.OPTIONS, "nope"]) | st.text(max_size=6),
            json_values,
            max_size=4,
        )
        .flatmap(
            lambda top: st.dictionaries(
                st.sampled_from([k[4:] for k in cli.OPTIONS if k.startswith("llm.")]),
                json_values,
                max_size=3,
            ).map(lambda llm: {**top, "llm": llm})
            | st.just(top)
        )
        .map(dumps_json)
        | st.just(DEEP)
        | st.binary(max_size=60)
    )
    @example(data='{"gamma": 1' + "0" * 400 + "}")
    def test_run_config(self, scratch, data):
        accepts_or_rejects(cli._load_config, str(write(scratch / "run.json", data)))
