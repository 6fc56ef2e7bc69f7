"""The one input reader: seekable over files and pipes, and hashing each
byte of a ``HashedInput`` once, the first time a read reaches it."""

from __future__ import annotations

import gzip
import hashlib
import os
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccmine import ioutil
from ccmine.corpus import Lexicon
from ccmine.errors import FormatError
from ccmine.ioutil import HashedInput, open_input, open_maybe_gzip, parse_json, read_text

from conftest import substituted


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("ioutil")


def read_pattern(fh, reads):
    """Seek to each ``(pos, size)`` of ``reads`` and read that many bytes."""
    out = []
    for pos, size in reads:
        fh.seek(pos)
        out.append(fh.read(size))
    return out


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(max_size=300),
    reads=st.lists(st.tuples(st.integers(0, 320), st.integers(0, 80)), max_size=12),
)
def test_digest_after_any_reads_is_the_files_sha256(scratch, data, reads):
    # reads that go back over hashed bytes, skip ahead of the mark or stop
    # before the end, as a loader's second pass, its error line and a
    # failing loader do
    path = scratch / "f.bin"
    path.write_bytes(data)
    hashed = HashedInput(path)
    with open_input(hashed) as fh:
        assert read_pattern(fh, reads) == [data[pos : pos + size] for pos, size in reads]
    assert hashed.digest() == sha256(data)


def test_digest_reads_only_what_the_loader_left(tmp_path, monkeypatch):
    data = bytes(range(256)) * 40
    path = tmp_path / "f.bin"
    path.write_bytes(data)
    whole, part = HashedInput(path), HashedInput(path)
    with open_input(whole) as fh:
        # two passes and a re-read of one line, as the cooc loader makes
        read_pattern(fh, [(0, len(data) + 1), (0, 1), (7, 100), (len(data), 1), (300, 20)])
    with open_input(part) as fh:
        fh.read(1000)
    read = []
    readinto = ioutil._Input.readinto

    def counted(fh, buffer):
        read.append(readinto(fh, buffer))
        return read[-1]

    monkeypatch.setattr(ioutil._Input, "readinto", counted)
    assert whole.digest() == sha256(data) and read == []
    assert part.digest() == sha256(data) and sum(read) == len(data) - 1000
    # a digest asked again reads nothing
    assert part.digest() == sha256(data) and sum(read) == len(data) - 1000


def test_a_pipe_is_read_whole_and_hashed_once(tmp_path):
    data = b"0123456789" * 10_000
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    hashed = HashedInput(pipe)
    writer = threading.Thread(target=pipe.write_bytes, args=(data,))
    writer.start()
    try:
        with open_input(hashed) as fh:
            # the loader stops early and goes back: the pipe's bytes are kept
            assert read_pattern(fh, [(5, 10), (0, 3), (len(data) - 2, 9)]) == [
                data[5:15], data[:3], data[-2:],
            ]
    finally:
        writer.join()
    # the pipe is drained, so the digest must not open it again
    with mock.patch.object(ioutil, "open_input", side_effect=AssertionError):
        assert hashed.digest() == sha256(data)


def test_an_input_never_read_is_read_by_its_digest(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"never loaded")
    assert HashedInput(path).digest() == sha256(b"never loaded")


def test_a_hashed_input_is_its_path_to_loaders(tmp_path):
    # str and os.fspath give the path, so errors read as for the plain path
    path = tmp_path / "lexicon.txt"
    path.write_bytes(b"boat\n\xff\n")
    hashed = HashedInput(path)
    assert str(hashed) == os.fspath(hashed) == str(path)
    errors = []
    for name in (path, hashed, tmp_path / "missing.txt", HashedInput(tmp_path / "missing.txt")):
        with pytest.raises((FormatError, OSError)) as caught:
            Lexicon.from_file(name)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] == f"{path} is not UTF-8 text (byte 5)"
    assert errors[2] == errors[3]


@pytest.mark.parametrize("piped", [False, True], ids=["file", "pipe"])
def test_read_text_reads_the_rest_in_one_refill(tmp_path, monkeypatch, piped):
    data = "caf\u00e9 boat\r\n".encode() * 50_000
    path = tmp_path / ("pipe" if piped else "f.txt")
    if piped:
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(data,))
        writer.start()
    else:
        path.write_bytes(data)
    read = []
    readinto = ioutil._Input.readinto

    def counted(fh, buffer):
        read.append(readinto(fh, buffer))
        return read[-1]

    monkeypatch.setattr(ioutil._Input, "readinto", counted)
    hashed = HashedInput(path)
    try:
        assert read_text(hashed) == data.decode().replace("\r\n", "\n")
    finally:
        if piped:
            writer.join()
    # the whole rest, then the read that finds the end
    assert read == [len(data), 0]
    with mock.patch.object(ioutil, "open_input", side_effect=AssertionError):
        assert hashed.digest() == sha256(data)


@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_open_maybe_gzip_reads_a_pipe(compress):
    data = b"".join(b'{"id": "c%d", "text": "a boat."}\n' % i for i in range(5000))
    with substituted(gzip.compress(data) if compress else data) as pipe:
        with open_maybe_gzip(pipe) as fh:
            file = fh.fileobj if compress else fh
            assert fh.read() == data
    # closing the stream closes the one file it read
    assert file.closed


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"a": 1, "a": 2}', "a"),
        ('{"a": {"b": 1, "c": 2, "c": 3, "b": 4}}', "c"),
        ('[{"a": 1}, {"b": 1, "b": 1}]', "b"),
        ('{"a": {}, "a": {}}', "a"),
    ],
)
def test_parse_json_refuses_a_repeated_key(text, key):
    with pytest.raises(FormatError, match=f"^thing repeats the key '{key}'$"):
        parse_json(text, "thing")


@pytest.mark.parametrize("text", ["{bad", "", "\ufeff{}", "[" * 100_000])
def test_parse_json_refuses_what_is_not_json(text):
    with pytest.raises(FormatError, match="^thing is not valid JSON$"):
        parse_json(text, "thing")


def test_parse_json_keeps_distinct_keys_in_order():
    assert list(parse_json('{"b": 1, "a": {"b": [], "a": null}}', "thing")) == ["b", "a"]
