"""Small I/O helpers: one input reader and the input digests it takes,
atomic writes, gzip detection, UTF-8 reads, strict JSON parses."""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO

from .errors import FormatError

GZIP_MAGIC = b"\x1f\x8b"


class HashedInput(os.PathLike):
    """An input path whose sha256 ``open_input`` takes as a loader reads
    it, for a job that records the digest.  To all else it is the path, so
    the loader's errors name the file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path, self.sha256 = os.fspath(path), hashlib.sha256()
        self.mark = 0  # the bytes before it are hashed, and no others
        self.whole = False  # whether a read found the end of the file at the mark

    def __fspath__(self) -> str:
        return self.path

    __str__ = __fspath__

    def digest(self) -> str:
        """The file's sha256, reading and hashing what the loaders left."""
        if not self.whole:
            with open_input(self) as file:
                file.seek(self.mark)
                file.read()
        return self.sha256.hexdigest()


class _Input(io.RawIOBase):
    """A seekable binary file, or a pipe's bytes read whole.  ``readinto``
    is its one refill, and hashes each byte of a ``HashedInput`` the first
    time a read reaches it in file order, so a byte read again is hashed
    once."""

    def __init__(self, file, hashed: HashedInput | None) -> None:
        self.file, self.hashed = file, hashed
        if not file.seekable():
            with file:
                data = file.read()
            self.file = io.BytesIO(data)
            if hashed is not None:  # the pipe cannot be read again
                hashed.sha256.update(data)
                hashed.mark, hashed.whole = len(data), True

    def readable(self) -> bool:
        return True

    seekable = readable

    def readinto(self, buffer) -> int:
        pos, got, hashed = self.file.tell(), self.file.readinto(buffer), self.hashed
        if hashed is not None and pos <= hashed.mark < pos + got:
            with memoryview(buffer) as view:
                hashed.sha256.update(view[hashed.mark - pos : got])
            hashed.mark = pos + got
        elif hashed is not None and not got and len(buffer) and pos == hashed.mark:
            hashed.whole = True
        return got

    def readall(self) -> bytes:
        """The rest of the file, read by one ``readinto`` sized from its
        length; the read after it finds the end (or what a growing file
        added)."""
        pos = self.file.tell()
        rest = bytearray(max(self.file.seek(0, io.SEEK_END) - pos, 0))
        self.file.seek(pos)
        del rest[self.readinto(rest) :]
        rest += super().readall()
        return bytes(rest)

    def seek(self, offset: int, whence: int = io.SEEK_SET) -> int:
        return self.file.seek(offset, whence)

    def close(self) -> None:
        self.file.close()
        super().close()


def open_input(path: str | os.PathLike) -> BinaryIO:
    """The file at ``path`` for binary reading, seekable even when it is a
    pipe; a ``HashedInput`` is hashed as it is read."""
    hashed = path if isinstance(path, HashedInput) else None
    return _Input(open(os.fspath(path), "rb", buffering=0), hashed)


def decode_utf8(data: bytes, what: object, offset: int = 0) -> str:
    """``data`` decoded as UTF-8; other bytes are a ``FormatError`` that
    names ``what`` and the first bad byte, counting ``data`` as starting at
    byte ``offset`` of ``what``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{what} is not UTF-8 text (byte {offset + exc.start})") from None


def read_text(path: str | Path) -> str:
    """A UTF-8 text file with every line end made ``\\n``, as text-mode
    ``open`` reads it; bytes that are not UTF-8 are a ``FormatError``
    naming the file."""
    with open_input(path) as fh:
        text = decode_utf8(fh.read(), path)
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _RepeatedKey(Exception):
    """A JSON object names the key ``args[0]`` twice."""


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # plain json keeps the last of a repeated key silently
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise _RepeatedKey(key)
            seen.add(key)
    return obj


# one decoder for every parse: json.loads with a hook builds one per call
_STRICT_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(text: str, what: object) -> object:
    """The JSON value ``text`` holds.  Text that is not JSON, nests too
    deep, or repeats a key within one object is a ``FormatError`` that
    names ``what``."""
    try:
        return _STRICT_JSON.decode(text)
    except _RepeatedKey as exc:
        raise FormatError(f"{what} repeats the key {exc.args[0]!r}") from None
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        raise FormatError(f"{what} is not valid JSON") from None


def open_maybe_gzip(path: str | Path) -> BinaryIO:
    """Open a file for binary reading, transparently decompressing gzip.

    Detection is by the two magic bytes, not the file extension.  The file
    is opened once and read in order, so a pipe serves as well as a file.
    """
    fh = open(path, "rb")
    # a peek takes no bytes away; from a pipe it gets at least the first
    # write, and gzip writers write the magic in one
    if fh.peek(2)[:2] != GZIP_MAGIC:
        return fh
    stream = gzip.GzipFile(fileobj=fh)
    # GzipFile closes its myfileobj, the file it opens from a name, on close
    stream.myfileobj = fh
    return stream  # type: ignore[return-value]


def atomic_write_chunks(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` one after another as one file, so readers never
    observe a partial artifact.

    The chunks go to a temporary file in the destination directory, which
    is moved into place with os.replace, atomic on POSIX, once the last is
    written; if making a chunk raises, the temporary file is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    atomic_write_chunks(path, (data,))


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
