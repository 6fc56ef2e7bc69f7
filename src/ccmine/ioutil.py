"""Small I/O helpers: digests, atomic writes, gzip detection, UTF-8 reads."""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO

from .errors import FormatError

GZIP_MAGIC = b"\x1f\x8b"


def sha256_file(path: str | Path) -> str:
    """SHA-256 of a file, read 64 KiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


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
    text = decode_utf8(Path(path).read_bytes(), path)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def seekable(fh: BinaryIO) -> BinaryIO:
    """``fh``, or for a pipe its bytes read whole into a seekable file."""
    return fh if fh.seekable() else io.BytesIO(fh.read())


def open_maybe_gzip(path: str | Path) -> BinaryIO:
    """Open a file for binary reading, transparently decompressing gzip.

    Detection is by the two magic bytes, not the file extension.
    """
    fh = open(path, "rb")
    if fh.read(2) != GZIP_MAGIC:
        fh.seek(0)
        return fh
    fh.close()
    # opened by name, so closing the gzip stream closes the file too
    return gzip.open(path, "rb")  # type: ignore[return-value]


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
