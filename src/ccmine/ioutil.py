"""Small I/O helpers: digests, atomic writes, gzip detection."""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import tempfile
from pathlib import Path
from typing import BinaryIO

GZIP_MAGIC = b"\x1f\x8b"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write a file so readers never observe a partial artifact.

    The data goes to a temporary file in the destination directory and is
    moved into place with os.replace, which is atomic on POSIX.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path: str | Path) -> str:
    with open_maybe_gzip(path) as fh:
        return io.TextIOWrapper(fh, encoding="utf-8").read()
