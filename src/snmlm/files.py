"""Text inputs read as UTF-8, and output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager

from .errors import DataError


@contextmanager
def open_text(path, newline=None):
    """Open a text input for reading as UTF-8; the one way every text input is opened.

    `newline` is `open`'s: ``"\\n"`` reads lines as they are written, with
    no line ending translated. A byte that is not UTF-8 raises `DataError`
    naming the file and line. Only then is the file read again, as bytes,
    to find that line.
    """
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc, newline) from None


def _not_utf8(path, exc: UnicodeDecodeError, newline=None) -> DataError:
    """The error naming the first line of `path` that is not UTF-8.

    Lines are counted as the reader opened with `newline` counts them: at
    ``\n`` alone for ``"\n"``, else at ``\n``, ``\r\n`` or ``\r``.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n") if newline == "\n" else data.splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as bad:
            return DataError(f"{path}:{lineno}: byte 0x{line[bad.start]:02x} at column "
                             f"{bad.start + 1} is not UTF-8 ({bad.reason})")
    return DataError(f"{path}: {exc}")


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file next to `path` for writing; it replaces `path` when the block ends.

    The one way every output file is written. If the block raises, the
    temporary file is removed and any earlier file at `path` is left as it
    was, so no reader ever sees a partial file.
    """
    tmp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp_path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
