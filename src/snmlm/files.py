"""Output files that appear whole or not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager


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
