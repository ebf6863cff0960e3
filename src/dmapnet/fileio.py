"""Atomic file writes shared by dataset, model and report writers.

Writers stage into a temporary file in the destination directory and rename
it over the target, so a failure mid-write never leaves a partial artifact
under the final name.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write_bytes(path, data) -> None:
    """Write ``data`` to ``path`` atomically.

    ``data`` is either one bytes object or an iterable of bytes-like parts
    (bytes, memoryviews, C-contiguous numpy arrays), written in order, so a
    large file can be streamed without first being joined in memory.
    """
    if isinstance(data, (bytes, bytearray, memoryview)):
        data = (data,)
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            for part in data:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
