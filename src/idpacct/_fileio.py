"""Atomic file writes: a temp file in the target directory, renamed over the
target only once it is complete.

``atomic_open`` yields the open temp file, so a writer streams into it
without first building the whole file in memory; ``atomic_write`` writes
one string or buffer through it.  On any exception, ``KeyboardInterrupt``
included, the temp file is removed and the target is left as it was.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from collections.abc import Iterator
from typing import BinaryIO


@contextlib.contextmanager
def atomic_open(path: str) -> Iterator[BinaryIO]:
    """Yield a binary temp file beside ``path``; it replaces ``path`` when
    the block exits normally and is unlinked when the block raises."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write(path: str, data: str | bytes) -> None:
    """Write ``data`` to ``path`` atomically; text is encoded as UTF-8."""
    with atomic_open(path) as f:
        f.write(data.encode("utf-8") if isinstance(data, str) else data)
