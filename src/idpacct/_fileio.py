"""Atomic file writes: temp file in the target directory, then rename."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, data: str | bytes) -> None:
    """Write ``data`` to ``path`` atomically; text is encoded as UTF-8."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
