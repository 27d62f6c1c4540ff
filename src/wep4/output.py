"""The output file of an export or a command's --out, opened for bytes.

Numpy-free, so that `info --out` loads no array module.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager

__all__ = ["open_output"]


def _is_stdout(path) -> bool:
    """Whether path is the file that fd 1 writes (a missing path or a closed
    fd 1 is not)."""
    try:
        return os.path.samestat(os.fstat(1), os.stat(path))
    except OSError:
        return False


@contextmanager
def open_output(path):
    """path, open for writing bytes.  If path is the file fd 1 already writes
    (--out /dev/stdout with stdout redirected to a file, or down a pipe), it
    is not reopened: sys.stdout is flushed and the bytes go through a
    duplicate of fd 1, which shares its offset, so a line printed after them
    follows them instead of overwriting their start.  If writing fails (a
    block that overflows, say), a file this call created is removed again."""
    created = False
    if _is_stdout(path):
        sys.stdout.flush()
        fh = os.fdopen(os.dup(1), "wb")
    else:
        created = not os.path.exists(path)
        fh = open(path, "wb")
    try:
        with fh:
            yield fh
    except BaseException:
        if created:
            os.remove(path)
        raise
