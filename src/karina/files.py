"""The one way karina puts a file on disk.

Every artifact is written to `<path>.tmp` in the same directory and
renamed onto `path` only after it is complete and closed, so `path`
holds either the previous artifact or the new one, never a partial
write.  A writer that raises, `KeyboardInterrupt` included, leaves
`path` untouched and removes its temp file; a killed process can leave
only the `.tmp` behind.  There is no fsync: the failure this closes is
a dead process, not a lost machine.
"""

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_open(path, mode="w"):
    """Open `<path>.tmp` for writing ("w" text, UTF-8, or "wb" binary);
    on a clean exit the temp file replaces path."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_lines(path, lines):
    """Write each line followed by a newline, atomically."""
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
