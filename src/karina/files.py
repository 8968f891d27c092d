"""The one way karina puts a file on disk.

Every artifact is written to `<path>.tmp` in the same directory and
renamed onto `path` only after it is complete and closed, so `path`
holds either the previous artifact or the new one, never a partial
write.  A writer that raises, `KeyboardInterrupt` included, leaves
`path` untouched and removes its temp file; a killed process can leave
only the `.tmp` behind.  There is no fsync: the failure this closes is
a dead process, not a lost machine.
"""

import math
import os
import struct
from contextlib import contextmanager, suppress

import numpy as np


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


# characters a CSV cell may not hold: they would split a cell or a row
CSV_UNSAFE = (",", "\n", "\r")


def _csv_cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return repr(float(v))


def write_csv(path, header, rows):
    """Write the header names and then one line per row, atomically.

    A cell is a str as it is, an int in decimal, None as empty, and any
    other number as repr(float(v)), which reads back to the same float.
    """
    write_lines(path, [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows])


def require_finite(values, error, what, axes=None):
    """Raise error unless every value is finite, naming the first bad
    index, by the axis names axes when given.  min and max carry NaN and
    both infinities, and allocate no array the size of values; only a
    failure looks for the index."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        at = np.argwhere(~np.isfinite(values))[0].tolist()
        where = ", ".join(f"{a} {i}" for a, i in zip(axes, at)) if axes else f"index {tuple(at)}"
        raise error(f"{what} holds a non-finite value at {where}")


def write_u32(fh, *values):
    """Write each value as a little-endian u32."""
    fh.write(struct.pack(f"<{len(values)}I", *values))


def write_str(fh, text):
    """Write text as its UTF-8 byte count (u32) and then those bytes."""
    raw = text.encode("utf-8")
    write_u32(fh, len(raw))
    fh.write(raw)


class RecordReader:
    """Reads the record layout `.grid` and `.krna` share: little-endian u32
    counts, strings as a u32 byte count plus UTF-8, and raw little-endian
    float32 payloads.  Damage raises the caller's error class naming the
    record `what`; each read checks its size against the rest of the file
    before it allocates anything.
    """

    def __init__(self, fh, error):
        self._fh = fh
        self._error = error
        self._size = os.fstat(fh.fileno()).st_size
        self._off = fh.tell()

    def _claim(self, n, what):
        left = self._size - self._off
        if n > left:
            raise self._error(f"truncated file: expected {self._off + n} bytes, got "
                              f"{self._size} ({what}: needs {n} bytes, {left} left)")
        self._off += n

    def bytes(self, n, what):
        self._claim(n, what)
        return self._fh.read(n)

    def u32(self, count, what):
        return struct.unpack(f"<{count}I", self.bytes(4 * count, what))

    def text(self, what):
        (n,) = self.u32(1, f"{what} length")
        try:
            return self.bytes(n, what).decode("utf-8")
        except UnicodeDecodeError as err:
            raise self._error(f"{what} is not UTF-8: {err}") from None

    def f32(self, shape, what):
        """A new float32 array of shape, read straight into its memory;
        a non-finite value raises."""
        n = 4 * math.prod(shape)
        self._claim(n, what)
        values = np.empty(shape, dtype="<f4")
        # memoryview cannot cast a view with a zero extent
        if n and self._fh.readinto(memoryview(values).cast("B")) != n:
            raise self._error(f"truncated file: the file shrank while {what} was read")
        require_finite(values, self._error, what)
        return values

    def end(self):
        """Refuse bytes after the last record."""
        if self._off != self._size:
            raise self._error(f"trailing bytes: expected {self._off} bytes, got {self._size}")
