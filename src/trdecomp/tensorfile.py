"""Binary tensor file format used by the CLI.

Layout: magic bytes b"TRT1", then the order N as a little-endian uint64,
then N little-endian uint64 extents, then the entries as little-endian
float64 in column-major (first index fastest) order.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile

import numpy as np

MAGIC = b"TRT1"


def atomic_write_bytes(path, *chunks) -> None:
    """Write `chunks` (bytes or contiguous buffers) one after another via a
    temp file in the same directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, x: np.ndarray) -> None:
    """Write a tensor file straight from the column-major little-endian
    float64 array of x: no copy for the column-major float64 tensors that
    `read_tensor` and `synth_tensor` return."""
    x = np.asarray(x, dtype="<f8", order="F")
    header = MAGIC + struct.pack(f"<{x.ndim + 1}Q", x.ndim, *x.shape)
    atomic_write_bytes(path, header, x.reshape(-1, order="F"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor file into one column-major float64 array.

    The header and the file size are checked before the entries are read,
    straight into the array that is returned: the file is never held in
    memory a second time.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if head[:4] != MAGIC:
            raise ValueError(f"{path}: bad magic {head[:4]!r}, expected {MAGIC!r}")
        if len(head) < 12:
            raise ValueError(f"{path}: truncated header, {size} bytes")
        (ndim,) = struct.unpack_from("<Q", head, 4)
        off = 12 + 8 * ndim
        if size < off:
            raise ValueError(f"{path}: header gives order {ndim}, file has {size} bytes")
        dims = struct.unpack(f"<{ndim}Q", f.read(8 * ndim))
        # exact integers: a numpy product of the extents would wrap at 2**64
        count = math.prod(dims)
        expected = off + 8 * count
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes, found {size}")
        flat = np.empty(count, dtype="<f8")
        got = f.readinto(flat)
        if got != flat.nbytes:
            raise ValueError(f"{path}: expected {expected} bytes, read {off + got}")
    return flat.reshape(dims, order="F").astype(np.float64, copy=False)
