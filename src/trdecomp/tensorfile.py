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


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_tensor(path, x: np.ndarray) -> None:
    x = np.asarray(x, dtype=np.float64)
    header = MAGIC + struct.pack("<Q", x.ndim)
    header += struct.pack(f"<{x.ndim}Q", *x.shape)
    payload = x.ravel(order="F").astype("<f8").tobytes()
    atomic_write_bytes(path, header + payload)


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    if len(data) < 12:
        raise ValueError(f"{path}: truncated header, {len(data)} bytes")
    (ndim,) = struct.unpack_from("<Q", data, 4)
    off = 12 + 8 * ndim
    if len(data) < off:
        raise ValueError(f"{path}: header gives order {ndim}, file has {len(data)} bytes")
    dims = struct.unpack_from(f"<{ndim}Q", data, 12)
    # exact integers: a numpy product of the extents would wrap at 2**64
    count = math.prod(dims)
    expected = off + 8 * count
    if len(data) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, found {len(data)}")
    flat = np.frombuffer(data, dtype="<f8", count=count, offset=off)
    return flat.reshape(dims, order="F").astype(np.float64)
