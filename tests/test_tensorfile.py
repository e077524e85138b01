import struct
import tracemalloc

import numpy as np
import pytest

from trdecomp.tensorfile import MAGIC, atomic_write_bytes, read_tensor, write_tensor

from helpers import arange_tensor


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for shape in [(), (2, 3), (3, 4, 5), (2, 2, 2, 2)]:
        x = np.asarray(rng.standard_normal(shape))
        path = tmp_path / "t.trt"
        write_tensor(path, x)
        back = read_tensor(path)
        assert back.shape == x.shape
        np.testing.assert_array_equal(back, x)


def test_exact_layout(tmp_path):
    x = arange_tensor((2, 3))
    path = tmp_path / "t.trt"
    write_tensor(path, x)
    raw = path.read_bytes()
    expected = MAGIC + struct.pack("<Q", 2) + struct.pack("<QQ", 2, 3)
    expected += struct.pack("<6d", 1, 2, 3, 4, 5, 6)  # column-major entries
    assert raw == expected


def test_bad_magic(tmp_path):
    path = tmp_path / "t.trt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        read_tensor(path)


def test_truncated(tmp_path):
    x = arange_tensor((2, 3))
    path = tmp_path / "t.trt"
    write_tensor(path, x)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="bytes"):
        read_tensor(path)


@pytest.mark.parametrize("raw, match", [
    (MAGIC + b"\x01", "truncated header"),
    (MAGIC + struct.pack("<Q", 2**60) + b"\x00" * 16, "order"),
    # the numpy product of these extents wraps to 0, matching an empty payload
    (MAGIC + struct.pack("<QQQ", 2, 2**62, 4), "bytes"),
], ids=["truncated-header", "huge-order", "wrapping-extents"])
def test_malformed_header(tmp_path, raw, match):
    path = tmp_path / "t.trt"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=match):
        read_tensor(path)


def test_read_holds_one_copy_of_the_entries(tmp_path):
    # the entries are read into the returned array, not into a bytes object
    # that is then converted
    x = np.asfortranarray(np.random.default_rng(0).standard_normal((50, 50, 50)))
    path = tmp_path / "t.trt"
    write_tensor(path, x)
    tracemalloc.start()
    try:
        back = read_tensor(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(back, x)
    assert back.flags.f_contiguous
    assert peak < 1.5 * x.nbytes


def test_write_holds_no_copy_of_a_column_major_tensor(tmp_path):
    # the header and then the array's own buffer go to the file: no bytes
    # object of the entries is built
    x = np.asfortranarray(np.random.default_rng(1).standard_normal((100, 100, 100)))
    path = tmp_path / "t.trt"
    tracemalloc.start()
    try:
        write_tensor(path, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes
    np.testing.assert_array_equal(read_tensor(path), x)


@pytest.mark.parametrize("order", ["C", "F"])
def test_write_bytes_follow_the_format_for_any_layout(tmp_path, order):
    x = np.array(np.random.default_rng(2).standard_normal((3, 4, 5)), order=order)
    path = tmp_path / "t.trt"
    write_tensor(path, x)
    expected = (MAGIC + struct.pack("<4Q", 3, 3, 4, 5)
                + x.ravel(order="F").astype("<f8").tobytes())
    assert path.read_bytes() == expected


def test_failed_write_leaves_no_file(tmp_path):
    # the second chunk is not a buffer: the temp file is removed and the
    # target keeps its old content
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(TypeError):
        atomic_write_bytes(path, b"new", object())
    assert path.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
