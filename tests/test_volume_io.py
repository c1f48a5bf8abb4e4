import io
import struct
import zipfile

import numpy as np
import pytest

from glogtda.errors import (
    DomainError,
    FormatError,
    LengthError,
    NotFoundError,
    ParameterError,
    ShapeError,
    UnsupportedFeatureError,
)
from glogtda.volume_io import (
    CHUNK,
    Volume,
    grayscale_convert,
    load_dataset,
    read_npz,
    read_split,
    to_volumes,
)


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)  # reference writer
    return buf.getvalue()


def read_member(raw):
    """read_npz of raw NPY bytes stored unchanged as an in-memory archive's member."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:  # ZIP_STORED: the member's bytes are raw
        zf.writestr("x.npy", raw)
    return read_npz(buf, "x")


# --- NPY ---------------------------------------------------------------------


def test_read_npy_u1_2x2():
    header = b"{'descr': '|u1', 'fortran_order': False, 'shape': (2, 2), }"
    header += b" " * ((64 - (10 + len(header) + 1) % 64) % 64) + b"\n"
    raw = b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header)) + header
    raw += bytes([0, 128, 255, 64])
    arr = read_member(raw)
    assert arr.shape == (2, 2)
    assert arr.tolist() == [[0, 128], [255, 64]]


def test_read_npy_bad_magic():
    raw = bytearray(npy_bytes(np.zeros(3, dtype=np.uint8)))
    raw[0] = 0x92
    with pytest.raises(FormatError):
        read_member(bytes(raw))


def test_read_npy_round_trip_via_reference_writer():
    arr = np.arange(3 * 28 * 28, dtype=np.uint8).reshape(3, 28, 28) % 251
    got = read_member(npy_bytes(arr))
    assert got.shape == (3, 28, 28)
    assert got.size == 2352
    np.testing.assert_array_equal(got, arr)


@pytest.mark.parametrize("dtype", ["u1", "<f4", "<f8"])
def test_npy_payload_round_trip(dtype):
    rng = np.random.default_rng(3)
    arr = (rng.random((4, 5)) * 200).astype(dtype)
    got = read_member(npy_bytes(arr))
    # the payload is decoded byte for byte, in the stored dtype
    assert got.dtype == arr.dtype and got.shape == arr.shape
    assert got.tobytes() == arr.tobytes()


def test_read_npy_fortran_order_rejected():
    arr = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
    with pytest.raises(UnsupportedFeatureError):
        read_member(npy_bytes(arr))


def test_read_npy_unsupported_dtype():
    with pytest.raises(UnsupportedFeatureError):
        read_member(npy_bytes(np.arange(4, dtype=np.int32)))


def test_read_npy_truncated_payload():
    raw = npy_bytes(np.zeros((4, 4), dtype=np.float64))
    with pytest.raises(LengthError):
        read_member(raw[:-8])


def npy_header_only(shape):
    """A |u1 NPY v1.0 header of the given shape, with no payload."""
    header = f"{{'descr': '|u1', 'fortran_order': False, 'shape': {shape!r}, }}".encode()
    header += b" " * ((64 - (10 + len(header) + 1) % 64) % 64) + b"\n"
    return b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header)) + header


def test_read_npy_shape_product_past_int64_is_length_error():
    # 2**32 * 2**32 wraps to 0 in int64, which an empty payload would match
    with pytest.raises(LengthError, match=str(2**64)):
        read_member(npy_header_only((2**32, 2**32)))


def test_read_npy_v2_header():
    ref = npy_bytes(np.arange(6, dtype=np.uint8).reshape(2, 3))
    hlen = struct.unpack_from("<H", ref, 8)[0]
    v2 = ref[:6] + bytes((2, 0)) + struct.pack("<I", hlen) + ref[10:]
    np.testing.assert_array_equal(read_member(v2), read_member(ref))


def test_read_npy_unsupported_version():
    ref = npy_bytes(np.zeros(2, dtype=np.uint8))
    with pytest.raises(UnsupportedFeatureError):
        read_member(ref[:6] + bytes((3, 0)) + ref[8:])


# --- NPZ ---------------------------------------------------------------------


def npz_bytes(compress, **arrays):
    buf = io.BytesIO()
    saver = np.savez_compressed if compress else np.savez
    saver(buf, **arrays)
    return buf.getvalue()


def test_read_npz_stored_passthrough():
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = npz_bytes(False, train_images=arr)
    np.testing.assert_array_equal(read_npz(io.BytesIO(data), "train_images"), arr)


def test_read_npz_missing_entry():
    data = npz_bytes(False, train_images=np.zeros(2, dtype=np.uint8))
    with pytest.raises(NotFoundError):
        read_npz(io.BytesIO(data), "val_images")


def test_read_npz_errors_name_the_entry():
    # the decoder's error types are kept, and each message names the entry
    data = npz_bytes(False, train_labels=np.zeros((3, 1), dtype=np.int64))
    with pytest.raises(UnsupportedFeatureError, match="'<i8'.*'train_labels'"):
        read_npz(io.BytesIO(data), "train_labels")
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("val_images.npy", npy_bytes(np.zeros((4, 4), dtype=np.uint8))[:-3])
    with pytest.raises(LengthError, match="'val_images'"):
        read_npz(buf, "val_images")


def test_read_npz_deflate_equals_stored():
    arr = (np.arange(500, dtype=np.float64) % 7).reshape(20, 25)
    stored = read_npz(io.BytesIO(npz_bytes(False, x=arr)), "x")
    deflated = read_npz(io.BytesIO(npz_bytes(True, x=arr)), "x")
    np.testing.assert_array_equal(stored, deflated)


def test_read_npz_not_a_zip():
    with pytest.raises(FormatError):
        read_npz(io.BytesIO(b"definitely not a zip file"), "x")


def member_payload_offset(data, name):
    # the local header's own name and extra lengths, not the central directory's
    header = zipfile.ZipFile(io.BytesIO(data)).getinfo(name).header_offset
    name_len, extra_len = struct.unpack_from("<HH", data, header + 26)
    return header + 30 + name_len + extra_len


def test_read_npz_corrupt_member():
    stored = bytearray(npz_bytes(False, x=np.arange(16, dtype=np.uint8)))
    stored[member_payload_offset(bytes(stored), "x.npy")] ^= 1  # CRC no longer matches
    with pytest.raises(FormatError, match="CRC"):
        read_npz(io.BytesIO(stored), "x")
    deflated = bytearray(npz_bytes(True, x=np.arange(16, dtype=np.uint8)))
    deflated[member_payload_offset(bytes(deflated), "x.npy")] |= 0b110  # reserved block type
    with pytest.raises(FormatError, match="decompressing"):
        read_npz(io.BytesIO(deflated), "x")


def test_read_npz_unsupported_compression():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_BZIP2) as zf:
        zf.writestr("x.npy", npy_bytes(np.zeros(2, dtype=np.uint8)))
    with pytest.raises(UnsupportedFeatureError):
        read_npz(buf, "x")


# --- to_volumes / grayscale --------------------------------------------------


def test_to_volumes_examples():
    (v,) = to_volumes(np.array([[[0.0, 255.0], [128.0, 10.0]]]), False)
    assert v.data[0, 0] == 0.0
    assert v.data[0, 1] == 1.0
    assert v.data[1, 0] == 128.0 / 255.0


def test_to_volumes_zero_fixed_point():
    (v,) = to_volumes(np.zeros((1, 3, 3)), False)
    assert (v.data == 0).all()


def test_to_volumes_domain_error():
    for dtype in (np.float32, np.float64):
        for bad in (256.0, -1.0):
            with pytest.raises(DomainError, match=r"must lie in \[0, 255\]"):
                to_volumes(np.full((2, 2, 2), bad, dtype=dtype), False)
        stack = np.zeros((3, 2, 2), dtype=dtype)
        stack[1, 0, 1], stack[2] = 256.0, -1.0  # the first sample out of range is named
        with pytest.raises(DomainError, match=r"^val sample 65: .* got range \[0\.0, 256\.0\]$"):
            to_volumes(stack, False, "val", 64)
        with pytest.raises(DomainError, match=r"^sample 1: raw values"):
            to_volumes(stack, False)
        stack = np.zeros((2, 2, 2), dtype=dtype)
        stack[1, 0, 1] = np.nan  # passes the range check; the Volume refuses it
        with pytest.raises(DomainError, match="non-finite"):
            to_volumes(stack, False)
        assert to_volumes(stack[:0], False) == []


def test_to_volumes_builds_each_volume_once(monkeypatch):
    calls = []
    post_init = Volume.__post_init__

    def spy(self):
        calls.append(self.data.shape)
        post_init(self)

    monkeypatch.setattr(Volume, "__post_init__", spy)
    rng = np.random.default_rng(5)
    for stack, rgb in ((rng.integers(0, 256, (5, 4, 6), dtype=np.uint8), False),
                       (rng.integers(0, 256, (3, 4, 6, 3), dtype=np.uint8), True),
                       (rng.uniform(0, 255, (2, 3, 4, 5)), False)):
        calls.clear()
        vols = to_volumes(stack, rgb)
        assert calls == [v.dims for v in vols] and len(vols) == len(stack)


def test_to_volumes_is_monotone_affine():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0, 255, (6, 6))
    (v,) = to_volumes(raw[None], False)
    out = v.data
    order_in = np.argsort(raw.ravel())
    order_out = np.argsort(out.ravel())
    np.testing.assert_array_equal(order_in, order_out)
    np.testing.assert_allclose(out * 255.0, raw, rtol=1e-12)


def test_grayscale_examples():
    assert grayscale_convert(np.array([[[255.0, 255.0, 255.0]] * 2] * 2))[0, 0] == 255
    assert grayscale_convert(np.array([[[0.0, 0.0, 0.0]] * 2] * 2))[0, 0] == 0
    # 0.299 * 255 = 76.245
    assert grayscale_convert(np.array([[[255.0, 0.0, 0.0]] * 2] * 2))[0, 0] == 76


def test_grayscale_shape_error():
    with pytest.raises(ShapeError):
        grayscale_convert(np.zeros((4, 4, 4)))


def test_grayscale_within_channel_range():
    rng = np.random.default_rng(1)
    rgb = rng.uniform(0, 255, (5, 5, 3))
    lum = grayscale_convert(rgb)
    lo = np.floor(rgb.min(axis=-1))
    hi = np.ceil(rgb.max(axis=-1))
    assert (lum >= lo).all() and (lum <= hi).all()


# --- Volume invariants / load_dataset ---------------------------------------------


def test_volume_validation():
    with pytest.raises(ShapeError):
        Volume(np.zeros(5))
    with pytest.raises(ShapeError):
        Volume(np.zeros((1, 4)))
    with pytest.raises(DomainError):
        Volume(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    v = Volume(np.zeros((2, 2)))
    assert v.dims == (2, 2) and v.n == 2
    with pytest.raises(ValueError):
        v.data[0, 0] = 1.0  # read-only


def test_volume_keeps_a_private_copy():
    x = np.zeros((3, 4))
    v = Volume(x)
    x[0, 0] = 1.0  # the caller's array stays writable, and the volume does not see it
    b = np.zeros((2, 3, 4))
    w = Volume(b[0])
    b[0, 0, 0] = 2.0  # nor a view into a larger array
    assert v.data[0, 0] == 0.0 and w.data[0, 0] == 0.0
    assert not v.data.flags.writeable and not w.data.flags.writeable


def test_load_dataset_grayscale_and_labels(tmp_path):
    rng = np.random.default_rng(7)
    images = rng.integers(0, 256, size=(4, 6, 6, 3)).astype(np.uint8)
    labels = np.array([[0], [1], [1], [0]], dtype=np.uint8)
    path = tmp_path / "toy.npz"
    np.savez(path, train_images=images, train_labels=labels)
    ds = load_dataset(path, "train")
    assert ds.labels.tolist() == [0, 1, 1, 0]
    assert ds.volumes[0].dims == (6, 6)
    assert 0.0 <= ds.volumes[0].data.min() and ds.volumes[0].data.max() <= 1.0
    expected = grayscale_convert(images[0].astype(float)) / 255.0
    np.testing.assert_allclose(ds.volumes[0].data, expected, rtol=1e-12)


def test_split_is_read_in_its_stored_dtype_and_converted_chunk_by_chunk(tmp_path):
    rng = np.random.default_rng(9)
    images = rng.integers(0, 256, size=(2 * CHUNK + 5, 5, 6, 3)).astype(np.uint8)
    labels = (np.arange(len(images)) % 3).reshape(-1, 1).astype(np.uint8)
    path = tmp_path / "rgb.npz"
    for saver in (np.savez, np.savez_compressed):
        saver(path, train_images=images, train_labels=labels)
        stack, labs, rgb_to_gray = read_split(path, "train")
        assert stack.dtype == np.uint8 and stack.tobytes() == images.tobytes() and rgb_to_gray
        assert labs.tolist() == labels.reshape(-1).tolist()
    ds = load_dataset(path, "train")
    assert len(ds.volumes) == len(images) and rgb_to_gray
    assert not hasattr(ds, "split") and not hasattr(ds, "rgb_to_gray")
    assert ds.labels.dtype == np.int64 and not ds.labels.flags.writeable
    np.testing.assert_array_equal(ds.labels, labs)
    whole = to_volumes(stack, rgb_to_gray)
    assert [v.data.tobytes() for v in ds.volumes] == [v.data.tobytes() for v in whole]
    for v, img in zip(ds.volumes, images):  # each image alone, as one whole-stack call gave
        assert v.data.tobytes() == (grayscale_convert(img.astype(float)) / 255.0).tobytes()


def test_empty_split_is_read_but_is_no_dataset(tmp_path):
    path = tmp_path / "empty.npz"
    np.savez(path, test_images=np.zeros((0, 5, 5), dtype=np.uint8),
             test_labels=np.zeros((0, 1), dtype=np.uint8))
    stack, labs, rgb_to_gray = read_split(path, "test")
    assert stack.shape == (0, 5, 5) and len(labs) == 0 and not rgb_to_gray
    assert to_volumes(stack, rgb_to_gray) == []
    with pytest.raises(ParameterError, match="got 0 volumes, 0 labels"):
        load_dataset(path, "test")
    np.savez(path, test_images=np.zeros((0, 5, 5), dtype=np.uint8),
             test_labels=np.zeros((1, 1), dtype=np.uint8))
    with pytest.raises(ParameterError, match="got 0 volumes, 1 labels"):
        read_split(path, "test")


@pytest.mark.parametrize("present, missing", [("test_images", "test_labels"),
                                              ("val_labels", "val_images")])
def test_split_with_one_of_its_entries_is_format_error(tmp_path, present, missing):
    # a split lacking both entries is absent; lacking one, it is malformed
    path = tmp_path / "half.npz"
    arrays = {"train_images": np.zeros((2, 4, 4), dtype=np.uint8),
              "train_labels": np.zeros((2, 1), dtype=np.uint8)}
    arrays[present] = arrays["train_" + present.split("_")[1]]
    np.savez(path, **arrays)
    split = present.split("_")[0]
    for reader in (read_split, load_dataset):
        with pytest.raises(FormatError, match=f"no '{missing}'"):
            reader(path, split)
    with pytest.raises(NotFoundError):
        read_split(path, "test" if split == "val" else "val")


@pytest.mark.parametrize("bad", [1.5, np.nan, np.inf, -1.0, 2.0**53],
                         ids=["fractional", "nan", "inf", "negative", "2**53"])
def test_load_dataset_refuses_labels_that_are_not_integers(tmp_path, bad):
    images = np.zeros((3, 4, 4), dtype=np.uint8)
    path = tmp_path / "labels.npz"
    for dtype in (np.float64, np.float32):
        np.savez(path, val_images=images, val_labels=np.array([[0.0], [bad], [1.0]], dtype=dtype))
        with pytest.raises(FormatError, match=r"val_labels\[1\] is .*, not an integer"):
            load_dataset(path, "val")
    np.savez(path, val_images=images, val_labels=np.array([[0.0], [2.0], [1.0]]))
    assert load_dataset(path, "val").labels.tolist() == [0, 2, 1]


def test_load_dataset_3d(tmp_path):
    rng = np.random.default_rng(8)
    images = rng.integers(0, 256, size=(2, 4, 4, 4)).astype(np.uint8)
    labels = np.array([[1], [0]], dtype=np.uint8)
    # stored and deflated members load the same, from file to volumes
    for saver in (np.savez, np.savez_compressed):
        path = tmp_path / f"{saver.__name__}.npz"
        saver(path, test_images=images, test_labels=labels)
        ds = load_dataset(path, "test")
        assert ds.volumes[0].dims == (4, 4, 4)
        assert ds.labels.tolist() == [1, 0]
        np.testing.assert_array_equal(np.stack([v.data for v in ds.volumes]), images / 255.0)
