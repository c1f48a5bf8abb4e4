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
    Dataset,
    Volume,
    grayscale_convert,
    load_dataset,
    normalize,
    read_npy,
    read_npz,
    read_split,
)


def npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)  # reference writer
    return buf.getvalue()


# --- NPY ---------------------------------------------------------------------


def test_read_npy_u1_2x2():
    header = b"{'descr': '|u1', 'fortran_order': False, 'shape': (2, 2), }"
    header += b" " * ((64 - (10 + len(header) + 1) % 64) % 64) + b"\n"
    raw = b"\x93NUMPY" + bytes((1, 0)) + struct.pack("<H", len(header)) + header
    raw += bytes([0, 128, 255, 64])
    arr = read_npy(raw)
    assert arr.shape == (2, 2)
    assert arr.tolist() == [[0, 128], [255, 64]]


def test_read_npy_bad_magic():
    raw = bytearray(npy_bytes(np.zeros(3, dtype=np.uint8)))
    raw[0] = 0x92
    with pytest.raises(FormatError):
        read_npy(bytes(raw))


def test_read_npy_round_trip_via_reference_writer():
    arr = np.arange(3 * 28 * 28, dtype=np.uint8).reshape(3, 28, 28) % 251
    got = read_npy(npy_bytes(arr))
    assert got.shape == (3, 28, 28)
    assert got.size == 2352
    np.testing.assert_array_equal(got, arr)


@pytest.mark.parametrize("dtype", ["u1", "<f4", "<f8"])
def test_npy_payload_round_trip(dtype):
    rng = np.random.default_rng(3)
    arr = (rng.random((4, 5)) * 200).astype(dtype)
    got = read_npy(npy_bytes(arr))
    # the payload is decoded byte for byte, in the stored dtype
    assert got.dtype == arr.dtype and got.shape == arr.shape
    assert got.tobytes() == arr.tobytes()


def test_read_npy_fortran_order_rejected():
    arr = np.asfortranarray(np.arange(6, dtype=np.float32).reshape(2, 3))
    with pytest.raises(UnsupportedFeatureError):
        read_npy(npy_bytes(arr))


def test_read_npy_unsupported_dtype():
    with pytest.raises(UnsupportedFeatureError):
        read_npy(npy_bytes(np.arange(4, dtype=np.int32)))


def test_read_npy_truncated_payload():
    raw = npy_bytes(np.zeros((4, 4), dtype=np.float64))
    with pytest.raises(LengthError):
        read_npy(raw[:-8])


def test_read_npy_v2_header():
    ref = npy_bytes(np.arange(6, dtype=np.uint8).reshape(2, 3))
    hlen = struct.unpack_from("<H", ref, 8)[0]
    v2 = ref[:6] + bytes((2, 0)) + struct.pack("<I", hlen) + ref[10:]
    np.testing.assert_array_equal(read_npy(v2), read_npy(ref))


def test_read_npy_unsupported_version():
    ref = npy_bytes(np.zeros(2, dtype=np.uint8))
    with pytest.raises(UnsupportedFeatureError):
        read_npy(ref[:6] + bytes((3, 0)) + ref[8:])


# --- NPZ ---------------------------------------------------------------------


def npz_bytes(compress, **arrays):
    buf = io.BytesIO()
    saver = np.savez_compressed if compress else np.savez
    saver(buf, **arrays)
    return buf.getvalue()


def test_read_npz_stored_passthrough():
    arr = np.arange(12, dtype=np.uint8).reshape(3, 4)
    data = npz_bytes(False, train_images=arr)
    np.testing.assert_array_equal(read_npz(data, "train_images"), arr)


def test_read_npz_missing_entry():
    data = npz_bytes(False, train_images=np.zeros(2, dtype=np.uint8))
    with pytest.raises(NotFoundError):
        read_npz(data, "val_images")


def test_read_npz_deflate_equals_stored():
    arr = (np.arange(500, dtype=np.float64) % 7).reshape(20, 25)
    stored = read_npz(npz_bytes(False, x=arr), "x")
    deflated = read_npz(npz_bytes(True, x=arr), "x")
    np.testing.assert_array_equal(stored, deflated)


def test_read_npz_not_a_zip():
    with pytest.raises(FormatError):
        read_npz(b"definitely not a zip file", "x")


def member_payload_offset(data, name):
    # the local header's own name and extra lengths, not the central directory's
    header = zipfile.ZipFile(io.BytesIO(data)).getinfo(name).header_offset
    name_len, extra_len = struct.unpack_from("<HH", data, header + 26)
    return header + 30 + name_len + extra_len


def test_read_npz_corrupt_member():
    stored = bytearray(npz_bytes(False, x=np.arange(16, dtype=np.uint8)))
    stored[member_payload_offset(bytes(stored), "x.npy")] ^= 1  # CRC no longer matches
    with pytest.raises(FormatError, match="CRC"):
        read_npz(bytes(stored), "x")
    deflated = bytearray(npz_bytes(True, x=np.arange(16, dtype=np.uint8)))
    deflated[member_payload_offset(bytes(deflated), "x.npy")] |= 0b110  # reserved block type
    with pytest.raises(FormatError, match="decompressing"):
        read_npz(bytes(deflated), "x")


def test_read_npz_unsupported_compression():
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_BZIP2) as zf:
        zf.writestr("x.npy", npy_bytes(np.zeros(2, dtype=np.uint8)))
    with pytest.raises(UnsupportedFeatureError):
        read_npz(buf.getvalue(), "x")


# --- normalize / grayscale ---------------------------------------------------


def test_normalize_examples():
    v = normalize(Volume(np.array([[0.0, 255.0], [128.0, 10.0]])))
    assert v.data[0, 0] == 0.0
    assert v.data[0, 1] == 1.0
    assert v.data[1, 0] == 128.0 / 255.0


def test_normalize_zero_fixed_point():
    v = normalize(Volume(np.zeros((3, 3))))
    assert (v.data == 0).all()


def test_normalize_domain_error():
    with pytest.raises(DomainError):
        normalize(Volume(np.full((2, 2), 256.0)))
    with pytest.raises(DomainError):
        normalize(Volume(np.full((2, 2), -1.0)))


def test_normalize_is_monotone_affine():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0, 255, (6, 6))
    out = normalize(Volume(raw)).data
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


# --- Volume / Dataset invariants ---------------------------------------------


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


def test_dataset_validation():
    vols = [Volume(np.zeros((2, 2))), Volume(np.zeros((2, 2)))]
    ds = Dataset(volumes=vols, labels=[0, 1], split="train")
    assert len(ds) == 2 and ds.labels.tolist() == [0, 1]
    assert len(Dataset(volumes=vols, labels=[0, 0], split="test")) == 2  # one class is fine
    with pytest.raises(ParameterError):
        Dataset(volumes=vols, labels=[0, 1], split="holdout")
    with pytest.raises(ParameterError):
        Dataset(volumes=vols, labels=[0], split="train")
    with pytest.raises(ShapeError):
        Dataset(volumes=[vols[0], Volume(np.zeros((3, 3)))], labels=[0, 1], split="train")


@pytest.mark.parametrize("bad", [1.5, np.nan, -1, 2**53],
                         ids=["fractional", "nan", "negative", "2**53"])
def test_dataset_refuses_labels_before_the_integer_cast(bad):
    # an int64 cast first would turn 1.5 into class 1
    vols = [Volume(np.zeros((2, 2))), Volume(np.zeros((2, 2)))]
    rule = r"labels\[1\] is .*, not an integer in \[0, 2\*\*53\)"
    with pytest.raises(ParameterError, match=rule):
        Dataset(volumes=vols, labels=[0, bad], split="train")


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
    assert len(ds) == len(images) and ds.rgb_to_gray
    for v, img in zip(ds.volumes, images):  # each image alone, as one whole-stack call gave
        assert v.data.tobytes() == (grayscale_convert(img.astype(float)) / 255.0).tobytes()


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
