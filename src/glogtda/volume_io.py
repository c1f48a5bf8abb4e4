"""Dataset ingestion: NPY/NPZ/PGM readers, grayscale conversion, normalization.

NPY headers are read and written with numpy.lib.format, but the accepted set
is deliberately narrow: C-order u8/f32/f64 only, versions 1.0 and 2.0.
Anything else errors loudly instead of guessing. NPZ archives are plain ZIP
containers; only the stored and deflate methods are accepted.
"""

from __future__ import annotations

import io
import zipfile
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy_format

from .errors import (
    DomainError,
    FormatError,
    LengthError,
    NotFoundError,
    ParameterError,
    ShapeError,
    UnsupportedFeatureError,
)

# the only element types we decode or encode
_SUPPORTED_DTYPES = (np.dtype("u1"), np.dtype("<f4"), np.dtype("<f8"))
_HEADER_READERS = {
    (1, 0): npy_format.read_array_header_1_0,
    (2, 0): npy_format.read_array_header_2_0,
}

# ITU-R BT.601 luminance weights, fixed for determinism
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


@dataclass(frozen=True)
class Volume:
    """An n-dimensional grayscale scalar field on a grid, n in {2, 3}.

    ``data`` is stored C-contiguous float64 and marked read-only. Values are
    raw (e.g. [0, 255]) until passed through :func:`normalize`.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.float64)
        if arr.ndim not in (2, 3):
            raise ShapeError(f"volume must be 2D or 3D, got ndim={arr.ndim}")
        if any(d < 2 for d in arr.shape):
            raise ShapeError(f"every dimension must be >= 2, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("volume contains non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def n(self) -> int:
        return self.data.ndim


@dataclass(frozen=True)
class Dataset:
    """Labelled volumes of identical dims belonging to one split.

    ``rgb_to_gray`` records that the stored stack had a trailing colour axis
    that was collapsed to luminance.
    """

    volumes: list[Volume]
    labels: np.ndarray
    split: str
    rgb_to_gray: bool = False

    def __post_init__(self):
        if self.split not in ("train", "val", "test"):
            raise ParameterError(f"split must be train/val/test, got {self.split!r}")
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if len(self.volumes) == 0 or len(self.volumes) != labels.size:
            raise ParameterError(
                f"need equally many volumes and labels, nonzero; "
                f"got {len(self.volumes)} volumes, {labels.size} labels"
            )
        dims0 = self.volumes[0].dims
        for v in self.volumes:
            if v.dims != dims0:
                raise ShapeError(f"mixed volume dims: {v.dims} vs {dims0}")
        if labels.min() < 0:
            raise ParameterError(f"labels must be >= 0, got {int(labels.min())}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.volumes)


def read_npy(data: bytes) -> np.ndarray:
    """Decode an NPY v1.0/v2.0 byte string into a C-order ndarray.

    Only u8/f32/f64, fortran_order=False. The payload must match the header's
    shape exactly; leftovers or truncation raise LengthError.
    """
    fp = io.BytesIO(data)
    try:
        version = npy_format.read_magic(fp)
        if version not in _HEADER_READERS:
            raise UnsupportedFeatureError(f"NPY version {version[0]}.{version[1]} not supported")
        shape, fortran_order, dtype = _HEADER_READERS[version](fp)
    except ValueError as exc:
        raise FormatError(f"bad NPY magic or header: {exc}") from exc
    if dtype not in _SUPPORTED_DTYPES:
        raise UnsupportedFeatureError(f"dtype {dtype.str!r} not supported")
    if fortran_order:
        raise UnsupportedFeatureError("fortran_order=True not supported")
    if any(d < 0 for d in shape):
        raise FormatError(f"bad NPY shape {shape!r}")
    expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    payload = data[fp.tell():]
    if len(payload) != expected:
        raise LengthError(f"payload is {len(payload)} bytes, expected {expected}")
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def write_npy(arr: np.ndarray) -> bytes:
    """Encode an ndarray as NPY v1.0 (u8/f32/f64, C order)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _SUPPORTED_DTYPES:
        raise UnsupportedFeatureError(f"dtype {arr.dtype} not supported for writing")
    fp = io.BytesIO()
    npy_format.write_array(fp, arr, version=(1, 0))
    return fp.getvalue()


def read_npz(data: bytes, entry_name: str) -> np.ndarray:
    """Extract ``entry_name`` (without the .npy suffix) from an NPZ archive."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(data))
    except zipfile.BadZipFile as exc:
        raise FormatError(f"not a ZIP archive: {exc}") from exc
    member = entry_name + ".npy"
    with zf:
        try:
            info = zf.getinfo(member)
        except KeyError:
            raise NotFoundError(f"archive has no entry {entry_name!r}") from None
        if info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED):
            raise UnsupportedFeatureError(
                f"compression method {info.compress_type} not supported"
            )
        try:
            payload = zf.read(info)
        except (zipfile.BadZipFile, zlib.error) as exc:
            raise FormatError(f"corrupt archive entry {entry_name!r}: {exc}") from exc
    return read_npy(payload)


def write_npz(path, arrays: dict, compress: bool = False) -> None:
    """Write named arrays to an NPZ archive (stored, or deflate if compress)."""
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    with zipfile.ZipFile(path, "w", compression=method) as zf:
        for name, arr in arrays.items():
            zf.writestr(name + ".npy", write_npy(arr))


def read_pgm(data: bytes) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) image into a uint8 array."""
    pos = 0

    def next_token():
        nonlocal pos
        while pos < len(data):
            if data[pos : pos + 1].isspace():
                pos += 1
            elif data[pos : pos + 1] == b"#":
                while pos < len(data) and data[pos] not in (10, 13):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        return data[start:pos]

    if next_token() != b"P5":
        raise FormatError("not a P5 PGM")
    try:
        width, height, maxval = (int(next_token()) for _ in range(3))
    except ValueError as exc:
        raise FormatError("bad PGM header") from exc
    if maxval != 255:
        raise UnsupportedFeatureError(f"PGM maxval {maxval} not supported")
    pos += 1  # single whitespace byte after maxval
    payload = data[pos : pos + width * height]
    if len(payload) != width * height:
        raise LengthError("truncated PGM payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()


def grayscale_convert(rgb: np.ndarray) -> np.ndarray:
    """Collapse a trailing channel axis of size 3 to luminance, rounded to nearest.

    Uses fixed BT.601 weights (0.299, 0.587, 0.114); ties round to even.
    Output stays in raw [0, 255] units.
    """
    rgb = np.asarray(rgb, dtype=np.float64)
    if rgb.ndim < 2 or rgb.shape[-1] != 3:
        raise ShapeError(f"trailing dimension must be 3, got shape {rgb.shape}")
    lum = rgb @ np.array(LUMA_WEIGHTS)
    return np.rint(lum)


def normalize(v: Volume) -> Volume:
    """Map raw intensities in [0, 255] to [0, 1] by dividing by 255."""
    if v.data.min() < 0 or v.data.max() > 255:
        raise DomainError(
            f"raw values must lie in [0, 255], got range "
            f"[{v.data.min()}, {v.data.max()}]"
        )
    return Volume(v.data / 255.0)


def _squeeze_labels(labels: np.ndarray) -> np.ndarray:
    # MedMNIST-style label arrays are (N, 1); drop trailing singleton axes
    arr = np.asarray(labels)
    while arr.ndim > 1 and arr.shape[-1] == 1:
        arr = arr[..., 0]
    if arr.ndim != 1:
        raise ShapeError(f"labels must squeeze to 1D, got shape {labels.shape}")
    return arr.astype(np.int64)


def load_dataset(path, split: str) -> Dataset:
    """Load one split (``train``/``val``/``test``) from an NPZ dataset file.

    Expects entries ``{split}_images`` and ``{split}_labels``. Color images
    (trailing axis 3) are converted to grayscale; all intensities are then
    normalized to [0, 1].
    """
    with open(path, "rb") as fh:
        data = fh.read()
    images = read_npz(data, f"{split}_images")
    labels = _squeeze_labels(read_npz(data, f"{split}_labels"))
    # (N, H, W, 3) color stack; 3D volume stacks are (N, D, H, W) with W != 3
    rgb_to_gray = images.ndim == 4 and images.shape[-1] == 3
    if rgb_to_gray:
        images = grayscale_convert(images)
    if images.ndim not in (3, 4):
        raise ShapeError(f"image stack must be (N, ...2D/3D), got shape {images.shape}")
    volumes = [normalize(Volume(img)) for img in images.astype(np.float64)]
    return Dataset(volumes=volumes, labels=labels, split=split, rgb_to_gray=rgb_to_gray)
