"""Dataset ingestion: NPY/NPZ readers, grayscale conversion, normalization.

NPY headers are read with numpy.lib.format, but the accepted set
is deliberately narrow: C-order u8/f32/f64 only, versions 1.0 and 2.0.
Anything else errors loudly instead of guessing. NPZ archives are plain ZIP
containers; only the stored and deflate methods are accepted.

A split is read as one stack in its stored dtype (read_split), the payload
decompressed straight into the array, and turned into normalized grayscale
Volumes CHUNK samples at a time (to_volumes), so no float64 copy of a whole
colour stack is ever made.
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

# the only element types we decode
_SUPPORTED_DTYPES = (np.dtype("u1"), np.dtype("<f4"), np.dtype("<f8"))
_HEADER_READERS = {
    (1, 0): npy_format.read_array_header_1_0,
    (2, 0): npy_format.read_array_header_2_0,
}

# ITU-R BT.601 luminance weights, fixed for determinism
LUMA_WEIGHTS = (0.299, 0.587, 0.114)
LABEL_RULE = "an integer in [0, 2**53)"  # is_label's rule, as errors state it

CHUNK = 64  # samples converted to Volumes (and extracted, by the CLI) at a time
_READ_BYTES = 1 << 20  # NPY payload bytes read per call


@dataclass(frozen=True)
class Volume:
    """An n-dimensional grayscale scalar field on a grid, n in {2, 3}.

    ``data`` is stored C-contiguous float64 and marked read-only. Values are
    raw (e.g. [0, 255]) until passed through :func:`normalize`.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.array(self.data, dtype=np.float64, order="C")  # a private copy
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
        labels = np.asarray(self.labels).reshape(-1)
        if len(self.volumes) == 0 or len(self.volumes) != labels.size:
            raise ParameterError(
                f"need equally many volumes and labels, nonzero; "
                f"got {len(self.volumes)} volumes, {labels.size} labels"
            )
        dims0 = self.volumes[0].dims
        for v in self.volumes:
            if v.dims != dims0:
                raise ShapeError(f"mixed volume dims: {v.dims} vs {dims0}")
        bad = np.flatnonzero(~is_label(labels))
        if len(bad):
            raise ParameterError(f"labels[{bad[0]}] is {labels[bad[0]]!r}, not {LABEL_RULE}")
        labels = labels.astype(np.int64)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.volumes)


def read_npy(data: bytes) -> np.ndarray:
    """Decode an NPY v1.0/v2.0 byte string into a C-order ndarray.

    Only u8/f32/f64, fortran_order=False. The payload must match the header's
    shape exactly; leftovers or truncation raise LengthError.
    """
    return _read_npy(io.BytesIO(data), len(data))


def _read_npy(fp, size: int) -> np.ndarray:
    """read_npy of the size-byte stream fp, its payload read into the array
    a megabyte at a time."""
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
    if size - fp.tell() != expected:  # checked before the header's shape is allocated
        raise LengthError(f"payload is {size - fp.tell()} bytes, expected {expected}")
    arr = np.empty(shape, dtype)
    raw = arr.reshape(-1).view(np.uint8)
    got = 0
    while got < expected:
        n = fp.readinto(raw[got : got + _READ_BYTES])
        if not n:
            raise LengthError(f"payload ended after {got} bytes, expected {expected}")
        got += n
    return arr


def read_npz(source, entry_name: str) -> np.ndarray:
    """Extract ``entry_name`` (without the .npy suffix) from an NPZ archive,
    given as bytes or as an open binary file."""
    try:
        zf = zipfile.ZipFile(io.BytesIO(source) if isinstance(source, bytes) else source)
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
            with zf.open(info) as fp:
                return _read_npy(fp, info.file_size)
        except (zipfile.BadZipFile, zlib.error, EOFError) as exc:
            raise FormatError(f"corrupt archive entry {entry_name!r}: {exc}") from exc


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


def is_label(values) -> np.ndarray:
    """Elementwise: is the value an integer in [0, 2**53)? The one label rule
    of datasets and feature files: below 2**53, GLF1's float64 holds every
    integer exactly. NaN and infinities fail."""
    values = np.asarray(values)
    return (values >= 0) & (values < 2**53) & (values == np.floor(values))


def _squeeze_labels(labels: np.ndarray, entry: str) -> np.ndarray:
    # MedMNIST-style label arrays are (N, 1); drop trailing singleton axes
    arr = np.asarray(labels)
    while arr.ndim > 1 and arr.shape[-1] == 1:
        arr = arr[..., 0]
    if arr.ndim != 1:
        raise ShapeError(f"labels must squeeze to 1D, got shape {labels.shape}")
    bad = np.flatnonzero(~is_label(arr))
    if len(bad):
        raise FormatError(f"{entry}[{bad[0]}] is {arr[bad[0]]!r}, not {LABEL_RULE}")
    return arr.astype(np.int64)


def read_split(path, split: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """One split of an NPZ dataset file: its image stack in the stored dtype,
    its integer labels, and whether a trailing colour axis is to be collapsed.

    Expects entries ``{split}_images`` and ``{split}_labels``. Labels, the
    stack's rank and the sample count are checked here; pixel values are
    checked by to_volumes.
    """
    with open(path, "rb") as fh:
        images = read_npz(fh, f"{split}_images")
        entry = f"{split}_labels"
        labels = _squeeze_labels(read_npz(fh, entry), entry)
    # (N, H, W, 3) color stack; 3D volume stacks are (N, D, H, W) with W != 3
    rgb_to_gray = images.ndim == 4 and images.shape[-1] == 3
    if images.ndim - rgb_to_gray not in (3, 4):
        raise ShapeError(f"image stack must be (N, ...2D/3D), got shape {images.shape}")
    if len(images) == 0 or len(images) != len(labels):
        raise ParameterError(
            f"need equally many volumes and labels, nonzero; "
            f"got {len(images)} volumes, {len(labels)} labels"
        )
    return images, labels, rgb_to_gray


def to_volumes(images: np.ndarray, rgb_to_gray: bool) -> list[Volume]:
    """Normalized grayscale Volumes of some samples of a read_split stack."""
    if rgb_to_gray:
        images = grayscale_convert(images)
    return [normalize(Volume(img)) for img in images.astype(np.float64)]


def load_dataset(path, split: str) -> Dataset:
    """Load one split (``train``/``val``/``test``) from an NPZ dataset file.

    Color images (trailing axis 3) are converted to grayscale; all
    intensities are then normalized to [0, 1].
    """
    images, labels, rgb_to_gray = read_split(path, split)
    volumes = [v for lo in range(0, len(images), CHUNK)
               for v in to_volumes(images[lo : lo + CHUNK], rgb_to_gray)]
    return Dataset(volumes=volumes, labels=labels, split=split, rgb_to_gray=rgb_to_gray)
