"""VSAF binary tensor files.

Layout (all integers little-endian):

    magic ``VSAF`` | u32 version (=1) | u32 layer count
    per layer: u16 name length | UTF-8 name | u32 H | u32 W | u32 C
    then per layer, in header order: H*W*C little-endian float32 values,
    row-major (row, then column, then channel).

Round-trips are bit-exact for float32 payloads.
"""

from __future__ import annotations

import math
import os
import stat
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    CorruptContentError,
    DimensionOverflowError,
    InvalidArgumentError,
    TruncatedPayloadError,
    VersionError,
    VsafError,
)
from .hv import as_hypervectors, check_rows

MAGIC = b"VSAF"
VERSION = 1

# cap on H*W*C to bound allocation from a hostile or corrupt header
MAX_ELEMENTS = 2**31
FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class FeatureMapLayer:
    """One named H x W x C float32 tensor."""

    name: str
    data: np.ndarray  # shape (H, W, C), float32


@dataclass(frozen=True)
class FeatureMapSet:
    """Ordered list of uniquely named feature map layers."""

    layers: tuple[FeatureMapLayer, ...]

    def __post_init__(self):
        names = [l.name for l in self.layers]
        if len(set(names)) != len(names):
            raise InvalidArgumentError(f"layer names must be unique, got {names}")
        for layer in self.layers:
            if layer.data.ndim != 3 or min(layer.data.shape) < 1:
                raise InvalidArgumentError(
                    f"layer {layer.name!r} must be H x W x C with all dims >= 1, "
                    f"got shape {layer.data.shape}"
                )
            check_rows(layer.data.reshape(-1, layer.data.shape[2]), noun=f"layer {layer.name!r} entries")


def feature_map_set(named_tensors) -> FeatureMapSet:
    """Build a FeatureMapSet from (name, array) pairs, converting to float32.

    Each entry is rounded to the nearest float32 (relative error at most 2^-24).
    A finite entry beyond the float32 range would become infinite and is rejected.
    """
    layers = []
    for name, data in named_tensors:
        try:
            with np.errstate(over="raise"):
                data = np.ascontiguousarray(data, dtype=np.float32)
        except FloatingPointError as exc:
            raise VsafError(f"layer {name!r} has entries beyond the float32 limit of {FLOAT32_MAX:g}") from exc
        layers.append(FeatureMapLayer(name, data))
    return FeatureMapSet(tuple(layers))


def write_feature_file(fm: FeatureMapSet, path) -> None:
    """Write the header, then each layer's payload straight from its array, with no joined copy."""
    header = [MAGIC, struct.pack("<II", VERSION, len(fm.layers))]
    for layer in fm.layers:
        name_bytes = layer.name.encode("utf-8")
        if len(name_bytes) > 0xFFFF:
            raise InvalidArgumentError(f"layer name too long: {len(name_bytes)} bytes")
        header += [struct.pack("<H", len(name_bytes)), name_bytes, struct.pack("<III", *layer.data.shape)]
    with open(path, "wb") as f:
        f.write(b"".join(header))
        for layer in fm.layers:
            f.write(memoryview(np.ascontiguousarray(layer.data, dtype="<f4")).cast("B"))


class _Reader:
    """Reads a file object front to back. Given its size, it checks each request against
    that size before it reads or allocates anything; a stream of unknown size (a pipe or
    a device) has each payload read in bounded chunks, so it is allocated as it arrives."""

    def __init__(self, f, size: int | None):
        self.f = f
        self.size = size
        self.pos = 0

    def _claim(self, count: int) -> None:
        if self.size is not None and self.pos + count > self.size:
            raise TruncatedPayloadError(f"need {count} bytes at offset {self.pos}, file has {self.size}")
        self.pos += count

    def _check(self, got: int, count: int) -> None:
        if got != count:  # a stream ended, or the file shrank after its size was taken
            raise TruncatedPayloadError(f"read {got} of {count} bytes before offset {self.pos}")

    def take(self, count: int) -> bytes:
        self._claim(count)
        out = self.f.read(count)
        self._check(len(out), count)
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_float32(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next payload of this shape, read straight into a new little-endian float32 array."""
        count = 4 * math.prod(shape)
        self._claim(count)
        if self.size is None:
            blob = bytearray()
            while len(blob) < count and (chunk := self.f.read(min(count - len(blob), 1 << 20))):
                blob += chunk
            self._check(len(blob), count)
            data = np.frombuffer(blob, dtype="<f4").reshape(shape)
        else:
            data = np.empty(shape, dtype="<f4")
            self._check(self.f.readinto(memoryview(data).cast("B")), count)
        return data.astype(np.float32, copy=False)  # a no-op on little-endian hosts


def read_feature_file(path) -> FeatureMapSet:
    """Read a VSAF file; each payload of a regular file is checked against the file size,
    then read straight into its array, so it is allocated once and copied once. A pipe or
    device has no size to check against, so its payloads are read in bounded chunks, and
    one more byte is read to check that it ends with its last payload, as a file must."""
    with open(path, "rb") as f:
        st = os.fstat(f.fileno())
        reader = _Reader(f, st.st_size if stat.S_ISREG(st.st_mode) else None)
        magic = reader.take(4)
        if magic != MAGIC:
            raise BadMagicError(f"expected magic {MAGIC!r}, got {magic!r}")
        (version, layer_count) = reader.unpack("<II")
        if version != VERSION:
            raise VersionError(f"unsupported VSAF version {version} (expected {VERSION})")

        headers = []
        for _ in range(layer_count):
            (name_len,) = reader.unpack("<H")
            try:
                name = reader.take(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CorruptContentError(f"layer name is not UTF-8: {exc}") from exc
            h, w, c = reader.unpack("<III")
            if h < 1 or w < 1 or c < 1:
                raise DimensionOverflowError(f"layer {name!r} declares zero dimension {h}x{w}x{c}")
            if h * w * c > MAX_ELEMENTS:
                raise DimensionOverflowError(
                    f"layer {name!r} declares {h}x{w}x{c} = {h * w * c} elements (cap {MAX_ELEMENTS})"
                )
            headers.append((name, h, w, c))

        layers = [FeatureMapLayer(name, reader.take_float32((h, w, c))) for name, h, w, c in headers]
        if (reader.pos != reader.size) if reader.size is not None else f.read(1):  # a joined file, say
            raise CorruptContentError(f"bytes follow the last payload at offset {reader.pos}")
    try:
        return FeatureMapSet(tuple(layers))
    except InvalidArgumentError as exc:
        raise CorruptContentError(str(exc)) from exc


HYPERVECTOR_LAYER = "hypervectors"


def write_hypervectors(hvs, path, layer_name: str = HYPERVECTOR_LAYER) -> None:
    """Serialize a (count, dim) stack of hypervectors as a 1 x count x dim layer,
    rounded to float32 as ``feature_map_set`` rounds."""
    stack = np.atleast_2d(as_hypervectors(hvs))
    write_feature_file(feature_map_set([(layer_name, stack[np.newaxis, :, :])]), path)


def read_hypervectors(path) -> np.ndarray:
    """Read a hypervector file back as its (count, dim) float32 payload, checked finite."""
    fm = read_feature_file(path)
    if len(fm.layers) != 1 or fm.layers[0].data.shape[0] != 1:
        raise CorruptContentError(
            f"expected a single 1 x count x dim layer, got "
            f"{[(l.name, l.data.shape) for l in fm.layers]}"
        )
    return fm.layers[0].data[0]
