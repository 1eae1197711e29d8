import struct

import numpy as np
import pytest

from vsabench.errors import (
    BadMagicError,
    DimensionOverflowError,
    InvalidArgumentError,
    TruncatedPayloadError,
    VersionError,
    VsafError,
)
from vsabench.vsaf import (
    feature_map_set,
    read_feature_file,
    read_hypervectors,
    write_feature_file,
    write_hypervectors,
)


def sample_set(rng):
    return feature_map_set([
        ("conv1", rng.standard_normal((4, 4, 3))),
        ("conv2", rng.standard_normal((2, 2, 8))),
        ("tiny", rng.standard_normal((1, 1, 1))),
    ])


def test_round_trip_bit_exact(tmp_path):
    fm = sample_set(np.random.default_rng(0))
    path = tmp_path / "features.vsaf"
    write_feature_file(fm, path)
    back = read_feature_file(path)
    assert [l.name for l in back.layers] == [l.name for l in fm.layers]
    for a, b in zip(fm.layers, back.layers):
        assert b.data.dtype == np.float32
        np.testing.assert_array_equal(a.data, b.data)


def test_round_trip_stable_bytes(tmp_path):
    fm = sample_set(np.random.default_rng(1))
    p1, p2 = tmp_path / "a.vsaf", tmp_path / "b.vsaf"
    write_feature_file(fm, p1)
    write_feature_file(read_feature_file(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.vsaf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(BadMagicError):
        read_feature_file(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v9.vsaf"
    path.write_bytes(b"VSAF" + struct.pack("<II", 9, 0))
    with pytest.raises(VersionError):
        read_feature_file(path)


def test_truncated_payload(tmp_path):
    fm = sample_set(np.random.default_rng(2))
    path = tmp_path / "trunc.vsaf"
    write_feature_file(fm, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(TruncatedPayloadError):
        read_feature_file(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.vsaf"
    path.write_bytes(b"VSAF" + struct.pack("<I", 1))
    with pytest.raises(TruncatedPayloadError):
        read_feature_file(path)


def test_dimension_overflow(tmp_path):
    path = tmp_path / "huge.vsaf"
    header = b"VSAF" + struct.pack("<II", 1, 1)
    header += struct.pack("<H", 1) + b"x" + struct.pack("<III", 70000, 70000, 70000)
    path.write_bytes(header)
    with pytest.raises(DimensionOverflowError):
        read_feature_file(path)


def test_zero_dimension_rejected(tmp_path):
    path = tmp_path / "zero.vsaf"
    header = b"VSAF" + struct.pack("<II", 1, 1)
    header += struct.pack("<H", 1) + b"x" + struct.pack("<III", 0, 2, 2)
    path.write_bytes(header)
    with pytest.raises(DimensionOverflowError):
        read_feature_file(path)


def test_duplicate_layer_names_rejected():
    with pytest.raises(InvalidArgumentError):
        feature_map_set([("a", np.ones((1, 1, 1))), ("a", np.ones((1, 1, 1)))])


def test_hypervector_round_trip(tmp_path):
    hvs = np.random.default_rng(3).integers(0, 2, size=(5, 64)).astype(np.float64) * 2 - 1
    path = tmp_path / "hv.vsaf"
    write_hypervectors(hvs, path)
    back = read_hypervectors(path)
    assert back.shape == (5, 64)
    np.testing.assert_array_equal(back, hvs)  # bipolar values are exact in float32


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hypervectors_beyond_float32_range_rejected(tmp_path):
    path = tmp_path / "hv.vsaf"
    with pytest.raises(VsafError, match="float32 limit of 3.40282e"):
        write_hypervectors(np.array([[1.0, -1e39]]), path)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        write_hypervectors(np.array([[1.0, -np.inf]]), path)
    assert not path.exists()
    write_hypervectors(np.array([[1.0, -3.4e38]]), path)
