import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vsabench.errors import (
    BadMagicError,
    CorruptContentError,
    DimensionOverflowError,
    InvalidArgumentError,
    TruncatedPayloadError,
    VersionError,
    VsafError,
)
from vsabench.vsaf import (
    FeatureMapLayer,
    FeatureMapSet,
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


def test_written_bytes_follow_the_layout(tmp_path):
    # the expected file is joined here from the layout in the module docstring
    rng = np.random.default_rng(2)
    layers = [
        ("conv1", rng.standard_normal((3, 4, 5)).astype(np.float32)),
        ("\u00e9t\u00e9", rng.standard_normal((2, 6, 4))[:, ::2, :]),  # float64, not contiguous
        ("tiny", np.full((1, 1, 1), -2.5, dtype=">f4")),
    ]
    head, body = [b"VSAF", struct.pack("<II", 1, len(layers))], []
    for name, data in layers:
        raw = name.encode("utf-8")
        head += [struct.pack("<H", len(raw)), raw, struct.pack("<III", *data.shape)]
        body.append(np.asarray(data, dtype="<f4").tobytes())
    path = tmp_path / "layout.vsaf"
    write_feature_file(FeatureMapSet(tuple(FeatureMapLayer(n, d) for n, d in layers)), path)
    assert path.read_bytes() == b"".join(head + body)


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_feature_map_set_beyond_float32_range_rejected():
    with pytest.raises(VsafError, match="layer 'a' has entries beyond the float32 limit of 3.40282e"):
        feature_map_set([("a", np.full((1, 1, 1), 1e39))])
    with pytest.raises(VsafError, match="float32 limit"):
        feature_map_set([("ok", np.ones((1, 1, 1))), ("a", [[[1.0, -1e39]]])])
    assert feature_map_set([("a", np.full((1, 1, 1), 3.4e38))]).layers[0].data[0, 0, 0] == np.float32(3.4e38)


def layer_header(name: bytes, h: int, w: int, c: int) -> bytes:
    return struct.pack("<H", len(name)) + name + struct.pack("<III", h, w, c)


@pytest.mark.parametrize("blob", [
    b"VSAF" + struct.pack("<II", 1, 1) + layer_header(b"\xff", 1, 1, 1) + np.float32(1).tobytes(),
    b"VSAF" + struct.pack("<II", 1, 2) + layer_header(b"a", 1, 1, 1) * 2 + np.ones(2, "<f4").tobytes(),
    b"VSAF" + struct.pack("<II", 1, 1) + layer_header(b"a", 1, 1, 2) + np.array([1, np.nan], "<f4").tobytes(),
    b"VSAF" + struct.pack("<II", 1, 1) + layer_header(b"a", 1, 1, 1) + np.float32(np.inf).tobytes(),
], ids=["non-utf8-name", "duplicate-names", "nan-value", "inf-value"])
def test_corrupt_content_raises_vsaf_error(blob, tmp_path):
    path = tmp_path / "corrupt.vsaf"
    path.write_bytes(blob)
    with pytest.raises(CorruptContentError):
        read_feature_file(path)


def test_hypervector_layout_mismatch_raises_vsaf_error(tmp_path):
    path = tmp_path / "features.vsaf"
    write_feature_file(sample_set(np.random.default_rng(4)), path)
    with pytest.raises(CorruptContentError, match="1 x count x dim"):
        read_hypervectors(path)


def valid_files():
    """Bytes of a small valid hypervector file or multi-layer feature file."""
    hv = st.tuples(st.integers(1, 3), st.integers(1, 4)).map(
        lambda shape: ("hypervectors", np.arange(shape[0] * shape[1], dtype=np.float32).reshape(1, *shape)))
    features = st.lists(st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3).map(
        lambda shapes: [(f"layer{i}", np.ones(shape, np.float32)) for i, shape in enumerate(shapes)])
    return st.one_of(hv.map(lambda layer: [layer]), features)


def mutations(blob: bytes, header_len: int):
    """Truncations, bit flips, and 0xff header bytes (inflated counts, name lengths and dimensions)."""
    n = len(blob)
    truncate = st.integers(0, n - 1).map(lambda k: blob[:k])
    flip = st.tuples(st.integers(0, n - 1), st.integers(0, 7)).map(
        lambda ib: blob[: ib[0]] + bytes([blob[ib[0]] ^ (1 << ib[1])]) + blob[ib[0] + 1 :])
    inflate = st.sets(st.integers(4, header_len - 1), min_size=1, max_size=4).map(
        lambda idx: bytes(0xFF if i in idx else b for i, b in enumerate(blob)))
    return st.one_of(truncate, flip, inflate)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), layers=valid_files())
def test_fuzzed_bytes_raise_only_vsaf_errors(data, layers, tmp_path):
    path = tmp_path / "fuzz.vsaf"
    write_feature_file(feature_map_set(layers), path)
    blob = path.read_bytes()
    path.write_bytes(data.draw(mutations(blob, len(blob) - sum(4 * a.size for _, a in layers))))
    for read in (read_feature_file, read_hypervectors):
        try:
            read(path)
        except VsafError:
            pass
