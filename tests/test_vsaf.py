import os
import stat
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vsabench import vsaf
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

from test_hv import float32_stack, raised


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


def test_oversized_declared_payload_is_rejected_before_allocation(tmp_path):
    # a 1 GiB layer declared in a file that holds one float of it
    path = tmp_path / "short.vsaf"
    path.write_bytes(b"VSAF" + struct.pack("<II", 1, 2) + layer_header(b"a", 1, 1, 1)
                     + layer_header(b"b", 1, 2**14, 2**14) + np.ones(2, "<f4").tobytes())
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedPayloadError, match=f"need {2**30} bytes"):
            read_feature_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("cut", [10, -5], ids=["in-header", "in-payload"])
def test_file_shorter_than_its_stat_size_raises_truncated(cut, tmp_path, monkeypatch):
    # as when the file shrinks between the size check and the reads
    path = tmp_path / "shrunk.vsaf"
    write_feature_file(sample_set(np.random.default_rng(3)), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:cut])
    stat_result = SimpleNamespace(st_size=size, st_mode=stat.S_IFREG)
    monkeypatch.setattr(vsaf, "os", SimpleNamespace(fstat=lambda fd: stat_result))
    with pytest.raises(TruncatedPayloadError, match="bytes before offset"):
        read_feature_file(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("cut", [None, -5], ids=["whole", "truncated"])
def test_pipe_is_read_like_a_file(cut, tmp_path):
    # a pipe has no size to check against, so the reader takes it whole first
    path, fifo = tmp_path / "features.vsaf", tmp_path / "pipe"
    fm = sample_set(np.random.default_rng(5))
    write_feature_file(fm, path)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()[:cut]), daemon=True)
    writer.start()
    try:
        if cut is None:
            back = read_feature_file(fifo)
            for a, b in zip(fm.layers, back.layers):
                assert a.data.tobytes() == b.data.tobytes()
        else:
            with pytest.raises(TruncatedPayloadError):
                read_feature_file(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


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


class TestFloat32Stacks:
    """A float32 stack is written without a float64 round trip, and read back as float32."""

    @pytest.mark.parametrize("shape", [(7, 1031), (64,)])
    def test_written_bytes_match_widened(self, shape, tmp_path):
        hvs = float32_stack(shape, 1)
        write_hypervectors(hvs, tmp_path / "narrow.vsaf")
        write_hypervectors(hvs.astype(np.float64), tmp_path / "wide.vsaf")
        assert (tmp_path / "narrow.vsaf").read_bytes() == (tmp_path / "wide.vsaf").read_bytes()

    def test_read_returns_the_float32_payload(self, tmp_path):
        hvs = float32_stack((7, 1031), 2)
        write_hypervectors(hvs, tmp_path / "hv.vsaf")
        back = read_hypervectors(tmp_path / "hv.vsaf")
        assert back.dtype == np.float32 and back.flags.c_contiguous
        assert back.tobytes() == hvs.tobytes()

    def test_errors_match_widened(self, tmp_path):
        bad = float32_stack((4, 16), 3)
        bad[2, 1] = np.inf
        write = lambda v: write_hypervectors(v, tmp_path / "hv.vsaf")
        for hvs, named in ((bad, "must be finite"), (bad[np.newaxis], "(count, dim) stack"), (bad[:0], "nonempty")):
            got = raised(write, hvs)
            assert got == raised(write, hvs.astype(np.float64))
            assert named in got[1]
        assert not (tmp_path / "hv.vsaf").exists()


@pytest.mark.parametrize("hvs", [1.0, np.float32(1.0), np.array(2.0)])
def test_scalar_is_not_a_hypervector_stack(tmp_path, hvs):
    with pytest.raises(InvalidArgumentError, match=r"nonempty \(dim,\) vector or \(count, dim\) stack"):
        write_hypervectors(hvs, tmp_path / "hv.vsaf")
    assert not (tmp_path / "hv.vsaf").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_hypervectors_beyond_float32_range_rejected(tmp_path):
    path = tmp_path / "hv.vsaf"
    with pytest.raises(VsafError, match="float32 limit of 3.40282e"):
        write_hypervectors(np.array([[1.0, -1e39]]), path)
    with pytest.raises(InvalidArgumentError, match="must be finite"):
        write_hypervectors(np.array([[1.0, -np.inf]]), path)
    assert not path.exists()
    write_hypervectors(np.array([[1.0, -3.4e38]]), path)


@pytest.mark.parametrize("hvs", ["ab", [[1.0], [1.0, 2.0]], {"a": 1}])
def test_ragged_or_non_numeric_hypervectors_rejected(tmp_path, hvs):
    path = tmp_path / "hv.vsaf"
    with pytest.raises(InvalidArgumentError, match="equal-length"):
        write_hypervectors(hvs, path)
    assert not path.exists()


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


def test_non_finite_stack_row_is_named(tmp_path):
    hvs = np.ones((3, 4))
    hvs[1, 2] = np.nan
    with pytest.raises(InvalidArgumentError, match=r"layer 'hypervectors' entries must be finite \(rows \[1\]\)"):
        write_hypervectors(hvs, tmp_path / "hv.vsaf")
    path = tmp_path / "corrupt.vsaf"
    path.write_bytes(b"VSAF" + struct.pack("<II", 1, 1) + layer_header(b"hypervectors", 1, 3, 4)
                     + hvs.astype("<f4").tobytes())
    with pytest.raises(CorruptContentError, match=r"rows \[1\]"):
        read_hypervectors(path)


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
