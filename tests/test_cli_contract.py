"""The CLI's exit-code contract under malformed input.

Each example starts from arguments that every subcommand accepts, spoils one
thing (a flag, a config-file value or key, or the bytes of an input file) and
checks that the command exits with the code of the stage that fails, prints
nothing on stdout, ends stderr with the error line and raises no exception,
so a user never sees a traceback:

- 1 (usage) for a bad argv, or a flag its converter rejects;
- 3 (config) for a spoiled config file, key or value, or a flag value the
  converter accepts and a value rule rejects (``bench --grid x``);
- 2 (data) for a spoiled input file, or a path (flag or config value) in a
  missing directory.
"""

import contextlib
import io
import json
import math
import string
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vsabench.cli import OPTIONS, _Choice, _grid, _int_list, _path, main
from vsabench.hv import as_float, as_int

NAN, INF = math.nan, math.inf

# Flag texts and config-file values that each kind of option rejects. None of
# them is a valid value of the wrong size: a fuzzer that could ask for a huge
# dim would allocate it.
BAD_TEXT = {
    "int": ["", "x", "1.5", "nan", "inf", "-inf", "1,2", "[]", "true"],
    "float": ["", "x", "nan", "inf", "-inf", "1e999", "1,2", "[]", "true"],
    "choice": ["", "x", "NaN", "none,sign"],
    "path": ["", "{tmp}/missing/x.vsaf"],
    "int_list": ["", "2,,1", ",", "a", "1.5", "nan", "inf", "[2]"],
    "grid": ["", "16,,32", ",", "x", "nan", "inf", "-inf", "1.5"],
}
BAD_JSON = {
    "int": [NAN, INF, -INF, 1.5, "x", "1.5", [], [1, [2]], {}, True, None],
    "float": [NAN, INF, -INF, "x", "nan", [], [1, [2]], {}, True, None],
    "choice": ["x", "", 1, [], None, True, NAN],
    "path": ["", 5, 1.5, [], None, True, {}, "a\u0000b", "{tmp}/missing/x.vsaf"],
    "int_list": ["", "2,,1", [], [1.5], ["x"], [[2], [1, 1]], [NAN], [INF], 2, NAN, {}, None, True],
    "grid": ["", "16,,32", [], [NAN], [INF], [-INF], [[16]], [None], ["x"], [1.5], [True], {}, None, NAN, 16],
}
BAD_CONFIG_FILES = ["", "{", "[1, 2]", "null", "NaN", '"dim"', '{"dim": }', b"\xff\xfe{}", "[" * 100_000,
                    '{"dim": ' + "9" * 5000 + "}"]


def kind(option) -> str:
    if isinstance(option.convert, _Choice):
        return "choice"
    return {as_int: "int", as_float: "float", _path: "path", _int_list: "int_list", _grid: "grid"}[option.convert]


def flag(option) -> str:
    return option.flag or "--" + option.key.replace("_", "-")


def vsaf_bytes(layers) -> bytes:
    """A VSAF file of (name, H x W x C array) layers, written byte by byte so that
    it can hold what the writer refuses, such as NaN."""
    out = [b"VSAF", struct.pack("<II", 1, len(layers))]
    for name, a in layers:
        out += [struct.pack("<H", len(name)), name.encode(), struct.pack("<III", *a.shape)]
    return b"".join(out + [np.asarray(a, "<f4").tobytes() for _, a in layers])


def stack(count=3, dim=16, seed=0):
    return np.random.default_rng(seed).standard_normal((1, count, dim))


# Valid inputs: the files each subcommand reads, and its other arguments.
FILES = {
    "encode": {"--features-in": [("conv1", np.linspace(0.5, 1.5, 32).reshape(4, 4, 2)),
                                 ("conv2", np.linspace(-1.5, -0.5, 8).reshape(2, 2, 2))]},
    "map": {"--src": [("hypervectors", stack(seed=1))], "--tgt": [("hypervectors", stack(seed=2))]},
    "loss": {"--x": [("hypervectors", stack(seed=3))], "--cycled": [("hypervectors", stack(seed=4))]},
    "bench": {},
}
SCORES = {"--scores-real": "[0.9, 0.8]", "--scores-fake-translated": "[0.2]", "--scores-fake-mapped": "[0.3, 0.1]"}
ARGS = {
    "encode": {"--patch-sizes": "2,1", "--dim": "16", "--out": "{tmp}/out.vsaf"},
    "map": {"--out": "{tmp}/out.vsaf"},
    "loss": {"--variant": "nll"},
    "bench": {"--grid": "16", "--trials": "1"},
}


def spoiled_file(draw, command, name):
    """The bytes of the named input with one defect that the command rejects."""
    layers = FILES[command][name]
    defects = ["non-finite", "truncated", "bad magic", "misshapen"]
    if command != "map":  # zero patches and zero rows are invalid input to encode and loss, not to map
        defects.append("zero")
    defect = draw(st.sampled_from(defects))
    if defect == "non-finite":
        (layer_name, a), *rest = layers
        a = a.copy()
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from([NAN, INF, -INF]))
        return vsaf_bytes([(layer_name, a), *rest])
    if defect == "zero":
        return vsaf_bytes([(n, np.zeros_like(a)) for n, a in layers])
    if defect == "truncated":
        blob = vsaf_bytes(layers)
        return blob[: draw(st.integers(0, len(blob) - 1))]
    if defect == "bad magic":
        return b"JUNK" + vsaf_bytes(layers)[4:]
    # misshapen: a grid the patch sides do not tile, or a stack of another count,
    # dim or layout than its partner file
    if command == "encode":
        return vsaf_bytes(draw(st.sampled_from([
            [("conv1", np.ones((3, 4, 2))), layers[1]],
            [layers[0]],
            [layers[0], layers[1], ("conv3", np.ones((2, 2, 1)))],
        ])))
    a = layers[0][1]
    return vsaf_bytes(draw(st.sampled_from([
        [("hypervectors", a[:, :2])],
        [("hypervectors", a[:, :, :15])],
        [("hypervectors", np.concatenate([a, a]))],
        [("hypervectors", a), ("extra", a)],
    ])))


def valid_files(command) -> dict:
    """The bytes of each input file the command reads, by flag."""
    files = {name: vsaf_bytes(layers) for name, layers in FILES[command].items()}
    if command == "loss":
        files.update((name, text.encode()) for name, text in SCORES.items())
    return files


@st.composite
def malformed(draw, command):
    """(file bytes by flag, flags, config-file text or None, expected exit code), with one defect."""
    files, args, config, code = valid_files(command), dict(ARGS[command]), None, 3
    options = OPTIONS[command]
    defects = ["flag", "config value", "config key", "config file", "argv"] + (["input"] if files else [])
    defect = draw(st.sampled_from(defects))
    if defect == "flag":
        option = draw(st.sampled_from(options))
        files.pop(flag(option), None)
        args[flag(option)] = text = draw(st.sampled_from(BAD_TEXT[kind(option)]))
        try:
            option.convert(text)
        except ValueError:
            code = 1
        else:  # argparse reads "-inf" as an option, which leaves the flag without its value
            code = 1 if text.startswith("-") else 2 if kind(option) == "path" else 3
    elif defect == "config value":  # with no flag to override it
        option = draw(st.sampled_from(options))
        files.pop(flag(option), None)
        args.pop(flag(option), None)
        value = draw(st.sampled_from(BAD_JSON[kind(option)]))
        config = json.dumps({option.key: value})
        code = 2 if value == "{tmp}/missing/x.vsaf" else 3
    elif defect == "config key":
        keys = {option.key for option in options}
        key = draw(st.text(string.ascii_lowercase + "_-", min_size=1, max_size=12).filter(lambda k: k not in keys))
        config = json.dumps({key: draw(st.sampled_from([1, "x", None, [1]]))})
    elif defect == "config file":
        config = draw(st.sampled_from(BAD_CONFIG_FILES))
    elif defect == "argv":
        args[draw(st.sampled_from(["--bogus", "--dimm", "-x", "--config"]))] = None
        code = 1
    else:
        code = 2
        name = draw(st.sampled_from(sorted(files)))
        if name.startswith("--scores"):
            files[name] = draw(st.sampled_from([b"", b"[]", b"[NaN]", b"[0.5, [1]]", b'"x"', b"[true]", b"{}",
                                                b'["0.5"]', b"\xff\xfe[0.5]", b"[" * 100_000,
                                                b"[" + b"9" * 5000 + b"]"]))
        else:
            files[name] = spoiled_file(draw, command, name)
    return files, args, config, code


def run(command, files, args, config, tmp: Path):
    argv = [command]
    for name, blob in files.items():
        path = tmp / (name.strip("-") + ".in")
        path.write_bytes(blob)
        argv += [name, str(path)]
    for name, value in args.items():
        argv += [name] if value is None else [name, value.replace("{tmp}", str(tmp))]
    if config is not None:
        path = tmp / "config.json"
        path.write_bytes(config if isinstance(config, bytes) else config.replace("{tmp}", str(tmp)).encode())
        argv += ["--config", str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(FILES))
def test_the_unspoiled_arguments_succeed(command, tmp_path):
    code, out, err = run(command, valid_files(command), ARGS[command], None, tmp_path)
    assert code == 0, err
    assert out


@settings(max_examples=120)
@given(st.sampled_from(sorted(FILES)).flatmap(lambda command: st.tuples(st.just(command), malformed(command))))
def test_malformed_input_exits_1_2_or_3(case):
    command, (files, args, config, expected) = case
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = run(command, files, args, config, Path(tmp))
    assert code == expected, (code, err)
    assert out == ""
    assert err.splitlines()[-1].startswith({1: "usage error: ", 2: "data error: ", 3: "config error: "}[code])
    assert "Traceback" not in err
