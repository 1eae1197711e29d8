"""Command-line front end.

Subcommands: ``encode`` (VSAF features -> patch hypervectors), ``map``
(paired or random hypervector mapping), ``loss`` (cyclic / adversarial /
total metrics as JSON), ``bench`` (sweep reports as CSV).

stdout carries only machine-readable results; diagnostics go to stderr.
Exit codes: 0 success, 1 usage, 2 data error, 3 config error. The stage that
fails decides 3 or 2: a command's rules stage (config file, value rules that
need no file) comes first, then its files stage (``--out``, inputs, the work,
writes). Seeds resolve as flag > config file > VSAIT_SEED env var > 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from . import bench as bench_mod
from . import lsh, mapping, vsaf
from .errors import InvalidArgumentError, VsabenchError, VsafError
from .hv import QUANTIZE_MODES, as_count, as_float, as_int, check_seed
from .losses import VARIANTS, LossConfig, _scores, gan_loss, total_loss, vsa_cyclic_loss
from .patches import PatchSpec, assemble_patches, block_lengths, normalize_blocks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFIG = 3

DEFAULT_DIM = 4096
JSON_CAP = 64 << 20  # bytes a config or score file may hold, so that a device such as /dev/zero is not read whole


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):  # -h's help is a result, so a write that fails raises, as in _emit
        _put(sys.stdout, "stdout", self.format_help())


def _path(value) -> str:
    if not isinstance(value, str) or not value or "\0" in value:
        raise InvalidArgumentError(f"must be a nonempty path with no NUL byte, got {value!r}")
    return value


def _tokens(text: str) -> list[str]:
    """Comma-separated tokens, stripped; an empty one is rejected, not dropped."""
    tokens = [tok.strip() for tok in text.split(",")]
    if "" in tokens:
        raise InvalidArgumentError(f"must be comma-separated values with none empty, got {text!r}")
    return tokens


def _int_list(value) -> list[int]:
    """Comma-separated text or a list, each entry an integer."""
    if isinstance(value, str):
        value = _tokens(value)
    if not isinstance(value, list):
        raise InvalidArgumentError(f"must be a list of integers, got {value!r}")
    return [as_int(v, "integers") for v in value]


def _grid(value) -> list:
    """Comma-separated text as its tokens, or a list as given: ``BenchConfig`` types each value."""
    if isinstance(value, str):
        return _tokens(value)
    if not isinstance(value, list):
        raise InvalidArgumentError(f"must be a list or comma-separated values, got {value!r}")
    return value


class _Choice(tuple):
    """A converter that accepts exactly its members."""

    def __call__(self, value):
        if value not in self:
            raise InvalidArgumentError(f"must be one of {', '.join(self)}, got {value!r}")
        return value


class Option(NamedTuple):
    """A subcommand option: config key, the converter that checks and types its flag text and
    config-file value, default, flag if not ``--key-with-dashes``, and whether a value is required."""

    key: str
    convert: Callable
    default: object = None
    help: str | None = None
    flag: str | None = None
    required: bool = False


def _field(config, key: str, convert: Callable, flag: str | None = None) -> Option:
    """The option that fills field ``key`` of a config dataclass, with that field's default."""
    return Option(key, convert, next(f.default for f in fields(config) if f.name == key), flag=flag)


_QUANTIZE = Option("quantize", _Choice(QUANTIZE_MODES), "none")
_SEED = Option("seed", as_int)

OPTIONS = {
    "encode": (
        Option("features_in", _path, required=True),
        Option("out", _path, required=True),
        Option("dim", as_int, DEFAULT_DIM, f"hypervector dimensionality (default {DEFAULT_DIM})"),
        _SEED,
        Option("sides", _int_list, help="comma-separated per-layer patch sides, e.g. 16,8,4", flag="--patch-sizes",
               required=True),
        Option("dilation", as_int, 1),
        _QUANTIZE,
        Option("norm_scope", _Choice(("vector", "per_layer")), "vector",
               "normalize the whole concatenated vector or each layer block first"),
    ),
    "map": (
        Option("src", _path, required=True),
        Option("tgt", _path),
        Option("out", _path, required=True),
        Option("mode", _Choice(("paired", "random")), "paired"),
        _QUANTIZE,
        _SEED,
    ),
    "loss": (
        Option("x", _path, required=True),
        Option("cycled", _path, required=True),
        Option("scores_real", _path),
        Option("scores_fake_translated", _path),
        Option("scores_fake_mapped", _path),
        _field(LossConfig, "lam", as_float, "--lambda"),
        _field(LossConfig, "variant", _Choice(VARIANTS)),
        _field(LossConfig, "w1", as_float),
        _field(LossConfig, "w2", as_float),
    ),
    "bench": (
        Option("axis", _Choice(bench_mod.SWEEP_AXES), "dim"),
        Option("grid", _grid, [128, 4096], "comma-separated axis values"),
        _field(bench_mod.BenchConfig, "dim", as_int),
        _field(bench_mod.BenchConfig, "k", as_int),
        _field(bench_mod.BenchConfig, "object_vocab_size", as_int, "--objects"),
        _field(bench_mod.BenchConfig, "attr_vocab_size", as_int, "--attrs"),
        _field(bench_mod.BenchConfig, "mapping", _Choice(bench_mod.MAPPING_KINDS)),
        _field(bench_mod.BenchConfig, "mix", as_float),
        _field(bench_mod.BenchConfig, "trials", as_int),
        _SEED,
        Option("out", _path),
    ),
}

_CONFIG = Option("config", str, help="JSON config file; flags override")
_FLAGS = {o.key: o.flag or "--" + o.key.replace("_", "-") for opts in OPTIONS.values() for o in (*opts, _CONFIG)}


def _unique(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a repeated key is rejected, not overwritten."""
    keys = sorted(key for key, _ in pairs)
    if repeated := sorted({a for a, b in zip(keys, keys[1:]) if a == b}):
        raise ValueError(f"repeated key(s) {', '.join(map(repr, repeated))}")
    return dict(pairs)


def _load_json(path: str, what: str):
    """The value of the UTF-8 JSON file at ``path``. A file that cannot be opened or read, one
    longer than ``JSON_CAP`` bytes, bytes that are not UTF-8, text that is not JSON or nests too
    deeply to parse, an object with a repeated key, and a path with a NUL byte all raise ``VsabenchError``."""
    try:
        with open(path, "rb") as f:  # in chunks, so a short file allocates no more than it holds
            blob = bytearray()
            while len(blob) <= JSON_CAP and (chunk := f.read(min(1 << 16, JSON_CAP + 1 - len(blob)))):
                blob += chunk
        if len(blob) > JSON_CAP:
            raise ValueError(f"longer than the cap of {JSON_CAP} bytes")
        return json.loads(blob.decode("utf-8"), object_pairs_hook=_unique)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: too long, not UTF-8, not JSON, a NUL byte
        raise VsabenchError(f"cannot read {what} {path} as UTF-8 JSON: {exc}") from exc


def _merged(args: argparse.Namespace, unread: Callable[[dict], dict] = lambda cfg: {}) -> dict:
    """Flags override config-file values, which override the table's defaults. A flag text its
    option's converter rejects is a usage error, decided first. A config-file key the subcommand does
    not define, or a value its converter rejects (even one a flag overrides), is a config error. So is
    a config-file key that ``unread(cfg)`` maps to the reason the chosen mode does not read it; as a
    flag, such an option is a usage error, and so is a required option that neither gives."""
    options = {opt.key: opt for opt in OPTIONS[args.command]}
    flags = {key: text for key, text in vars(args).items() if key in options and text is not None}
    for key, text in flags.items():
        try:
            flags[key] = options[key].convert(text)
        except ValueError as exc:
            raise UsageError(f"argument {_FLAGS[key]}: {exc}") from exc
    file_cfg = {} if args.config is None else _load_json(args.config, "config file")
    if not isinstance(file_cfg, dict):
        raise InvalidArgumentError(f"config file {args.config} must hold a JSON object")
    if unknown := sorted(set(file_cfg) - set(options)):
        raise InvalidArgumentError(f"unknown config key(s) {unknown} for {args.command}; its keys are {[*options]}")
    cfg = {key: opt.default for key, opt in options.items()}
    for key, value in file_cfg.items():
        try:
            cfg[key] = options[key].convert(value)
        except ValueError as exc:
            raise InvalidArgumentError(f"{key} {exc}") from exc
    cfg.update(flags)
    for key, reason in unread(cfg).items():
        if key in flags:
            raise UsageError(f"{_FLAGS[key]} is not read {reason}")
        if key in file_cfg:
            raise InvalidArgumentError(f"{key} is not read {reason}")
    if missing := [_FLAGS[key] for key, opt in options.items() if opt.required and cfg[key] is None]:
        raise UsageError(f"{args.command} requires {', '.join(missing)}")
    return cfg


def _resolve_seed(cfg: dict) -> int:
    """The flag or config seed, else ``VSAIT_SEED``, else 0, under ``hv.check_seed``."""
    if cfg["seed"] is not None:
        return check_seed(cfg["seed"])
    try:
        return check_seed(as_int(os.environ.get("VSAIT_SEED", 0)))
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"VSAIT_SEED {exc}") from exc


def _check_out(path: str) -> None:
    """Fail before any work unless ``path`` names a file that can be written:
    its directory exists and is writable, and it is not itself a directory.
    Nothing is created or truncated."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        problem = "it is a directory"
    elif not os.path.isdir(parent):
        problem = f"no such directory {parent}"
    elif not os.access(parent, os.W_OK | os.X_OK):
        problem = f"directory {parent} is not writable"
    else:
        return
    raise VsafError(f"cannot write {path}: {problem}")


def _write(write, path: str) -> None:
    """Run ``write(path)``. An OSError becomes a data error, and a regular file
    the write opened but did not finish is removed."""
    try:
        write(path)
    except OSError as exc:
        # open() names the path in its error; a failed write or close does not
        if exc.filename is None and os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        raise VsafError(f"cannot write {path}: {exc}") from exc


def _put(stream, name: str, text: str) -> None:
    """Write and flush ``text`` on a standard stream; an OSError is raised."""
    if stream is None:  # Python found its fd closed at startup
        raise OSError(f"{name} is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        with open(os.devnull, "wb") as null:  # so that Python's flush at exit cannot fail again
            os.dup2(null.fileno(), stream.fileno())
        raise


def _emit(text: str) -> None:
    """Write and flush a result on stdout; an OSError is raised to ``main`` as a files-stage fault."""
    _put(sys.stdout, "stdout", text)


def _diagnose(text: str) -> None:
    """Write a diagnostic line on stderr; one that cannot be written is dropped, and fails nothing."""
    with contextlib.suppress(OSError):
        _put(sys.stderr, "stderr", text + "\n")


def cmd_encode(args) -> Iterator[None]:
    """project VSAF feature maps to patch hypervectors"""
    cfg = _merged(args)
    seed, dim = _resolve_seed(cfg), as_count(cfg["dim"], "dim")
    spec = PatchSpec(sides=cfg["sides"], dilation=cfg["dilation"])
    lsh.LshProjector(m=1, n=dim, seed=seed)  # the projector's cap, for the least m
    yield
    _check_out(cfg["out"])
    fm = vsaf.read_feature_file(cfg["features_in"])
    patches = assemble_patches(fm, spec)
    if cfg["norm_scope"] == "per_layer":
        patches = normalize_blocks(patches, block_lengths(fm, spec))

    projector = lsh.new_projector(m=patches.m, n=dim, seed=seed)
    hvs = lsh.project_batch(projector, patches, quantize=cfg["quantize"])
    _write(lambda out: vsaf.write_hypervectors(hvs, out), cfg["out"])
    _emit(json.dumps(dict(patch_count=patches.patch_count, m=patches.m, n=dim, seed=seed), sort_keys=True) + "\n")


def cmd_map(args) -> Iterator[None]:
    """build a paired or random hypervector mapping"""
    cfg = _merged(args, lambda cfg: {} if cfg["mode"] == "paired"
                  else dict.fromkeys(("tgt", "quantize"), "in random mode"))
    if cfg["mode"] == "paired" and cfg["tgt"] is None:
        raise UsageError("map --mode paired requires --tgt")
    seed = _resolve_seed(cfg)
    yield
    _check_out(cfg["out"])
    src = vsaf.read_hypervectors(cfg["src"])
    if cfg["mode"] == "paired":
        tgt = vsaf.read_hypervectors(cfg["tgt"])
        u = mapping.estimate_mapping_paired(src, tgt, quantize=cfg["quantize"])
    else:
        u = mapping.random_mapping(patch_count=src.shape[0], dim=src.shape[1], seed=seed)

    _write(lambda out: vsaf.write_hypervectors(u.per_patch, out, layer_name="mapping"), cfg["out"])
    _emit(json.dumps(dict(patch_count=u.patch_count, dim=u.dim, mode=cfg["mode"], seed=seed), sort_keys=True) + "\n")


def _load_scores(path: str, name: str):
    """Scores from a UTF-8 JSON file that ``losses._scores`` accepts, a nonempty flat list of finite,
    non-boolean numbers."""
    batch = _load_json(path, f"{name} score file")
    try:
        return _scores(batch, name)
    except InvalidArgumentError as exc:
        raise VsabenchError(f"{name} score file {path} does not hold a list of scores: {exc}") from exc


_SCORE_KEYS = ("scores_real", "scores_fake_translated", "scores_fake_mapped")


def cmd_loss(args) -> Iterator[None]:
    """cyclic / adversarial / total loss metrics as JSON"""
    cfg = _merged(args, lambda cfg: {} if any(cfg[key] is not None for key in _SCORE_KEYS)
                  else dict.fromkeys(("variant", "w1", "w2"), "without score batches"))
    scored = [cfg[key] is not None for key in _SCORE_KEYS]
    if any(scored) and not all(scored):
        raise UsageError("loss needs all three score batches or none")
    loss_cfg = LossConfig(**{f.name: cfg[f.name] for f in fields(LossConfig)})
    yield
    v_x = vsaf.read_hypervectors(cfg["x"])
    v_cycled = vsaf.read_hypervectors(cfg["cycled"])
    vsa = vsa_cyclic_loss(v_x, v_cycled)

    d_loss = g_loss = None
    if all(scored):
        batches = [_load_scores(cfg[key], key.removeprefix("scores_")) for key in _SCORE_KEYS]
        d_loss, g_loss = gan_loss(*batches, loss_cfg)
    total = total_loss(0.0 if g_loss is None else g_loss, vsa, loss_cfg)

    _emit(json.dumps({"vsa": vsa, "gan_d": d_loss, "gan_g": g_loss, "total": total, "config": {
        "lambda": loss_cfg.lam, "variant": loss_cfg.variant,
        "fake_term_weights": [loss_cfg.w1, loss_cfg.w2]}}, sort_keys=True) + "\n")


def _bench_unread(cfg: dict) -> dict:
    """The options a bench sweep never reads: those its axis sets on every
    point, and ``mix`` when no point's mapping is ``mixed``."""
    field, fixed = bench_mod.SWEEPS[cfg["axis"]]
    unread = dict.fromkeys((field, *fixed), f"under --axis {cfg['axis']}")
    mappings = cfg["grid"] if cfg["axis"] == "mapping_kind" else [cfg["mapping"]]
    if "mixed" not in mappings:
        unread.setdefault("mix", "without a mixed mapping")
    return unread


def cmd_bench(args) -> Iterator[None]:
    """run a recovery sweep and emit CSV"""
    cfg = _merged(args, _bench_unread)
    config = bench_mod.BenchConfig
    base = config(**{f.name: cfg[f.name] for f in fields(config)} | {"seed": _resolve_seed(cfg)})
    configs = bench_mod.sweep_configs(cfg["axis"], cfg["grid"], base)
    yield
    if cfg["out"] is not None:
        _check_out(cfg["out"])
    field, _ = bench_mod.SWEEPS[cfg["axis"]]
    _diagnose(f"bench axis={cfg['axis']} grid={[getattr(c, field) for c in configs]} base={base}")

    reports = bench_mod.run_sweep(cfg["axis"], cfg["grid"], base)
    csv_text = bench_mod.reports_to_csv(cfg["axis"], reports)
    if cfg["out"] is not None:
        _write(lambda out: Path(out).write_text(csv_text, encoding="utf-8", newline=""), cfg["out"])
    else:
        _emit(csv_text)


COMMANDS = {"encode": cmd_encode, "map": cmd_map, "loss": cmd_loss, "bench": cmd_bench}


def build_parser() -> _Parser:
    parser = _Parser(prog="vsabench", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command")
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__, allow_abbrev=False)
        for opt in (*OPTIONS[name], _CONFIG):
            p.add_argument(_FLAGS[opt.key], dest=opt.key, help=opt.help,
                           metavar="{%s}" % ",".join(opt.convert) if isinstance(opt.convert, _Choice) else None)
        p.set_defaults(func=func)
    return parser


def _joined(argv: list[str]) -> list[str]:
    """``argv`` with each value that starts with one ``-`` joined to its flag as ``--flag=value``, which
    argparse would read as a flag; ``-h`` and a ``--token`` stay flags, so a missing value stays a usage error."""
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in _FLAGS.values() and argv[i][:1] == "-" and argv[i][:2] != "--" and argv[i] != "-h":
            argv[i - 1 : i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    return argv


def main(argv=None) -> int:
    """Run one subcommand or -h's help; return its exit code: 1 for a usage fault, and for a package, OS or memory error
    3 if the command raised it before its ``yield`` (the rules stage), 2 after it (the files stage)."""
    code = EXIT_DATA  # while argv is parsed, the one such error is a -h help that cannot be written
    try:
        args = build_parser().parse_args(_joined(sys.argv[1:] if argv is None else list(argv)))
        if not getattr(args, "command", None):
            raise UsageError("a subcommand is required (encode, map, loss, bench)")
        stages = args.func(args)
        for code in (EXIT_CONFIG, EXIT_DATA):
            next(stages, None)
    except SystemExit:  # argparse ends -h by its exit once the help is written
        return EXIT_OK
    except UsageError as exc:
        _diagnose(f"usage error: {exc}")
        return EXIT_USAGE
    except (VsabenchError, OSError, MemoryError) as exc:
        _diagnose(f"{'data' if code == EXIT_DATA else 'config'} error: {exc}")
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
